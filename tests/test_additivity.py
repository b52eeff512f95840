"""Metamorphic tests: HH, HC and the S-tower are additive on products of algebras.

HH(A x B) = HH(A) + HH(B), and HC and the periodicity S split the same
way (Loday, Cyclic Homology, 1.2 and 4.2), so a pair of catalog
algebras is a check that needs no reference values.  The S-tower case
reads every rank of S as a count of survivors on the product's one
reduction.
"""

import re

from hypothesis import given, settings, strategies as st

from cychom.algebra import AlgebraError, catalog
from cychom.bicomplex import hc, hh, hp_s_tower_table
from cychom.cyclic import cyclic_bar_module, normalized
from cychom.rings import GF, QQ
from algebra_constructors import product

BASES = (GF(2), GF(3), QQ)
SMALL = ("ground-field", "dual-numbers", "group-algebra(2)", "field-extension(1,1)",
         "truncated-poly(3)", "group-algebra(3)")
# top degree by the product's dimension
TOP = {2: 7, 3: 5, 4: 4}


def _factor_pairs():
    """Pairs of small catalog algebras over one base, at most 4 basis elements together."""
    out = []
    for base in BASES:
        for left in SMALL:
            for right in SMALL:
                try:
                    A, B = catalog(left, base), catalog(right, base)
                except AlgebraError:  # the field extensions are not fields over every base
                    continue
                if A.dim + B.dim <= 4:
                    out.append((A, B))
    return out


PAIRS = _factor_pairs()


def _dims(table, degrees):
    return [table.dimension(d) for d in degrees]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PAIRS), st.booleans())
def test_hh_is_additive_on_products(pair, raw):
    A, B = pair
    build = cyclic_bar_module if raw else normalized
    top = TOP[A.dim + B.dim] - (1 if raw else 0)
    degrees = range(top + 1)
    whole, left, right = (_dims(hh(build(X), (0, top)), degrees) for X in (product(A, B), A, B))
    assert whole == [a + b for a, b in zip(left, right)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PAIRS))
def test_hc_is_additive_on_products(pair):
    A, B = pair
    top = TOP[A.dim + B.dim]
    degrees = range(top + 1)
    whole, left, right = (
        _dims(hc(cyclic_bar_module(X), top), degrees) for X in (product(A, B), A, B)
    )
    assert whole == [a + b for a, b in zip(left, right)]


def _deaths(report) -> dict[int, int]:
    """Classes that die along S, by source degree, from a report's `dying` lines."""
    out = {}
    for line in report.dying:
        count, n = re.fullmatch(r"(\d+) class\(es\) die along S: HC_(\d+) -> HC_\d+", line).groups()
        out[int(n)] = int(count)
    return out


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PAIRS))
def test_s_tower_is_additive_on_products(pair):
    # every stage group and every rank of S add, so the product's tower
    # settles exactly when both factors' do, on the sum of their values
    A, B = pair
    tables = [
        hp_s_tower_table(cyclic_bar_module(X), (0, 1), persistence=2)
        for X in (product(A, B), A, B)
    ]
    for d in (0, 1):
        whole, left, right = (table.reports[d] for table in tables)
        assert [g.dimension for _, g in whole.stages] == [
            g.dimension + h.dimension for (_, g), (_, h) in zip(left.stages, right.stages)
        ]
        deaths = _deaths(left)
        for n, count in _deaths(right).items():
            deaths[n] = deaths.get(n, 0) + count
        assert _deaths(whole) == deaths
        values = [table.dimension(d) for table in tables]
        if None in values[1:]:
            assert values[0] is None
        else:
            assert values[0] == values[1] + values[2]
