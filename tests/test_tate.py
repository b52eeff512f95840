import pytest

from cychom import tate
from cychom.complexes import HomologyGroup
from cychom.linalg import integer_solve
from cychom.matrix import ExactMatrix
from cychom.rings import ZZ, GF, QQ
from cychom.tate import (
    GModuleComplex,
    TateError,
    construction_5_1_check,
    corollary_5_3_check,
    direct_sum_modules,
    named_module,
    norm_oracle,
    tate_complex,
)
from presentation_homology import PresentedChainComplex
from tate_oracle import complete_resolution_cyclic, direct_tate_complex


def tate_table(kind, n, window=(-4, 4), base=ZZ):
    return tate_complex(named_module(kind, n, base), window).table()


def mod_k_group_ring(n, k):
    """Z/k tensor Z[C_n], resolved as Z[C_n] --k--> Z[C_n]."""
    sigma = named_module("free", n).sigma(0)
    times_k = ExactMatrix(ZZ, n, n, {(j, j): k for j in range(n)})
    return GModuleComplex(ZZ, n, {0: n, 1: n}, {0: sigma, 1: sigma}, diffs={1: times_k})


# -- the standard resolution -----------------------------------------------------


def test_resolution_validates_for_small_orders():
    for n in (1, 2, 3, 4, 6):
        P = complete_resolution_cyclic(ZZ, n)
        assert P.validate(width=5) == []


def test_resolution_differentials_alternate():
    P = complete_resolution_cyclic(ZZ, 3)
    sm1 = P.differential(0)
    N = P.differential(1)
    assert sm1 == P.differential(2) == P.differential(-2)
    assert N == P.differential(-1) == P.differential(3)
    assert (sm1 * N).is_zero() and (N * sm1).is_zero()
    # augmentation hits the invariant line inside ker d_0
    assert (sm1 * P.augmentation()).is_zero()


def test_resolution_window_is_acyclic_inside():
    P = complete_resolution_cyclic(ZZ, 4)
    C = P.window(-3, 3)
    assert C.validate().ok
    for d in range(-2, 3):
        assert C.homology(d).is_zero()


def test_resolution_rejects_bad_order():
    with pytest.raises(TateError):
        complete_resolution_cyclic(ZZ, 0)


# -- module fixtures --------------------------------------------------------------


def test_named_modules_validate():
    for kind in ("trivial-Z", "trivial-Zn", "free", "two-term", "contractible"):
        M = named_module(kind, 4)
        assert M.validate() == [], kind


def test_named_module_rejects_unknown_kind():
    with pytest.raises(TateError):
        named_module("projective", 3)


def test_mod_n_module_is_a_resolution_over_z_only():
    M = named_module("trivial-Zn", 5)
    assert M.degrees == [0, 1]
    assert M.diff(1) == ExactMatrix(ZZ, 1, 1, {(0, 0): 5})
    for base in (QQ, GF(3)):
        with pytest.raises(TateError, match="module over Z"):
            named_module("trivial-Zn", 4, base)


def test_module_validation_catches_broken_action():
    # sigma of order 3 declared over a group of order 2
    sigma = ExactMatrix(ZZ, 3, 3, {(0, 2): 1, (1, 0): 1, (2, 1): 1})
    M = GModuleComplex(ZZ, 2, {0: 3}, {0: sigma})
    assert any("order" in p for p in M.validate())


def test_module_validation_catches_nonequivariant_differential():
    sigma = ExactMatrix(ZZ, 2, 2, {(0, 1): 1, (1, 0): 1})
    d = ExactMatrix(ZZ, 2, 2, {(0, 0): 1})  # does not commute with the swap
    M = GModuleComplex(ZZ, 2, {0: 2, 1: 2}, {0: sigma, 1: sigma}, diffs={1: d})
    assert any("equivariant" in p for p in M.validate())


def test_norm_matrix_sums_the_powers():
    M = named_module("free", 4)
    N = M.norm(0)
    sigma = M.sigma(0)
    total = ExactMatrix.identity(ZZ, 4)
    acc = ExactMatrix.identity(ZZ, 4)
    for _ in range(3):
        acc = sigma * acc
        total = total + acc
    assert N == total


# -- Tate cohomology tables --------------------------------------------------------


def test_trivial_module_tables():
    for n in (2, 3, 4, 6):
        table = tate_table("trivial-Z", n, (-5, 5))
        for d, H in table.items():
            if d % 2 == 0:
                assert H == HomologyGroup(ZZ, 0, (n,)), (n, d)
            else:
                assert H.is_zero(), (n, d)


def test_mod_n_trivial_module_table():
    # Z/4 with trivial C_4-action: both parities keep a Z/4
    table = tate_table("trivial-Zn", 4, (-3, 3))
    for H in table.values():
        assert H == HomologyGroup(ZZ, 0, (4,))


def test_free_modules_are_tate_acyclic():
    for n in (2, 3, 5):
        for H in tate_table("free", n, (-3, 3)).values():
            assert H.is_zero(), n


def test_two_term_cone_is_tate_acyclic():
    # the cone of sigma - 1 on a free module: both ends acyclic
    for H in tate_table("two-term", 3, (-3, 3)).values():
        assert H.is_zero()


def test_contractible_summand_does_not_change_homology():
    n = 4
    for kind in ("trivial-Z", "trivial-Zn"):
        M = named_module(kind, n)
        MC = direct_sum_modules(M, named_module("contractible", n))
        a = tate_complex(M, (-4, 4)).table()
        b = tate_complex(MC, (-4, 4)).table()
        assert {d: H.label() for d, H in a.items()} == {
            d: H.label() for d, H in b.items()
        }, kind


def test_homology_is_2_periodic():
    T = tate_complex(named_module("trivial-Z", 6), (-5, 5))
    for d in range(-4, 3):
        assert T.homology(d) == T.homology(d + 2)


def test_basis_change_does_not_change_homology():
    # conjugating the module data by a unimodular matrix must not move
    # any invariant factor
    n = 3
    U = ExactMatrix(ZZ, n, n, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 2})
    Uinv = ExactMatrix(ZZ, n, n, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): -2})
    assert U * Uinv == ExactMatrix.identity(ZZ, n)
    M = named_module("free", n)
    sigma = U * M.sigma(0) * Uinv
    M2 = GModuleComplex(ZZ, n, {0: n}, {0: sigma})
    assert M2.validate() == []
    a = tate_complex(M, (-3, 3)).table()
    b = tate_complex(M2, (-3, 3)).table()
    assert {d: H.label() for d, H in a.items()} == {d: H.label() for d, H in b.items()}


def test_field_coefficients():
    # over F_2 with trivial C_2-action every degree keeps one dimension
    table = tate_table("trivial-Z", 2, (-3, 3), base=GF(2))
    for H in table.values():
        assert H.dimension == 1


# -- guards ------------------------------------------------------------------------


def test_edge_degrees_are_refused():
    T = tate_complex(named_module("trivial-Z", 2), (-2, 2))
    assert list(T.interior()) == [-1, 0, 1]
    for d in (-2, 2, 5):
        with pytest.raises(TateError):
            T.homology(d)


def test_table_ranks_each_differential_once(monkeypatch):
    # the differential depends on the degree only through its parity, so a
    # table reads two groups from two factorizations
    from cychom import complexes

    calls = {"rank": 0, "invariant_factors": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(complexes, name, counted(name, getattr(complexes, name)))
    for base in (GF(3), ZZ):
        calls.update(rank=0, invariant_factors=0)
        table = tate_complex(named_module("two-term", 5, base), (-6, 6)).table()
        assert len(table) == 11
        assert sum(calls.values()) == 2, (base.label(), calls)


def test_window_and_order_guards():
    # the module carries the group order, so an order below 1 is refused
    # when the module is built
    M = named_module("trivial-Z", 2)
    with pytest.raises(TateError):
        tate_complex(M, (0, 1))
    with pytest.raises(TateError):
        named_module("trivial-Z", 0)


def test_norm_oracle_needs_single_degree():
    # a module in one degree or a resolution of one: not the sigma - 1
    # cone, not Z --1--> Z --0--> Z across three degrees, not Z and Z in
    # degrees 0 and 2
    one = ExactMatrix.identity(ZZ, 1)
    three = GModuleComplex(
        ZZ, 3, {0: 1, 1: 1, 2: 1}, {0: one, 1: one, 2: one}, diffs={2: one}
    )
    assert three.validate() == []
    gapped = GModuleComplex(ZZ, 3, {0: 1, 2: 1}, {0: one, 2: one})
    for M in (named_module("two-term", 3), three, gapped):
        with pytest.raises(TateError):
            norm_oracle(M)


def test_norm_oracle_refuses_nonequivariant_resolution():
    swap = ExactMatrix(ZZ, 2, 2, {(0, 1): 1, (1, 0): 1})
    d = ExactMatrix(ZZ, 2, 2, {(0, 0): 1, (1, 1): 2})
    M = GModuleComplex(ZZ, 2, {0: 2, 1: 2}, {0: swap, 1: swap}, diffs={1: d})
    with pytest.raises(TateError, match="equivariant"):
        norm_oracle(M)


# -- the norm oracle against the untwisted route -----------------------------------


def test_norm_oracle_matches_tate_complex():
    # on the mod-k group rings sigma - 1 and N are both nonzero, so the
    # oracle's Koszul signs matter
    for n in (2, 3, 4, 5, 6):
        kinds = ("trivial-Z", "trivial-Zn", "free", "contractible")
        modules = {kind: named_module(kind, n) for kind in kinds}
        modules.update({f"mod-{k}-group-ring": mod_k_group_ring(n, k) for k in (2, 3)})
        for kind, M in modules.items():
            T = tate_complex(M, (-3, 2))
            h0, hm1 = norm_oracle(M)
            assert T.homology(0) == h0, (kind, n)
            assert T.homology(-1) == hm1, (kind, n)


def test_norm_oracle_classical_values():
    h0, hm1 = norm_oracle(named_module("trivial-Z", 5))
    assert h0 == HomologyGroup(ZZ, 0, (5,))
    assert hm1.is_zero()
    h0, hm1 = norm_oracle(named_module("free", 7))
    assert h0.is_zero() and hm1.is_zero()
    h0, hm1 = norm_oracle(named_module("trivial-Zn", 6))
    assert h0 == HomologyGroup(ZZ, 0, (6,))
    assert hm1 == HomologyGroup(ZZ, 0, (6,))
    # Z[C_n] --1--> Z[C_n] resolves 0
    h0, hm1 = norm_oracle(named_module("contractible", 4))
    assert h0.is_zero() and hm1.is_zero()


# -- the untwisted complex against the direct invariants of Tot(M tensor P) ---------


def test_untwisted_complex_matches_direct_invariants():
    # the direct route builds the resolution and takes the invariants of
    # each M_i tensor P_j as a kernel, with no untwisting; d d = 0 is
    # checked apart from the groups, which are read off ranks and
    # invariant factors and so do not show a lost Koszul sign
    kinds = ("trivial-Z", "trivial-Zn", "free", "two-term", "contractible")
    window = (-3, 3)
    for base in (ZZ, GF(3)):
        for n in range(1, 7):
            P = complete_resolution_cyclic(base, n)
            for kind in kinds:
                if kind == "trivial-Zn" and base != ZZ:
                    continue
                M = named_module(kind, n, base)
                for module in (M, direct_sum_modules(M, named_module("trivial-Z", n, base))):
                    T = tate_complex(module, window)
                    direct = direct_tate_complex(module, P, window)
                    assert T.validate() == [], (kind, n, base.label())
                    assert direct.validate().ok, (kind, n, base.label())
                    for d in T.interior():
                        assert T.homology(d) == direct.homology(d), (kind, n, base.label(), d)


# -- free resolutions against the presented route they replace ---------------------


def presented_table(cover, k, window):
    """Tate table of cover / k * cover, read as a presented complex.

    The cover's Tate differentials with a k * identity relation block in
    every degree, read through relation lifts: a route to the quotient's
    homology independent of its free resolution.
    """
    T = tate_complex(cover, window)
    lo, hi = window
    r = T.diffs[0].ncols
    ranks = {d: r for d in range(lo, hi + 1)}
    diffs = {d: T.diffs[d % 2] for d in range(lo + 1, hi + 1)}
    rel = ExactMatrix(ZZ, r, r, {(j, j): k for j in range(r)})
    presented = PresentedChainComplex(ranks, diffs, {d: rel for d in ranks})
    return {d: presented.homology(d) for d in T.interior()}


def test_mod_n_resolution_matches_presented_route():
    for n in range(1, 9):
        for window in ((-3, 3), (-7, 7)):
            free = tate_table("trivial-Zn", n, window)
            assert free == presented_table(named_module("trivial-Z", n), n, window), (n, window)


def test_mod_k_group_ring_resolution_matches_presented_route():
    for k in (2, 3):
        for n in range(2, 7):
            M = mod_k_group_ring(n, k)
            assert M.validate() == []
            T = tate_complex(M, (-3, 3))
            assert T.table() == presented_table(named_module("free", n), k, (-3, 3)), (k, n)


# -- the two comparison checks ------------------------------------------------------


def test_construction_check_passes_for_small_orders():
    for n in range(1, 13):
        report = construction_5_1_check(n)
        assert report.ok, (n, report.problems)
        assert report.details == {
            "order": n,
            "kernel_generators": {"0": n, "-1": 1},
            "kernel_is_whole_source": n == 1,
        }


def test_construction_check_rejects_bad_order():
    for n in (0, -1, -6):
        report = construction_5_1_check(n)
        assert not report.ok
        assert report.problems == [f"invalid order {n}"]
        assert report.details == {}


def _wrong_solution(K, B):
    return integer_solve(K, B).scale(2)


def _no_solution(K, B):
    raise ValueError("no integral solution")


@pytest.mark.parametrize(
    "name, fault, lines",
    [
        ("invariant_factors", lambda A: [2], ["not surjective in degree 0"]),
        ("integer_kernel_basis", lambda A: ExactMatrix(ZZ, 2, 1, {(0, 0): 12, (1, 0): 2}),
         ["kernel in degree 0 is not the lattice 6Z"]),
        ("integer_solve", _wrong_solution, ["induced B on the kernel is {(0, 0): 2}, not 1"]),
        ("integer_solve", _no_solution,
         ["does not intertwine B at degree -1", "induced B on the kernel is not integral, not 1"]),
    ],
    ids=["factors", "kernel", "solve-wrong", "solve-none"],
)
def test_construction_check_catches_planted_faults(monkeypatch, name, fault, lines):
    # each check reads the exact linear algebra, so a wrong answer there
    # shows up as that check's problem line
    monkeypatch.setattr(tate, name, fault)
    report = construction_5_1_check(6)
    assert not report.ok
    assert report.problems == lines


def test_corollary_check_passes_and_reports_tables():
    for n in (2, 3, 4):
        report = corollary_5_3_check(n)
        assert report.ok, (n, report.problems)
        assert report.details["lhs"] == report.details["rhs"]
        assert set(report.details["lhs"]) == set(range(-4, 5))


def test_corollary_check_rejects_order_one():
    assert not corollary_5_3_check(1).ok


def test_check_reports_serialize():
    doc = construction_5_1_check(3).to_json()
    assert doc["check"] == "construction-5-1"
    assert doc["ok"] is True
    assert doc["problems"] == []
