"""The named verification suite behind `cychom verify` and the test gate.

Each criterion is one function returning a CriterionResult with a pass
flag, a one-line summary, and enough detail to reproduce a failure.  The
suite context memoizes the expensive tower tables so criteria that agree
on a configuration (the smooth-agreement tables feed the conjugate
bookkeeping, the deep matrix-algebra tower feeds both Morita and
conjugate checks) compute them once.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .algebra import CATALOG_NAMES, catalog
from .bicomplex import (
    _composite_rank,
    conjugate_dimension_check,
    hc,
    hh,
    hp_poly,
    hp_s_tower_table,
    row_truncated_total,
)
from .complexes import HomologyGroup
from .cyclic import cyclic_bar_module, cyclic_identity_multibase_report, normalized
from .matrix import ExactMatrix
from .rings import GF, QQ, ZZ
from .snf import det_bareiss, diagonal_of, smith_normal_form
from .tate import (
    construction_5_1_check,
    corollary_5_3_check,
    direct_sum_modules,
    named_module,
    norm_oracle,
    tate_complex,
)

F2, F3, F5 = GF(2), GF(3), GF(5)

# reference configurations, shared between criteria and echoed in reports
CHAR_P_SCHEDULE = tuple(range(12, 25, 2))
SMOOTH_SCHEDULE = tuple(range(0, 15, 2))
GROUND_SCHEDULE = tuple(range(10, 25, 2))
MATRIX_DEEP_SCHEDULE = (2, 3, 4, 5, 6, 8)
MATRIX_SHALLOW_SCHEDULE = (0, 2, 4, 6)


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    seconds: float
    summary: str
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        flag = "PASS" if self.ok else "FAIL"
        return f"[{flag}] {self.number:2d} {self.name}: {self.summary} ({self.seconds:.1f}s)"

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "ok": self.ok,
            "summary": self.summary,
            "details": self.details,
        }


class SuiteContext:
    """Memo for modules and tower tables reused across criteria.

    Both are small and live for the whole run: the towers read the
    orbit-reduced plane and the normalized (b, B) complex, and neither
    materializes the plane's operator matrices.
    """

    def __init__(self):
        self._modules = {}
        self._tables = {}

    def module(self, name: str, base):
        key = (name, base.label())
        if key not in self._modules:
            self._modules[key] = cyclic_bar_module(catalog(name, base))
        return self._modules[key]

    def hp_table(self, name, base, degrees, schedule, persistence=3):
        key = (name, base.label(), degrees, tuple(schedule), persistence)
        if key not in self._tables:
            self._tables[key] = hp_poly(
                self.module(name, base), degrees, list(schedule), persistence
            )
        return self._tables[key]


def _dims(table, lo, hi):
    return [table.dimension(d) for d in range(lo, hi + 1)]


def _catalog_over(base):
    # the extension algebras need an F_p base; everything else is generic
    for name in CATALOG_NAMES:
        if name.startswith("field-extension") and base.characteristic == 0:
            continue
        yield name


def _alternating(lo: int, hi: int, even_dim: int):
    return [even_dim if d % 2 == 0 else 0 for d in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# the sixteen criteria


def _exact_linear_algebra(ctx: SuiteContext) -> tuple[bool, str, dict]:
    rng = random.Random(90217)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        A = ExactMatrix(
            ZZ,
            n,
            m,
            {
                (i, j): v
                for i in range(n)
                for j in range(m)
                if (v := rng.randint(-9, 9)) != 0
            },
        )
        U, D, V = smith_normal_form(A)
        if U * A * V != D:
            return False, f"U A V != D for a {n}x{m} sample", {"sample": A.entries}
        if abs(det_bareiss(U)) != 1 or abs(det_bareiss(V)) != 1:
            return False, "transform matrix is not unimodular", {"sample": A.entries}
        diag = [d for d in diagonal_of(D) if d != 0]
        if any(d < 0 for d in diag):
            return False, "negative invariant factor", {"diag": diag}
        if any(diag[i + 1] % diag[i] for i in range(len(diag) - 1)):
            return False, "divisibility chain broken", {"diag": diag}
        checked += 1
    return True, f"{checked} random integer matrices factored exactly", {}


def _cyclic_identities(ctx: SuiteContext) -> tuple[bool, str, dict]:
    # one integer sweep settles Q exactly and, reduced mod p, the prime
    # fields at once; the extensions only exist over their prime fields
    sweeps = [(name, QQ, (2, 3, 5, None)) for name in CATALOG_NAMES
              if not name.startswith("field-extension")]
    sweeps += [("field-extension(1,1)", F2, (2,)), ("field-extension(2,0)", F3, (3,))]
    failures = {}
    for name, base, moduli in sweeps:
        bad = cyclic_identity_multibase_report(catalog(name, base), moduli, n_max=8)
        for m, probs in bad.items():
            if probs:
                failures[f"{name} mod {m}" if base is QQ else f"{name}/{base.label()}"] = probs[:3]
    ok = not failures
    msg = "all identities hold for every catalog algebra, n <= 8"
    return ok, msg if ok else "identity failures", {"failures": failures}


def _bicomplex_validation(ctx: SuiteContext) -> tuple[bool, str, dict]:
    # D^2 = 0 on rows q <= 3 holds exactly when the three plane identities
    # do there, and the band (-1, 2) meets both column parities in each row
    failures = {}
    planes = [(name, base) for base in (F3, QQ) for name in _catalog_over(base)]
    for name, base in planes:
        report = row_truncated_total(ctx.module(name, base), 3, (-1, 2)).validate()
        if not report.ok:
            failures[f"{name}/{base.label()}"] = report.problems[:3]
    if failures:
        return False, "plane identities fail", {"failures": failures}
    control = row_truncated_total(
        ctx.module("dual-numbers", F3), 3, (-1, 2), flip_bprime_sign=True
    ).validate()
    if control.ok:
        return False, "sign-flip control went unnoticed", {}
    return (
        True,
        f"{len(planes)} row-truncated planes validated; the flipped sign is rejected",
        {"control_problems": control.problems[:2]},
    )


def _hc0_oracle(ctx: SuiteContext) -> tuple[bool, str, dict]:
    rows = {}
    ok = True
    for base in (F3, QQ):
        for name in _catalog_over(base):
            A = catalog(name, base)
            got = hc(ctx.module(name, base), 0).dimension(0)
            want = A.commutator_quotient()
            rows[f"{name}/{base.label()}"] = (got, want)
            ok = ok and got == want
    msg = "dim HC_0 = dim A/[A,A] on the full catalog over F3 and Q"
    return ok, msg if ok else "HC_0 mismatch", {"rows": rows}


def _normalization_soundness(ctx: SuiteContext) -> tuple[bool, str, dict]:
    rows = {}
    ok = True
    for name, base in (
        ("dual-numbers", F2),
        ("dual-numbers", F3),
        ("field-extension(1,1)", F2),
    ):
        got = _dims(hh(ctx.module(name, base), (0, 5)), 0, 5)
        want = _dims(hh(normalized(catalog(name, base)), (0, 5)), 0, 5)
        rows[f"{name}/{base.label()}"] = {"raw": got, "normalized": want}
        ok = ok and got == want
    msg = "raw and normalized HH dimensions agree in degrees <= 5"
    return ok, msg if ok else "normalization mismatch", {"rows": rows}


def _rational_vanishing(ctx: SuiteContext) -> tuple[bool, str, dict]:
    table = ctx.hp_table("ground-field", QQ, (-4, 6), range(0, 25, 2))
    problems = []
    for d in range(-4, 7):
        rep = table.reports[d]
        if table.dimension(d) != 0:
            problems.append(f"degree {d}: stabilized value {table.dimension(d)}")
        qs = [q for q, _ in rep.stages]
        # every class visible at stage i must be dead 8 rows later
        for i, src in enumerate(qs):
            for dst in qs[i + 1:]:
                if dst - src >= 8 and _composite_rank(rep.bars.values(), src, dst):
                    problems.append(f"degree {d}: a class survives {src} -> {dst}")
    ok = not problems
    msg = "every truncation class dies within 8 rows; all limits are 0"
    return ok, msg if ok else "; ".join(problems[:3]), {"problems": problems}


def _completed_gap(ctx: SuiteContext) -> tuple[bool, str, dict]:
    poly = ctx.hp_table("ground-field", QQ, (-4, 6), range(0, 25, 2))
    tower = hp_s_tower_table(ctx.module("ground-field", QQ), (-4, 6))
    rows = {}
    ok = True
    for d in range(-4, 7):
        want_tower = 1 if d % 2 == 0 else 0
        rows[d] = (poly.dimension(d), tower.dimension(d))
        ok = ok and poly.dimension(d) == 0 and tower.dimension(d) == want_tower
    msg = "S-tower keeps a class in even degrees while the direct sum loses it"
    return ok, msg if ok else "gap pattern violated", {"poly_vs_tower": rows}


def _char_p_pattern(ctx: SuiteContext) -> tuple[bool, str, dict]:
    rows = {}
    ok = True
    for p in (2, 3, 5):
        table = ctx.hp_table("ground-field", GF(p), (-6, 10), CHAR_P_SCHEDULE)
        dims = _dims(table, -6, 10)
        rows[f"F{p}"] = dims
        ok = ok and dims == _alternating(-6, 10, 1)
        ok = ok and all(dims[i] == dims[i + 2] for i in range(len(dims) - 2))
        ok = ok and all(
            table.reports[d].q_star is not None and table.reports[d].q_star <= 24
            for d in range(-6, 11)
        )
    msg = "dim 1 evens / 0 odds with 2-periodicity for p in {2, 3, 5}"
    return ok, msg if ok else "pattern violated", {"dims": rows}


def _smooth_agreement(ctx: SuiteContext) -> tuple[bool, str, dict]:
    rows = {}
    ok = True
    for name, base in (("field-extension(1,1)", F2), ("field-extension(2,0)", F3)):
        poly = ctx.hp_table(name, base, (-6, 8), SMOOTH_SCHEDULE)
        tower = hp_s_tower_table(ctx.module(name, base), (-6, 8))
        p_dims = _dims(poly, -6, 8)
        t_dims = _dims(tower, -6, 8)
        rows[f"{name}/{base.label()}"] = {"poly": p_dims, "tower": t_dims}
        ok = ok and p_dims == t_dims == _alternating(-6, 8, 2)
    msg = "truncation colimit and S-tower agree (2 evens / 0 odds)"
    return ok, msg if ok else "routes disagree", {"dims": rows}


def _morita(ctx: SuiteContext) -> tuple[bool, str, dict]:
    hc_matrix = _dims(hc(ctx.module("matrix-algebra(2)", F3), 6), 0, 6)
    hc_ground = _dims(hc(ctx.module("ground-field", F3), 6), 0, 6)
    ground = ctx.hp_table("ground-field", F3, (0, 6), GROUND_SCHEDULE)
    deep = ctx.hp_table("matrix-algebra(2)", F3, (0, 1), MATRIX_DEEP_SCHEDULE)
    shallow = ctx.hp_table("matrix-algebra(2)", F3, (0, 6), MATRIX_SHALLOW_SCHEDULE)
    problems = []
    if hc_matrix != hc_ground:
        problems.append(f"HC rows differ: {hc_matrix} vs {hc_ground}")
    if any(ground.dimension(d) is None for d in range(7)):
        problems.append("ground-field tower failed to stabilize below degree 7")
    stabilized = {}
    for table in (deep, shallow):
        for d, g in table.groups.items():
            if g is not None and 0 <= d <= 6:
                stabilized[d] = g.dimension
    if not stabilized:
        problems.append("no matrix-algebra degree stabilized; nothing to compare")
    for d, dim in sorted(stabilized.items()):
        if dim != ground.dimension(d):
            problems.append(
                f"degree {d}: matrix algebra gives {dim}, ground field "
                f"{ground.dimension(d)}"
            )
    ok = not problems
    msg = (
        f"HC agrees in degrees 0..6; towers agree in stabilized degrees "
        f"{sorted(stabilized)}"
    )
    details = {
        "hc": hc_matrix,
        "stabilized": stabilized,
        "problems": problems,
        "shallow_verdicts": {d: shallow.reports[d].verdict for d in range(7)},
    }
    return ok, msg if ok else "; ".join(problems[:3]), details


def _conjugate_filtration(ctx: SuiteContext) -> tuple[bool, str, dict]:
    rows = {}
    ok = True

    def record(label, report):
        nonlocal ok
        rows[label] = {
            "ok": report.ok,
            "rows": [list(r) for r in report.rows],
            "hh_bound": report.hh_bound,
        }
        ok = ok and report.ok

    for p in (2, 3, 5):
        A = catalog("ground-field", GF(p))
        record(f"F{p}", conjugate_dimension_check(A, (0, 3), range(8, 21, 2)))
    for name, base in (("field-extension(1,1)", F2), ("field-extension(2,0)", F3)):
        A = catalog(name, base)
        table = ctx.hp_table(name, base, (-6, 8), SMOOTH_SCHEDULE)
        record(f"{name}/{base.label()}", conjugate_dimension_check(A, (-6, 8), hp_table=table))
    A = catalog("matrix-algebra(2)", F3)
    table = ctx.hp_table("matrix-algebra(2)", F3, (0, 1), MATRIX_DEEP_SCHEDULE)
    record("matrix-algebra(2)/F3", conjugate_dimension_check(A, (0, 1), hp_table=table))
    msg = "observed equality everywhere the comparison applies"
    return ok, msg if ok else "conjugate bookkeeping violated", rows


def _tate_suite(ctx: SuiteContext) -> tuple[bool, str, dict]:
    problems = []
    tables = {}
    for n in (2, 3, 4, 6):
        T = tate_complex(named_module("trivial-Z", n), (-7, 7))
        tables[n] = {str(d): T.homology(d).label() for d in range(-6, 7)}
        for d in range(-6, 7):
            want = HomologyGroup(ZZ, 0, (n,)) if d % 2 == 0 else HomologyGroup(ZZ, 0)
            if T.homology(d) != want:
                problems.append(f"trivial-Z order {n} degree {d}")
    for n in range(2, 9):
        for kind in ("trivial-Z", "trivial-Zn", "free"):
            M = named_module(kind, n)
            T = tate_complex(M, (-2, 1))
            h0, hm1 = norm_oracle(M)
            if T.homology(0) != h0 or T.homology(-1) != hm1:
                problems.append(f"oracle disagrees for {kind} order {n}")
    for n in (2, 3, 4, 6):
        M = named_module("trivial-Z", n)
        plain = tate_complex(M, (-4, 4)).table()
        MC = direct_sum_modules(M, named_module("contractible", n))
        padded = tate_complex(MC, (-4, 4)).table()
        if {d: H.label() for d, H in plain.items()} != {
            d: H.label() for d, H in padded.items()
        }:
            problems.append(f"contractible summand moved homology, order {n}")
        F = tate_complex(named_module("free", n), (-4, 4))
        if any(not F.homology(d).is_zero() for d in range(-3, 4)):
            problems.append(f"free module not Tate-acyclic, order {n}")
    ok = not problems
    msg = "Z/n evens, 0 odds; oracle, acyclicity and invariance all hold"
    return ok, msg if ok else "; ".join(problems[:3]), {"tables": tables, "problems": problems}


def _construction_5_1(ctx: SuiteContext) -> tuple[bool, str, dict]:
    reports = {n: construction_5_1_check(n) for n in (1, 2, 3, 6)}
    ok = all(r.ok for r in reports.values())
    msg = "surjection, kernel lattice and induced operators check out for n in {1,2,3,6}"
    details = {str(n): r.to_json() for n, r in reports.items()}
    return ok, msg if ok else "construction check failed", details


def _corollary_5_3(ctx: SuiteContext) -> tuple[bool, str, dict]:
    reports = {n: corollary_5_3_check(n, (-4, 4)) for n in (2, 3, 4)}
    ok = all(r.ok for r in reports.values())
    msg = "graded groups agree degreewise on [-4, 4] for n in {2, 3, 4}"
    details = {str(n): r.to_json() for n, r in reports.items()}
    return ok, msg if ok else "comparison failed", details


def _honest_non_stabilization(ctx: SuiteContext) -> tuple[bool, str, dict]:
    table = ctx.hp_table("dual-numbers", F3, (0, 0), range(4, 13, 2))
    rep = table.reports[0]
    verdict_known = rep.verdict in (
        "stabilized",
        "stabilized-persistent",
        "not-stabilized",
    )
    value_reported = rep.verdict == "not-stabilized" or table.groups[0] is not None
    stages = [(q, g.dimension) for q, g in rep.stages]
    ok = verdict_known and value_reported and len(stages) == 5
    msg = f"verdict {rep.label()!r} with {len(stages)} recorded stages"
    return ok, msg, {"stages": stages, "verdict": rep.verdict, "value_kind": rep.value_kind}


def _determinism(ctx: SuiteContext) -> tuple[bool, str, dict]:
    def char_p_json():
        out = {}
        for p in (2, 3, 5):
            X = cyclic_bar_module(catalog("ground-field", GF(p)))
            out[f"F{p}"] = hp_poly(X, (-6, 10), list(CHAR_P_SCHEDULE)).to_json()
        return json.dumps(out, sort_keys=True).encode()

    def tate_json():
        out = {}
        for n in (2, 3, 4, 6):
            T = tate_complex(named_module("trivial-Z", n), (-7, 7))
            out[str(n)] = {str(d): T.homology(d).to_json() for d in T.interior()}
        return json.dumps(out, sort_keys=True).encode()

    a1, a2 = char_p_json(), char_p_json()
    b1, b2 = tate_json(), tate_json()
    ok = a1 == a2 and b1 == b2
    msg = "repeated char-p and Tate tables are byte-identical"
    return ok, msg if ok else "nondeterministic output", {
        "char_p_bytes": len(a1),
        "tate_bytes": len(b1),
    }


CRITERIA = (
    (1, "exact-linear-algebra", _exact_linear_algebra),
    (2, "cyclic-identities", _cyclic_identities),
    (3, "bicomplex-validation", _bicomplex_validation),
    (4, "hc0-oracle", _hc0_oracle),
    (5, "normalization-soundness", _normalization_soundness),
    (6, "rational-vanishing", _rational_vanishing),
    (7, "completed-decompleted-gap", _completed_gap),
    (8, "char-p-pattern", _char_p_pattern),
    (9, "smooth-agreement", _smooth_agreement),
    (10, "morita", _morita),
    (11, "conjugate-filtration", _conjugate_filtration),
    (12, "tate-suite", _tate_suite),
    (13, "construction-5-1", _construction_5_1),
    (14, "corollary-5-3", _corollary_5_3),
    (15, "honest-non-stabilization", _honest_non_stabilization),
    (16, "determinism", _determinism),
)

CRITERION_NAMES = tuple(name for _, name, _ in CRITERIA)


def run_criterion(number: int, name: str, fn, ctx: SuiteContext) -> CriterionResult:
    t0 = time.perf_counter()
    ok, summary, details = fn(ctx)
    return CriterionResult(number, name, ok, time.perf_counter() - t0, summary, details)


def run_suite(selection=None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), in numeric order, sharing one context."""
    if selection is None:
        chosen = list(CRITERIA)
    else:
        wanted = list(selection)
        unknown = [n for n in wanted if n not in CRITERION_NAMES]
        if unknown:
            raise ValueError(f"unknown criteria: {', '.join(sorted(unknown))}")
        chosen = [c for c in CRITERIA if c[1] in wanted]
    ctx = SuiteContext()
    return [run_criterion(number, name, fn, ctx) for number, name, fn in chosen]
