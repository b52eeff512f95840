"""The benchmark's workloads: seeded algebras and the cychom jobs run on them.

A job is one `cychom` command line.  Its algebra is a catalog algebra
rewritten in a seeded basis (a permutation that keeps the unit first) and
passed to the command as an algebra JSON file, so the program receives
only the generated input.  Every answer checked by `checks` is
basis-independent, so every check holds on every seed.

Each job names the checks its output must pass:
  closed    - stabilized values equal the closed form of a separable
              algebra: dim A/[A,A] in even degrees, 0 in odd ones
              (only degrees <= 0 for HC^-poly);
  settle    - every degree carries a stabilized value;
  hc-form   - the exact HC table matches a closed form;
  connes    - Connes' exact sequence against HH of the normalized
              Hochschild complex, through degree `connes_top`;
  stages    - the shallowest tower stages equal GF(p) ranks of the
              materialized row truncations (the S-tower's stages are HC
              groups, checked on the first quadrant);
  gate      - every criterion of `cychom verify` passed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Jobs that are wrong on every run today, kept so that a fix shows: a
# certificate with persistence 3 settles after three steps even when the
# steps cover fewer rows than the 2p-row period of the char-p plane.
KEPT_FAILING = ("hp-poly.ground-field.F5", "hc-minus-poly.ground-field.F3")


def _slug(algebra: str) -> str:
    """A catalog name in the letters metric and file names allow."""
    return algebra.replace("(", "-").replace(")", "").replace(",", "_")


@dataclass(frozen=True)
class Job:
    command: str
    algebra: str
    base: str  # "F2", "F3", "F5" or "Q"
    args: tuple[str, ...] = ()
    checks: tuple[str, ...] = ()
    closed_even: int | None = None  # HC closed form in even degrees
    connes_top: int = -1

    @property
    def name(self) -> str:
        if not self.algebra:
            return self.command
        return f"{self.command}.{_slug(self.algebra)}.{self.base}"

    @property
    def p(self) -> int:
        return 0 if self.base == "Q" else int(self.base[1:])


def _rows(lo: int, hi: int, step: int = 1) -> str:
    return ",".join(str(q) for q in range(lo, hi + 1, step))


def _hp_poly(algebra, base, degrees, schedule=None, checks=("stages",)):
    args = ("--degrees", degrees)
    if schedule is not None:
        args += ("--q-schedule", schedule)
    return Job("hp-poly", algebra, base, args, checks)


SEPARABLE = ("closed", "settle")

WORKLOADS: dict[str, tuple[Job, ...]] = {
    "orbit-towers": (
        _hp_poly("matrix-algebra(2)", "F2", "-4..4", _rows(2, 20, 2), SEPARABLE),
        _hp_poly("matrix-algebra(2)", "F5", "0..1", _rows(4, 14, 2), SEPARABLE),
        _hp_poly("field-extension(1,0,1)", "F2", "-4..4", _rows(0, 16, 2), SEPARABLE),
        _hp_poly("group-algebra(3)", "F2", "-2..2", _rows(2, 14, 2), SEPARABLE),
        _hp_poly("dual-numbers", "F3", "0..3"),
        _hp_poly("group-algebra(3)", "F3", "-2..2", _rows(2, 12, 2)),
        _hp_poly("truncated-poly(3)", "F2", "-2..2", _rows(2, 12, 2)),
        _hp_poly("ground-field", "F5", "-2..2", _rows(4, 14, 2), ("closed",)),
    ),
    "chain-reduction": (
        Job("hc", "matrix-algebra(2)", "F3", ("--degrees", "0..7"),
            ("hc-form", "connes"), closed_even=1, connes_top=3),
        Job("hc", "truncated-poly(3)", "Q", ("--degrees", "0..10"),
            ("hc-form", "connes"), closed_even=3, connes_top=6),
        Job("hc", "group-algebra(3)", "Q", ("--degrees", "0..9"),
            ("hc-form", "connes"), closed_even=3, connes_top=6),
        Job("hp", "field-extension(1,0,1)", "F2", ("--degrees", "-2..4"), SEPARABLE),
        Job("hp", "truncated-poly(3)", "F2", ("--degrees", "-4..6"), ("stages",)),
        Job("hc-minus-poly", "field-extension(1,1)", "F2",
            ("--degrees", "-4..0", "--q-schedule", _rows(0, 10, 2)), ("closed", "stages")),
        Job("hc-minus-poly", "dual-numbers", "F3",
            ("--degrees", "-2..0", "--q-schedule", _rows(2, 10, 2)), ("stages",)),
        Job("hc-minus-poly", "matrix-algebra(2)", "F3",
            ("--degrees", "-2..0", "--q-schedule", _rows(2, 5)), ("closed", "stages")),
        Job("hc-minus-poly", "ground-field", "F3",
            ("--degrees", "-2..0", "--q-schedule", _rows(2, 10)), ("closed",)),
    ),
    "gate": (Job("verify", "", "", ("--suite", "all"), ("gate",)),),
}


# ---------------------------------------------------------------------------
# seeded inputs


@dataclass
class SeededAlgebra:
    """One catalog algebra in a seeded basis, as the CLI's JSON document."""

    algebra: str
    base: str
    permutation: list[int]
    doc: dict = field(repr=False)


def seeded_algebra(cychom, algebra: str, base: str, seed: int) -> SeededAlgebra:
    """catalog(algebra) rebased by a seed-chosen permutation fixing the unit."""
    ring = cychom.QQ if base == "Q" else cychom.GF(int(base[1:]))
    A = cychom.catalog(algebra, ring)
    rest = list(range(1, A.dim))
    random.Random(f"{seed}/{algebra}/{base}").shuffle(rest)
    perm = [0] + rest
    one = ring.one
    P = cychom.ExactMatrix(ring, A.dim, A.dim, {(perm[j], j): one for j in range(A.dim)})
    B = A.rebased(P)
    return SeededAlgebra(algebra, base, perm, cychom.algebra_to_json(B))


def build_inputs(cychom, workload: str, seed: int) -> dict[tuple[str, str], SeededAlgebra]:
    out = {}
    for job in WORKLOADS[workload]:
        if job.algebra and (job.algebra, job.base) not in out:
            out[(job.algebra, job.base)] = seeded_algebra(cychom, job.algebra, job.base, seed)
    return out


def write_inputs(inputs: dict, directory: Path) -> dict[tuple[str, str], Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for (algebra, base), sa in inputs.items():
        path = directory / f"{_slug(algebra)}.{base}.json"
        path.write_text(json.dumps(sa.doc))
        paths[(algebra, base)] = path
    return paths


def job_argv(job: Job, algebra_path: Path | None, out: Path) -> list[str]:
    argv = [job.command]
    if algebra_path is not None:
        argv += ["--algebra", str(algebra_path)]
    return argv + list(job.args) + ["--out", str(out)]
