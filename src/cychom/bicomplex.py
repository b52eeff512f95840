"""The 2-periodic cyclic double complex and the theories read off from it.

Layout conventions, fixed here and relied on everywhere below:
  entry(p, q) = X_q sits in total degree p + q; columns are indexed by p.
  The horizontal differential lowers p: out of even columns it is the norm
  N_q, out of odd columns 1 - t_q.  The vertical differential lowers q:
  b on even columns, -b' on odd ones.  The three square-zero and
  anticommutation identities tie these choices together; build_window
  checks them and a deliberately wrong sign is caught as a failing square.

Three column regions of the plane carry the theories:
  "plane" (all p)  - direct-sum totalization, the 2-periodic theory;
  "left"  (p <= 0) - its negative-cyclic part;
  "first" (p >= 0) - the first-quadrant quotient, which is classical HC.

A direct-sum total complex has, in each total degree, one summand per row
q, so truncating to rows q <= q_max gives a subcomplex with finitely many
summands per degree, and the full theory is the colimit of these along
the evident inclusions.  There is no a priori bound where the colimit
settles; towers therefore carry explicit verdicts (stabilized at some
truncation with a persistence horizon, or not stabilized within the
schedule) instead of silently picking a cutoff.

Each theory is read off the smallest complex known to carry it:
  hp_poly       - the orbit-reduced plane of `orbits`: every row retracts
                  onto the Tate cohomology of its C_{q+1}-orbits, and the
                  perturbation lemma leaves a few cells per row whose row
                  truncations are exactly the tower stages;
  hc_minus_poly - the orbit-reduced "left" region: the same cells in
                  columns <= -1, and at column 0 the edge cells, a basis
                  of ker N per orbit, where the zig-zags are cut;
  hc, sbi_S_map, hp_via_S_tower, hp_s_tower_table
                - Tot(b-bar + B-bar) of the normalized mixed complex,
                  which has the first quadrant's HC and S (Loday 2.1.8).
                  Its direct-sum totalization is not the plane's: over Q
                  the ground field gets k in every even degree from it and
                  0 from the plane, so it never stands in for hp_poly.
Only the edge rows, the rows d <= top degree + 1 that meet column 0, are
still enumerated tuple by tuple: their edge cells are a basis of ker N,
and their boundary takes b's Coo.  The materialized regions
(row_truncated_total, _TotalStage) run no theory; they are the
references the reduced routes are tested against.

Every stage is a finite complex handed to the left-looking engine of
`reduction` as per-degree CSC arrays: on the orbit routes from the
zig-zag boundaries, on the others assembled in numpy from operator Coo
placed at the offsets of a degree's summands.  Over a field the engine
cancels everything cancellable, so surviving cells count homology.

A truncation tower is one filtered complex, so its stages are views of
one reduction.  Each schedule step hands the engine only the cells of
the new rows, as a block, and the sweep reduces only them; since a
row-q cell's boundary lands on rows <= q, the engine logs what a
reduction of the whole truncation would.  A stage keeps its q_max and a
per-degree snapshot of the surviving cells.  The tower map of a step is
the projection (transport_down) of the earlier stage's survivors into
the later one: the lift a separate reduction would need adds only upper
cells, which the projection drops.  The S-map still lifts (transport_up),
because S moves upper cells onto cells that survive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexes import ChainComplex, ComplexReport, HomologyGroup
from .cyclic import Coo, CyclicModule, NormalizedBarModule, normalized
from .linalg import rank
from .matrix import ExactMatrix
from .orbits import OrbitPlane
from .reduction import MorseReduction, csc_from_columns, homology_via_reduction
from .rings import BaseRing


class WindowError(ValueError):
    """A constructed window violates one of the three plane identities."""


_REGIONS = ("plane", "left", "first")


def _check_region(region: str) -> None:
    if region not in _REGIONS:
        raise ValueError(f"unknown region {region!r}; expected one of {_REGIONS}")


# ---------------------------------------------------------------------------
# operators, cached per cyclic module, and block operators in CSC form

class _PlaneOperators:
    """The four plane operators of every row as Coo, memoized per row.

    Every stage of one materialized tower shares these, so each operator
    is assembled once per q.  Kinds: "b", "-b'" (b' with the sign it has
    on odd columns), "N" and "1-t".
    """

    def __init__(self, X: CyclicModule):
        self.X = X
        self.ring = X.base
        self._memo: dict[tuple[str, int], Coo] = {}

    def rank(self, q: int) -> int:
        return self.X.rank(q)

    def coo(self, kind: str, q: int) -> Coo:
        key = (kind, q)
        hit = self._memo.get(key)
        if hit is None:
            ops = self.X._ops
            if kind == "b":
                hit = ops.faces(ops.raw, q, {i: (-1) ** i for i in range(q + 1)})
            elif kind == "-b'":
                hit = ops.faces(ops.raw, q, {i: -((-1) ** i) for i in range(q)})
            elif kind == "N":
                hit = ops.rotations(ops.raw, q, {i: (-1) ** (q * i) for i in range(q + 1)}, False)
            elif kind == "1-t":
                hit = ops.rotations(ops.raw, q, {0: 1, 1: -((-1) ** q)}, False)
            else:  # pragma: no cover - internal kinds only
                raise ValueError(kind)
            self._memo[key] = hit
        return hit


def _csc(ncols: int, pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC arrays of a block operator with ncols columns.

    pieces lists (row offset, column offset, Coo); blocks that share a
    column must not share a row.  Values are int64, or Fractions in an
    object array where some block has a denominator.
    """
    pieces = [(r, k, c) for r, k, c in pieces if len(c.vals)]
    if not pieces:
        return np.zeros(ncols + 1, dtype=np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    rows = np.concatenate([c.rows + r for r, _, c in pieces])
    cols = np.concatenate([c.cols + k for _, k, c in pieces])
    if all(c.den == 1 for _, _, c in pieces):
        vals = np.concatenate([c.vals for _, _, c in pieces])
    else:
        vals = np.array(
            [Fraction(v, c.den) for _, _, c in pieces for v in c.vals.tolist()], dtype=object
        )
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=ncols), out=indptr[1:])
    return indptr, rows[order], vals[order]


# ---------------------------------------------------------------------------
# windows

class PeriodicBicomplexWindow:
    """A finite rectangle p_lo <= p <= p_hi, 0 <= q <= q_max of the plane.

    flip_bprime_sign replaces -b' by +b' on odd columns; it exists as a
    negative control, since validation must catch exactly this mistake.
    """

    def __init__(
        self,
        X: CyclicModule,
        p_lo: int,
        p_hi: int,
        q_max: int,
        *,
        flip_bprime_sign: bool = False,
    ):
        if p_lo > p_hi:
            raise ValueError("empty column interval")
        if q_max < 0:
            raise ValueError("q_max must be >= 0")
        self.X = X
        self.ring = X.base
        self.p_lo = p_lo
        self.p_hi = p_hi
        self.q_max = q_max
        self.flip_bprime_sign = flip_bprime_sign

    def _check_inside(self, p: int, q: int) -> None:
        if not (self.p_lo <= p <= self.p_hi and 0 <= q <= self.q_max):
            raise ValueError(f"({p}, {q}) is outside the window")

    def entry_rank(self, p: int, q: int) -> int:
        self._check_inside(p, q)
        return self.X.rank(q)

    def d_h(self, p: int, q: int) -> ExactMatrix:
        self._check_inside(p, q)
        if p % 2 == 0:
            return self.X.norm(q)
        return ExactMatrix.identity(self.ring, self.X.rank(q)).sub(self.X.cyclic(q))

    def d_v(self, p: int, q: int) -> ExactMatrix:
        self._check_inside(p, q)
        if q < 1:
            raise ValueError("vertical differentials start at q = 1")
        if p % 2 == 0:
            return self.X.hochschild_boundary(q)
        M = self.X.bar_boundary(q)
        return M if self.flip_bprime_sign else M.scale(self.ring.coerce(-1))

    def validate(self) -> ComplexReport:
        """Check d_h^2 = 0, d_v^2 = 0 and d_h d_v + d_v d_h = 0 squarewise.

        The composites only depend on the parity of p, so each is computed
        once per (parity, q) and failures are then listed for every column
        of that parity inside the window.
        """
        problems: list[str] = []
        parities = sorted({p % 2 for p in range(self.p_lo, self.p_hi + 1)})

        def columns(par: int, need_left: int) -> list[int]:
            lo = self.p_lo + need_left
            return [p for p in range(lo, self.p_hi + 1) if p % 2 == par]

        squares = (  # (name, lowest q, columns needed on the left, composite at (p0, q))
            ("d_h d_h", 0, 1, lambda p0, q: self.d_h(p0 - 1, q) * self.d_h(p0, q)),
            ("d_v d_v", 2, 0, lambda p0, q: self.d_v(p0, q - 1) * self.d_v(p0, q)),
            ("d_h d_v + d_v d_h", 1, 1, lambda p0, q: (self.d_h(p0, q - 1) * self.d_v(p0, q))
             .add(self.d_v(p0 - 1, q) * self.d_h(p0, q))),
        )
        for name, q_lo, need_left, square in squares:
            for q in range(q_lo, self.q_max + 1):
                for par in parities:
                    ps = columns(par, need_left)
                    if ps and not square(ps[0], q).is_zero():
                        problems += [f"{name} != 0 at (p={p}, q={q})" for p in ps]
        return ComplexReport(ok=not problems, problems=sorted(problems))


def build_window(
    X: CyclicModule,
    p_lo: int,
    p_hi: int,
    q_max: int,
    *,
    flip_bprime_sign: bool = False,
) -> PeriodicBicomplexWindow:
    """Materialize a window and verify the three identities on it."""
    w = PeriodicBicomplexWindow(X, p_lo, p_hi, q_max, flip_bprime_sign=flip_bprime_sign)
    report = w.validate()
    if not report.ok:
        raise WindowError(
            "window validation failed:\n" + "\n".join(report.problems[:12])
        )
    return w


# ---------------------------------------------------------------------------
# row-truncated total complexes (materialized form)
#
# No theory runs on these; they are the references of the reduced routes.
# They stay here rather than in the tests' oracle module because the
# benchmark uses them: perfbench/checks.py imports row_truncated_total, and
# perfbench/spans.py wraps _TotalStage.__init__.

def _row_range(region: str, d: int, q_max: int) -> range:
    lo = max(0, d) if region == "left" else 0
    hi = min(q_max, d) if region == "first" else q_max
    return range(lo, hi + 1)


class _Layout:
    """Summand bookkeeping for one total degree: rows q and their offsets."""

    def __init__(self, ops: _PlaneOperators, region: str, d: int, q_max: int):
        self.qs = list(_row_range(region, d, q_max))
        self.offsets: dict[int, int] = {}
        start = 0
        for q in self.qs:
            self.offsets[q] = start
            start += ops.rank(q)
        self.total = start


def _degree_boundary(
    ops: _PlaneOperators,
    region: str,
    d: int,
    layout: "_Layout",
    layout_below: "_Layout",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC of the total differential from degree d to d - 1."""
    pieces = []
    for q in layout.qs:
        even = (d - q) % 2 == 0
        if region != "first" or d - q > 0:
            op = ops.coo("N" if even else "1-t", q)
            pieces.append((layout_below.offsets[q], layout.offsets[q], op))
        if q >= 1:
            op = ops.coo("b" if even else "-b'", q)
            pieces.append((layout_below.offsets[q - 1], layout.offsets[q], op))
    return _csc(layout.total, pieces)


def row_truncated_total(
    X: CyclicModule,
    q_max: int,
    degrees: tuple[int, int],
    region: str = "plane",
) -> ChainComplex:
    """The total complex of rows q <= q_max of a region, in a degree band.

    The differential out of the lowest requested degree is dropped (a hard
    truncation), so homology is only meaningful strictly inside the band.
    """
    _check_region(region)
    lo, hi = degrees
    if lo > hi:
        raise ValueError("empty degree interval")
    ops = _PlaneOperators(X)
    layouts = {d: _Layout(ops, region, d, q_max) for d in range(lo, hi + 1)}
    ranks = {d: layouts[d].total for d in layouts}
    diffs: dict[int, ExactMatrix] = {}
    for d in range(lo + 1, hi + 1):
        indptr, rows, vals = _degree_boundary(ops, region, d, layouts[d], layouts[d - 1])
        cols = np.repeat(np.arange(ranks[d], dtype=np.int64), np.diff(indptr))
        diffs[d] = Coo(X.base, ranks[d - 1], ranks[d], rows, cols, vals).matrix()
    return ChainComplex(X.base, ranks, diffs)


# ---------------------------------------------------------------------------
# reduced stages and towers

class _ReducedStage:
    """A finite complex over a field, Morse-reduced, read in degrees [lo, hi].

    red holds the cells of degrees lo-1..hi+1, with boundaries out of
    degrees lo..hi+1.  The hard truncation at the window edges only
    corrupts homology in the edge degrees themselves, so groups and maps
    are read off for degrees in [lo, hi] only.  Over a field the
    reduction is exact and surviving cells are a homology basis.  A stage
    is a view: q_max, the number of cancellations so far and a
    per-degree snapshot of the surviving cells, so later blocks may grow
    red under it.  In every stage of one tower the cells of a degree come
    in the same order, and a stage's cells are a prefix of the next
    stage's.
    """

    def __init__(self, red: MorseReduction, q_max: int, lo: int, hi: int):
        if not red.ring.is_field:
            raise ValueError("tower stages require field coefficients")
        red.reduce()
        self.ring = red.ring
        self.red = red
        self.q_max = q_max
        self.lo = lo
        self.hi = hi
        self.start = red.start  # cell id of the first cell of each degree
        self.steps = len(red.log)
        self._alive = {d: red.alive(d) for d in range(lo - 1, hi + 2)}

    def alive(self, d: int) -> list[int]:
        return self._alive[d]

    def group(self, d: int) -> HomologyGroup:
        if not (self.lo <= d <= self.hi):
            raise ValueError(f"degree {d} is outside the trusted window")
        return HomologyGroup(self.ring, len(self._alive[d]))

    def s_shift(self, d: int) -> int:
        """s: S sends the i-th cell of degree d to the (i - s)-th of d - 2, or to 0."""
        raise NotImplementedError


class _TotalStage(_ReducedStage):
    """One row truncation of a region of the plane, materialized and reduced.

    The cells of a degree are its row layout's basis tuples, rows in
    increasing q, and each degree's CSC places the row operators' Coo at
    the layout offsets.  Each stage has a reduction of its own.  This is
    the reference route that the orbit-reduced regions and the normalized
    first quadrant are tested against.
    """

    def __init__(
        self, ops: _PlaneOperators, region: str, q_max: int, lo: int, hi: int
    ):
        self.ops = ops
        self.region = region
        degs = range(lo - 1, hi + 2)
        self.layouts = {d: _Layout(ops, region, d, q_max) for d in degs}
        ranks = {d: self.layouts[d].total for d in degs}
        boundaries = {
            d: _degree_boundary(ops, region, d, self.layouts[d], self.layouts[d - 1])
            for d in degs
            if d > lo - 1
        }
        super().__init__(MorseReduction(ops.ring, ranks, boundaries), q_max, lo, hi)

    def s_shift(self, d: int) -> int:
        # the quotient of the first quadrant by columns p in {0, 1} is the
        # first quadrant shifted two columns left, (p, q) -> (p - 2, q); the
        # rows q <= d - 2 lead both layouts with the same offsets
        return 0


def _stage_map(src: _ReducedStage, dst: _ReducedStage, d: int) -> ExactMatrix:
    """Matrix of H_d(inclusion) between two reduced truncations.

    The degree-d cells of src are a prefix of those of dst, and dst's
    reduction logged every pair of src's again, so column y is the
    projection of the survivor y into dst: lifting y first would add only
    upper cells, which the projection drops.  Stages of one reduction
    share cell ids; stages with reductions of their own shift them by the
    difference of the two degree offsets.  The projection reads dst's
    reduction as it stands, so dst must be its latest stage.
    """
    if src.q_max > dst.q_max:
        raise ValueError("src truncation must sit inside dst")
    if dst.steps != len(dst.red.log):
        raise ValueError("dst must be the latest stage of its reduction")
    ring = src.ring
    rows_alive = dst.alive(d)
    cols_alive = src.alive(d)
    row_pos = {cell: r for r, cell in enumerate(rows_alive)}
    shift = dst.start[d] - src.start[d]
    entries = {}
    for j, y in enumerate(cols_alive):
        for cell, c in dst.red.transport_down({y + shift: ring.one}).items():
            entries[(row_pos[cell], j)] = c
    return ExactMatrix(
        ring, len(rows_alive), len(cols_alive), entries, _normalized=True
    )


# ---------------------------------------------------------------------------
# stage builders

def _plane_stages(X: CyclicModule, lo: int, hi: int, left: bool = False):
    """Row truncations Q -> stage of the orbit-reduced plane, or of its left region.

    The stages are views of one reduction: each call, with Q no smaller
    than the last, adds the cells of the rows above the last Q as a block
    and sweeps only them.  A degree lists its cells in row order.  On the
    plane it has one per surviving orbit (q, x) of rows 0..Q.  On the
    left region p <= 0, degree d has the edge cells (d, x, k) of row d at
    column 0 when 0 < d <= Q (row 0 has none), then the survivors of rows
    q > d.
    """
    plane = OrbitPlane(X.algebra)
    ops = _PlaneOperators(X)
    red = MorseReduction(X.base)
    degrees = range(lo - 1, hi + 2)
    index: dict[int, dict] = {d: {} for d in degrees}  # cell key -> index in its degree
    top = -1  # the last row added

    def edge_columns(d: int) -> list[dict]:
        """pi_edge b on the edge cells of row d, as columns on those of row d - 1.

        Row d - 1's edge cells lead their degree, so their indices there
        are their places in the edge row.
        """
        b = ops.coo("b", d)
        rows, cols, vals = plane.edge_boundary(d, b)
        columns: list[dict] = [{} for _ in plane.edge_row(d)[0]]
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            columns[j][i] = v if b.den == 1 else Fraction(v, b.den)
        return columns

    def stage(Q: int) -> _ReducedStage:
        nonlocal top
        if Q < top:
            raise ValueError("the stages of one tower come in increasing Q")
        new = [(q, x) for q in range(top + 1, Q + 1) for x in plane.survivors(q)]
        ranks, boundaries = {}, {}
        for d in degrees:
            edges = plane.edge_row(d)[0] if left and max(top, 0) < d <= Q else []
            survivors = [key for key in new if key[0] > d] if left else new
            for key in edges + survivors:
                index[d][key] = len(index[d])
            ranks[d] = len(edges) + len(survivors)
            if d >= lo:
                below = index[d - 1]
                boundaries[d] = csc_from_columns([
                    *(edge_columns(d) if edges else []),
                    *(
                        {below[key]: c for key, c in plane.boundary(d - q, q, x, left).items()}
                        for q, x in survivors
                    ),
                ])
        top = Q
        red.add_cells(ranks, boundaries)
        return _ReducedStage(red, Q, lo, hi)

    return stage


class _MixedStage(_ReducedStage):
    """Tot(b-bar + B-bar) of the normalized mixed complex, reduced.

    Degree n is the sum of X-bar_{n-2k} over k >= 0, summands in
    increasing k; cell (k, j) is the j-th basis tuple of the k-th
    summand.  b-bar keeps k and B-bar lowers it by one, so each degree's
    CSC places their Coo at the summand offsets.  Over a field this
    computes HC with its periodicity S (Loday, Cyclic Homology, 2.1.8);
    S drops the k = 0 summand and shifts the rest down one step, which
    moves every cell index down by the rank of the k = 0 summand.
    """

    def __init__(self, nb: NormalizedBarModule, lo: int, hi: int):
        self.nb = nb
        b = {m: nb.boundary_coo(m) for m in range(1, hi + 2)}
        B = {m: nb.connes_coo(m) for m in range(hi)}
        offsets = {}  # degree -> start of each summand k
        ranks = {}
        for n in range(lo - 1, hi + 2):
            sizes = [nb.rank(n - 2 * k) for k in range(n // 2 + 1)]
            offsets[n] = np.cumsum([0] + sizes[:-1]).tolist() if sizes else []
            ranks[n] = sum(sizes)
        boundaries = {}
        for n in range(lo, hi + 2):
            pieces = []
            for k, at in enumerate(offsets[n]):
                m = n - 2 * k
                if m:
                    pieces.append((offsets[n - 1][k], at, b[m]))
                if k:
                    pieces.append((offsets[n - 1][k - 1], at, B[m]))
            boundaries[n] = _csc(ranks[n], pieces)
        # q_max only orders the stages of a tower; this is a single stage
        super().__init__(MorseReduction(nb.base, ranks, boundaries), hi + 1, lo, hi)

    def s_shift(self, d: int) -> int:
        return self.nb.rank(d)


def _first_quadrant(X: CyclicModule, lo: int, hi: int) -> _ReducedStage:
    """The reduced HC complex of X's algebra, read in degrees [lo, hi]."""
    return _MixedStage(normalized(X.algebra), lo, hi)


# ---------------------------------------------------------------------------
# verdicts and tables

@dataclass
class StabilizationReport:
    """Progress of one degree along a truncation (or S-) tower.

    stages pair the tower coordinate with the homology group found there;
    maps[i] is the induced matrix stages[i] -> stages[i+1].  Two
    certificates can settle a degree:

    "stabilized": `persistence` consecutive maps were isomorphisms, so the
    groups themselves became constant.  "stabilized-persistent": the ranks
    of all composites spanning `persistence` consecutive steps agreed over
    `persistence` consecutive windows; the persistent classes then have
    settled even though each stage may carry transient ones near its
    truncation edge (a finite truncation of the 2-periodic plane always
    ends in a raw top row, and classes supported there are born and killed
    periodically - constancy of stage dimensions is the wrong signal in
    exactly those degrees, which is why the composite-rank certificate
    exists).  The reported value is the persistent rank.

    "not-stabilized" means the schedule ran out first; the last group is
    then still reported as a lower bound when every observed map was
    injective, and as unresolved otherwise.
    """

    degree: int
    persistence: int
    stages: list[tuple[int, HomologyGroup]] = field(default_factory=list)
    maps: list[ExactMatrix] = field(default_factory=list)
    verdict: str = "not-stabilized"
    q_star: int | None = None
    value: HomologyGroup | None = None
    value_kind: str = "unresolved"
    dying: list[str] = field(default_factory=list)

    def label(self) -> str:
        if self.verdict == "stabilized":
            return f"stabilized-at({self.q_star})"
        if self.verdict == "stabilized-persistent":
            return f"stabilized-persistent-at({self.q_star})"
        return "not-stabilized"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "verdict": self.label(),
            "value": None if self.value is None else self.value.to_json(),
            "value_kind": self.value_kind,
            "stages": [
                {"at": q, "group": g.to_json()} for q, g in self.stages
            ],
            "dying": list(self.dying),
        }


@dataclass
class HomologyTable:
    """Per-degree results of one theory over one base."""

    theory: str
    base: BaseRing
    groups: dict[int, HomologyGroup | None]
    reports: dict[int, StabilizationReport] = field(default_factory=dict)

    def dimension(self, d: int) -> int | None:
        g = self.groups.get(d)
        return None if g is None else g.dimension

    def to_json(self) -> dict:
        degrees = {}
        for d in sorted(self.groups):
            g = self.groups[d]
            degrees[str(d)] = None if g is None else g.to_json()
        out = {"theory": self.theory, "base": self.base.label(), "degrees": degrees}
        if self.reports:
            out["verdicts"] = {
                str(d): self.reports[d].to_json() for d in sorted(self.reports)
            }
        return out


def default_q_schedule(hi: int) -> list[int]:
    """Truncation schedule d_hi + 4, +8, ..., +24: two periods per step."""
    return [hi + 4 + 4 * k for k in range(6)]


def _composite_rank(maps: list[ExactMatrix], start: int) -> int:
    """Rank of maps[-1] * ... * maps[start], the stage-start image downstream."""
    comp = maps[start]
    for t in range(start + 1, len(maps)):
        comp = maps[t] * comp
    return rank(comp) if comp.nrows and comp.ncols else 0


def _persistent_rank(maps: list[ExactMatrix], h: int) -> int | None:
    """Common downstream-image rank anchored at the h latest eligible stages.

    A class seen at stage i contributes to the newest stage exactly when
    it lies outside the kernel of the composite maps[i] .. maps[-1]; that
    rank counts classes from stage i still alive now.  Only anchors at
    least h steps back are eligible, so every counted class has survived a
    full persistence window, and the h most recent eligible anchors must
    agree; transient truncation-edge classes (born and killed between
    anchors) then cancel out of the count.  Returns None when the anchors
    disagree.
    """
    n = len(maps)
    common = None
    for i in range(n - 2 * h + 1, n - h + 1):
        r = _composite_rank(maps, i)
        if common is None:
            common = r
        elif r != common:
            return None
    return common


def _run_truncation_tower(
    stages,
    X: CyclicModule,
    degrees: tuple[int, int],
    q_schedule,
    persistence: int,
) -> dict[int, StabilizationReport]:
    """Walk the truncation schedule; stages(X, lo, hi) maps Q to a stage."""
    lo, hi = degrees
    if lo > hi:
        raise ValueError("empty degree interval")
    schedule = list(q_schedule)
    if schedule != sorted(set(schedule)):
        raise ValueError("q_schedule must be strictly increasing")
    if persistence < 2:
        raise ValueError("persistence must be >= 2")
    if len(schedule) < 2:
        raise ValueError("q_schedule needs at least two stages")
    reports = {
        d: StabilizationReport(degree=d, persistence=persistence)
        for d in range(lo, hi + 1)
    }
    runs = {d: 0 for d in reports}
    pending = set(reports)
    stage_at = stages(X, lo, hi)
    prev: _ReducedStage | None = None
    for Q in schedule:
        if not pending:
            break
        stage = stage_at(Q)
        for d in sorted(pending):
            rep = reports[d]
            rep.stages.append((Q, stage.group(d)))
            if prev is not None:
                M = _stage_map(prev, stage, d)
                rep.maps.append(M)
                src_dim = M.ncols
                r = rank(M) if src_dim and M.nrows else 0
                if r < src_dim:
                    rep.dying.append(
                        f"{src_dim - r} class(es) of H_{d} at q_max={prev.q_max} "
                        f"die in q_max={Q}"
                    )
                iso = src_dim == M.nrows and r == src_dim
                runs[d] = runs[d] + 1 if iso else 0
                # an iso run alone can be a plateau between two deaths of a
                # truncation-edge class; demand the base of the tower still
                # see the full current group through the composite
                if (
                    runs[d] >= persistence
                    and _composite_rank(rep.maps, 0) == rep.stages[-1][1].dimension
                ):
                    rep.verdict = "stabilized"
                    rep.q_star = rep.stages[len(rep.stages) - 1 - persistence][0]
                    rep.value = rep.stages[-1][1]
                    rep.value_kind = "stabilized"
                    pending.discard(d)
                elif len(rep.maps) >= 2 * persistence - 1:
                    r = _persistent_rank(rep.maps, persistence)
                    if r is not None:
                        rep.verdict = "stabilized-persistent"
                        rep.q_star = rep.stages[len(rep.maps) - 2 * persistence + 1][0]
                        rep.value = HomologyGroup(stage.ring, r)
                        rep.value_kind = "stabilized"
                        pending.discard(d)
        prev = stage
    for d, rep in reports.items():
        if rep.value_kind == "unresolved":
            injective = all(
                (rank(M) if M.ncols and M.nrows else 0) == M.ncols or M.ncols == 0
                for M in rep.maps
            )
            if injective and rep.stages:
                rep.value = rep.stages[-1][1]
                rep.value_kind = "lower-bound"
    return reports


def _table_from_reports(
    theory: str, base: BaseRing, reports: dict[int, StabilizationReport]
) -> HomologyTable:
    groups = {
        d: (rep.value if rep.value_kind == "stabilized" else None)
        for d, rep in reports.items()
    }
    return HomologyTable(theory=theory, base=base, groups=groups, reports=reports)


def hp_poly(
    X: CyclicModule,
    degrees: tuple[int, int],
    q_schedule=None,
    persistence: int = 3,
) -> HomologyTable:
    """Direct-sum 2-periodic homology via the row-truncation colimit.

    Values are only filled in for degrees whose tower stabilized; all other
    degrees stay None with the verdict explaining why.
    """
    if q_schedule is None:
        q_schedule = default_q_schedule(degrees[1])
    reports = _run_truncation_tower(_plane_stages, X, degrees, q_schedule, persistence)
    return _table_from_reports("HPpoly", X.base, reports)


def hc_minus_poly(
    X: CyclicModule,
    degrees: tuple[int, int],
    q_schedule=None,
    persistence: int = 3,
) -> HomologyTable:
    """Direct-sum negative-cyclic homology: the columns p <= 0, truncated.

    Runs on the orbit-reduced left region, like hp_poly on the plane.
    """
    if q_schedule is None:
        q_schedule = default_q_schedule(degrees[1])
    stages = functools.partial(_plane_stages, left=True)
    reports = _run_truncation_tower(stages, X, degrees, q_schedule, persistence)
    return _table_from_reports("HC-poly", X.base, reports)


def hc(X: CyclicModule, d_max: int) -> HomologyTable:
    """Cyclic homology in degrees 0..d_max, from the normalized (b, B) complex.

    Finite in each degree, so this is exact and carries no stabilization
    reports.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    stage = _first_quadrant(X, 0, d_max)
    groups = {d: stage.group(d) for d in range(d_max + 1)}
    return HomologyTable(theory="HC", base=X.base, groups=groups)


# ---------------------------------------------------------------------------
# the S-tower

def _s_map_on_stage(stage: _ReducedStage, n: int) -> ExactMatrix:
    """H_n -> H_{n-2} induced by the periodicity shift S of a first quadrant.

    S is the chain-level quotient map onto the complex two degrees down,
    which moves cell indices down by the stage's s_shift.
    """
    ring = stage.ring
    rows_alive = stage.alive(n - 2)
    cols_alive = stage.alive(n)
    row_pos = {cell: r for r, cell in enumerate(rows_alive)}
    first = stage.start[n] + stage.s_shift(n)  # the first cell S keeps
    last = first + stage.red.ranks[n - 2]
    shift = stage.start[n - 2] - first
    entries = {}
    for j, y in enumerate(cols_alive):
        lifted = stage.red.transport_up({y: ring.one}, n)
        shifted = {cell + shift: c for cell, c in lifted.items() if first <= cell < last}
        down = stage.red.transport_down(shifted)
        for cell, c in down.items():
            entries[(row_pos[cell], j)] = c
    return ExactMatrix(
        ring, len(rows_alive), len(cols_alive), entries, _normalized=True
    )


def sbi_S_map(
    X: CyclicModule, d: int, k: int
) -> tuple[ExactMatrix, HomologyGroup, HomologyGroup]:
    """The periodicity map HC_{d+2k} -> HC_{d+2k-2} in canonical bases."""
    n = d + 2 * k
    if n < 2:
        raise ValueError("need d + 2k >= 2 so both groups exist")
    stage = _first_quadrant(X, max(0, n - 2), n)
    return _s_map_on_stage(stage, n), stage.group(n), stage.group(n - 2)


def _check_tower_depth(d: int, K: int, persistence: int) -> None:
    if K < persistence:
        raise ValueError("K must be at least the persistence horizon")
    if d + 2 * (K - persistence) < 0:
        # groups below the quadrant are zero and their maps vacuous isos;
        # a persistence run must not be allowed to live down there
        raise ValueError("K too small: deepest persistence maps leave the quadrant")


def _s_tower_run(
    stage: _ReducedStage,
    window_lo: int,
    d: int,
    K: int,
    persistence: int,
    s_maps: dict[int, ExactMatrix] | None = None,
) -> StabilizationReport:
    """Walk HC_{d+2K} -> ... -> HC_d on a prepared stage, deepest map first.

    The limit along the tower is determined by its tail, so the verdict
    demands the deepest `persistence` maps be isomorphisms and reports the
    deep group as the value.  `s_maps` memoizes S-maps across degrees that
    share the stage.
    """
    rep = StabilizationReport(degree=d, persistence=persistence)

    def group_at(m: int) -> HomologyGroup:
        return stage.group(m) if m >= window_lo else HomologyGroup(stage.ring, 0)

    for j in range(K, -1, -1):
        rep.stages.append((d + 2 * j, group_at(d + 2 * j)))
    run = 0
    run_alive = True
    for j in range(K, 0, -1):
        n = d + 2 * j
        if s_maps is not None and n in s_maps:
            M = s_maps[n]
        else:
            if n >= 2:
                M = _s_map_on_stage(stage, n)
            else:
                M = ExactMatrix.zero(
                    stage.ring, group_at(n - 2).dimension, group_at(n).dimension
                )
            if s_maps is not None:
                s_maps[n] = M
        rep.maps.append(M)
        src_dim, tgt_dim = M.ncols, M.nrows
        r = rank(M) if src_dim and tgt_dim else 0
        if r < src_dim:
            rep.dying.append(
                f"{src_dim - r} class(es) die along S: HC_{n} -> HC_{n - 2}"
            )
        iso = src_dim == tgt_dim and r == src_dim
        if run_alive and iso:
            run += 1
            if run == persistence:
                rep.verdict = "stabilized"
                rep.q_star = d + 2 * K
                rep.value = rep.stages[0][1]
                rep.value_kind = "stabilized"
        elif run_alive and not iso:
            run_alive = False
    return rep


def hp_via_S_tower(
    X: CyclicModule, d: int, K: int, persistence: int = 3
) -> tuple[HomologyGroup | None, StabilizationReport]:
    """2-periodic homology of degree d as the limit of the periodicity tower.

    Computes HC_{d+2K} -> ... -> HC_d inside one reduced (b, B) complex.
    The limit is pro-constant exactly when the deepest maps are
    isomorphisms; the verdict demands this for the first `persistence`
    maps, and the stable deep value is then reported.
    """
    _check_tower_depth(d, K, persistence)
    n_top = d + 2 * K
    lo = max(0, d)
    stage = _first_quadrant(X, lo, n_top)
    rep = _s_tower_run(stage, lo, d, K, persistence)
    return (rep.value if rep.verdict == "stabilized" else None), rep


def hp_s_tower_table(
    X: CyclicModule,
    degrees: tuple[int, int],
    K: int | None = None,
    persistence: int = 3,
) -> HomologyTable:
    """S-tower limits over a degree range, sharing one reduced complex.

    With K=None each degree gets the shallowest depth whose persistence
    run stays inside the first quadrant.  All towers read groups and maps
    off a single Morse-reduced first-quadrant complex, so this is much
    cheaper than one hp_via_S_tower call per degree.
    """
    lo_d, hi_d = degrees
    if lo_d > hi_d:
        raise ValueError("empty degree interval")
    depths = {}
    for d in range(lo_d, hi_d + 1):
        k = K if K is not None else persistence + max(0, -(d // 2))
        _check_tower_depth(d, k, persistence)
        depths[d] = k
    n_max = max(d + 2 * depths[d] for d in depths)
    stage = _first_quadrant(X, 0, n_max)
    cache: dict[int, ExactMatrix] = {}
    reports = {
        d: _s_tower_run(stage, 0, d, depths[d], persistence, s_maps=cache)
        for d in range(lo_d, hi_d + 1)
    }
    return _table_from_reports("HP", X.base, reports)


# ---------------------------------------------------------------------------
# conjugate-filtration dimension bookkeeping

@dataclass
class ConjugateReport:
    """Outcome of the dimension comparison dim HP^poly_d vs sum of HH dims.

    rows hold (degree, left side or None, right side, status) where status
    is "equal", "violated" (left exceeds right - the asserted inequality
    fails), "smaller" (strict, inequality fine but equality not observed),
    or "unresolved" (tower verdict withheld a value).
    """

    refused: bool
    reason: str | None
    hh_bound: int | None
    hh_dims: dict[int, int]
    rows: list[tuple[int, int | None, int, str]]

    @property
    def ok(self) -> bool:
        return not self.refused and all(s == "equal" for _, _, _, s in self.rows)


def _hochschild_dims(nb: NormalizedBarModule, top: int) -> dict[int, int]:
    """dim HH_q for q <= top, from a sparse reduction of the normalized complex."""
    ranks = {q: nb.rank(q) for q in range(top + 2)}
    boundaries = {q: _csc(ranks[q], [(0, 0, nb.boundary_coo(q))]) for q in range(1, top + 2)}
    red = MorseReduction(nb.base, ranks, boundaries)
    red.reduce()
    return {q: homology_via_reduction(red, q).dimension for q in range(top + 1)}


def conjugate_dimension_check(
    A,
    degrees: tuple[int, int],
    q_schedule=None,
    persistence: int = 3,
    hh_margin: int = 2,
    hp_table: HomologyTable | None = None,
) -> ConjugateReport:
    """Compare stabilized HP^poly dimensions with folded Hochschild ones.

    Over the prime field the twist entering the graded comparison preserves
    dimensions, so for bounded HH the prediction in degree d is
    sum_i dim HH_{d+2i}.  HH dimensions come from a Morse reduction of the
    normalized Hochschild complex; boundedness is checked empirically: the
    top `hh_margin` computed degrees must vanish, otherwise the check
    refuses rather than folding a possibly infinite sum.

    A caller who already ran the tower for this algebra can pass its table
    as hp_table; it must cover `degrees` and is trusted to belong to A.
    """
    from .cyclic import cyclic_bar_module

    if not A.base.is_field or A.base.characteristic == 0:
        raise ValueError("the comparison is a positive-characteristic statement")
    lo, hi = degrees
    q_check = max(hi, 0) + hh_margin + 2
    hh_dims = _hochschild_dims(normalized(A), q_check)
    nonzero = [q for q, v in hh_dims.items() if v]
    bound = max(nonzero) if nonzero else -1
    if bound > q_check - hh_margin:
        return ConjugateReport(
            refused=True,
            reason=(
                f"HH is nonzero in degree {bound}, too close to the computed "
                f"horizon {q_check}; cannot certify boundedness"
            ),
            hh_bound=None,
            hh_dims=hh_dims,
            rows=[],
        )
    table = hp_table
    if table is None:
        table = hp_poly(cyclic_bar_module(A), degrees, q_schedule, persistence)
    elif any(d not in table.groups for d in range(lo, hi + 1)):
        raise ValueError("provided hp_table does not cover the requested degrees")
    rows = []
    for d in range(lo, hi + 1):
        rhs = sum(v for q, v in hh_dims.items() if q <= bound and (q - d) % 2 == 0)
        lhs = table.dimension(d)
        if lhs is None:
            status = "unresolved"
        elif lhs == rhs:
            status = "equal"
        elif lhs > rhs:
            status = "violated"
        else:
            status = "smaller"
        rows.append((d, lhs, rhs, status))
    return ConjugateReport(
        refused=False, reason=None, hh_bound=bound, hh_dims=hh_dims, rows=rows
    )
