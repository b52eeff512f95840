"""The 2-periodic cyclic double complex and the theories read off from it.

Layout conventions, fixed here and relied on everywhere below:
  entry(p, q) = X_q sits in total degree p + q; columns are indexed by p.
  The horizontal differential lowers p: out of even columns it is the norm
  N_q, out of odd columns 1 - t_q.  The vertical differential lowers q:
  b on even columns, -b' on odd ones.  `_plane_operator` names these
  once, the materialized complexes read it, and the signs inside each
  operator are fixed once, in `cyclic`.  The three square-zero and
  anticommutation identities tie these choices together; the square of
  a row-truncated total complex checks them, and a deliberately wrong
  sign is caught as a failing square.

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
  hc, sbi_S_map, hp_s_tower_table
                - Tot(b-bar + B-bar) of the normalized mixed complex,
                  which has the first quadrant's HC and S (Loday 2.1.8).
                  Its direct-sum totalization is not the plane's: over Q
                  the ground field gets k in every even degree from it and
                  0 from the plane, so it never stands in for hp_poly;
  hh            - the raw or normalized Hochschild complex (b alone), one
                  Morse reduction, read over Z from its residual complex.
Only the edge rows, the rows d <= top degree + 1 that meet column 0, are
still enumerated tuple by tuple: their edge cells are a basis of ker N,
and their boundary takes b's Coo.  The materialized regions
(row_truncated_total, _TotalStage) run no theory; they are the
references the reduced routes are tested against, and criterion 3
checks the plane's identities on row_truncated_total.

Every stage is a finite complex handed to the left-looking engine of
`reduction` as per-degree CSC arrays, built by `_csc`: on the orbit
routes from each row's zig-zag boundaries placed at its cells' offsets,
on the others from operator Coo placed at the offsets of a degree's
summands.  Over a field the engine cancels everything cancellable, so
surviving cells count homology.

A truncation tower is one filtered complex, so its stages are views of
one reduction.  Each schedule step hands the engine only the cells of
the new rows, as a block, and the sweep reduces only them; since a
row-q cell's boundary lands on rows <= q, the engine logs what a
reduction of the whole truncation would.  A stage keeps its q_max, the
number of cells so far and a per-degree snapshot of the surviving
cells.  The engine cancels each column against its newest cell, the
elder rule of persistence, so the tower is a barcode: a cell that
survives some stage is a class born there, and it dies at the first
later stage that has cancelled it.  The rank of the map from one stage
to a later one is the number of the later stage's survivors that the
earlier one already had, and every rank the certificates read is a
count of bars.  The S-tower's ranks come from Connes' exact sequence
HH_n --I--> HC_n --S--> HC_{n-2} (Loday, Cyclic Homology, 2.2.1) on a
two-step filtration of the same kind: Tot(b-bar + B-bar) reaches its
reduction in two blocks, the Hochschild complex (the summands k = 0)
and then the rest, so rank I counts the Hochschild cells that survive
the second block and rank S = dim HC_n - rank I counts the others.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexes import ChainComplex, HomologyGroup
from .cyclic import Coo, CyclicModule, NormalizedBarModule, normalized
from .matrix import ExactMatrix
from .orbits import OrbitPlane
from .reduction import MorseReduction, homology_via_reduction
from .rings import BaseRing


_REGIONS = ("plane", "left", "first")
_HH_MARGIN = 2  # the top HH degrees that must vanish for conjugate_dimension_check


def _check_region(region: str) -> None:
    if region not in _REGIONS:
        raise ValueError(f"unknown region {region!r}; expected one of {_REGIONS}")


# ---------------------------------------------------------------------------
# the plane's operators, and block operators in CSC form

def _plane_operator(p: int, vertical: bool) -> str:
    """The CyclicModule.coo kind of the differential out of column p.

    Horizontally N out of even columns and 1 - t out of odd ones;
    vertically b on even columns and -b' on odd ones.
    """
    if vertical:
        return "b" if p % 2 == 0 else "-b'"
    return "N" if p % 2 == 0 else "1-t"


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


def _columns(csc: tuple, start: int, stop: int) -> tuple:
    """The columns start..stop - 1 of CSC arrays."""
    indptr, rows, vals = csc
    s, e = indptr[start], indptr[stop]
    return indptr[start:stop + 1] - s, rows[s:e], vals[s:e]


# ---------------------------------------------------------------------------
# row-truncated total complexes (materialized form)
#
# No theory runs on these; they are the references of the reduced routes.
# They stay here rather than in the tests' oracle module because criterion
# 3 validates the plane's identities on row_truncated_total, and the
# benchmark uses them: perfbench/checks.py imports row_truncated_total, and
# perfbench/spans.py wraps _TotalStage.__init__.

def _row_range(region: str, d: int, q_max: int) -> range:
    lo = max(0, d) if region == "left" else 0
    hi = min(q_max, d) if region == "first" else q_max
    return range(lo, hi + 1)


class _Layout:
    """Summand bookkeeping for one total degree: rows q and their offsets."""

    def __init__(self, X: CyclicModule, region: str, d: int, q_max: int):
        self.qs = list(_row_range(region, d, q_max))
        self.offsets: dict[int, int] = {}
        start = 0
        for q in self.qs:
            self.offsets[q] = start
            start += X.rank(q)
        self.total = start


def _degree_boundary(
    X: CyclicModule,
    region: str,
    d: int,
    layout: "_Layout",
    layout_below: "_Layout",
    *,
    flip_bprime_sign: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC of the total differential from degree d to d - 1.

    flip_bprime_sign replaces -b' by +b' on odd columns, a negative
    control: validation must catch exactly this mistake.
    """
    pieces = []
    for q in layout.qs:
        if region != "first" or d - q > 0:
            op = X.coo(_plane_operator(d - q, False), q)
            pieces.append((layout_below.offsets[q], layout.offsets[q], op))
        if q >= 1:
            kind = _plane_operator(d - q, True)
            op = X.coo("b'" if flip_bprime_sign and kind == "-b'" else kind, q)
            pieces.append((layout_below.offsets[q - 1], layout.offsets[q], op))
    return _csc(layout.total, pieces)


def row_truncated_total(
    X: CyclicModule,
    q_max: int,
    degrees: tuple[int, int],
    region: str = "plane",
    *,
    flip_bprime_sign: bool = False,
) -> ChainComplex:
    """The total complex of rows q <= q_max of a region, in a degree band.

    The differential out of the lowest requested degree is dropped (a hard
    truncation), so homology is only meaningful strictly inside the band.
    Its square vanishes exactly when the three plane identities hold on
    the rows: a defect of d_h d_h, d_h d_v + d_v d_h or d_v d_v lands
    zero, one or two rows down, so no two of them can cancel.
    """
    _check_region(region)
    lo, hi = degrees
    if lo > hi:
        raise ValueError("empty degree interval")
    layouts = {d: _Layout(X, region, d, q_max) for d in range(lo, hi + 1)}
    ranks = {d: layouts[d].total for d in layouts}
    diffs: dict[int, ExactMatrix] = {}
    for d in range(lo + 1, hi + 1):
        indptr, rows, vals = _degree_boundary(
            X, region, d, layouts[d], layouts[d - 1], flip_bprime_sign=flip_bprime_sign
        )
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
    is a view: q_max, the number of cells so far and a per-degree
    snapshot of the surviving cells, so later blocks may grow red under
    it.
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
        self.cells = len(red.degree)
        self._alive = {d: red.alive(d) for d in range(lo - 1, hi + 2)}

    def alive(self, d: int) -> list[int]:
        return self._alive[d]

    def born_after(self, d: int, cells: int) -> list[int]:
        """The degree-d survivors that came after the reduction's first `cells` cells."""
        alive = self._alive[d]
        return alive[bisect.bisect_left(alive, cells):]

    def group(self, d: int) -> HomologyGroup:
        if not (self.lo <= d <= self.hi):
            raise ValueError(f"degree {d} is outside the trusted window")
        return HomologyGroup(self.ring, len(self._alive[d]))


class _TotalStage(_ReducedStage):
    """One row truncation of a region of the plane, materialized and reduced.

    The cells of a degree are its row layout's basis tuples, rows in
    increasing q, and each degree's CSC places the row operators' Coo at
    the layout offsets.  Each stage has a reduction of its own.  This is
    the reference route that the orbit-reduced regions and the normalized
    first quadrant are tested against.
    """

    def __init__(self, X: CyclicModule, region: str, q_max: int, lo: int, hi: int):
        self.X = X
        self.region = region
        degs = range(lo - 1, hi + 2)
        self.layouts = {d: _Layout(X, region, d, q_max) for d in degs}
        ranks = {d: self.layouts[d].total for d in degs}
        boundaries = {
            d: _degree_boundary(X, region, d, self.layouts[d], self.layouts[d - 1])
            for d in degs
            if d > lo - 1
        }
        super().__init__(MorseReduction(X.base, ranks, boundaries), q_max, lo, hi)


def _stage_map(src: _ReducedStage, dst: _ReducedStage, d: int) -> list[int]:
    """The bars of H_d that end between two stages of one reduction.

    These are src's degree-d survivors that dst has cancelled: the map
    H_d(src) -> H_d(dst) kills exactly their classes and keeps the
    others, which dst still has, so its rank is what they leave.
    """
    if src.red is not dst.red:
        raise ValueError("tower maps join stages of one reduction")
    if src.q_max > dst.q_max:
        raise ValueError("src truncation must sit inside dst")
    kept = set(dst.alive(d))
    return [y for y in src.alive(d) if y not in kept]


# ---------------------------------------------------------------------------
# stage builders

def _plane_stages(X: CyclicModule, lo: int, hi: int, left: bool = False):
    """Row truncations Q -> stage of the orbit-reduced plane, or of its left region.

    The stages are views of one reduction: each call, with Q no smaller
    than the last, adds the cells of the rows above the last Q as a block
    and sweeps only them.  A degree lists its cells row by row, from the
    offset of each row there: on the plane row q's survivors, and on the
    left region p <= 0, in degree d, none of rows q < d, row d's edge
    cells at column 0 (row 0 has none) and the survivors of rows q > d.
    """
    plane = OrbitPlane(X.algebra)
    red = MorseReduction(X.base)
    degrees = range(lo - 1, hi + 2)
    offsets: dict[int, list[int]] = {d: [] for d in degrees}  # degree -> row -> first id
    top = -1  # the last row added

    def stage(Q: int) -> _ReducedStage:
        nonlocal top
        if Q < top:
            raise ValueError("the stages of one tower come in increasing Q")
        rows = {q: len(plane.survivors(q)) for q in range(top + 1, Q + 1)}
        counts, ranks, cells = {}, {}, {}
        for d in degrees:
            counts[d] = rows
            if left:  # no cells of rows q < d, and row d's edge cells
                counts[d] = {q: n if q > d else 0 for q, n in rows.items()}
                if d in rows:
                    counts[d][d] = len(plane.edge_row(d)[0])
            at = np.cumsum([red.ranks.get(d, 0), *counts[d].values()]).tolist()
            offsets[d] += at[:-1]
            ranks[d], cells[d] = at[-1] - at[0], at[-1]
        boundaries = {}
        for d in range(lo, hi + 2):
            below, pieces = np.array(offsets[d - 1]), []
            for q, n in counts[d].items():
                if not n:
                    continue
                if left and q == d:  # pi_edge b, onto the edge cells of row d - 1
                    b = X.coo("b", d)
                    (t, s, v), r, den = plane.edge_boundary(d, b), d - 1, b.den
                else:
                    (s, r, t, v), den = plane.boundary(d - q, q, left).T, 1
                col = offsets[d][q] - red.ranks.get(d, 0)
                pieces.append((0, col, Coo(X.base, cells[d - 1], n, below[r] + t, s, v, den)))
            boundaries[d] = _csc(ranks[d], pieces)
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
    computes HC with its periodicity S (Loday, Cyclic Homology, 2.1.8).
    The summands k = 0 span the Hochschild complex F_0 = (X-bar, b-bar),
    a subcomplex, and the reduction takes them as a first block: hh is
    the stage after it, and each degree keeps its cell order.
    """

    def __init__(self, nb: NormalizedBarModule, lo: int, hi: int):
        b = {m: nb.coo("b", m) for m in range(1, hi + 2)}
        B = {m: nb.coo("B", m) for m in range(hi)}
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
        head = {n: nb.rank(n) for n in ranks}  # the summand k = 0
        red = MorseReduction(nb.base)
        red.add_cells(head, {n: _columns(csc, 0, head[n]) for n, csc in boundaries.items()})
        # q_max only orders the two stages, F_0 and the whole
        self.hh = _ReducedStage(red, 0, lo, hi)
        red.add_cells(
            {n: ranks[n] - head[n] for n in ranks},
            {n: _columns(csc, head[n], ranks[n]) for n, csc in boundaries.items()},
        )
        super().__init__(red, hi + 1, lo, hi)


def _first_quadrant(X: CyclicModule, lo: int, hi: int) -> _ReducedStage:
    """The reduced HC complex of X's algebra, read in degrees [lo, hi]."""
    return _MixedStage(normalized(X.algebra), lo, hi)


# ---------------------------------------------------------------------------
# verdicts and tables

@dataclass
class StabilizationReport:
    """Progress of one degree along a truncation (or S-) tower.

    stages pair the tower coordinate with the homology group found there.
    On a truncation tower bars map each surviving cell that some stage
    saw, one class, to its (birth, death) pair of q_max values: born at
    the first stage that has it, dead at the first later stage that does
    not (None while it lives).  The rank of the map from one stage to a later one counts
    the bars born by the first and alive at the second.  An S-tower
    report carries no bars, and the ranks of S show only in `dying`.
    Two certificates can settle a degree:

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

    "not-stabilized" means the schedule ran out first; the report is then
    unresolved and carries no value, since a stage group bounds the
    colimit neither from below nor from above.
    """

    degree: int
    persistence: int
    stages: list[tuple[int, HomologyGroup]] = field(default_factory=list)
    bars: dict[int, tuple[int, int | None]] = field(default_factory=dict)
    verdict: str = "not-stabilized"
    q_star: int | None = None
    value: HomologyGroup | None = None
    dying: list[str] = field(default_factory=list)

    @property
    def value_kind(self) -> str:
        return "unresolved" if self.verdict == "not-stabilized" else "stabilized"

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


def _composite_rank(bars, src_q: int, dst_q: int) -> int:
    """Rank of the tower map from stage src_q to stage dst_q, read off (birth, death) pairs.

    It counts the bars born by src_q and still alive at dst_q.
    """
    return sum(1 for born, dead in bars if born <= src_q and (dead is None or dead > dst_q))


def _persistent_rank(bars, qs: list[int], h: int) -> int | None:
    """Common downstream-image rank anchored at the h latest eligible stages.

    A class seen at stage i contributes to the newest stage exactly when
    its bar reaches it; the composite rank counts classes from stage i
    still alive now.  Only anchors at least h steps back are eligible, so
    every counted class has survived a full persistence window, and the h
    most recent eligible anchors must agree; transient truncation-edge
    classes (born and killed between anchors) then cancel out of the
    count.  Returns None when the anchors disagree.
    """
    n = len(qs) - 1
    ranks = {_composite_rank(bars, qs[i], qs[n]) for i in range(n - 2 * h + 1, n - h + 1)}
    return ranks.pop() if len(ranks) == 1 else None


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
            ended = _stage_map(prev, stage, d) if prev else []
            born = stage.born_after(d, prev.cells if prev else 0)
            for y in ended:
                rep.bars[y] = (rep.bars[y][0], Q)
            for y in born:
                rep.bars[y] = (Q, None)
            if prev is None:
                continue
            if ended:
                rep.dying.append(
                    f"{len(ended)} class(es) of H_{d} at q_max={prev.q_max} "
                    f"die in q_max={Q}"
                )
            # a step that ends no bar and starts none is an isomorphism
            runs[d] = runs[d] + 1 if not (ended or born) else 0
            qs = [q for q, _ in rep.stages]
            # an iso run alone can be a plateau between two deaths of a
            # truncation-edge class; demand the base of the tower still
            # see the full current group through the composite
            if (
                runs[d] >= persistence
                and _composite_rank(rep.bars.values(), qs[0], Q) == rep.stages[-1][1].dimension
            ):
                rep.verdict = "stabilized"
                rep.q_star = qs[-1 - persistence]
                rep.value = rep.stages[-1][1]
                pending.discard(d)
            elif len(qs) >= 2 * persistence:
                r = _persistent_rank(rep.bars.values(), qs, persistence)
                if r is not None:
                    rep.verdict = "stabilized-persistent"
                    rep.q_star = qs[len(qs) - 2 * persistence]
                    rep.value = HomologyGroup(stage.ring, r)
                    pending.discard(d)
        prev = stage
    return reports


def _table_from_reports(
    theory: str, base: BaseRing, reports: dict[int, StabilizationReport]
) -> HomologyTable:
    groups = {d: rep.value for d, rep in reports.items()}
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


def hh(
    module: CyclicModule | NormalizedBarModule, degrees: tuple[int, int]
) -> HomologyTable:
    """Hochschild homology in degrees lo..hi, raw or normalized by the module given.

    One Morse reduction of the module's b in degrees lo - 1..hi + 1; over
    Z the groups are read off its residual complex.  Exact, so the table
    carries no stabilization reports.
    """
    lo, hi = degrees
    if lo < 0 or lo > hi:
        raise ValueError("Hochschild degrees form an interval starting at 0 or above")
    ranks = {n: module.rank(n) for n in range(max(lo - 1, 0), hi + 2)}
    boundaries = {
        n: _csc(ranks[n], [(0, 0, module.coo("b", n))]) for n in range(max(lo, 1), hi + 2)
    }
    red = MorseReduction(module.base, ranks, boundaries)
    red.reduce()
    groups = homology_via_reduction(red, range(lo, hi + 1))
    return HomologyTable(theory="HH", base=module.base, groups=groups)


# ---------------------------------------------------------------------------
# the S-tower

def _s_rank(stage: _MixedStage, n: int) -> int:
    """Rank of the periodicity S: HC_n -> HC_{n-2} of a reduced stage.

    Connes' sequence HH_n --I--> HC_n --S--> HC_{n-2} is exact, so the
    kernel of S is the image of I.  I is the tower map from the stage's
    Hochschild part, whose rank counts the degree-n survivors that part
    already had, so rank S counts the others, born in the second block.
    """
    return len(stage.born_after(n, stage.hh.cells))


def sbi_S_map(
    X: CyclicModule, d: int, k: int
) -> tuple[ExactMatrix, HomologyGroup, HomologyGroup]:
    """The periodicity map HC_{d+2k} -> HC_{d+2k-2} in rank normal form.

    In bases adapted to S the first rank S basis classes of HC_{d+2k} go
    to the first of HC_{d+2k-2} and the others to 0, so the matrix holds
    ones on the leading diagonal and is read for its shape and rank.
    """
    n = d + 2 * k
    if n < 2:
        raise ValueError("need d + 2k >= 2 so both groups exist")
    stage = _first_quadrant(X, max(0, n - 2), n)
    src, tgt = stage.group(n), stage.group(n - 2)
    S = {(i, i): 1 for i in range(_s_rank(stage, n))}
    return ExactMatrix(stage.ring, tgt.dimension, src.dimension, S), src, tgt


def _s_tower_run(
    stage: _ReducedStage, d: int, depth: int, persistence: int
) -> StabilizationReport:
    """Walk HC_{d+2*depth} -> ... -> HC_d on a prepared stage, deepest map first.

    The limit along the tower is determined by its tail, so the verdict
    demands the deepest `persistence` maps be isomorphisms and reports the
    deep group as the value.  Groups below degree 0 are zero.
    """
    rep = StabilizationReport(degree=d, persistence=persistence)

    def group_at(m: int) -> HomologyGroup:
        return stage.group(m) if m >= 0 else HomologyGroup(stage.ring, 0)

    for j in range(depth, -1, -1):
        rep.stages.append((d + 2 * j, group_at(d + 2 * j)))
    run = 0
    run_alive = True
    for j in range(depth, 0, -1):
        n = d + 2 * j
        r = _s_rank(stage, n) if n >= 2 else 0
        src_dim, tgt_dim = group_at(n).dimension, group_at(n - 2).dimension
        if r < src_dim:
            rep.dying.append(
                f"{src_dim - r} class(es) die along S: HC_{n} -> HC_{n - 2}"
            )
        iso = src_dim == tgt_dim and r == src_dim
        if run_alive and iso:
            run += 1
            if run == persistence:
                rep.verdict = "stabilized"
                rep.q_star = d + 2 * depth
                rep.value = rep.stages[0][1]
        elif run_alive and not iso:
            run_alive = False
    return rep


def hp_s_tower_table(
    X: CyclicModule, degrees: tuple[int, int], persistence: int = 3
) -> HomologyTable:
    """S-tower limits over a degree range, sharing one reduced complex.

    Degree d walks depth k = persistence + max(0, -floor(d/2)), the
    shallowest whose persistence run d + 2(k - persistence) >= 0 stays
    inside the first quadrant.  All towers read groups and the ranks of S
    off a single Morse-reduced first-quadrant complex.
    """
    lo_d, hi_d = degrees
    if lo_d > hi_d:
        raise ValueError("empty degree interval")
    depths = {d: persistence + max(0, -(d // 2)) for d in range(lo_d, hi_d + 1)}
    stage = _first_quadrant(X, 0, max(d + 2 * k for d, k in depths.items()))
    reports = {d: _s_tower_run(stage, d, k, persistence) for d, k in depths.items()}
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


def conjugate_dimension_check(
    A,
    degrees: tuple[int, int],
    q_schedule=None,
    persistence: int = 3,
    hp_table: HomologyTable | None = None,
) -> ConjugateReport:
    """Compare stabilized HP^poly dimensions with folded Hochschild ones.

    Over the prime field the twist entering the graded comparison preserves
    dimensions, so for bounded HH the prediction in degree d is
    sum_i dim HH_{d+2i}.  HH dimensions come from a Morse reduction of the
    normalized Hochschild complex; boundedness is checked empirically: the
    top `_HH_MARGIN` computed degrees must vanish, otherwise the check
    refuses rather than folding a possibly infinite sum.

    A caller who already ran the tower for this algebra can pass its table
    as hp_table; it must cover `degrees` and is trusted to belong to A.
    """
    if not A.base.is_field or A.base.characteristic == 0:
        raise ValueError("the comparison is a positive-characteristic statement")
    lo, hi = degrees
    q_check = max(hi, 0) + _HH_MARGIN + 2
    hh_dims = {q: g.dimension for q, g in hh(normalized(A), (0, q_check)).groups.items()}
    nonzero = [q for q, v in hh_dims.items() if v]
    bound = max(nonzero) if nonzero else -1
    if bound > q_check - _HH_MARGIN:
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
        table = hp_poly(CyclicModule(A), degrees, q_schedule, persistence)
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
