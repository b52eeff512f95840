import json

import pytest

from cychom.algebra import CATALOG_NAMES, AlgebraError, catalog
from cychom.bicomplex import (
    _composite_rank,
    _csc,
    _Layout,
    _persistent_rank,
    _plane_operator,
    _plane_stages,
    _stage_map,
    _TotalStage,
    conjugate_dimension_check,
    default_q_schedule,
    hc,
    hc_minus_poly,
    hh,
    hp_poly,
    hp_s_tower_table,
    row_truncated_total,
    sbi_S_map,
)
from cychom.cyclic import cyclic_bar_module, normalized
from cychom.linalg import rank
from cychom.matrix import ExactMatrix
from cychom.rings import GF, QQ
from materialized_plane import truncation_inclusion
from per_stage_towers import composite_rank, persistent_rank, projected_stage_map
from presentation_homology import homology_map, validate_complex
from tuple_operators import dense_complex

F2, F3, F5 = GF(2), GF(3), GF(5)


def module(name, base):
    return cyclic_bar_module(catalog(name, base))


def dim_row(table, lo, hi):
    return [table.dimension(d) for d in range(lo, hi + 1)]


# -- the plane's sign conventions ------------------------------------------------


def test_truncated_total_identities_hold_on_catalog_algebras():
    # D^2 = 0 on a row truncation is the three plane identities on its rows
    built = 0
    for base in (F2, F3, F5, QQ):
        for name in CATALOG_NAMES:
            try:
                X = module(name, base)
            except AlgebraError:  # this algebra does not exist over this base
                continue
            report = row_truncated_total(X, 4, (-2, 3)).validate()
            assert report.ok, (name, base.label(), report.problems)
            built += 1
    assert built == 4 * len(CATALOG_NAMES) - 2  # field-extension(1,1) needs F2 or F3


def test_plane_operator_alternates_with_column_parity():
    X = module("dual-numbers", F3)
    q = 2
    kinds = {(p % 2, vertical): _plane_operator(p, vertical)
             for p in range(-2, 3) for vertical in (False, True)}
    assert kinds == {(0, False): "N", (1, False): "1-t", (0, True): "b", (1, True): "-b'"}
    one_minus_t = ExactMatrix.identity(F3, X.rank(q)).sub(X.cyclic(q))
    expected = {"N": X.norm(q), "1-t": one_minus_t,
                "b": X.hochschild_boundary(q), "-b'": -X.bar_boundary(q)}
    for kind, M in expected.items():
        assert X.coo(kind, q).matrix() == M, kind


def flipped_plane(X):
    return row_truncated_total(X, 3, (-1, 2), flip_bprime_sign=True)


def test_flipped_bprime_sign_is_caught():
    # over F2, or for commutative separable algebras, the flipped square
    # can accidentally still vanish, which would make this control vacuous
    for name in ("dual-numbers", "matrix-algebra(2)"):
        report = flipped_plane(module(name, F3)).validate()
        assert not report.ok, name
        assert report.problems == ["d o d != 0 from degree 1", "d o d != 0 from degree 2"]


def test_flipped_sign_only_breaks_anticommutation():
    # d_h d_h stays in its row and does not involve the vertical sign, and
    # d_v d_v goes two rows down and is (+-b')^2 = 0 with either sign; so
    # every defect of the flipped plane goes exactly one row down
    def row_of(layout, index):
        return max(q for q in layout.qs if layout.offsets[q] <= index)

    for name in ("dual-numbers", "matrix-algebra(2)"):
        X = module(name, F3)
        C = flipped_plane(X)
        for d in (0, 1):
            source, target = _Layout(X, "plane", d + 1, 3), _Layout(X, "plane", d - 1, 3)
            entries = (C.diff(d) * C.diff(d + 1)).entries
            assert entries, (name, d)
            assert all(row_of(target, r) == row_of(source, c) - 1 for r, c in entries), (name, d)


# -- row-truncated totals --------------------------------------------------------


def test_truncated_total_ranks_by_region():
    X = module("dual-numbers", F3)
    row = [X.rank(q) for q in range(5)]  # 2, 4, 8, 16, 32
    C = row_truncated_total(X, 3, (-2, 4), "plane")
    for d in range(-2, 5):
        assert C.rank(d) == sum(row[:4])
    L = row_truncated_total(X, 3, (-2, 4), "left")
    assert L.rank(-2) == sum(row[:4])  # q >= max(0, d) = 0
    assert L.rank(2) == row[2] + row[3]  # q >= 2
    assert L.rank(4) == 0  # q >= 4 exceeds q_max
    F = row_truncated_total(X, 3, (-2, 4), "first")
    assert F.rank(-1) == 0
    assert F.rank(2) == sum(row[:3])  # q <= min(3, 2)
    assert F.rank(4) == sum(row[:4])


def test_truncated_totals_are_complexes():
    X = module("dual-numbers", F3)
    for region in ("plane", "left", "first"):
        assert validate_complex(row_truncated_total(X, 4, (-3, 5), region)).ok


def test_truncated_total_rejects_bad_input():
    X = module("ground-field", F3)
    with pytest.raises(ValueError):
        row_truncated_total(X, 3, (2, 1))
    with pytest.raises(ValueError):
        row_truncated_total(X, 3, (0, 2), "quadrant")


def test_truncation_inclusions_are_chain_maps_and_compose():
    X = module("dual-numbers", F3)
    degrees = (-2, 3)
    f = truncation_inclusion(X, 2, 4, degrees)
    g = truncation_inclusion(X, 4, 6, degrees)
    h = truncation_inclusion(X, 2, 6, degrees)
    assert f.validate().ok and g.validate().ok and h.validate().ok
    for d in range(degrees[0], degrees[1] + 1):
        assert g.component(d) * f.component(d) == h.component(d)
    with pytest.raises(ValueError):
        truncation_inclusion(X, 4, 2, degrees)


# -- reduced stages agree with the materialized route ----------------------------


def test_stage_groups_match_direct_homology():
    X = module("dual-numbers", F3)
    for region in ("plane", "left", "first"):
        stage = _TotalStage(X, region, 3, -1, 3)
        C = row_truncated_total(X, 3, (-2, 4), region)
        for d in range(-1, 4):
            assert stage.group(d).dimension == C.homology(d).dimension, (region, d)


def test_stage_map_matches_homology_of_inclusion():
    # the projection oracle on stages with reductions of their own
    X = module("dual-numbers", F3)
    lo, hi = -1, 2
    src = _TotalStage(X, "plane", 2, lo, hi)
    dst = _TotalStage(X, "plane", 4, lo, hi)
    f = truncation_inclusion(X, 2, 4, (lo - 1, hi + 1))
    for d in range(lo, hi + 1):
        reduced = projected_stage_map(src, dst, d)
        direct, Hs, Ht = homology_map(f, d)
        assert (reduced.nrows, reduced.ncols) == (Ht.dimension, Hs.dimension)
        assert rank(reduced) == rank(direct), d


def test_stage_map_of_equal_truncations_is_identity():
    X = module("ground-field", F5)
    stage = _TotalStage(X, "plane", 5, -2, 2)
    for d in range(-2, 3):
        n = stage.group(d).dimension
        assert projected_stage_map(stage, stage, d) == ExactMatrix.identity(F5, n)
        assert _stage_map(stage, stage, d) == []  # no bar ends


def test_stage_map_refuses_shrinking_truncations():
    X = module("ground-field", F3)
    big = _TotalStage(X, "plane", 4, 0, 1)
    small = _TotalStage(X, "plane", 2, 0, 1)
    with pytest.raises(ValueError):
        projected_stage_map(big, small, 0)
    with pytest.raises(ValueError, match="one reduction"):
        _stage_map(small, big, 0)  # each materialized stage has a reduction of its own
    stage = _plane_stages(X, 0, 1)
    first, second = stage(2), stage(4)
    with pytest.raises(ValueError, match="inside dst"):
        _stage_map(second, first, 0)


def test_tower_stages_are_views_of_one_reduction():
    # a stage keeps its survivors while later rows grow the reduction under
    # it, so maps between two stages read the same later on; Q never goes back
    X = module("dual-numbers", F2)
    stage = _plane_stages(X, -1, 2)
    first, second = stage(4), stage(6)
    assert first.red is second.red
    groups = {d: first.group(d) for d in range(-1, 3)}
    assert len(first.red.degree) == second.cells > first.cells
    ended = _stage_map(first, second, 0)
    third = stage(8)
    assert {d: first.group(d) for d in range(-1, 3)} == groups
    assert third.group(0) == hp_poly(X, (-1, 2), [4, 6, 8], 2).reports[0].stages[-1][1]
    assert _stage_map(first, second, 0) == ended
    with pytest.raises(ValueError):
        stage(7)


# -- cyclic homology -------------------------------------------------------------


def test_hc_degree_zero_is_commutator_quotient():
    for base in (F3, QQ):
        for name in CATALOG_NAMES:
            if name.startswith("field-extension") and base is QQ:
                continue
            A = catalog(name, base)
            X = cyclic_bar_module(A)
            assert hc(X, 0).dimension(0) == A.commutator_quotient(), (name, base)


def test_hc_of_ground_fields_alternates():
    for base in (F5, QQ):
        X = module("ground-field", base)
        assert dim_row(hc(X, 6), 0, 6) == [1, 0, 1, 0, 1, 0, 1]


def test_hc_over_q_does_not_depend_on_a_fractional_basis():
    # rebased by a matrix with entries 1/2 and 3/2, the structure constants
    # get denominators, so the stages carry Fraction entries
    from fractions import Fraction

    from cychom.cyclic import SummandOps

    A = catalog("truncated-poly(3)", QQ)
    P = ExactMatrix(QQ, 3, 3, {(0, 0): 1, (1, 1): 1, (0, 2): Fraction(1, 2), (2, 2): Fraction(3, 2)})
    B = A.rebased(P)
    assert SummandOps(B).scale > 1
    X, Y = cyclic_bar_module(A), cyclic_bar_module(B)
    assert hc(Y, 5).to_json() == hc(X, 5).to_json()
    assert hp_s_tower_table(Y, (0, 1), 2).to_json() == hp_s_tower_table(X, (0, 1), 2).to_json()
    for d in (0, 1):
        assert rank(sbi_S_map(Y, d, 1)[0]) == rank(sbi_S_map(X, d, 1)[0])
    # ranks cannot see a lost denominator (b-bar scaled alone gives an
    # isomorphic complex), so compare a block CSC with the matrices
    nb = normalized(B)
    below = nb.rank(1)
    indptr, rows, vals = _csc(nb.rank(2), [(0, 0, nb.coo("b", 2)), (below, 0, nb.coo("B", 2))])
    got = {(r, j): v for j in range(nb.rank(2)) for r, v in zip(
        rows[indptr[j]:indptr[j + 1]].tolist(), vals[indptr[j]:indptr[j + 1]].tolist())}
    want = dict(nb.boundary(2).entries)
    want.update({(below + i, j): v for (i, j), v in nb.connes(2).entries.items()})
    assert got == want and any(v.denominator > 1 for v in got.values())


def test_hc_rejects_negative_top_degree():
    with pytest.raises(ValueError):
        hc(module("ground-field", F3), -1)


def test_periodicity_map_on_ground_field_is_iso():
    X = module("ground-field", F3)
    for d, k in ((0, 1), (0, 2), (2, 1)):
        S, src, tgt = sbi_S_map(X, d, k)
        assert src.dimension == tgt.dimension == 1
        assert rank(S) == 1
    with pytest.raises(ValueError):
        sbi_S_map(X, 0, 0)


# -- towers and their verdicts ---------------------------------------------------


def test_rational_ground_field_gap():
    # the central phenomenon: the direct-sum theory vanishes while the
    # S-tower limit keeps a class in every even degree
    X = module("ground-field", QQ)
    table = hp_poly(X, (-2, 2), q_schedule=range(4, 15, 2))
    assert dim_row(table, -2, 2) == [0, 0, 0, 0, 0]
    for d in range(-2, 3):
        assert table.reports[d].verdict == "stabilized"
    tower = hp_s_tower_table(X, (0, 0))
    assert tower.reports[0].verdict == "stabilized"
    assert tower.dimension(0) == 1


def test_s_tower_table_matches_single_degree_route():
    X = module("ground-field", QQ)
    table = hp_s_tower_table(X, (-3, 3))
    assert dim_row(table, -3, 3) == [0, 1, 0, 1, 0, 1, 0]
    for d in (-3, 0, 2):
        single = hp_s_tower_table(X, (d, d))
        assert single.dimension(d) == table.dimension(d)
        assert single.reports[d].to_json() == table.reports[d].to_json()


def test_s_tower_depth_guards():
    # every degree walks depth + 1 stages, and the deepest persistence run
    # ends in degree >= 0: below the quadrant the groups are zero and their
    # maps vacuous isomorphisms
    X = module("ground-field", QQ)
    for persistence in (2, 3, 4):
        table = hp_s_tower_table(X, (-8, 8), persistence)
        for d, rep in table.reports.items():
            depth = persistence + max(0, -(d // 2))
            assert [n for n, _ in rep.stages] == [d + 2 * j for j in range(depth, -1, -1)]
            assert rep.stages[persistence][0] >= 0, (persistence, d)
    with pytest.raises(ValueError):
        hp_s_tower_table(X, (2, -2))


def test_char_p_pattern_small():
    X = module("ground-field", F3)
    table = hp_poly(X, (0, 1), q_schedule=range(8, 21, 2))
    assert table.dimension(0) == 1
    assert table.dimension(1) == 0


def test_f5_plateau_between_deaths_is_not_trusted():
    # odd-degree truncation stages over F5 carry an edge class that dies
    # every tenth row; with a step-2 schedule the maps between deaths form
    # iso runs long enough to fool a bare run count, and the verdict must
    # come from a certificate that composes across stages instead
    X = module("ground-field", F5)
    table = hp_poly(X, (0, 1), q_schedule=range(12, 25, 2))
    assert table.dimension(0) == 1
    assert table.dimension(1) == 0
    rep = table.reports[1]
    assert rep.verdict in ("stabilized", "stabilized-persistent")
    assert rep.value.dimension == 0


def test_2_periodicity_of_stabilized_tables():
    X = module("ground-field", F2)
    table = hp_poly(X, (-2, 2), q_schedule=range(8, 21, 2))
    dims = dim_row(table, -2, 2)
    assert None not in dims
    assert dims[0] == dims[2] == dims[4]
    assert dims[1] == dims[3]


def test_hc_minus_poly_ground_field_pattern():
    X = module("ground-field", F3)
    table = hc_minus_poly(X, (-4, 2), q_schedule=range(8, 21, 2))
    assert dim_row(table, -4, 2) == [1, 0, 1, 0, 1, 0, 0]


def test_unresolved_tower_reports_no_value():
    # one map, so no certificate can fire; the last stage holds a class in
    # degrees -1 and 1, where the colimit is 0, so a stage group bounds
    # nothing and the report carries no value
    X = module("ground-field", F5)
    table = hp_poly(X, (-2, 2), q_schedule=[4, 6])
    for d in range(-2, 3):
        rep = table.reports[d]
        assert table.dimension(d) is None
        assert rep.verdict == "not-stabilized"
        assert rep.value is None and rep.value_kind == "unresolved"
        assert rep.to_json()["value"] is None
    assert [table.reports[d].stages[-1][1].dimension for d in (-1, 1)] == [1, 1]


# Over F_p only rows q = -1 (mod p) keep orbit cells, so a schedule step
# that adds no such row leaves the reduced tower unchanged and its map is
# the identity; both certificates count it as evidence.  These schedules
# lean on such steps and certify values that differ from the closed forms
# (the ground field's k in even degrees, and Morita invariance).
UNSOUND_SCHEDULES = [
    (hp_poly, "ground-field", F5, (-2, 2), range(4, 15, 2), [1, 0, 1, 0, 1]),
    (hc_minus_poly, "ground-field", F3, (-2, 0), range(2, 11), [1, 0, 1]),
    (hp_poly, "matrix-algebra(2)", F5, (0, 1), range(4, 11), [1, 0]),
    (hc_minus_poly, "matrix-algebra(2)", F3, (-2, 0), range(2, 13), [1, 0, 1]),
]


@pytest.mark.xfail(strict=True, reason="steps without survivor rows certify wrong values")
@pytest.mark.parametrize(
    "theory,name,base,degrees,schedule,closed",
    UNSOUND_SCHEDULES,
    ids=[f"{t.__name__}-{n}-{b.label()}" for t, n, b, *_ in UNSOUND_SCHEDULES],
)
def test_verdicts_agree_with_closed_forms(theory, name, base, degrees, schedule, closed):
    table = theory(module(name, base), degrees, list(schedule))
    values = dim_row(table, *degrees)
    assert all(v is None or v == c for v, c in zip(values, closed)), values


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the default schedule's step 4 -> 8 (degrees up to 0) or "
    "9 -> 13 (up to 1) adds no survivor row over F5, and the certificates count its "
    "identity map",
)
@pytest.mark.parametrize(
    "theory,degrees,dropped", [(hc_minus_poly, (-2, 0), 8), (hp_poly, (0, 1), 13)]
)
def test_steps_without_survivor_rows_do_not_change_tables(theory, degrees, dropped):
    # over F5 survivors sit in rows 4, 9, 14, ...: dropping row 8 from the
    # default schedule 4, 8, ..., 24, or row 13 from 5, 9, ..., 25, drops a
    # step that adds none
    X = module("dual-numbers", F5)
    default = theory(X, degrees)
    schedule = [q for q in default_q_schedule(degrees[1]) if q != dropped]
    assert dim_row(default, *degrees) == dim_row(theory(X, degrees, schedule), *degrees)


def test_tower_schedule_guards():
    X = module("ground-field", F3)
    with pytest.raises(ValueError):
        hp_poly(X, (0, 1), q_schedule=[4, 4, 6])
    with pytest.raises(ValueError):
        hp_poly(X, (0, 1), q_schedule=[6, 4])
    with pytest.raises(ValueError):
        hp_poly(X, (0, 1), q_schedule=[4])
    with pytest.raises(ValueError):
        hp_poly(X, (0, 1), q_schedule=[4, 6, 8], persistence=1)
    with pytest.raises(ValueError):
        hp_poly(X, (1, 0))


def test_default_schedule_shape():
    assert default_q_schedule(0) == [4, 8, 12, 16, 20, 24]
    assert default_q_schedule(6)[0] == 10
    assert len(default_q_schedule(6)) == 6


def test_table_json_round_trip_and_determinism():
    X = module("ground-field", F3)
    a = hp_poly(X, (0, 1), q_schedule=range(8, 21, 2)).to_json()
    b = hp_poly(X, (0, 1), q_schedule=range(8, 21, 2)).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["theory"] == "HPpoly"
    assert a["degrees"]["0"] is not None
    assert "verdicts" in a


# -- certificate internals -------------------------------------------------------


def diag(ring, entries):
    n = len(entries)
    return ExactMatrix(
        ring, n, n, {(i, i): ring.coerce(c) for i, c in enumerate(entries) if c}
    )


# Each example is a tower of diagonal maps on stages q = 0, 1, 2, ..., given
# as the matrices of the oracle and as the bars (birth, death) of the tower.


def test_composite_rank_multiplies_down_the_chain():
    ring = F5
    maps = [diag(ring, [1, 1]), diag(ring, [1, 0]), diag(ring, [1, 1])]
    assert [composite_rank(maps, i) for i in range(3)] == [1, 1, 2]
    # the second class dies at stage 2, where a new one is born
    bars = [(0, None), (0, 2), (2, None)]
    assert [_composite_rank(bars, i, 3) for i in range(3)] == [1, 1, 2]
    assert _composite_rank(bars, 0, 1) == 2


def test_persistent_rank_sees_through_plateaus():
    ring = F5
    # three isos in a row, but the newest stage dies later: anchored
    # composites agree on rank 0, so the persistent value is 0
    maps = [diag(ring, [1]), diag(ring, [1]), diag(ring, [1]), diag(ring, [0])]
    assert persistent_rank(maps, 2) == 0
    bars = [(0, 4), (4, None)]
    assert _persistent_rank(bars, [0, 1, 2, 3, 4], 2) == 0


def test_persistent_rank_withholds_on_disagreement():
    ring = F5
    maps = [diag(ring, [1, 0]), diag(ring, [1, 1]), diag(ring, [1, 1])]
    # anchor at stage 0 sees rank 1, anchor at stage 1 sees rank 2
    assert persistent_rank(maps, 2) is None
    bars = [(0, None), (0, 1), (1, None)]
    assert _persistent_rank(bars, [0, 1, 2, 3], 2) is None


# -- conjugate-filtration bookkeeping --------------------------------------------


def test_conjugate_dimension_check_ground_field():
    A = catalog("ground-field", F3)
    report = conjugate_dimension_check(A, (0, 3), q_schedule=range(8, 21, 2))
    assert not report.refused
    assert report.ok
    assert {d for d, _, _, _ in report.rows} == {0, 1, 2, 3}
    for _, left, right, status in report.rows:
        assert status == "equal"
        assert left == right


@pytest.mark.parametrize(
    "name,base,top",
    [("dual-numbers", F3, 6), ("matrix-algebra(2)", GF(2), 4), ("group-algebra(3)", F3, 5)],
)
def test_sparse_hochschild_dims_match_dense_homology(name, base, top):
    # the reduction route of conjugate_dimension_check against dense rref
    nb = normalized(catalog(name, base))
    dense = dense_complex(nb, top + 1, nb.boundary)
    expected = {q: dense.homology(q).dimension for q in range(top + 1)}
    assert {q: g.dimension for q, g in hh(nb, (0, top)).groups.items()} == expected
    assert any(expected.values())


def test_conjugate_dimension_check_rejects_char_zero():
    A = catalog("ground-field", QQ)
    with pytest.raises(ValueError):
        conjugate_dimension_check(A, (0, 1), q_schedule=range(4, 15, 2))
