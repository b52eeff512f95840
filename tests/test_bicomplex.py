import json

import pytest

from cychom.algebra import CATALOG_NAMES, catalog
from cychom.bicomplex import (
    PeriodicBicomplexWindow,
    WindowError,
    _composite_rank,
    _csc,
    _hochschild_dims,
    _persistent_rank,
    _PlaneOperators,
    _plane_stages,
    _stage_map,
    _TotalStage,
    build_window,
    conjugate_dimension_check,
    default_q_schedule,
    hc,
    hc_minus_poly,
    hp_poly,
    hp_s_tower_table,
    hp_via_S_tower,
    row_truncated_total,
    sbi_S_map,
)
from cychom.complexes import homology_map, validate_complex
from cychom.cyclic import cyclic_bar_module, normalized
from cychom.linalg import rank
from cychom.matrix import ExactMatrix
from cychom.rings import GF, QQ
from materialized_plane import truncation_inclusion

F2, F3, F5 = GF(2), GF(3), GF(5)


def module(name, base):
    return cyclic_bar_module(catalog(name, base))


def dim_row(table, lo, hi):
    return [table.dimension(d) for d in range(lo, hi + 1)]


# -- windows and the sign conventions -------------------------------------------


def test_window_identities_hold_on_catalog_algebras():
    for name, base in (("dual-numbers", F3), ("field-extension(1,1)", F2),
                       ("matrix-algebra(2)", QQ)):
        w = build_window(module(name, base), -2, 3, 4)
        assert w.validate().ok


def test_window_entry_ranks_are_row_ranks():
    X = module("dual-numbers", F3)
    w = build_window(X, -1, 2, 3)
    assert w.entry_rank(0, 2) == X.rank(2) == 8
    assert w.entry_rank(-1, 2) == 8
    with pytest.raises(ValueError):
        w.entry_rank(4, 0)


def test_window_horizontal_operator_alternates_with_column_parity():
    X = module("dual-numbers", F3)
    w = build_window(X, -2, 2, 2)
    q = 1
    N = X.norm(q)
    one_minus_t = ExactMatrix.identity(F3, X.rank(q)).sub(X.cyclic(q))
    for p in (-2, 0, 2):
        assert w.d_h(p, q) == N
    for p in (-1, 1):
        assert w.d_h(p, q) == one_minus_t


def test_flipped_bprime_sign_is_caught():
    # dual numbers over F3: over F2, or for commutative separable algebras,
    # the flipped square can accidentally still vanish, which would make
    # this control vacuous
    X = module("dual-numbers", F3)
    with pytest.raises(WindowError):
        build_window(X, -2, 2, 3, flip_bprime_sign=True)
    report = PeriodicBicomplexWindow(X, -2, 2, 3, flip_bprime_sign=True).validate()
    assert not report.ok
    assert any("d_h d_v + d_v d_h" in msg for msg in report.problems)


def test_flipped_sign_only_breaks_anticommutation():
    # the two square-zero identities do not involve the vertical sign,
    # so only the anticommutation squares may appear among the problems
    X = module("dual-numbers", F3)
    report = PeriodicBicomplexWindow(X, -2, 2, 3, flip_bprime_sign=True).validate()
    assert all("d_h d_h" not in msg and "d_v d_v" not in msg
               for msg in report.problems)


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
    ops = _PlaneOperators(X)
    for region in ("plane", "left", "first"):
        stage = _TotalStage(ops, region, 3, -1, 3)
        C = row_truncated_total(X, 3, (-2, 4), region)
        for d in range(-1, 4):
            assert stage.group(d).dimension == C.homology(d).dimension, (region, d)


def test_stage_map_matches_homology_of_inclusion():
    X = module("dual-numbers", F3)
    ops = _PlaneOperators(X)
    lo, hi = -1, 2
    src = _TotalStage(ops, "plane", 2, lo, hi)
    dst = _TotalStage(ops, "plane", 4, lo, hi)
    f = truncation_inclusion(X, 2, 4, (lo - 1, hi + 1))
    for d in range(lo, hi + 1):
        reduced = _stage_map(src, dst, d)
        direct, Hs, Ht = homology_map(f, d)
        assert (reduced.nrows, reduced.ncols) == (Ht.dimension, Hs.dimension)
        assert rank(reduced) == rank(direct), d


def test_stage_map_of_equal_truncations_is_identity():
    X = module("ground-field", F5)
    ops = _PlaneOperators(X)
    stage = _TotalStage(ops, "plane", 5, -2, 2)
    for d in range(-2, 3):
        n = stage.group(d).dimension
        assert _stage_map(stage, stage, d) == ExactMatrix.identity(F5, n)


def test_stage_map_refuses_shrinking_truncations():
    X = module("ground-field", F3)
    ops = _PlaneOperators(X)
    big = _TotalStage(ops, "plane", 4, 0, 1)
    small = _TotalStage(ops, "plane", 2, 0, 1)
    with pytest.raises(ValueError):
        _stage_map(big, small, 0)


def test_tower_stages_are_views_of_one_reduction():
    # a stage keeps its survivors while later rows grow the reduction under
    # it; maps project into the latest stage only, and Q never goes back
    X = module("dual-numbers", F2)
    stage = _plane_stages(X, -1, 2)
    first, second = stage(4), stage(6)
    assert first.red is second.red
    groups = {d: first.group(d) for d in range(-1, 3)}
    assert len(first.red.degree) > first.steps and second.steps > first.steps
    _stage_map(first, second, 0)
    third = stage(8)
    assert {d: first.group(d) for d in range(-1, 3)} == groups
    assert third.group(0) == hp_poly(X, (-1, 2), [4, 6, 8], 2).reports[0].stages[-1][1]
    with pytest.raises(ValueError):
        _stage_map(first, second, 0)
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

    from cychom.cyclic import _BarOperators

    A = catalog("truncated-poly(3)", QQ)
    P = ExactMatrix(QQ, 3, 3, {(0, 0): 1, (1, 1): 1, (0, 2): Fraction(1, 2), (2, 2): Fraction(3, 2)})
    B = A.rebased(P)
    assert _BarOperators(B).scale > 1
    X, Y = cyclic_bar_module(A), cyclic_bar_module(B)
    assert hc(Y, 5).to_json() == hc(X, 5).to_json()
    assert hp_s_tower_table(Y, (0, 1), None, 2).to_json() == hp_s_tower_table(X, (0, 1), None, 2).to_json()
    for d in (0, 1):
        assert rank(sbi_S_map(Y, d, 1)[0]) == rank(sbi_S_map(X, d, 1)[0])
    # ranks cannot see a lost denominator (b-bar scaled alone gives an
    # isomorphic complex), so compare a block CSC with the matrices
    nb = normalized(B)
    below = nb.rank(1)
    indptr, rows, vals = _csc(nb.rank(2), [(0, 0, nb.boundary_coo(2)), (below, 0, nb.connes_coo(2))])
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
    limit, rep = hp_via_S_tower(X, 0, 4)
    assert rep.verdict == "stabilized"
    assert limit.dimension == 1


def test_s_tower_table_matches_single_degree_route():
    X = module("ground-field", QQ)
    table = hp_s_tower_table(X, (-3, 3))
    assert dim_row(table, -3, 3) == [0, 1, 0, 1, 0, 1, 0]
    for d in (-3, 0, 2):
        K = 3 + max(0, -(d // 2))
        limit, _ = hp_via_S_tower(X, d, K)
        assert table.dimension(d) == limit.dimension


def test_s_tower_depth_guards():
    X = module("ground-field", QQ)
    with pytest.raises(ValueError):
        hp_via_S_tower(X, 0, 2, persistence=3)
    with pytest.raises(ValueError):
        hp_via_S_tower(X, -4, 3, persistence=3)  # run would leave the quadrant
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


def test_unresolved_tower_reports_lower_bound_only():
    X = module("ground-field", QQ)
    table = hp_poly(X, (0, 0), q_schedule=[4, 6])  # one map: no certificate
    assert table.dimension(0) is None
    rep = table.reports[0]
    assert rep.verdict == "not-stabilized"
    assert rep.value_kind == "lower-bound"


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


def test_composite_rank_multiplies_down_the_chain():
    ring = F5
    maps = [diag(ring, [1, 1]), diag(ring, [1, 0]), diag(ring, [1, 1])]
    assert _composite_rank(maps, 0) == 1
    assert _composite_rank(maps, 1) == 1
    assert _composite_rank(maps, 2) == 2


def test_persistent_rank_sees_through_plateaus():
    ring = F5
    # three isos in a row, but the newest stage dies later: anchored
    # composites agree on rank 0, so the persistent value is 0
    maps = [diag(ring, [1]), diag(ring, [1]), diag(ring, [1]), diag(ring, [0])]
    assert _persistent_rank(maps, 2) == 0


def test_persistent_rank_withholds_on_disagreement():
    ring = F5
    maps = [diag(ring, [1, 0]), diag(ring, [1, 1]), diag(ring, [1, 1])]
    # anchor at stage 0 sees rank 1, anchor at stage 1 sees rank 2
    assert _persistent_rank(maps, 2) is None


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
    dense = nb.hochschild_complex(top + 1)
    expected = {q: dense.homology(q).dimension for q in range(top + 1)}
    assert _hochschild_dims(nb, top) == expected
    assert any(expected.values())


def test_conjugate_dimension_check_rejects_char_zero():
    A = catalog("ground-field", QQ)
    with pytest.raises(ValueError):
        conjugate_dimension_check(A, (0, 1), q_schedule=range(4, 15, 2))
