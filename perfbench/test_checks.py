"""The benchmark's own tests: each check passes a right table and rejects a wrong one.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cychom  # noqa: E402
from cychom.bicomplex import hc, hc_minus_poly, hp_poly, hp_s_tower_table, sbi_S_map  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _seeded(name, base, seed=7):
    sa = workloads.seeded_algebra(cychom, name, base, seed)
    X = cychom.cyclic_bar_module(cychom.algebra_from_json(sa.doc))
    return sa, X


def _bump(table, degree):
    wrong = copy.deepcopy(table)
    wrong["degrees"][str(degree)]["free_rank"] += 1
    return wrong


def test_commutator_quotient_dims():
    assert checks.commutator_quotient_dim(_seeded("matrix-algebra(2)", "F3")[0].doc) == 1
    assert checks.commutator_quotient_dim(_seeded("truncated-poly(3)", "Q")[0].doc) == 3
    assert checks.commutator_quotient_dim(_seeded("field-extension(1,0,1)", "F2")[0].doc) == 3


def test_seeded_algebra_keeps_unit_first_and_repeats():
    a = workloads.seeded_algebra(cychom, "matrix-algebra(2)", "F2", 3)
    b = workloads.seeded_algebra(cychom, "matrix-algebra(2)", "F2", 3)
    assert a.doc == b.doc
    assert a.doc["unit"] == [1, 0, 0, 0]
    assert sorted(a.permutation) == [0, 1, 2, 3] and a.permutation[0] == 0
    perms = {tuple(workloads.seeded_algebra(cychom, "matrix-algebra(2)", "F2", s).permutation)
             for s in range(6)}
    assert len(perms) > 1


def test_closed_form_rejects_wrong_value():
    sa, X = _seeded("field-extension(1,1)", "F2")
    table = hp_poly(X, (-1, 2), list(range(0, 13, 2))).to_json()
    qdim = checks.commutator_quotient_dim(sa.doc)
    assert checks.check_closed(table, qdim) == []
    assert checks.check_settle(table) == []
    assert checks.check_closed(_bump(table, 1), qdim)
    assert checks.check_closed(_bump(table, 2), qdim)


def test_closed_form_ignores_positive_hc_minus_degrees():
    table = {"theory": "HC-poly", "degrees": {"1": {"free_rank": 5, "torsion": []}}}
    assert checks.check_closed(table, 1) == []
    table["theory"] = "HPpoly"
    assert checks.check_closed(table, 1)


def test_settle_rejects_missing_value():
    table = {"theory": "HPpoly", "degrees": {"0": {"free_rank": 1, "torsion": []}, "1": None}}
    assert checks.check_settle(table) == ["HPpoly degree 1 did not stabilize"]


def test_hc_form_and_connes_reject_wrong_tables():
    sa, X = _seeded("truncated-poly(3)", "F2")
    table = hc(X, 5).to_json()
    mixed = checks.NormalizedMixed(sa.doc)
    assert [mixed.hc_dim(n) for n in range(6)] == [table["degrees"][str(n)]["free_rank"]
                                                  for n in range(6)]

    def s_rank(n):
        M, _, _ = sbi_S_map(X, n - 2, 1)
        return checks.sparse_rank(M.entries, M.nrows, M.ncols, 2)

    hh = mixed.hh_dims(4)
    assert checks.check_connes(table, hh, s_rank, 4) == []
    assert checks.check_connes(_bump(table, 2), hh, s_rank, 4)
    assert checks.check_connes(table, hh, lambda n: 0, 4)

    ground = hc(cychom.cyclic_bar_module(cychom.catalog("ground-field", cychom.GF(3))), 4)
    assert checks.check_hc_form(ground.to_json(), 1) == []
    assert checks.check_hc_form(_bump(ground.to_json(), 3), 1)


def test_hh_oracle_matches_known_values():
    # HH_n of k[x]/x^2 over F_2 is 2-dimensional in every degree
    sa, _ = _seeded("dual-numbers", "F2")
    assert checks.NormalizedMixed(sa.doc).hh_dims(4) == {n: 2 for n in range(5)}


@pytest.mark.parametrize("theory", ["HPpoly", "HC-poly", "HP"])
def test_stage_check_rejects_wrong_stage(theory):
    sa, X = _seeded("truncated-poly(3)", "F2")
    if theory == "HPpoly":
        table = hp_poly(X, (0, 1), [1, 2, 3, 4]).to_json()
    elif theory == "HC-poly":
        table = hc_minus_poly(X, (-1, 0), [1, 2, 3]).to_json()
    else:
        table = hp_s_tower_table(X, (0, 2)).to_json()
    stages = checks.StageGroups(theory, X, checks.NormalizedMixed(sa.doc))
    assert checks.check_stages(table, stages) == []
    wrong = copy.deepcopy(table)
    wrong["verdicts"]["0"]["stages"][-1]["group"]["free_rank"] += 1
    assert checks.check_stages(wrong, stages)


def test_stage_check_demands_a_checked_stage():
    sa, X = _seeded("truncated-poly(3)", "F2")
    table = hp_poly(X, (0, 0), [1, 2]).to_json()
    stages = checks.StageGroups("HPpoly", X, checks.NormalizedMixed(sa.doc))
    for stage in table["verdicts"]["0"]["stages"]:
        stage["at"] = 12
    assert checks.check_stages(table, stages) == ["HPpoly degree 0: no stage small enough to check"]


def test_gate_check_rejects_failed_or_missing_criteria():
    doc = {"checks": [{"name": "a", "ok": True}, {"name": "b", "ok": True}]}
    assert checks.check_gate(doc, 2) == []
    assert checks.check_gate(doc, 3)
    doc["checks"][1]["ok"] = False
    assert checks.check_gate(doc, 2) == ["criterion b failed"]


def test_kept_failing_jobs_fail_their_checks():
    for workload, name in (("orbit-towers", "hp-poly.ground-field.F5"),
                           ("chain-reduction", "hc-minus-poly.ground-field.F3")):
        (job,) = [j for j in workloads.WORKLOADS[workload] if j.name == name]
        assert name in workloads.KEPT_FAILING
        sa, X = _seeded(job.algebra, job.base)
        lo, hi = (int(x) for x in job.args[1].split(".."))
        schedule = [int(q) for q in job.args[3].split(",")]
        run = hp_poly if job.command == "hp-poly" else hc_minus_poly
        table = run(X, (lo, hi), schedule).to_json()
        assert checks.check_closed(table, checks.commutator_quotient_dim(sa.doc))


def test_job_names_fit_metric_names():
    import re

    for jobs in workloads.WORKLOADS.values():
        for job in jobs:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", job.name)
            assert len(f"job.{job.name}_s") <= 64


def test_tracer_counts_spans_and_reports_missing_targets(monkeypatch):
    from spans import Tracer

    import cychom.linalg
    from cychom.bicomplex import _composite_rank

    tracer = Tracer()
    targets = tracer.targets()
    monkeypatch.setattr(tracer, "targets", lambda: targets + [
        ("gone.layer", "bicomplex", "_no_such_function", None, None)])
    original_rref = cychom.linalg.rref
    tracer.install()
    try:
        X = cychom.cyclic_bar_module(cychom.catalog("ground-field", cychom.GF(3)))
        hp_poly(X, (0, 1), [2, 4, 6, 8, 10, 12])
    finally:
        tracer.uninstall()
    assert cychom.linalg.rref is original_rref
    assert cychom.bicomplex._composite_rank is _composite_rank
    assert tracer.missing == {"gone.layer"}
    assert tracer.counts["bicomplex.stages"] == 6
    assert tracer.counts["orbits.boundary_calls"] > 0
    assert tracer.counts["reduction.cells"] >= tracer.counts["reduction.survivors"] > 0
    assert tracer.self_s["orbits.boundary"] > 0
    kinds = {rec[1] for rec in tracer.spans}
    assert {"bicomplex.stage", "reduction.reduce", "bicomplex.tower_map"} <= kinds
