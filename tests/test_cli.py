import json

import pytest

from cychom.algebra import algebra_to_json, catalog
from cychom.cli import RunConfig, SpecError, _parse_degrees, _parse_schedule, main
from cychom.rings import GF, QQ


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


# -- config plumbing -------------------------------------------------------------


def test_degree_parsing_handles_negatives():
    assert _parse_degrees("-6..10") == (-6, 10)
    assert _parse_degrees("0..0") == (0, 0)
    with pytest.raises(SpecError):
        _parse_degrees("3")
    with pytest.raises(SpecError):
        _parse_degrees("a..b")


def test_schedule_parsing():
    assert _parse_schedule("8,10,12") == [8, 10, 12]
    with pytest.raises(SpecError):
        _parse_schedule("8;10")


def test_config_invariants():
    RunConfig(command="hc", degrees=(0, 4)).validate()
    with pytest.raises(SpecError):
        RunConfig(command="hc", degrees=(4, 0)).validate()
    with pytest.raises(SpecError):
        RunConfig(command="hp-poly", degrees=(0, 1), persistence=1).validate()


# -- happy paths -----------------------------------------------------------------


def test_hp_poly_char_p_example(capsys):
    code, out = run_cli(
        capsys,
        [
            "hp-poly", "--algebra", "ground-field", "--base", "Fp", "--p", "3",
            "--degrees", "-6..10", "--format", "csv",
        ],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    dims = {int(d): cell for _, d, cell in rows}
    assert all(dims[d] == ("1" if d % 2 == 0 else "0") for d in range(-6, 11))


def test_tate_example_shape(capsys):
    code, doc = run_json(
        capsys,
        ["tate", "--group-order", "4", "--module", "trivial-Z", "--degrees", "-4..4"],
    )
    assert code == 0
    assert doc["config"]["group_order"] == 4
    degrees = doc["tables"]["Tate"]["degrees"]
    for d in range(-4, 5):
        want = {"free_rank": 0, "torsion": [4] if d % 2 == 0 else []}
        assert degrees[str(d)] == want


def test_hh_normalized_routes_agree(capsys):
    dims = {}
    for mode in ("on", "off"):
        code, doc = run_json(
            capsys,
            [
                "hh", "--algebra", "dual-numbers", "--base", "Fp", "--p", "2",
                "--degrees", "0..4", "--normalized", mode,
            ],
        )
        assert code == 0
        dims[mode] = {
            d: g["free_rank"] for d, g in doc["tables"]["HH"]["degrees"].items()
        }
    assert dims["on"] == dims["off"]


def test_hh_over_z_has_two_torsion_in_odd_degrees(capsys):
    # HH of Z[x]/x^2: Z^2 in degree 0, then Z + Z/2 in odd and Z in even degrees
    code, doc = run_json(
        capsys, ["hh", "--algebra", "dual-numbers", "--base", "Z", "--degrees", "0..4"]
    )
    assert code == 0
    table = doc["tables"]["HH"]
    assert (table["theory"], table["base"]) == ("HH", "Z")
    assert table["degrees"] == {
        "0": {"free_rank": 2, "torsion": []},
        **{str(d): {"free_rank": 1, "torsion": [2] if d % 2 else []} for d in range(1, 5)},
    }


def test_algebra_json_file_matches_catalog(capsys, tmp_path):
    path = tmp_path / "dual3.json"
    path.write_text(json.dumps(algebra_to_json(catalog("dual-numbers", GF(3)))))
    code_file, doc_file = run_json(
        capsys, ["hc", "--algebra", str(path), "--degrees", "0..3"]
    )
    code_cat, doc_cat = run_json(
        capsys,
        ["hc", "--algebra", "dual-numbers", "--base", "Fp", "--p", "3", "--degrees", "0..3"],
    )
    assert code_file == code_cat == 0
    assert doc_file["tables"] == doc_cat["tables"]


def test_config_reports_the_ring_of_an_algebra_file(capsys, tmp_path):
    # the file fixes the ring and --base does not apply, so the config must
    # name the file's ring, not --base or its default
    f3 = tmp_path / "dual3.json"
    f3.write_text(json.dumps(algebra_to_json(catalog("dual-numbers", GF(3)))))
    q = tmp_path / "dualq.json"
    q.write_text(json.dumps(algebra_to_json(catalog("dual-numbers", QQ))))
    runs = [
        (["hc", "--algebra", str(f3), "--degrees", "0..1"], ("Fp", 3)),
        (["hp-poly", "--algebra", str(f3), "--base", "Z", "--degrees", "0..0",
          "--q-schedule", "2,4"], ("Fp", 3)),
        (["hc", "--algebra", str(q), "--base", "Fp", "--p", "5", "--degrees", "0..1"],
         ("Q", None)),
    ]
    for argv, (base, p) in runs:
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["config"]["base"] == base
        assert doc["config"].get("p") == p


def test_default_schedule_echoed_in_report(capsys):
    code, doc = run_json(
        capsys,
        ["hp-poly", "--algebra", "ground-field", "--base", "Q", "--degrees", "0..2"],
    )
    assert code == 0
    assert doc["config"]["q_schedule"] == [6, 10, 14, 18, 22, 26]
    assert doc["config"]["persistence"] == 3
    verdicts = doc["tables"]["HPpoly"]["verdicts"]
    assert set(verdicts) == {"0", "1", "2"}


def test_hc_minus_poly_default_schedule_finishes(capsys):
    # rows 4..24 of the left region: materialized, row 24 alone has 2^25
    # basis tuples; reduced per orbit, the whole tower takes well under a second
    code, doc = run_json(
        capsys,
        ["hc-minus-poly", "--algebra", "dual-numbers", "--base", "Fp", "--p", "3",
         "--degrees", "-2..0"],
    )
    assert code == 0
    assert doc["config"]["q_schedule"] == [4, 8, 12, 16, 20, 24]
    verdicts = doc["tables"]["HC-poly"]["verdicts"]
    assert [len(verdicts[d]["stages"]) for d in ("-2", "-1", "0")] == [6, 6, 6]


def test_csv_leaves_unstabilized_dimensions_blank(capsys):
    code, out = run_cli(
        capsys,
        [
            "hp-poly", "--algebra", "dual-numbers", "--base", "Fp", "--p", "3",
            "--degrees", "0..0", "--q-schedule", "4,6,8,10,12", "--format", "csv",
        ],
    )
    assert code == 0
    assert "HPpoly,0,\n" in out or out.endswith("HPpoly,0,")


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        [
            "hc", "--algebra", "ground-field", "--base", "Q", "--degrees", "0..2",
            "--out", str(target),
        ],
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["tables"]["HC"]["degrees"]["0"]["free_rank"] == 1


def test_repeat_runs_are_identical_modulo_timings(capsys):
    argv = ["tate", "--group-order", "6", "--degrees", "-3..3"]
    _, doc1 = run_json(capsys, argv)
    _, doc2 = run_json(capsys, argv)
    doc1.pop("timings")
    doc2.pop("timings")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_verify_single_criterion(capsys):
    code, out = run_cli(capsys, ["verify", "--suite", "construction-5-1"])
    doc = json.loads(out)
    assert code == 0
    assert [c["name"] for c in doc["checks"]] == ["construction-5-1"]
    assert doc["checks"][0]["ok"] is True


def test_verify_empty_selection_passes(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", ""])
    assert code == 0
    assert doc["checks"] == []


# -- failure and error paths -----------------------------------------------------


def test_failed_check_exits_one(capsys):
    # dual numbers have unbounded Hochschild homology, so the bookkeeping
    # check refuses; a refusal is a failed check, not a config error
    code, doc = run_json(
        capsys,
        [
            "conjugate-check", "--algebra", "dual-numbers", "--base", "Fp", "--p", "3",
            "--degrees", "0..1", "--q-schedule", "6,8,10,12,14",
        ],
    )
    assert code == 1
    assert doc["checks"][0]["ok"] is False
    assert doc["checks"][0]["refused"] is True


def test_invalid_configs_exit_two(capsys):
    cases = [
        ["hc", "--algebra", "ground-field", "--base", "Q", "--degrees", "4..2"],
        ["hc", "--algebra", "ground-field", "--base", "Fp", "--degrees", "0..2"],
        ["hc", "--degrees", "0..2"],
        ["hc", "--algebra", "no-such-algebra", "--base", "Q", "--degrees", "0..2"],
        ["hp-poly", "--algebra", "ground-field", "--base", "Q", "--degrees", "0..2", "--persistence", "1"],
        ["verify", "--suite", "no-such-criterion"],
        ["tate", "--group-order", "0", "--degrees", "-2..2"],
        ["check-5-3", "--group-order", "1"],
        ["conjugate-check", "--algebra", "ground-field", "--base", "Q", "--degrees", "0..1"],
    ]
    for argv in cases:
        code = main(argv)
        capsys.readouterr()
        assert code == 2, argv


def test_mod_n_module_off_z_exits_two(capsys):
    argv = ["tate", "--group-order", "4", "--degrees", "-4..4", "--module", "trivial-Zn"]
    for base in (["--base", "Q"], ["--base", "Fp", "--p", "3"]):
        code = main(argv + base)
        assert code == 2, base
        assert "trivial-Zn is a module over Z" in capsys.readouterr().err


def test_unwritable_out_exits_two_before_computing(capsys, monkeypatch, tmp_path):
    import cychom.cli as cli

    ran = []
    monkeypatch.setitem(cli._COMMANDS, "hh", ran.append)
    argv = ["hh", "--algebra", "dual-numbers", "--base", "Q", "--degrees", "0..1", "--out"]
    for out in (tmp_path / "absent" / "x.json", tmp_path):
        code = main(argv + [str(out)])
        assert code == 2, out
        assert capsys.readouterr().err.startswith("error: --out"), out
    assert ran == []


def test_prime_without_fp_base_exits_two_before_computing(capsys, monkeypatch):
    import cychom.cli as cli

    ran = []
    monkeypatch.setitem(cli._COMMANDS, "hh", ran.append)
    monkeypatch.setitem(cli._COMMANDS, "tate", ran.append)
    for argv in (
        ["hh", "--algebra", "dual-numbers", "--base", "Z", "--p", "3", "--degrees", "0..1"],
        ["hh", "--algebra", "dual-numbers", "--base", "Q", "--p", "3", "--degrees", "0..1"],
        ["tate", "--group-order", "3", "--degrees", "-2..2", "--base", "Z", "--p", "3"],
    ):
        code = main(argv)
        assert code == 2, argv
        assert capsys.readouterr().err.startswith("error: --p only applies to --base Fp"), argv
    assert ran == []


def test_verify_refuses_unknown_criteria_before_running_any(capsys, monkeypatch):
    import cychom.verify as verify

    ran = []
    monkeypatch.setattr(verify, "run_criterion", lambda *args: ran.append(args))
    code = main(["verify", "--suite", "morita,bogus"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown criteria: bogus\n"
    assert ran == []


def test_missing_algebra_file_exits_two(capsys, tmp_path):
    code = main(["hc", "--algebra", str(tmp_path / "absent.json"), "--degrees", "0..2"])
    capsys.readouterr()
    assert code == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = main(["hc", "--algebra", str(bad), "--degrees", "0..2"])
    capsys.readouterr()
    assert code == 2


def test_internal_failure_exits_three(capsys, monkeypatch):
    import cychom.cli as cli

    def boom(cfg):
        raise RuntimeError("exploded mid-computation")

    monkeypatch.setitem(cli._COMMANDS, "hc", boom)
    code = main(["hc", "--algebra", "ground-field", "--base", "Q", "--degrees", "0..2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal error" in err


def test_hp_takes_persistence_but_no_schedule(capsys):
    # the S-tower reads no truncation schedule, so hp refuses one
    argv = ["hp", "--algebra", "ground-field", "--base", "Fp", "--p", "3", "--degrees", "0..1"]
    assert main(argv + ["--persistence", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["persistence"] == 2
    with pytest.raises(SystemExit) as exit_:  # argparse's usage error, exit status 2
        main(argv + ["--q-schedule", "1,2"])
    assert exit_.value.code == 2
    assert "--q-schedule" in capsys.readouterr().err
