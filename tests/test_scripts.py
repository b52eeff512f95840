"""The scripts under scripts/ still run against the package, on tiny configurations."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv,expect",
    [
        (
            "stabilization_profile",
            ["--algebra", "ground-field", "--base", "F3", "--degrees", "0..1",
             "--schedule", "4,6,8,10", "--min-stages", "3"],
            "schedule [4, 6, 8, 10]",
        ),
        (
            "completed_vs_decompleted",
            ["--degrees", "0..1", "--primes", "2", "--q-schedule", "4,6,8,10"],
            "HP (S-tower)",
        ),
    ],
)
def test_script_main_runs(capsys, name, argv, expect):
    load(name).main(argv)
    out = capsys.readouterr().out
    assert expect in out
    assert out.count("\n") >= 3


def test_stabilization_profile_prints_survivor_rows(capsys):
    script = load("stabilization_profile")
    argv = ["--algebra", "ground-field", "--degrees", "0..1", "--schedule", "4,6,8,10", "--min-stages", "4"]
    script.main(argv + ["--base", "F3"])
    out = capsys.readouterr().out
    assert "step 4 -> 6 adds survivor rows 5\n" in out
    assert "step 6 -> 8 adds survivor rows 8\n" in out
    assert "step 8 -> 10 adds no survivor row\n" in out
    script.main(argv + ["--base", "Q"])
    out = capsys.readouterr().out
    assert "no survivor rows" in out and "step" not in out


def test_compare_outputs_finds_a_tree_identical_to_itself(capsys, tmp_path):
    commands = tmp_path / "commands.txt"
    commands.write_text(
        "# one line per command\n"
        "tate --group-order 3 --degrees -2..2\n"
        "\n"
        "check-5-3 --group-order 1\n"
        "hp-poly --algebra ground-field --base Fp --p 3 --degrees 0..1 --q-schedule 4,6,8,10\n"
    )
    src = str(SCRIPTS.parent / "src")
    script = load("compare_outputs")
    assert script.main([src, src, "--commands", str(commands)]) == 0
    assert capsys.readouterr().out == "3 commands: 3 identical, 0 differ\n"
    # timings alone never differ; an exit code does
    report = {"code": 0, "stdout": '{"tables": {}, "timings": {"total_s": 1.0}}', "stderr": ""}
    slower = dict(report, stdout='{"tables": {}, "timings": {"total_s": 2.0}}')
    assert script.compare([report, report], [slower, dict(report, code=1)], [["a"], ["b"]]) == 1
    assert capsys.readouterr().out == "DIFF b: exit 0 -> 1\n2 commands: 1 identical, 1 differ\n"
