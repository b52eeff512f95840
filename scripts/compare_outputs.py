"""Compare what two cychom source trees print for the same command lines.

Each tree is a directory holding the `cychom` package (a checkout's
`src`).  Every command line runs through `cychom.cli.main`, all of them
in one fresh interpreter per tree.  A command's result is its exit code,
its standard error and its standard output; a JSON report loses its
`timings`, which differ between any two runs.  One line is printed per
command whose result differs, then a summary; the exit status is 1 on
any difference and 0 otherwise.

Without --commands the built-in list runs (231 commands, under a
minute per tree on a 2-core machine): `tate` on every named module,
orders 1..8, over Z, F3 and Q, and once as CSV; `check-5-1` and
`check-5-3` for orders 0..7, and `check-5-1` for order 12 and once as
CSV; `verify --suite all`, the three Tate criteria alone, and a suite
with an unknown criterion; `hp-poly` (rows 2..12) and `hc-minus-poly`
(rows 2..10) on every catalog algebra over F2, F3 and F5;
`hc-minus-poly` in degrees up to 2..4 on nine configurations; the
benchmark's orbit-towers and chain-reduction jobs on catalog algebras;
a few `hh`, `hc`, `hp` and `conjugate-check` runs, among them two
quartic field extensions and `--p` without `--base Fp`; `--out` paths
that cannot be written; and raw and normalized `hh` over Z in degrees
0..6 on group-algebra(3), truncated-poly(3) and dual-numbers, which
read invariant factors of residual complexes.  --commands FILE replaces that
list with one command line per line of FILE, split as a shell would,
without the leading `cychom`; blank lines and lines starting with # are
skipped.

Example:
    python3 scripts/compare_outputs.py old/src src
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

MODULES = ("trivial-Z", "trivial-Zn", "free", "two-term", "contractible")
BASES = (("--base", "Z"), ("--base", "Fp", "--p", "3"), ("--base", "Q"))
PRIMES = ("2", "3", "5")
CATALOG = ("ground-field", "dual-numbers", "truncated-poly(3)", "field-extension(1,1)",
           "group-algebra(2)", "group-algebra(3)", "matrix-algebra(2)")


def _rows(lo: int, hi: int, step: int = 1) -> str:
    return ",".join(str(q) for q in range(lo, hi + 1, step))


def _fp(p: str) -> list[str]:
    return ["--base", "Fp", "--p", p]


def default_commands() -> list[list[str]]:
    out = []
    for kind in MODULES:
        for n in range(1, 9):
            for base in BASES:
                out.append(["tate", "--group-order", str(n), "--degrees", "-6..6",
                            "--module", kind, *base])
    for n in range(8):
        out.append(["check-5-1", "--group-order", str(n)])
        out.append(["check-5-3", "--group-order", str(n)])
    out.append(["verify", "--suite", "all"])
    for name in CATALOG:
        for p in PRIMES:
            out.append(["hp-poly", "--algebra", name, *_fp(p), "--degrees", "-2..2",
                        "--q-schedule", _rows(2, 12)])
            out.append(["hc-minus-poly", "--algebra", name, *_fp(p), "--degrees", "-2..0",
                        "--q-schedule", _rows(2, 10)])
    # the benchmark's orbit-towers jobs, on catalog algebras
    for name, p, degrees, schedule in (
        ("matrix-algebra(2)", "2", "-4..4", _rows(2, 20, 2)),
        ("matrix-algebra(2)", "5", "0..1", _rows(4, 14, 2)),
        ("field-extension(1,0,1)", "2", "-4..4", _rows(0, 16, 2)),
        ("group-algebra(3)", "2", "-2..2", _rows(2, 14, 2)),
        ("dual-numbers", "3", "0..3", None),
        ("group-algebra(3)", "3", "-2..2", _rows(2, 12, 2)),
        ("truncated-poly(3)", "2", "-2..2", _rows(2, 12, 2)),
        ("ground-field", "5", "-2..2", _rows(4, 14, 2)),
    ):
        argv = ["hp-poly", "--algebra", name, *_fp(p), "--degrees", degrees]
        out.append(argv + (["--q-schedule", schedule] if schedule else []))
    # hc-minus-poly in positive degrees: edge rows up to degree + 1 and
    # zig-zags cut at edge rows >= 1
    for name, base, degrees, schedule in (
        ("dual-numbers", _fp("2"), "-2..4", _rows(0, 10)),
        ("dual-numbers", _fp("3"), "-2..4", _rows(0, 10)),
        ("dual-numbers", ["--base", "Q"], "-2..4", _rows(0, 10, 2)),
        ("truncated-poly(3)", _fp("2"), "-1..3", _rows(0, 8)),
        ("group-algebra(3)", _fp("3"), "-1..2", _rows(0, 8)),
        ("matrix-algebra(2)", _fp("2"), "-1..2", _rows(0, 6)),
        ("field-extension(1,1)", _fp("2"), "-1..3", _rows(0, 10, 2)),
        ("ground-field", _fp("5"), "-2..4", _rows(0, 10)),
        ("ground-field", ["--base", "Q"], "-2..4", _rows(0, 10, 2)),
    ):
        out.append(["hc-minus-poly", "--algebra", name, *base, "--degrees", degrees,
                    "--q-schedule", schedule])
    # the chain-reduction jobs and a few more exact routes
    out += [
        ["hc", "--algebra", "matrix-algebra(2)", *_fp("3"), "--degrees", "0..7"],
        ["hc", "--algebra", "truncated-poly(3)", "--base", "Q", "--degrees", "0..10"],
        ["hc", "--algebra", "group-algebra(3)", "--base", "Q", "--degrees", "0..9"],
        ["hp", "--algebra", "field-extension(1,0,1)", *_fp("2"), "--degrees", "-2..4"],
        ["hp", "--algebra", "truncated-poly(3)", *_fp("2"), "--degrees", "-4..6"],
        ["hp", "--algebra", "ground-field", "--base", "Q", "--degrees", "-4..6"],
        ["hp", "--algebra", "dual-numbers", *_fp("3"), "--degrees", "-3..3"],
        ["hp", "--algebra", "matrix-algebra(2)", *_fp("3"), "--degrees", "0..1"],
        ["hp", "--algebra", "group-algebra(3)", "--base", "Q", "--degrees", "-2..2"],
        ["conjugate-check", "--algebra", "ground-field", *_fp("5"), "--degrees", "0..3"],
        ["conjugate-check", "--algebra", "field-extension(1,1)", *_fp("2"), "--degrees", "-2..2",
         "--q-schedule", _rows(0, 14, 2)],
        ["conjugate-check", "--algebra", "dual-numbers", *_fp("3"), "--degrees", "0..1"],
        ["hc-minus-poly", "--algebra", "field-extension(1,1)", *_fp("2"), "--degrees", "-4..0",
         "--q-schedule", _rows(0, 10, 2)],
        ["hc-minus-poly", "--algebra", "dual-numbers", *_fp("3"), "--degrees", "-2..0",
         "--q-schedule", _rows(2, 10, 2)],
        ["hh", "--algebra", "dual-numbers", *_fp("2"), "--degrees", "0..4"],
        ["hh", "--algebra", "dual-numbers", "--base", "Z", "--degrees", "0..4",
         "--normalized", "off"],
        ["hh", "--algebra", "matrix-algebra(2)", *_fp("3"), "--degrees", "0..3",
         "--format", "csv"],
        ["hh", "--algebra", "dual-numbers", "--base", "Q", "--degrees", "0..1",
         "--out", "/nonexistent/dir/x.json"],
        ["hh", "--algebra", "dual-numbers", "--base", "Q", "--degrees", "0..1", "--out", "."],
        ["hh", "--algebra", "group-algebra(3)", "--base", "Z", "--degrees", "0..5"],
        # an irreducible quartic, and (x^2 + x + 1)^2, which is refused
        ["hh", "--algebra", "field-extension(1,1,0,0)", *_fp("2"), "--degrees", "0..2"],
        ["hh", "--algebra", "field-extension(1,0,1,0)", *_fp("2"), "--degrees", "0..1"],
        ["hh", "--algebra", "dual-numbers", "--base", "Z", "--p", "3", "--degrees", "0..1"],
        ["verify", "--suite", "morita,bogus"],
        ["tate", "--group-order", "4", "--degrees", "-3..3", "--module", "two-term",
         "--base", "Z", "--format", "csv"],
        ["check-5-1", "--group-order", "12"],
        ["check-5-1", "--group-order", "5", "--format", "csv"],
        ["verify", "--suite", "construction-5-1,corollary-5-3,tate-suite"],
        ["hh", "--algebra", "matrix-algebra(2)", "--base", "Z", "--degrees", "0..3",
         "--normalized", "off"],
    ]
    # raw and normalized hh over Z: invariant factors of residual complexes
    for name in ("group-algebra(3)", "truncated-poly(3)", "dual-numbers"):
        for normalized in ("on", "off"):
            out.append(["hh", "--algebra", name, "--base", "Z", "--degrees", "0..6",
                        "--normalized", normalized])
    return out


def read_commands(path: str) -> list[list[str]]:
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return [shlex.split(line) for line in lines if line and not line.startswith("#")]


# ---------------------------------------------------------------------------
# one tree


def run_tree(src: str) -> None:
    """Child side: run the commands read from stdin, print their results as JSON."""
    sys.path.insert(0, src)
    import cychom.cli

    if not Path(cychom.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"cychom was imported from {cychom.cli.__file__}, not from {src}")
    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cychom.cli.main(argv)
            except SystemExit as exit_:  # argparse's usage errors
                code = exit_.code
            except Exception as exc:  # what the interpreter would print, less the traceback
                print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    json.dump(results, sys.stdout)


def results_of(src: str, commands: list[list[str]]) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run-tree", src],
        input=json.dumps(commands), capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"{src}: the runner failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def _without_timings(stdout: str) -> str:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    if isinstance(doc, dict):
        doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True, indent=2)


def compare(old: list[dict], new: list[dict], commands: list[list[str]]) -> int:
    differ = 0
    for argv, a, b in zip(commands, old, new):
        what = []
        if a["code"] != b["code"]:
            what.append(f"exit {a['code']} -> {b['code']}")
        if a["stderr"] != b["stderr"]:
            what.append(f"stderr {a['stderr'].strip()!r} -> {b['stderr'].strip()!r}")
        if _without_timings(a["stdout"]) != _without_timings(b["stdout"]):
            what.append("stdout differs")
        if what:
            differ += 1
            print(f"DIFF {shlex.join(argv)}: {'; '.join(what)}")
    print(f"{len(commands)} commands: {len(commands) - differ} identical, {differ} differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--commands", default=None, help="file of command lines to run instead")
    ap.add_argument("--run-tree", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_tree is not None:
        run_tree(args.run_tree)
        return 0
    if args.old_src is None or args.new_src is None:
        ap.error("needs OLD_SRC and NEW_SRC")
    commands = read_commands(args.commands) if args.commands else default_commands()
    old = results_of(args.old_src, commands)
    new = results_of(args.new_src, commands)
    return compare(old, new, commands)


if __name__ == "__main__":
    sys.exit(main())
