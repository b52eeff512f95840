"""Benchmark of the cychom command line: one workload, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orbit-towers --seed 1 --seconds 20 --trace 0

A run builds the workload's seeded algebras, times a few fresh processes
doing the same set-up, then runs passes over the workload's jobs, one job
after another in this process (a closed loop with one client), until
`--seconds` have passed; every pass is whole.  Jobs are `cychom` command
lines run through `cychom.cli.main` with `--out`.  After the last pass
every output is checked against computations made apart from the timed
code (see `checks.py`).  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run adds a traced pass and then one more untraced pass, and reports the
per-layer metrics; the tracing overhead is the traced pass's wall time
minus that of the untraced pass after it, both with warm interpreters.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import KEPT_FAILING, WORKLOADS  # noqa: E402


def _import_cychom():
    if not (SRC / "cychom" / "__init__.py").is_file():
        print(f"error: no cychom sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cychom
    import cychom.cli

    return cychom


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(args) -> None:
    """Child side: import cychom, build the seeded algebras, report the time."""
    cychom = _import_cychom()
    workloads.build_inputs(cychom, args.workload, args.seed)
    print(repr(time.time()), flush=True)


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until its first job could start."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"set-up probe exited with {done.returncode}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


# ---------------------------------------------------------------------------
# passes


def clear_memos() -> None:
    """Empty module-level memo tables, so each job pays what a fresh command pays."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("cychom"):
            for attr, value in vars(mod).items():
                if "memo" in attr and isinstance(value, dict):
                    value.clear()


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(cychom, jobs, paths, out_dir, tracer=None) -> dict:
    """One pass over the jobs: wall, CPU, and per job (seconds, exit code, output)."""
    results = {}
    wall0, cpu0 = time.perf_counter(), _cpu()
    for job in jobs:
        clear_memos()
        if tracer is not None:
            tracer.new_job(job.name)
        out = out_dir / f"{job.name}.json"
        out.unlink(missing_ok=True)
        argv = workloads.job_argv(job, paths.get((job.algebra, job.base)), out)
        t0 = time.perf_counter()
        code = cychom.cli.main(argv)
        seconds = time.perf_counter() - t0
        results[job.name] = (seconds, code, out.read_text() if out.exists() else "")
    return {"wall": time.perf_counter() - wall0, "cpu": _cpu() - cpu0, "jobs": results}


# ---------------------------------------------------------------------------
# checks


def check_job(cychom, job, doc, inputs) -> list[str]:
    import checks  # imports sympy; only after the passes, so peak RSS leaves it out

    if "gate" in job.checks:
        return checks.check_gate(doc, len(cychom.CRITERION_NAMES))
    (table,) = doc["tables"].values()
    seeded = inputs[(job.algebra, job.base)]
    mixed = checks.NormalizedMixed(seeded.doc)
    X = cychom.cyclic_bar_module(cychom.algebra_from_json(seeded.doc))
    problems = []
    if "closed" in job.checks:
        problems += checks.check_closed(table, checks.commutator_quotient_dim(seeded.doc))
    if "settle" in job.checks:
        problems += checks.check_settle(table)
    if "hc-form" in job.checks:
        problems += checks.check_hc_form(table, job.closed_even)
    if "connes" in job.checks:
        from cychom.bicomplex import sbi_S_map

        def s_rank(n):
            M, _, _ = sbi_S_map(X, n - 2, 1)
            return checks.sparse_rank(M.entries, M.nrows, M.ncols, job.p)

        problems += checks.check_connes(
            table, mixed.hh_dims(job.connes_top), s_rank, job.connes_top
        )
    if "stages" in job.checks:
        problems += checks.check_stages(table, checks.StageGroups(table["theory"], X, mixed))
    return problems


def _without_timings(text: str) -> dict | None:
    if not text:
        return None
    doc = json.loads(text)
    doc.pop("timings", None)
    return doc


def check_passes(cychom, jobs, passes, inputs) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems of unexpected failures) over all passes.

    A job's output is checked once; every later pass must repeat its exit
    code and output exactly, apart from the timings block.
    """
    attempted = failed = 0
    unexpected = []
    for job in jobs:
        first = verdict = None
        for p in passes:
            _, code, text = p["jobs"][job.name]
            current = (code, _without_timings(text))
            if first is None:
                first = current
                verdict = [] if code == 0 else [f"exit code {code}"]
                if current[1] is None:
                    verdict.append("no output written")
                else:
                    verdict += check_job(cychom, job, current[1], inputs)
            elif current != first:
                verdict = verdict + ["exit code or output differs between passes"]
            attempted += 1
            if verdict:
                failed += 1
        if verdict:
            print(f"FAILED {job.name}: {'; '.join(verdict[:4])}", file=sys.stderr)
            if job.name not in KEPT_FAILING:
                unexpected += [f"{job.name}: {v}" for v in verdict]
    return attempted, failed, unexpected


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes, setup) -> dict:
    return {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


LAYER_METRICS = {
    # metric: (span kind it is measured at, unit); an "s" metric is that
    # kind's self time, any other a count kept at that kind's spans
    "orbits.boundary_s": ("orbits.boundary", "s"),
    "orbits.boundary_calls": ("orbits.boundary", "count"),
    "orbits.boundary_nnz": ("orbits.boundary", "count"),
    "orbits.survivors": ("orbits.survivors", "count"),
    "reduction.reduce_s": ("reduction.reduce", "s"),
    "reduction.cells": ("reduction.reduce", "count"),
    "reduction.nnz": ("reduction.reduce", "count"),
    "reduction.cancellations": ("reduction.reduce", "count"),
    "reduction.survivors": ("reduction.reduce", "count"),
    "cyclic.operators_s": ("cyclic.operators", "s"),
    "cyclic.operators_nnz": ("cyclic.operators", "count"),
    "cyclic.identity_sweep_s": ("cyclic.identity_sweep", "s"),
    "bicomplex.stage_s": ("bicomplex.stage", "s"),
    "bicomplex.stages": ("bicomplex.stage", "count"),
    "bicomplex.tower_map_s": ("bicomplex.tower_map", "s"),
    "bicomplex.rank_s": ("bicomplex.rank", "s"),
    "linalg.rref_s": ("linalg.rref", "s"),
    "linalg.rref_entries": ("linalg.rref", "count"),
    "snf.smith_s": ("snf.smith", "s"),
    "tate.homology_s": ("tate.homology", "s"),
    "cli.report_s": ("cli.report", "s"),
}


def record_criteria(cychom, seconds: dict[str, list[float]]):
    """Keep each criterion's own unrounded seconds, pass by pass; returns the undo."""
    run_criterion = cychom.verify.run_criterion

    def recorded(*args, **kwargs):
        result = run_criterion(*args, **kwargs)
        seconds.setdefault(result.name, []).append(result.seconds)
        return result

    cychom.verify.run_criterion = recorded
    return lambda: setattr(cychom.verify, "run_criterion", run_criterion)


def per_layer(cychom, tracer, untraced, traced, after, criterion_seconds) -> dict:
    out = {}
    for metric, (kind, unit) in LAYER_METRICS.items():
        if kind in tracer.missing or metric in tracer.missing:
            print(f"missing: {metric} (its wrapped target no longer exists)", file=sys.stderr)
            continue
        out[metric] = (tracer.self_s[kind] if unit == "s" else tracer.counts[metric], unit)
    if "reduction.cells" in out and "reduction.survivors" in out:
        cells = tracer.counts["reduction.cells"]
        ratio = tracer.counts["reduction.survivors"] / cells if cells else 0.0
        out["reduction.survivor_ratio"] = (ratio, "ratio")
    for name in cychom.CRITERION_NAMES:
        runs = criterion_seconds.get(name, [0.0])
        out[f"verify.{name}_s"] = (statistics.median(runs), "s")
    for jobs in WORKLOADS.values():
        for job in jobs:
            if job.command == "verify":
                continue
            runs = [p["jobs"][job.name][0] for p in untraced if job.name in p["jobs"]]
            out[f"job.{job.name}_s"] = (statistics.median(runs) if runs else 0.0, "s")
    out["trace.untraced_wall_s"] = (after["wall"], "s")
    out["trace.traced_wall_s"] = (traced["wall"], "s")
    out["trace.overhead_s"] = (traced["wall"] - after["wall"], "s")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    cychom = _import_cychom()
    jobs = WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    inputs = workloads.build_inputs(cychom, args.workload, args.seed)
    paths = workloads.write_inputs(inputs, out_dir / "inputs")
    setup = measure_setup(args)

    criterion_seconds: dict[str, list[float]] = {}
    if args.trace:
        stop_recording = record_criteria(cychom, criterion_seconds)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(cychom, jobs, paths, out_dir))
        print(f"pass {len(passes)}: {passes[-1]['wall']:.2f} s", file=sys.stderr)
    metrics = end_to_end(passes, setup)

    all_passes = passes
    if args.trace:
        from spans import Tracer

        stop_recording()
        tracer = Tracer()
        tracer.install()
        traced = run_pass(cychom, jobs, paths, out_dir, tracer)
        tracer.uninstall()
        after = run_pass(cychom, jobs, paths, out_dir)
        print(f"traced pass: {traced['wall']:.2f} s, untraced after it: {after['wall']:.2f} s",
              file=sys.stderr)
        all_passes = passes + [traced, after]
        metrics = per_layer(cychom, tracer, passes, traced, after, criterion_seconds)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    attempted, failed, unexpected = check_passes(cychom, jobs, all_passes, inputs)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
