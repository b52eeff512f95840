"""Command-line front end and report emission.

Commands compute one theory or run one check and emit a ReportDocument
as JSON (full fidelity) or CSV (dimensions only).  Exit codes: 0 when
every check passed and nothing errored, 1 when a check failed, 2 for an
invalid run configuration, 3 when the computation raised unexpectedly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

from .algebra import Algebra, algebra_from_json, catalog
from .bicomplex import (
    conjugate_dimension_check,
    default_q_schedule,
    hc,
    hc_minus_poly,
    hh,
    hp_poly,
    hp_s_tower_table,
)
from .cyclic import cyclic_bar_module, normalized
from .rings import BaseRing, ring_from_name
from .tate import (
    construction_5_1_check,
    corollary_5_3_check,
    named_module,
    tate_complex,
)
from .verify import CRITERION_NAMES, run_suite


class SpecError(ValueError):
    """A run configuration that violates the CLI contract."""


@dataclass
class RunConfig:
    """Echoable description of one CLI invocation.

    Defaults are resolved before the run starts so the report always
    shows the schedule and persistence that produced its verdicts.
    """

    command: str
    algebra: str | None = None
    base: str = "Q"
    p: int | None = None
    degrees: tuple[int, int] | None = None
    q_schedule: list[int] | None = None
    persistence: int = 3
    normalized: str = "on"
    group_order: int | None = None
    module_kind: str = "trivial-Z"
    suite: list[str] | None = None
    format: str = "json"
    out: str | None = None

    def validate(self) -> None:
        if self.degrees is not None and self.degrees[0] > self.degrees[1]:
            raise SpecError(f"empty degree interval {self.degrees[0]}..{self.degrees[1]}")
        if self.persistence < 2:
            raise SpecError("persistence must be >= 2")
        if self.base == "Fp" and self.p is None:
            raise SpecError("--base Fp needs --p")
        if self.base != "Fp" and self.p is not None:
            raise SpecError(f"--p only applies to --base Fp, not --base {self.base}")
        if self.normalized not in ("on", "off"):
            raise SpecError("--normalized takes on or off")
        # refuse an unwritable report path before a long run, not after it
        if self.out is not None:
            if os.path.isdir(self.out):
                raise SpecError(f"--out {self.out} is a directory")
            parent = os.path.dirname(self.out) or "."
            if not os.path.isdir(parent):
                raise SpecError(f"--out {self.out}: no directory {parent}")

    def to_json(self) -> dict:
        out = {"command": self.command, "format": self.format}
        if self.algebra is not None:
            out["algebra"] = self.algebra
            out["base"] = self.base
            if self.p is not None:
                out["p"] = self.p
        if self.degrees is not None:
            out["degrees"] = list(self.degrees)
        if self.q_schedule is not None:
            out["q_schedule"] = list(self.q_schedule)
        if self.command in ("hp-poly", "hc-minus-poly", "hp", "conjugate-check"):
            out["persistence"] = self.persistence
        if self.command == "hh":
            out["normalized"] = self.normalized
        if self.group_order is not None:
            out["group_order"] = self.group_order
        if self.command == "tate":
            out["module"] = self.module_kind
        if self.suite is not None:
            out["suite"] = list(self.suite)
        return out


@dataclass
class ReportDocument:
    config: dict
    tables: dict[str, dict] = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def failed(self) -> bool:
        return any(not c["ok"] for c in self.checks)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "tables": self.tables,
            "checks": self.checks,
            "timings": self.timings,
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def render_csv(self) -> str:
        lines = []
        if self.tables:
            lines.append("table,degree,dimension")
            for label in sorted(self.tables):
                degrees = self.tables[label].get("degrees", {})
                for d in sorted(degrees, key=int):
                    g = degrees[d]
                    dim = "" if g is None else str(g["free_rank"])
                    lines.append(f"{label},{d},{dim}")
        if self.checks:
            lines.append("check,ok")
            for c in self.checks:
                name = c.get("check") or c.get("name")
                lines.append(f"{name},{str(c['ok']).lower()}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.render_csv() if fmt == "csv" else self.render_json()


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_degrees(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SpecError(f"--degrees wants a..b, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise SpecError(f"--degrees wants integers, got {text!r}") from None


def _parse_schedule(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SpecError(f"--q-schedule wants comma-separated integers, got {text!r}") from None


def _resolve_base(cfg: RunConfig) -> BaseRing:
    return ring_from_name(cfg.base, cfg.p)


def _load_algebra(cfg: RunConfig) -> Algebra:
    if cfg.algebra is None:
        raise SpecError(f"{cfg.command} needs --algebra")
    if cfg.algebra.endswith(".json"):
        # the file carries its own base ring; --base does not apply
        with open(cfg.algebra) as fh:
            return algebra_from_json(fh.read())
    return catalog(cfg.algebra, _resolve_base(cfg))


def _need_degrees(cfg: RunConfig) -> tuple[int, int]:
    if cfg.degrees is None:
        raise SpecError(f"{cfg.command} needs --degrees a..b")
    return cfg.degrees


def _need_order(cfg: RunConfig, least: int = 1) -> int:
    if cfg.group_order is None or cfg.group_order < least:
        raise SpecError(f"{cfg.command} needs --group-order n with n >= {least}")
    return cfg.group_order


# ---------------------------------------------------------------------------
# commands


def _cmd_hh(cfg: RunConfig) -> ReportDocument:
    lo, hi = _need_degrees(cfg)
    if lo < 0:
        raise SpecError("Hochschild degrees start at 0")
    A = _load_algebra(cfg)
    module = normalized(A) if cfg.normalized == "on" else cyclic_bar_module(A)
    doc = ReportDocument(config=cfg.to_json())
    doc.tables["HH"] = hh(module, (lo, hi)).to_json()
    return doc


def _cmd_hc(cfg: RunConfig) -> ReportDocument:
    lo, hi = _need_degrees(cfg)
    if lo < 0:
        raise SpecError("cyclic homology degrees start at 0")
    X = cyclic_bar_module(_load_algebra(cfg))
    table = hc(X, hi)
    doc = ReportDocument(config=cfg.to_json())
    t = table.to_json()
    t["degrees"] = {d: g for d, g in t["degrees"].items() if lo <= int(d) <= hi}
    doc.tables["HC"] = t
    return doc


def _cmd_tower(cfg: RunConfig) -> ReportDocument:
    """One stabilization table; every degree reads the same shared stages."""
    lo, hi = _need_degrees(cfg)
    X = cyclic_bar_module(_load_algebra(cfg))
    if cfg.command == "hp-poly":
        table = hp_poly(X, (lo, hi), cfg.q_schedule, cfg.persistence)
    elif cfg.command == "hc-minus-poly":
        table = hc_minus_poly(X, (lo, hi), cfg.q_schedule, cfg.persistence)
    else:
        table = hp_s_tower_table(X, (lo, hi), persistence=cfg.persistence)
    t = table.to_json()
    doc = ReportDocument(config=cfg.to_json())
    # verdicts are schedule-dependent heuristics, so the resolved defaults
    # always go into the report
    if cfg.command == "hp":
        doc.config["depth"] = "persistence + max(0, -floor(d/2)) periodicity steps"
    elif cfg.q_schedule is None:
        doc.config["q_schedule"] = default_q_schedule(hi)
    doc.tables[t["theory"]] = t
    return doc


def _cmd_tate(cfg: RunConfig) -> ReportDocument:
    n = _need_order(cfg)
    lo, hi = _need_degrees(cfg)
    M = named_module(cfg.module_kind, n, _resolve_base(cfg))
    # homology is only defined away from the window edges; pad by one
    T = tate_complex(M, (lo - 1, hi + 1))
    doc = ReportDocument(config=cfg.to_json())
    doc.tables["Tate"] = {
        "theory": "Tate",
        "base": M.base.label(),
        "group_order": n,
        "module": cfg.module_kind,
        "degrees": {str(d): T.homology(d).to_json() for d in range(lo, hi + 1)},
    }
    return doc


def _cmd_check_5_1(cfg: RunConfig) -> ReportDocument:
    report = construction_5_1_check(_need_order(cfg))
    doc = ReportDocument(config=cfg.to_json())
    doc.checks.append(report.to_json())
    return doc


def _cmd_check_5_3(cfg: RunConfig) -> ReportDocument:
    window = cfg.degrees if cfg.degrees is not None else (-4, 4)
    report = corollary_5_3_check(_need_order(cfg, 2), window)
    doc = ReportDocument(config=cfg.to_json())
    doc.config["degrees"] = list(window)
    doc.checks.append(report.to_json())
    return doc


def _cmd_conjugate_check(cfg: RunConfig) -> ReportDocument:
    degrees = _need_degrees(cfg)
    A = _load_algebra(cfg)
    report = conjugate_dimension_check(A, degrees, cfg.q_schedule, cfg.persistence)
    doc = ReportDocument(config=cfg.to_json())
    doc.checks.append(
        {
            "check": "conjugate-dimension",
            "ok": report.ok,
            "refused": report.refused,
            "reason": report.reason,
            "hh_bound": report.hh_bound,
            "rows": [list(r) for r in report.rows],
        }
    )
    return doc


def _cmd_verify(cfg: RunConfig) -> ReportDocument:
    # run_suite refuses unknown criteria before it runs any
    results = run_suite(None if cfg.suite in (None, ["all"]) else cfg.suite)
    doc = ReportDocument(config={"suite": sorted(r.name for r in results), **cfg.to_json()})
    for r in results:
        doc.checks.append(r.to_json())
        doc.timings[r.name] = round(r.seconds, 3)
        flag = "PASS" if r.ok else "FAIL"
        print(f"[{flag}] {r.number:2d} {r.name}: {r.summary}", file=sys.stderr)
    return doc


_COMMANDS = {
    "hh": _cmd_hh,
    "hc": _cmd_hc,
    "hp": _cmd_tower,
    "hp-poly": _cmd_tower,
    "hc-minus-poly": _cmd_tower,
    "tate": _cmd_tate,
    "check-5-1": _cmd_check_5_1,
    "check-5-3": _cmd_check_5_3,
    "conjugate-check": _cmd_conjugate_check,
    "verify": _cmd_verify,
}


def run(command: str, config: RunConfig) -> ReportDocument:
    config.validate()
    t0 = time.perf_counter()
    if config.algebra is not None and config.algebra.endswith(".json"):
        # the report names the ring the file fixes, which --base cannot change
        ring = _load_algebra(config).base
        config = replace(config, base=ring.kind, p=ring.p)
    doc = _COMMANDS[command](config)
    doc.timings["total_s"] = round(time.perf_counter() - t0, 3)
    return doc


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cychom",
        description="Exact cyclic, periodic and Tate homology tables for small algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=False, degrees=False, tower=False, tate=False):
        if algebra:
            p.add_argument("--algebra", help="catalog name or path to an algebra .json")
            p.add_argument("--base", choices=("Z", "Q", "Fp"), default="Q")
            p.add_argument("--p", type=int, default=None, help="prime for --base Fp")
        if degrees:
            p.add_argument("--degrees", default=None, help="degree interval a..b")
        if tower:
            p.add_argument("--q-schedule", default=None, help="comma-separated row truncations")
            p.add_argument("--persistence", type=int, default=3)
        if tate:
            p.add_argument("--group-order", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("hh", help="Hochschild homology table")
    common(p, algebra=True, degrees=True)
    p.add_argument("--normalized", choices=("on", "off"), default="on")
    p = sub.add_parser("hc", help="cyclic homology table")
    common(p, algebra=True, degrees=True)
    p = sub.add_parser("hp", help="periodic cyclic homology via the S-tower")
    common(p, algebra=True, degrees=True)
    p.add_argument("--persistence", type=int, default=3)  # the S-tower reads no schedule
    p = sub.add_parser("hp-poly", help="polynomial periodic cyclic homology")
    common(p, algebra=True, degrees=True, tower=True)
    p = sub.add_parser("hc-minus-poly", help="polynomial negative cyclic homology")
    common(p, algebra=True, degrees=True, tower=True)
    p = sub.add_parser("tate", help="Tate cohomology of a finite cyclic group")
    common(p, degrees=True, tate=True)
    p.add_argument("--module", dest="module_kind", default="trivial-Z")
    p.add_argument("--base", choices=("Z", "Q", "Fp"), default="Z")
    p.add_argument("--p", type=int, default=None)
    p = sub.add_parser("check-5-1", help="surjection and kernel lattice check")
    common(p, tate=True)
    p = sub.add_parser("check-5-3", help="degreewise graded comparison check")
    common(p, degrees=True, tate=True)
    p = sub.add_parser("conjugate-check", help="conjugate-filtration dimension bookkeeping")
    common(p, algebra=True, degrees=True, tower=True)
    p = sub.add_parser("verify", help="run the named acceptance criteria")
    common(p)
    p.add_argument(
        "--suite",
        default="all",
        help="'all', or a comma-separated subset of: " + ", ".join(CRITERION_NAMES),
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in (
        "algebra",
        "base",
        "p",
        "persistence",
        "normalized",
        "module_kind",
        "format",
        "out",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "group_order", None) is not None:
        cfg.group_order = args.group_order
    if getattr(args, "degrees", None) is not None:
        cfg.degrees = _parse_degrees(args.degrees)
    if getattr(args, "q_schedule", None) is not None:
        cfg.q_schedule = _parse_schedule(args.q_schedule)
    if hasattr(args, "suite"):
        text = args.suite.strip()
        cfg.suite = [s.strip() for s in text.split(",") if s.strip()] if text != "all" else ["all"]
    return cfg


def _normalize_argv(argv: list[str]) -> list[str]:
    # afford `--degrees -6..10`: argparse reads a leading dash as a flag,
    # so glue the value onto the option before parsing
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--degrees" and i + 1 < len(argv):
            out.append(f"--degrees={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    try:
        cfg = _config_from_args(args)
        doc = run(args.command, cfg)
    except (ValueError, OSError) as err:  # SpecError, AlgebraError, TateError, bad JSON
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # anything else is a computation failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    text = doc.render(cfg.format)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if doc.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
