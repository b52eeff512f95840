"""Profile how tower verdicts sharpen as the truncation schedule deepens.

This is the instrument used to pick the schedules wired into the
verification suite.  It first prints, for each schedule step, the
survivor rows the step adds: over F_p only rows q = -1 (mod p) keep
orbit cells, so a step that adds none leaves the reduced tower unchanged
and its map is the identity; over Q there are no survivor rows.  Then,
for each prefix of the schedule, it reruns the tower and prints, per
degree, the stage dimensions, the verdict, and the value if one was
certified.  Watching the prefix sweep makes schedule misfires visible: a
verdict that flips value between prefixes means the schedule was
sampling transient classes, not the limit.

Example:
    python3 scripts/stabilization_profile.py --algebra dual-numbers \
        --base F3 --degrees 0..3 --schedule 4,6,8,10,12,14
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from cychom import GF, QQ, catalog, cyclic_bar_module, hp_poly


@dataclass
class ProfileConfig:
    algebra: str = "ground-field"
    base: str = "F3"
    degrees: tuple[int, int] = (0, 3)
    schedule: list[int] = field(default_factory=lambda: [8, 10, 12, 14, 16, 18, 20])
    persistence: int = 3
    min_stages: int = 4


def _ring(label: str):
    if label == "Q":
        return QQ
    if label.startswith("F") and label[1:].isdigit():
        return GF(int(label[1:]))
    raise SystemExit(f"base {label!r} not understood (use Q or Fp, e.g. F3)")


def _degrees(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def run(cfg: ProfileConfig) -> None:
    base = _ring(cfg.base)
    X = cyclic_bar_module(catalog(cfg.algebra, base))
    lo, hi = cfg.degrees
    print(f"# {cfg.algebra} over {cfg.base}, degrees {lo}..{hi}, h={cfg.persistence}")
    p = base.characteristic
    if not p:
        print("no survivor rows: over Q no orbit survives")
    else:
        for a, b in zip(cfg.schedule, cfg.schedule[1:]):
            rows = ", ".join(str(q) for q in range(a + 1, b + 1) if (q + 1) % p == 0)
            print(f"step {a} -> {b} " + (f"adds survivor rows {rows}" if rows else "adds no survivor row"))
    for k in range(cfg.min_stages, len(cfg.schedule) + 1):
        prefix = cfg.schedule[:k]
        table = hp_poly(X, cfg.degrees, prefix, cfg.persistence)
        print(f"schedule {prefix}")
        for d in range(lo, hi + 1):
            rep = table.reports[d]
            dims = [g.dimension for _, g in rep.stages]
            print(
                f"  d={d:+d}  stage dims {dims}  {rep.label()}"
                f"  value {table.dimension(d)}"
            )


def main(argv: list[str] | None = None) -> None:
    defaults = ProfileConfig()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algebra", default=defaults.algebra)
    ap.add_argument("--base", default=defaults.base)
    ap.add_argument("--degrees", default="0..3", type=_degrees)
    ap.add_argument(
        "--schedule",
        default=",".join(str(q) for q in defaults.schedule),
        type=lambda s: [int(t) for t in s.split(",")],
    )
    ap.add_argument("--persistence", type=int, default=defaults.persistence)
    ap.add_argument("--min-stages", type=int, default=defaults.min_stages)
    ns = ap.parse_args(argv)
    run(
        ProfileConfig(
            algebra=ns.algebra,
            base=ns.base,
            degrees=ns.degrees,
            schedule=ns.schedule,
            persistence=ns.persistence,
            min_stages=ns.min_stages,
        )
    )


if __name__ == "__main__":
    main()
