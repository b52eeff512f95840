"""Tabulate the completed/de-completed gap on the ground field.

Over the rationals the S-tower limit keeps a periodicity class in every
even degree while the direct-sum truncation colimit loses it; over F_p
the two routes agree.  Both tables print side by side so the gap (and
its disappearance in char p) is visible at a glance.

Example:
    python3 scripts/completed_vs_decompleted.py --degrees=-4..6 --primes 2,3,5
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from cychom import GF, QQ, catalog, cyclic_bar_module, hp_poly, hp_s_tower_table


@dataclass
class GapConfig:
    degrees: tuple[int, int] = (-4, 6)
    primes: list[int] = field(default_factory=lambda: [2, 3, 5])
    q_schedule: list[int] = field(default_factory=lambda: list(range(12, 25, 2)))
    persistence: int = 3


def _fmt(value) -> str:
    return "?" if value is None else str(value)


def run(cfg: GapConfig) -> None:
    lo, hi = cfg.degrees
    bases = [QQ] + [GF(p) for p in cfg.primes]
    print(f"# ground field, degrees {lo}..{hi}, schedule {cfg.q_schedule}")
    header = "base   " + "".join(f"{d:>5}" for d in range(lo, hi + 1))
    for base in bases:
        X = cyclic_bar_module(catalog("ground-field", base))
        poly = hp_poly(X, cfg.degrees, cfg.q_schedule, cfg.persistence)
        tower = hp_s_tower_table(X, cfg.degrees, persistence=cfg.persistence)
        print(header)
        print(
            f"{base.label():<7}"
            + "".join(f"{_fmt(poly.dimension(d)):>5}" for d in range(lo, hi + 1))
            + "   HP^poly"
        )
        print(
            f"{'':<7}"
            + "".join(f"{_fmt(tower.dimension(d)):>5}" for d in range(lo, hi + 1))
            + "   HP (S-tower)"
        )
        gap = [
            d
            for d in range(lo, hi + 1)
            if poly.dimension(d) is not None
            and tower.dimension(d) is not None
            and poly.dimension(d) != tower.dimension(d)
        ]
        print(f"{'':<7}gap in degrees {gap or 'none'}\n")


def _degrees(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def main(argv: list[str] | None = None) -> None:
    defaults = GapConfig()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degrees", default="-4..6", type=_degrees)
    ap.add_argument(
        "--primes",
        default=",".join(str(p) for p in defaults.primes),
        type=lambda s: [int(t) for t in s.split(",") if t],
    )
    ap.add_argument(
        "--q-schedule",
        default=",".join(str(q) for q in defaults.q_schedule),
        type=lambda s: [int(t) for t in s.split(",")],
    )
    ap.add_argument("--persistence", type=int, default=defaults.persistence)
    ns = ap.parse_args(argv)
    run(
        GapConfig(
            degrees=ns.degrees,
            primes=ns.primes,
            q_schedule=ns.q_schedule,
            persistence=ns.persistence,
        )
    )


if __name__ == "__main__":
    main()
