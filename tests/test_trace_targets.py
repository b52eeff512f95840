"""The benchmark's tracer must find every function it wraps.

perfbench/spans.py wraps cychom functions by name; a renamed or removed
target would silently zero its layer metric in traced benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import Tracer  # noqa: E402

# targets removed from cychom whose span kind other targets still cover:
# the S-tower reads its ranks off Connes' sequence and maps no survivors,
# and bicomplex.tower_map keeps _stage_map
GONE = {"trace target cychom.bicomplex._s_map_on_stage not found"}


def test_every_trace_target_exists(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        err = capsys.readouterr().err.splitlines()
        assert {line for line in err if "not found" in line} <= GONE
    finally:
        tracer.uninstall()
