"""The benchmark's tracer must find every function it wraps.

perfbench/spans.py wraps cychom functions by name; a renamed or removed
target would silently zero its layer metric in traced benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import Tracer  # noqa: E402


def test_every_trace_target_exists(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        assert "not found" not in capsys.readouterr().err
    finally:
        tracer.uninstall()
