"""Spans around calls into each cychom module, wrapped from outside.

`Tracer.install` replaces each target below with a wrapper that records
a span (kind, start, end, parent span, job) and updates the counts of its
layer.  Functions imported by name into other cychom modules are
rebound there too.  Some layers have only private entry points; they are
wrapped by name, and a target that no longer exists is reported as
missing instead of failing the run.

A layer's time is its self time: the span's duration minus the part its
child spans cover, summed over every span of the layer.  Spans stay in
memory until the run ends and are then written out in one file.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, kind, start, end, parent id, job]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.missing: set[str] = set()
        self.job = ""
        self._stack: list[list] = []
        self._seen_operators: dict[int, object] = {}
        self._replaced: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, kind, fn, before=None, after=None):
        stack, spans, self_s = self._stack, self.spans, self.self_s
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            state = before(args) if before is not None else None
            # [id, kind, start, end, parent id, job, child seconds, outermost of its kind]
            rec = [len(spans), kind, clock(), 0.0, None if parent is None else parent[0],
                   tracer.job, 0.0, parent is None or parent[1] != kind]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
                duration = rec[3] - rec[2]
                self_s[kind] += duration - rec[6]
                if parent is not None:
                    parent[6] += duration
            if after is not None:
                after(args, result, rec, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def new_job(self, name: str) -> None:
        self.job = name
        self._seen_operators.clear()

    # -- counts --------------------------------------------------------------

    def _count(self, metric, fn):
        def hook(args, result, rec, state):
            try:
                self.counts[metric] += fn(args, result, rec, state)
            except (AttributeError, TypeError):
                self.missing.add(metric)

        return hook

    REDUCTION_COUNTS = ("reduction.cells", "reduction.nnz", "reduction.cancellations",
                        "reduction.survivors")

    def _reduction_before(self, args):
        red = args[0]
        try:
            if red._reduced:
                return None
            return (len(red.degree), sum(len(c) for c in red.cols if c))
        except AttributeError:
            self.missing.update(self.REDUCTION_COUNTS)
            return None

    def _reduction_after(self, args, result, rec, state):
        if state is None:
            return
        red = args[0]
        try:
            cancellations, survivors = len(red.log), sum(red.alive_flags)
        except AttributeError:
            self.missing.update(self.REDUCTION_COUNTS)
            return
        self.counts["reduction.cells"] += state[0]
        self.counts["reduction.nnz"] += state[1]
        self.counts["reduction.cancellations"] += cancellations
        self.counts["reduction.survivors"] += survivors

    def _operator_after(self, args, result, rec, state):
        # count each matrix once per job, when an outermost call hands it out;
        # memoized matrices come back as the same object
        if rec[7] and id(result) not in self._seen_operators:
            self._seen_operators[id(result)] = result
            self.counts["cyclic.operators_nnz"] += len(result.entries)

    # -- installation ----------------------------------------------------------

    def _count_stage(self):
        # a stage class's __init__ can run inside a subclass's or a stage closure's span
        return self._count("bicomplex.stages", lambda a, r, rec, t: 1 if rec[7] else 0)

    def targets(self):
        """(span kind, cychom module, qualified name, before hook, after hook)."""
        one = self._count
        return [
            ("orbits.boundary", "orbits", "OrbitPlane.boundary", None,
             self._both(one("orbits.boundary_calls", lambda a, r, s, t: 1),
                        one("orbits.boundary_nnz", lambda a, r, s, t: len(r)))),
            ("orbits.survivors", "orbits", "OrbitPlane.survivors", None,
             one("orbits.survivors", lambda a, r, s, t: len(r))),
            ("reduction.reduce", "reduction", "MorseReduction.reduce",
             self._reduction_before, self._reduction_after),
            *[("cyclic.operators", "cyclic", f"CyclicModule.{m}", None, self._operator_after)
              for m in ("face", "degeneracy", "cyclic", "norm", "hochschild_boundary",
                        "bar_boundary", "extra_degeneracy", "connes_B")],
            *[("cyclic.operators", "cyclic", f"NormalizedBarModule.{m}", None,
               self._operator_after)
              for m in ("boundary", "connes", "inclusion", "projection")],
            ("cyclic.identity_sweep", "cyclic", "cyclic_identity_multibase_report", None, None),
            ("cyclic.identity_sweep", "cyclic", "cyclic_identity_report", None, None),
            ("bicomplex.stage", "bicomplex", "_ReducedStage.__init__", None, self._count_stage()),
            ("bicomplex.stage", "bicomplex", "_TotalStage.__init__", None, self._count_stage()),
            ("bicomplex.stage", "bicomplex", "_MixedStage.__init__", None, self._count_stage()),
            ("bicomplex.stage", "bicomplex", "_plane_stages", None, None),
            ("bicomplex.tower_map", "bicomplex", "_stage_map", None, None),
            ("bicomplex.tower_map", "bicomplex", "_s_map_on_stage", None, None),
            ("bicomplex.rank", "bicomplex", "_composite_rank", None, None),
            ("bicomplex.rank", "bicomplex", "_persistent_rank", None, None),
            ("linalg.rref", "linalg", "rref", None,
             one("linalg.rref_entries", lambda a, r, s, t: a[0].nrows * a[0].ncols)),
            ("snf.smith", "snf", "smith_normal_form", None, None),
            ("tate.homology", "tate", "TateComplex.homology", None, None),
            ("cli.report", "cli", "ReportDocument.render", None, None),
            ("cli.report", "bicomplex", "HomologyTable.to_json", None, None),
        ]

    @staticmethod
    def _both(first, second):
        def hook(*a):
            first(*a)
            second(*a)

        return hook

    def install(self) -> None:
        """Wrap every target; a kind none of whose targets exist is missing."""
        modules = [m for name, m in sys.modules.items() if name.startswith("cychom")]
        kinds, found = set(), set()
        for kind, module, qualname, before, after in self.targets():
            kinds.add(kind)
            try:
                owner = importlib.import_module(f"cychom.{module}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                # a method must be the class's own, not one it inherits
                original = vars(owner)[attr] if path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                print(f"trace target cychom.{module}.{qualname} not found", file=sys.stderr)
                continue
            found.add(kind)
            if qualname == "_plane_stages":
                # _plane_stages returns the per-stage closure; span that instead
                wrapper = self._stage_closure(original)
            else:
                wrapper = self._wrap(kind, original, before, after)
            self._replace(owner, attr, wrapper)
            if not path:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, name, wrapper)
        self.missing.update(kinds - found)

    def _replace(self, owner, attr, wrapper) -> None:
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    def _stage_closure(self, plane_stages):
        def wrapped(*args, **kwargs):
            stage = plane_stages(*args, **kwargs)
            return self._wrap("bicomplex.stage", stage, None, self._count_stage())

        return wrapped

    # -- results ---------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as JSON lines: id, kind, start, end, parent id, job."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:6]) + "\n")
