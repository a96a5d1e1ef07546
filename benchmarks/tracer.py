"""Per-layer spans recorded from outside the library.

``Tracer`` wraps module attributes, ``STEPPERS`` entries and objective class
methods of an imported polystep while it is entered, and puts every original
back on exit. A span's self time is its duration minus the time of the spans
it directly caused. Spans stay in memory; ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

STEPPER_PREFIX = "steppers."
RECORD = "objectives.record_value"
REFERENCE = "objectives.reference"
OBJECTIVE_METHODS = {
    "batch_value": "objectives.step_value",
    "batch_grad": "objectives.step_grad",
    "lower_bound": "objectives.step_target",
    "batch_min_value": "objectives.step_target",
}


class RestoreError(RuntimeError):
    """A wrapped attribute was not put back."""


def _component_bytes(obj) -> int:
    """Bytes of per-component data one batch member reads: every array
    field whose leading axis is the component axis."""
    n = obj.n
    return sum(a.nbytes // n for a in vars(obj).values()
               if getattr(a, "shape", ())[:1] == (n,))


class Tracer:
    def __init__(self, polystep):
        self.ps = polystep
        self.calls = Counter()
        self.raised = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.root_s = 0.0
        self._stack: list[list] = []  # [name, child seconds]
        self._saved: list[tuple] = []  # (owner, key, original, is_mapping)

    # -- spans ------------------------------------------------------------
    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def timed(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            tracer._stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.raised[name] += not ok
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                else:
                    tracer.root_s += dt
            if after is not None:
                after(args, result)
            return result

        return traced

    def _objective_method(self, name: str, fn):
        tracer = self
        in_step = self.timed(name, fn)
        is_grad = fn.__name__ == "batch_grad"

        @functools.wraps(fn)
        def method(obj, *args, **kwargs):
            parent = tracer._parent()
            if parent is not None and parent.startswith(STEPPER_PREFIX):
                if name != "objectives.step_target":
                    tracer.counts["objectives.step_bytes_computed"] += (
                        len(args[0]) * _component_bytes(obj))
                return in_step(obj, *args, **kwargs)
            # under record_value, reference or a target: part of that span
            if parent == REFERENCE and is_grad:
                tracer.counts["objectives.reference.grad_evals"] += 1
            return fn(obj, *args, **kwargs)

        return method

    # -- install / restore ------------------------------------------------
    def _swap(self, owner, key, new, is_mapping=False):
        original = owner[key] if is_mapping else getattr(owner, key)
        self._saved.append((owner, key, original, is_mapping))
        if is_mapping:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def __enter__(self):
        ps = self.ps
        runner, objectives, data_io = ps.runner, ps.objectives, ps.data_io
        counts = self.counts

        def count_load(args, result):
            counts["data_io.load_libsvm.bytes"] += os.path.getsize(args[0])

        def count_trace(args, result):
            counts["data_io.write_trace.rows"] += len(args[0])
            counts["data_io.write_trace.bytes"] += os.path.getsize(args[1])

        def count_records(args, result):
            counts["runner.records"] += len(getattr(result, "records", ()))

        self._swap(runner, "sample_batch", self.timed("core.sample_batch", runner.sample_batch))
        for method, fn in list(runner.STEPPERS.items()):
            self._swap(runner.STEPPERS, method,
                       self.timed(STEPPER_PREFIX + method, fn), is_mapping=True)
        for cls in (objectives.LogisticObjective, objectives.QuadraticObjective,
                    objectives.ShiftedAbsoluteObjective):
            for attr, name in OBJECTIVE_METHODS.items():
                if attr in vars(cls):
                    self._swap(cls, attr, self._objective_method(name, vars(cls)[attr]))
        self._swap(objectives, "full_value", self.timed(RECORD, objectives.full_value))
        self._swap(objectives, "solve_reference",
                   self.timed(REFERENCE, objectives.solve_reference))
        self._swap(data_io, "load_libsvm",
                   self.timed("data_io.load_libsvm", data_io.load_libsvm, count_load))
        self._swap(data_io, "standardize", self.timed("data_io.standardize", data_io.standardize))
        self._swap(data_io, "write_trace",
                   self.timed("data_io.write_trace", data_io.write_trace, count_trace))
        for attr in ("aggregate_records", "write_aggregate", "build_problem"):
            self._swap(runner, attr, self.timed(f"runner.{attr}", getattr(runner, attr)))
        self._swap(runner, "run_experiment",
                   self.timed("runner.loop", runner.run_experiment, count_records))
        self._swap(runner, "compare_grid", self.timed("runner.loop", runner.compare_grid))
        return self

    def __exit__(self, *exc):
        saved, self._saved = self._saved, []
        for owner, key, original, is_mapping in reversed(saved):
            if is_mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)
        leftover = [key for owner, key, original, is_mapping in saved
                    if (owner[key] if is_mapping else getattr(owner, key)) is not original]
        if leftover:
            raise RestoreError(f"attributes not restored: {leftover}")
        return False

    # -- reduction --------------------------------------------------------
    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers for one traced section that took ``wall_s``."""
        c, st, tot = self.calls, self.self_time, self.total
        steppers = [n for n in c if n.startswith(STEPPER_PREFIX)]
        step_calls = sum(c[n] for n in steppers)
        steps = step_calls - sum(self.raised[n] for n in steppers)
        m = {
            "core.sample_batch.calls": c["core.sample_batch"],
            "core.sample_batch.self_s": st["core.sample_batch"],
            "steppers.step.calls": step_calls,
            "steppers.step.self_s": sum(st[n] for n in steppers),
            "steppers.accepted_ratio": steps / step_calls if step_calls else 0.0,
        }
        for method in self.ps.runner.STEPPERS:
            m[f"steppers.{method}.self_s"] = st[STEPPER_PREFIX + method]
        for kind in ("value", "grad", "target"):
            m[f"objectives.step_{kind}.calls"] = c[f"objectives.step_{kind}"]
            m[f"objectives.step_{kind}.self_s"] = st[f"objectives.step_{kind}"]
        m.update({
            "objectives.step_bytes_computed": self.counts["objectives.step_bytes_computed"],
            "objectives.record_value.calls": c[RECORD],
            "objectives.record_value.self_s": st[RECORD],
            "objectives.reference.s": tot[REFERENCE],
            "objectives.reference.grad_evals": self.counts["objectives.reference.grad_evals"],
            "data_io.load_libsvm.s": tot["data_io.load_libsvm"],
            "data_io.load_libsvm.bytes": self.counts["data_io.load_libsvm.bytes"],
            "data_io.standardize.s": tot["data_io.standardize"],
            "runner.build_problem.self_s": st["runner.build_problem"],
            "data_io.write_trace.s": tot["data_io.write_trace"],
            "data_io.write_trace.rows": self.counts["data_io.write_trace.rows"],
            "data_io.write_trace.bytes": self.counts["data_io.write_trace.bytes"],
            "runner.records": self.counts["runner.records"],
            "runner.aggregate_records.s": tot["runner.aggregate_records"],
            "runner.write_aggregate.s": tot["runner.write_aggregate"],
            "runner.loop.self_s": st["runner.loop"],
            "tracing.unattributed_s": wall_s - self.root_s,
        })
        return m

    def accounting_gap(self, wall_s: float) -> float:
        """Traced wall time minus (every span's self time plus the time
        outside all spans); zero up to rounding when spans nest properly."""
        unattributed = wall_s - self.root_s
        return wall_s - (sum(self.self_time.values()) + unattributed)
