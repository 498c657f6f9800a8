"""In-memory span tracer for the traced benchmark run.

The tracer wraps public ``hetnet_ee`` functions at every module global
that holds them (``hetnet_ee.harness.solve_dense``,
``hetnet_ee.dense.optimal_sinr_with_feedback``, ...), so calls made inside
the package are recorded too.  Each call records a span ``(name, start_ns,
end_ns, parent, trial, call)``; a generator function records one span per
resume, all sharing the ``call`` of its first resume.  A trial starts at
every ``model.sample_instance`` call, and every span records the trial
current at its start.  Spans stay in memory until :meth:`Tracer.write`.

Hooks read solver reports off return values to count the anomalies the
timings alone do not show (capped Nash runs, diverged best-channel runs,
dense candidates, oracle checks).
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

TRIAL_START = "model.sample_instance"
# a span is FIELDS consecutive ints of Tracer.spans: name, start_ns, end_ns,
# parent span, trial, call (flat storage keeps the garbage collector idle)
FIELDS = 6


def _count_nash(tracer, span, args, kwargs, result):
    _, report = result
    c = tracer.counts
    c["nash_runs"] += 1
    c["nash_sweeps"] += report.iterations
    if not report.converged and report.iterations >= tracer.nash_cap:
        c["nash_capped_runs"] += 1
        c["nash_capped_sweeps"] += report.iterations


def _count_best_channel(tracer, span, args, kwargs, result):
    _, report = result
    tracer.counts["best_channel_runs"] += 1
    tracer.counts["best_channel_diverged"] += not report.converged


def _count_candidates(tracer, span, args, kwargs, result):
    table = result.diagnostics["candidate_table"]
    tracer.counts["dense_candidates"] += sum(cc.stay_limit + 1 for cc in table)


def _count_checks(tracer, span, args, kwargs, result):
    # verify_nash calls verify_follower itself; count each report once, at
    # the outermost oracle call
    parent = tracer.spans[span * FIELDS + 3]
    if parent >= 0 and tracer.names[tracer.spans[parent * FIELDS]].startswith("oracle."):
        return
    tracer.counts["oracle_checks"] += len(result) if isinstance(result, list) else 1


HOOKS = {
    "baselines.solve_nash": _count_nash,
    "baselines.solve_best_channel": _count_best_channel,
    "dense.solve_dense": _count_candidates,
    "oracle.verify_leader_stackelberg": _count_checks,
    "oracle.verify_follower": _count_checks,
    "oracle.verify_nash": _count_checks,
}


class Tracer:
    """Wraps ``<module>.<function>`` targets of a package while installed.

    ``caller_spans`` names spans the benchmark records around its own calls
    with :meth:`span`; they are reported like the wrapped targets.
    """

    def __init__(self, package: str, targets, caller_spans=()):
        self.package = package
        self.targets = list(targets)
        self.names = self.targets + list(caller_spans)
        self.spans = array("q")
        self.stack: list = []
        self.trial = 0
        self.counts: Counter = Counter()
        self.nash_cap = None
        self._patches: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a span named ``name`` recorded by the caller."""
        return self._wrap(self.names.index(name), fn, None)(*args, **kwargs)

    def _wrap(self, idx, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        starts_trial = self.names[idx] == TRIAL_START
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                call = len(spans) // FIELDS
                while True:
                    pos = len(spans)
                    spans.extend((idx, clock(), 0, stack[-1] if stack else -1,
                                  tracer.trial, call))
                    stack.append(pos // FIELDS)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        spans[pos + 2] = clock()
                        stack.pop()
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            if starts_trial:
                tracer.trial += 1
            pos = len(spans)
            span = pos // FIELDS
            spans.extend((idx, clock(), 0, stack[-1] if stack else -1, tracer.trial, span))
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[pos + 2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == self.package or name.startswith(self.package + ".")
        }
        for idx, target in enumerate(self.targets):
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(modules[f"{self.package}.{module_name}"], func_name)
            if target == "baselines.solve_nash":
                # the sweep cap of every caller in the package
                self.nash_cap = inspect.signature(original).parameters["max_iter"].default
            wrapper = self._wrap(idx, original, HOOKS.get(target))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def table(self) -> dict:
        """Span columns as arrays, with each span's self time."""
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, FIELDS)
        name, start, end, parent, trial, call = arr.T
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(arr))
        return {
            "name": name, "start": start, "end": end, "parent": parent,
            "trial": trial, "call": call, "dur": dur, "self": dur - child,
        }

    def layer_metrics(self, table: dict) -> dict:
        """``<name>.calls``, ``.us_p50``, ``.us_p99`` and ``.self_s`` per name."""
        out = {}
        for idx, name in enumerate(self.names):
            mine = table["name"] == idx
            calls, per_call = np.unique(table["call"][mine], return_inverse=True)
            totals = np.bincount(per_call, weights=table["dur"][mine]) / 1e3
            p50, p99 = np.percentile(totals, [50, 99]) if totals.size else (0.0, 0.0)
            out[f"{name}.calls"] = (int(calls.size), "count")
            out[f"{name}.us_p50"] = (float(p50), "us")
            out[f"{name}.us_p99"] = (float(p99), "us")
            out[f"{name}.self_s"] = (float(table["self"][mine].sum()) / 1e9, "s")
        return out

    def write(self, path, table: dict) -> None:
        """Dump every span as CSV, times in ns from the first span's start."""
        t0 = int(table["start"].min()) if table["start"].size else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,trial,call\n")
            for i, (n, s, e, p, t, c) in enumerate(zip(*(self.spans[f::FIELDS]
                                                          for f in range(FIELDS)))):
                fh.write(f"{i},{self.names[n]},{s - t0},{e - t0},{p},{t},{c}\n")
