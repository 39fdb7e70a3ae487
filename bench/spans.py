"""Span tracing for the benchmark, installed from outside the package.

`tracing(smddc, tracer)` replaces, for the duration of a `with` block, each
module's public callables at the names other modules call them through
(for example `smddc.simulator.draw_exponential`, `smddc.policies.*_packet_counts`,
`smddc.analytic.*`, `smddc.cli.estimate_session_error`), and restores them
on exit.  Nothing under `src/` is modified.

Each span is aggregated in memory by name: call count, total (inclusive)
seconds and self seconds (total minus nested spans).  A span's module is
the prefix of its name before the first dot.

Process pools: `smddc.simulator.ProcessPoolExecutor` is replaced by a
subclass that runs each task under a fresh tracer in the worker (workers
are forked, so they inherit the installed wrappers) and ships the worker's
span totals back with the result.  Worker spans are added to the totals in
process-seconds.  For the wall-clock split, the pool span's wall time is
divided among the worker spans in proportion 1/max_workers each (the time
they would take if the workers ran perfectly in parallel); the rest of the
pool's wall time, start-up, pickling, imbalance and shutdown, stays with
the simulator as pool overhead.
"""

import functools
import inspect
import os
import threading
import time
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np

# The tracer of the innermost active `tracing` block.  Worker tasks look it
# up here: a forked worker inherits it along with the installed wrappers.
_ACTIVE = None


class Tracer:
    """In-memory span and counter aggregation for one traced pass."""

    def __init__(self):
        self.reset()

    def reset(self):
        self._stack = []  # [name, start, nested seconds]
        self.spans = {}  # name -> [count, total_s, self_s], process-seconds
        self.wall = Counter()  # module -> wall seconds attributed to it
        self.counters = Counter()
        self.pool_share_s = 0.0  # sum over tasks of worker busy / max_workers
        self._lock = threading.Lock()

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, nested = self._stack.pop()
        dur = time.perf_counter() - start
        self._add(name, 1, dur, dur - nested)
        self.wall[name.split(".", 1)[0]] += dur - nested
        if self._stack:
            self._stack[-1][2] += dur

    def _add(self, name, count, total, self_s):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += count
        rec[1] += total
        rec[2] += self_s

    def export(self):
        return {"spans": self.spans, "counters": dict(self.counters)}

    def merge_worker(self, exported, busy_s, max_workers):
        """Add one worker task's spans; runs on the executor's result thread."""
        with self._lock:
            for name, (count, total, self_s) in exported["spans"].items():
                self._add(name, count, total, self_s)
                share = self_s / max_workers
                self.wall[name.split(".", 1)[0]] += share
                self.wall["simulator"] -= share  # taken out of the pool span's wall time
            self.counters.update(exported["counters"])
            self.pool_share_s += busy_s / max_workers

    def total(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[2]


def _traced(tracer, fn, name, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None:
            count(tracer.counters, args, result)
        return result

    return wrapper


def _count_variates(counters, args, result):
    counters["channel.variates"] += int(np.size(result))


def _count_slots(trailing_axis):
    """Counter for a policy kernel whose first argument holds the slot gains."""

    def count(counters, args, result):
        first = np.asarray(args[0])
        counters["policies.slots"] += first.size // first.shape[-1] if trailing_axis else first.size
        counters["policies.bytes_in"] += sum(a.nbytes for a in args if isinstance(a, np.ndarray))

    return count


def _child_call(fn, *args, **kwargs):
    """Run one pool task in a worker under a fresh tracer; return its spans too."""
    tracer = _ACTIVE
    tracer.reset()
    tracer.enter("simulator.worker_task")
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        tracer.exit()
    return result, tracer.export(), time.perf_counter() - start


def _pool_class(tracer):
    class TracedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._span_workers = max_workers or os.cpu_count()
            tracer.counters["simulator.pool_starts"] += 1
            tracer.enter("simulator.pool")
            self._span_open = True

        def submit(self, fn, /, *args, **kwargs):
            inner = super().submit(_child_call, fn, *args, **kwargs)
            outer = Future()

            def relay(done):
                try:
                    result, exported, busy = done.result()
                except BaseException as exc:  # handed to the caller through the future
                    outer.set_exception(exc)
                    return
                tracer.merge_worker(exported, busy, self._span_workers)
                outer.set_result(result)

            inner.add_done_callback(relay)
            return outer

        def shutdown(self, wait=True, *, cancel_futures=False):
            try:
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
            finally:
                if self._span_open:
                    self._span_open = False
                    tracer.exit()

    return TracedPool


def _stream_class(base, tracer):
    class CountedStream(base):
        """One stream per batch, so constructions count batches."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.counters["simulator.batches"] += 1

    return CountedStream


def _replacements(smddc, tracer):
    sim, pol, ana, cli = smddc.simulator, smddc.policies, smddc.analytic, smddc.cli
    yield sim, "draw_exponential", _traced(tracer, sim.draw_exponential, "channel.draw", _count_variates)
    yield sim, "RngStream", _stream_class(sim.RngStream, tracer)
    yield sim, "ProcessPoolExecutor", _pool_class(tracer)
    for short, trailing in (("oma", False), ("symmetric", True), ("sdo", False), ("fo", False)):
        fn = getattr(pol, f"{short}_packet_counts")
        name = "policies.sym" if short == "symmetric" else f"policies.{short}"
        yield pol, fn.__name__, _traced(tracer, fn, name, _count_slots(trailing))
    for mod in (sim, cli):
        for fname in ("estimate_session_error", "estimate_alphas"):
            yield mod, fname, _traced(tracer, getattr(mod, fname), f"simulator.{fname}")
    yield cli, "main", _traced(tracer, cli.main, "cli.main")
    for fname, fn in inspect.getmembers(ana, inspect.isfunction):
        if fn.__module__ == ana.__name__ and not fname.startswith("_"):
            yield ana, fname, _traced(tracer, fn, f"analytic.{fname}")


class tracing:
    """Context manager: install the wrappers into `smddc`, restore on exit."""

    def __init__(self, smddc, tracer):
        self._smddc = smddc
        self._tracer = tracer
        self._saved = []

    def __enter__(self):
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._tracer
        for mod, attr, replacement in list(_replacements(self._smddc, self._tracer)):
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, replacement)
        return self._tracer

    def __exit__(self, *exc):
        global _ACTIVE
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        _ACTIVE = self._previous
        return False
