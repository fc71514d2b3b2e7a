"""Spans around calls into snmcache, recorded from the benchmark's side.

``traced(tracer)`` replaces each public function listed in ``LAYERS`` at
every attribute of the snmcache modules that holds it, so the program's
own calls between modules (``cli`` calling ``read_trace``, ``analysis``
calling ``content_stats``) are spanned too.  Each span keeps its name,
start, end, parent and the garbage-collection time spent directly in it;
a layer's figure is its self time: its spans' durations less the part
covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import sys
import time
from collections import Counter


def _file_bytes(stream) -> int:
    stream.flush()
    return os.fstat(stream.fileno()).st_size


def _requests(args, result) -> int:
    return len(result)


# (module, function, layer name, counts taken from the arguments and result)
LAYERS = [
    ("snmcache.trace", "read_trace", "trace.read_trace",
     {"requests": _requests, "bytes": lambda a, r: _file_bytes(a[0])}),
    ("snmcache.trace", "write_trace", "trace.write_trace", {"bytes": lambda a, r: _file_bytes(a[1])}),
    ("snmcache.trace", "validate", "trace.validate", {}),
    ("snmcache.generators", "generate_snm", "generators.generate_snm", {"requests": _requests}),
    ("snmcache.generators", "generate_irm", "generators.generate_irm", {"requests": _requests}),
    ("snmcache.generators", "parse_snm_config", "generators.parse_snm_config", {}),
    ("snmcache.shuffle", "slice_shuffle", "shuffle.slice_shuffle", {"requests": _requests}),
    ("snmcache.cachesim", "reuse_distances", "cachesim.reuse_distances", {"requests": _requests}),
    ("snmcache.cachesim", "simulate_lru", "cachesim.simulate_lru", {"requests": lambda a, r: r.requests}),
    ("snmcache.cachesim", "hit_curve", "cachesim.hit_curve", {}),
    ("snmcache.cachesim", "size_for_hit_prob", "cachesim.size_for_hit_prob", {}),
    ("snmcache.analysis", "content_stats", "analysis.content_stats", {}),
    ("snmcache.analysis", "sliced_popularity", "analysis.sliced_popularity", {}),
    ("snmcache.analysis", "classify_contents", "analysis.classify_contents", {}),
    ("snmcache.analysis", "class_summary", "analysis.class_summary", {}),
    ("snmcache.analysis", "density_map", "analysis.density_map", {}),
    ("snmcache.cli", "cmd_analyze", "cli.analyze", {}),
    ("snmcache.cli", "cmd_fit", "cli.fit", {}),
    ("snmcache.cli", "cmd_generate", "cli.generate", {}),
    ("snmcache.cli", "cmd_shuffle", "cli.shuffle", {}),
    ("snmcache.cli", "cmd_evaluate", "cli.evaluate", {}),
]
# SnmEventStream is a class the caller drains; the workload spans the
# construction and the draining itself and reports the stream's peak.
STREAM = "generators.SnmEventStream"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, gc seconds]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, 0.0]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def peak(self, name: str, value) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def on_gc(self, phase: str, info) -> None:
        """Charge a collection to the innermost open span, and to the
        ``python.gc_*`` totals; collections outside any span (in the
        benchmark's checks) are not counted."""
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._open:
            elapsed = time.perf_counter() - self._gc_start
            self.gc_s += elapsed
            self.gc_collections += 1
            self.spans[self._open[-1]][4] += elapsed

    def figures(self, rounds: int) -> dict[str, float]:
        """Per-round figures of every layer: calls, self time, GC time, counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        names = [name for _, _, name, _ in LAYERS] + [STREAM]
        out = {f"{name}.{k}": 0.0 for name in names for k in ("calls", "s", "gc_s")}
        out.update({f"{name}.{k}": 0.0 for _, _, name, counts in LAYERS for k in counts})
        for (name, start, end, _, gc_s), covered in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start - covered
            out[f"{name}.gc_s"] += gc_s
        out.update(self.counts)
        out["python.gc_s"] = self.gc_s
        out["python.gc_collections"] = self.gc_collections
        out = {k: v / rounds for k, v in out.items()}
        out[f"{STREAM}.peak_pending"] = self.peaks.get(f"{STREAM}.peak_pending", 0)
        return out


class NoTracer:
    """Stands in for a Tracer when tracing is off."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def peak(self, name: str, value) -> None:
        pass


def _wrap(tracer: Tracer, fn, name: str, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        for key, count in counts.items():
            tracer.count(f"{name}.{key}", count(args, result))
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Span every function in LAYERS and time garbage collection."""
    modules = [m for key, m in list(sys.modules.items()) if key == "snmcache" or key.startswith("snmcache.")]
    patched = []
    for module_name, attr, name, counts in LAYERS:
        fn = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(tracer, fn, name, counts)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    patched.append((module, key, fn))
    gc.callbacks.append(tracer.on_gc)
    try:
        yield tracer
    finally:
        gc.callbacks.remove(tracer.on_gc)
        for module, key, fn in patched:
            setattr(module, key, fn)
