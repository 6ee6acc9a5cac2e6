"""Request timing and in-memory spans for the benchmark's own call sites.

Spans are recorded only around calls the benchmark makes into the
library's public functions, never inside the library.  Each span holds
(name, start_ns, end_ns, parent, request_id); they stay in memory until
the run ends and are written out in one piece.
"""

import json
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns


class Raised:
    """An exception a request raised, kept as the request's output."""

    def __init__(self, exc):
        self.exc = exc

    def __eq__(self, other):
        return (isinstance(other, Raised) and type(self.exc) is type(other.exc)
                and str(self.exc) == str(other.exc))


class Recorder:
    """Times requests; when `tracing` is on, also records spans.

    `request` is one timed unit of user work and one latency sample;
    `call` is a library call inside a request (a child span, no sample);
    `group` opens a parent span that gives the requests inside it one
    request id (a quadrature sweep).
    """

    def __init__(self, tracing, speed):
        self.tracing = tracing
        self.speed = speed             # speed.Speed, probed between requests
        self.starts = array("d")       # perf_counter() at each request
        self.latencies = array("d")    # seconds per request
        self.spans = []                # (name, start_ns, end_ns, parent, rid)
        self.counts = {}               # work counted at the call sites
        self._stack = []
        self._rid = 0
        self._in_group = False

    def request(self, kind, fn, *args):
        """Run fn(*args) as one request; an exception becomes its output."""
        self.speed.maybe_sample()
        t0 = perf_counter()
        if self.tracing:
            if not self._in_group:
                self._rid += 1
            out = self._span(kind, fn, args)
        else:
            try:
                out = fn(*args)
            except Exception as exc:   # a failed request is data, not a crash
                out = Raised(exc)
        self.starts.append(t0)
        self.latencies.append(perf_counter() - t0)
        return out

    def scaled(self):
        """Each request's latency scaled to the probe's nominal host speed."""
        return [lat * self.speed.scale(t0, t0 + lat)
                for t0, lat in zip(self.starts, self.latencies)]

    def call(self, name, fn, *args):
        if not self.tracing:
            return fn(*args)
        out = self._span(name, fn, args)
        if isinstance(out, Raised):
            raise out.exc
        return out

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def group(self, name):
        if not self.tracing:
            yield
            return
        self._rid += 1
        self._in_group = True
        index, start = self._open()
        try:
            yield
        finally:
            self._in_group = False
            self._close(index, name, start)

    def _span(self, name, fn, args):
        index, start = self._open()
        try:
            out = fn(*args)
        except Exception as exc:
            out = Raised(exc)
        self._close(index, name, start)
        return out

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, perf_counter_ns()

    def _close(self, index, name, start):
        end = perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self._rid)

    # -- aggregation ----------------------------------------------------

    def layer_stats(self):
        """{span name: (calls, busy_s, p50_us)} with busy time counted as
        self time: duration minus the time covered by child spans."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        durations, busy = {}, {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            durations.setdefault(name, []).append(end - start)
            busy[name] = busy.get(name, 0) + (end - start - inner)
        return {name: (len(d), busy[name] * 1e-9,
                       statistics.median(d) * 1e-3)
                for name, d in durations.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "request_id"], "spans": self.spans}, handle)
