"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` wraps public callables of the system under test.  Each
wrapped call becomes one span — name, start, end, parent span and the
request id the workload loop set — kept in memory and written out once,
when the run ends.  A span's *self* time is its duration minus the time
covered by its direct children, so nested layers are never counted twice.

Wrapping comes in three forms, all undone by :meth:`Tracer.restore`:

* :meth:`Tracer.patch` replaces an attribute (a method on a class, a hook
  on an instance, a function in a module namespace);
* :meth:`Tracer.wrap` returns a traced callable for places that hold a
  reference themselves (nfqueue bindings, event-log sinks);
* :meth:`Tracer.span` is a context manager for calls the workload loop
  makes directly.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from contextlib import contextmanager, nullcontext

_now = time.perf_counter_ns


class _Stats:
    """Per-name call count plus duration and self-time samples (ns)."""

    __slots__ = ("total", "self_")

    def __init__(self):
        self.total = array("q")
        self.self_ = array("q")


class Tracer:
    """Span store + wrapping helpers (see module docstring).

    ``span_cap`` bounds how many span records are kept for the output
    file; statistics are kept for every span regardless.
    """

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        #: request id stamped on spans opened from now on (job id, op
        #: index or burst index — set by the workload loop)
        self.rid = -1
        self.stats: dict[str, _Stats] = {}
        #: kept span records: (id, name, start_ns, end_ns, parent_id, rid)
        self.spans: list[tuple] = []
        self.n_spans = 0
        # open spans: [span_id, child_ns]
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        #: spans are recorded only while True (the measured region);
        #: wrapped calls made during set-up pass straight through
        self.active = False

    # -- recording ---------------------------------------------------------

    def _open(self) -> list[int]:
        self.n_spans += 1
        frame = [self.n_spans, 0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[int], t0: int, t1: int) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stats()
        st.total.append(dur)
        st.self_.append(dur - frame[1])
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], name, t0, t1,
                               parent[0] if parent is not None else 0,
                               self.rid))

    @contextmanager
    def recording(self):
        """Record spans for the duration of the block."""
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        frame = self._open()
        t0 = _now()
        try:
            yield
        finally:
            self._close(name, frame, t0, _now())

    def wrap(self, fn, name: str):
        """A traced stand-in for *fn* (attributes such as guard flags are
        copied over, so idempotent re-wrapping by the program still sees
        them)."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._open()
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0, _now())
        functools.update_wrapper(traced, fn)
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a traced wrapper of itself."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(original, name))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return len(st.total) if st is not None else 0

    def self_ns(self, name: str) -> int:
        st = self.stats.get(name)
        return sum(st.self_) if st is not None else 0

    def mean_self_us(self, name: str) -> float:
        n = self.calls(name)
        return self.self_ns(name) / n / 1e3 if n else 0.0

    def mean_total_us(self, name: str) -> float:
        st = self.stats.get(name)
        if st is None or not st.total:
            return 0.0
        return sum(st.total) / len(st.total) / 1e3

    def total_pct_us(self, name: str, q: float) -> float:
        st = self.stats.get(name)
        if st is None or not st.total:
            return 0.0
        return percentile(st.total, q) / 1e3

    def write(self, path: str, meta: dict) -> None:
        """Write the kept spans (gzip JSON lines, header first)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "spans_total": self.n_spans,
                                 "spans_kept": len(self.spans)}) + "\n")
            for sid, name, t0, t1, parent, rid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent,
                                     "rid": rid}) + "\n")


def recording(tracer: Tracer | None):
    """``tracer.recording()``, or a no-op context when untraced."""
    return tracer.recording() if tracer is not None else nullcontext()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return float(ordered[int(k)])
