"""Per-layer tracing from outside the package.

The tracer replaces module-level functions (and a few forward-model methods)
with timing wrappers for the length of a ``with tracer.installed():`` block
and puts the originals back afterwards, so the package source stays as it is.
Each wrapped call opens a frame on a stack; when it ends, its duration is
added to the parent frame's child time, so a frame's self time is its span
minus the spans of its children and the self times of all frames partition
the wall time of the root spans exactly.

Functions called a handful of times per operation are kept as full spans
(name, start, end, parent, root).  Functions called once per site, per MH
step or per moment call (up to ~10^6 times) are aggregated into counters
keyed by their nearest enclosing full span, which keeps memory flat.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # (name, parent span id) -> [calls, total_s, self_s]
        self.agg: dict[tuple[str, int], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._span_stack: list[int] = []
        self._targets: list[tuple] = []
        self._patched: list[tuple] = []

    def add(self, owner, attr: str, name: str, *, span: bool = False, hook=None) -> None:
        """Register ``owner.attr`` to be wrapped under the layer name ``name``.

        ``span`` keeps one record per call; otherwise calls are aggregated.
        ``hook(parent_name, args, kwargs, result)`` runs after a call
        that returned, to count work found in the arguments or the result.
        """
        self._targets.append((owner, attr, name, span, hook))

    @contextmanager
    def installed(self):
        for owner, attr, name, span, hook in self._targets:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, span, hook))
        try:
            yield self
        finally:
            while self._patched:
                owner, attr, orig = self._patched.pop()
                setattr(owner, attr, orig)

    @contextmanager
    def root(self, name: str):
        """A root span: the time in it that no wrapped call covers is the
        untraced remainder."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        sid = self._open_span(name)
        frame = _Frame(name)
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._close_span(sid, t0, dt, dt - frame.child_s)

    def _open_span(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else None
        root = self._span_stack[0] if self._span_stack else sid
        self.spans.append({"id": sid, "name": name, "parent": parent, "root": root})
        self._span_stack.append(sid)
        return sid

    def _close_span(self, sid: int, t0: float, dt: float, self_s: float) -> None:
        self._span_stack.pop()
        rec = self.spans[sid]
        rec["start"] = t0
        rec["end"] = t0 + dt
        rec["self_s"] = self_s

    def _wrap(self, fn, name: str, span: bool, hook):
        clock = time.perf_counter
        stack = self._stack
        span_stack = self._span_stack
        agg = self.agg
        counts = self.counts

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = self._open_span(name) if span else None
            frame = _Frame(name)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                self_s = dt - frame.child_s
                if parent is not None:
                    parent.child_s += dt
                if span:
                    self._close_span(sid, t0, dt, self_s)
                key = (name, span_stack[-1] if span_stack else -1)
                rec = agg.get(key)
                if rec is None:
                    agg[key] = [1, dt, self_s]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += self_s
            if hook is not None:
                hook(parent.name if parent is not None else None, args, kwargs, result)
            return result

        return wrapper

    def totals(self) -> dict[str, list]:
        """Per layer name: [calls, total_s, self_s] summed over parents."""
        out: dict[str, list] = {}
        for (name, _), (calls, total, self_s) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def roots(self) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None]

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": [
                {"name": n, "parent_span": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.agg.items())
            ],
            "counts": dict(self.counts),
        }
