"""In-memory span tracing of the program's layers, from outside the program.

The benchmark never edits ``src/``: a traced run installs wrappers around
public entry points of each layer (class methods and module functions),
records one span per call, and removes the wrappers again.  Three kinds
of wrapper exist:

* **span** — a recorded span (name, start, end, parent span, op id);
  used at layer boundaries that are crossed a few times per op;
* **timed** — the call's duration is aggregated but no span is kept;
  used on per-interaction paths (marshalling, GC) where a span list
  would grow by hundreds of thousands of entries per op;
* **counted** — only the call count; used on per-event entry points
  (``record_interaction``, ``add_cpu``) so the traced run stays
  representative of the untraced one.

Self time is a span's duration minus the time of the spans and timed
calls nested directly inside it, so the self times of every layer
inside one op add up to the op's wall time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "span_index", "keep")

    def __init__(self, name: str, start: float, span_index: int,
                 keep: bool) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_index = span_index
        self.keep = keep


class SpanTracer:
    """Span stack, per-layer aggregates and the wrappers that feed them."""

    def __init__(self) -> None:
        #: Kept spans: [name, start, end, parent_index, op_id].
        self.spans: List[list] = []
        self.op_id: Optional[int] = None
        self.calls: Dict[str, int] = defaultdict(int)
        #: Wall time of outermost calls per name (nested calls of the
        #: same name are not counted twice).
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        #: Free-form sums the wrappers' result hooks add to.
        self.sums: Dict[str, float] = defaultdict(float)
        self._stack: List[_Frame] = []
        self._active: Dict[str, int] = defaultdict(int)
        self._restore: List[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def enter(self, name: str, keep: bool = True) -> _Frame:
        parent = self._stack[-1].span_index if self._stack else -1
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        frame = _Frame(name, _clock(), index, keep)
        self._stack.append(frame)
        self._active[name] += 1
        if keep:
            self.spans[index][1] = frame.start
        return frame

    def exit(self, frame: _Frame) -> float:
        end = _clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        name = frame.name
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - frame.child
        if self._active[name] == 0:
            self.busy[name] += duration
        if self._stack:
            self._stack[-1].child += duration
        if frame.keep:
            self.spans[frame.span_index][2] = end
        return duration

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame)

    def add(self, key: str, value: float) -> None:
        self.sums[key] += value

    # -- instrumentation ----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, mode: str = "span",
             on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`unwrap`.

        ``on_result(tracer, args, result, seconds)`` runs after each call
        (``seconds`` is ``None`` for counted wrappers).
        """
        func = getattr(owner, attr)
        tracer = self

        if mode == "count":
            def wrapped(*args, **kwargs):
                tracer.calls[name] += 1
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, args, result, None)
                return result
        else:
            keep = mode == "span"

            def wrapped(*args, **kwargs):
                frame = tracer.enter(name, keep)
                try:
                    result = func(*args, **kwargs)
                finally:
                    seconds = tracer.exit(frame)
                if on_result is not None:
                    on_result(tracer, args, result, seconds)
                return result

        wrapped.__name__ = func.__name__
        wrapped.__wrapped__ = func
        setattr(owner, attr, wrapped)
        self._restore.append(lambda: setattr(owner, attr, func))

    def unwrap(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- export -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every kept span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            for name, start, end, parent, op_id in self.spans:
                stream.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id,
                }) + "\n")
