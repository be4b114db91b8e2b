"""Trace container and serialisation."""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..errors import TraceFormatError
from .events import TraceEvent, event_from_row

FORMAT_VERSION = 1


class Trace:
    """An ordered execution/resource trace plus its metadata.

    ``class_traits`` maps each guest class to its placement-relevant
    properties (``native``, ``stateful_native``) so the replayer can
    compute pinned sets without the original class registry.
    """

    def __init__(
        self,
        app_name: str = "",
        class_traits: Optional[Dict[str, Dict[str, bool]]] = None,
        notes: str = "",
    ) -> None:
        self.app_name = app_name
        self.class_traits: Dict[str, Dict[str, bool]] = class_traits or {}
        self.notes = notes
        self.events: List[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # -- pinned-set computation --------------------------------------------------

    def pinned_classes(self, stateless_natives_ok: bool = False) -> List[str]:
        """Classes that must stay on the client under the given rules."""
        trait = "stateful_native" if stateless_natives_ok else "native"
        return sorted(
            name for name, traits in self.class_traits.items()
            if traits.get(trait)
        )

    # -- serialisation -----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a JSON-lines file (header, then events).

        A ``.gz`` suffix selects transparent gzip compression — full
        workload traces shrink roughly tenfold.  The header's ``events``
        count is computed at write time, so a trace appended to after a
        prior save always declares its current length.
        """
        path = Path(path)
        opener = (
            (lambda: gzip.open(path, "wt", encoding="utf-8",
                               compresslevel=6))
            if path.suffix == ".gz" else (lambda: path.open("w"))
        )
        with opener() as stream:
            header = {
                "version": FORMAT_VERSION,
                "app": self.app_name,
                "notes": self.notes,
                "class_traits": self.class_traits,
                "events": len(self.events),
            }
            stream.write(json.dumps(header) + "\n")
            for event in self.events:
                stream.write(json.dumps(event.to_row()) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        path = Path(path)
        opener = (
            (lambda: gzip.open(path, "rt", encoding="utf-8"))
            if path.suffix == ".gz" else (lambda: path.open())
        )
        with opener() as stream:
            header_line = stream.readline()
            if not header_line:
                raise TraceFormatError(f"{path}: empty trace file")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}: bad header") from exc
            if header.get("version") != FORMAT_VERSION:
                raise TraceFormatError(
                    f"{path}: unsupported trace version {header.get('version')}"
                )
            trace = cls(
                app_name=header.get("app", ""),
                class_traits=header.get("class_traits", {}),
                notes=header.get("notes", ""),
            )
            declared = header.get("events")
            # Preallocate when the header declares a count: full traces
            # hold 10^5-10^6 events, and list growth reallocation is
            # measurable at that scale.
            if isinstance(declared, int) and declared >= 0:
                events: list = [None] * declared
                filled = 0
                for lineno, line in enumerate(stream, start=2):
                    if not line.strip():
                        continue
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise TraceFormatError(
                            f"{path}: bad event line (line {lineno})"
                        ) from exc
                    event = event_from_row(row, line=lineno)
                    if filled < declared:
                        events[filled] = event
                    else:
                        events.append(event)
                    filled += 1
                if filled != declared:
                    raise TraceFormatError(
                        f"{path}: header declares {declared} events, "
                        f"found {filled}"
                    )
                trace.events = events
            else:
                for lineno, line in enumerate(stream, start=2):
                    if not line.strip():
                        continue
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise TraceFormatError(
                            f"{path}: bad event line (line {lineno})"
                        ) from exc
                    trace.append(event_from_row(row, line=lineno))
        return trace


def load_any(path: Union[str, Path]):
    """Load a trace file in whichever format its suffix declares.

    ``.ctrace`` selects the columnar binary format (returning a
    :class:`~repro.emulator.columnar.ColumnarTrace`); anything else is
    read as JSONL (optionally gzipped), returning a :class:`Trace`.
    """
    path = Path(path)
    if path.suffix == ".ctrace":
        from .columnar import read_ctrace
        return read_ctrace(path)
    return Trace.load(path)


def save_any(trace, path: Union[str, Path]) -> str:
    """Write either trace representation in the format ``path``'s
    suffix declares (the inverse of :func:`load_any`).

    Returns the format written: ``"columnar"`` for ``.ctrace``,
    ``"jsonl"`` otherwise (gzipped under ``.gz``).
    """
    from .columnar import ColumnarTrace, write_ctrace

    if Path(path).suffix == ".ctrace":
        write_ctrace(trace, path)
        return "columnar"
    if isinstance(trace, ColumnarTrace):
        trace = trace.to_trace()
    trace.save(path)
    return "jsonl"
