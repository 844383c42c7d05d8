"""Canonical comm-event traces: the input of the P505/P506 replay rules.

:class:`CommTraceRecorder` is the last hook of the comm interceptor
chain (:mod:`repro.parallel.intercept`), which calls it once per *public*
op — ``send``/``recv``/``bcast``/``scatter``/``gather``/``barrier`` —
that returned, regardless of how a backend implements its collectives
internally.  Each rank records locally (no payload is touched, no extra
message flows, no RNG is consumed), so a traced run is bit-identical to
an untraced one; the recorder is off by default and enabled per run via
``make_cluster(..., trace_dir=...)``.

The trace is one JSONL file per rank (``rank-N.jsonl``) of canonical
event records:

``{"i": 3, "op": "send", "dst": 0, "tag": 0, "label": "report",
   "file": ".../type3.py", "line": 148}``
``{"i": 4, "op": "recv", "req": -1, "tag": 0, "src": 2, ...}``
``{"i": 5, "op": "bcast", "root": 0, ...}``

``req`` is the *requested* source (−1 = ANY_SOURCE), ``src`` the matched
sender — the pair is what the offline vector-clock checker
(:mod:`repro.check.replay`) needs to reconstruct happens-before and flag
ANY_SOURCE message races.  ``label`` is the message kind for the
tuple-with-string-head protocol idiom (``("report", ...)``), recorded so
replays can be cross-checked against the static skeleton's labels.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from repro.parallel import intercept

__all__ = ["CommTraceRecorder", "TraceError", "load_trace"]


def _call_site() -> tuple[str, int]:
    """(file, line) of the op's caller: the nearest frame outside the chain.

    Called from :meth:`CommTraceRecorder.after`, whose caller is the
    chain's wrapper.
    """
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename == intercept.__file__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - there is always a caller
        return "<unknown>", 0
    return frame.f_code.co_filename, frame.f_lineno


def _label_of(obj: Any) -> str | None:
    """The message kind of the tuple-with-string-head protocol idiom."""
    if isinstance(obj, tuple) and obj and isinstance(obj[0], str):
        return obj[0]
    return None


class CommTraceRecorder(intercept.Hook):
    """Records one canonical event per public comm op on one rank.

    Only ops that returned reach :meth:`after`: the trace is the set of
    events that actually happened on the wire.
    """

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def after(self, op: str, args: tuple, kwargs: dict, result: Any) -> None:
        record: dict[str, Any]
        if op == "send":
            obj = args[0] if args else kwargs.get("obj")
            dest = args[1] if len(args) > 1 else kwargs.get("dest")
            tag = args[2] if len(args) > 2 else kwargs.get("tag", 0)
            record = {
                "op": "send", "dst": dest, "tag": tag, "label": _label_of(obj),
            }
        elif op == "recv":
            req = args[0] if args else kwargs.get("source", -1)
            tag = args[1] if len(args) > 1 else kwargs.get("tag", 0)
            src, obj = result
            record = {
                "op": "recv", "req": req, "tag": tag, "src": src,
                "label": _label_of(obj),
            }
        elif op == "barrier":
            record = {"op": "barrier", "root": 0}
        else:  # bcast / scatter / gather
            root = args[1] if len(args) > 1 else kwargs.get("root", 0)
            record = {"op": op, "root": root}
        record["i"] = len(self.events)
        record["file"], record["line"] = _call_site()
        self.events.append(record)

    def dump(self, path: str | Path) -> None:
        """Write this rank's trace as one JSON record per line."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w", encoding="utf-8") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")


class TraceError(ValueError):
    """A trace line that is not one JSON record (a torn or edited file)."""

    def __init__(self, path: Path, line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")
        self.path = str(path)
        self.line = line
        self.reason = reason


def load_trace(trace_dir: str | Path) -> dict[int, list[dict[str, Any]]]:
    """Read every ``rank-N.jsonl`` under ``trace_dir``; rank -> events.

    Raises :class:`TraceError` naming the first line that does not parse.
    """
    out: dict[int, list[dict[str, Any]]] = {}
    for path in sorted(Path(trace_dir).glob("rank-*.jsonl")):
        rank = int(path.stem.split("-", 1)[1])
        events = []
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise TraceError(path, lineno, exc.msg) from exc
        out[rank] = events
    return out
