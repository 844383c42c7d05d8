"""Span recorder for the benchmark's traced runs.

The recorder times calls into the program from the outside: it replaces
public functions and methods of ``repro`` with thin wrappers for the
duration of one traced pass and puts every original back afterwards.
Nothing in ``src/`` is edited and no timing flows into a result.

Each span has a name, a start and an end on ``time.perf_counter_ns`` (the
system-wide monotonic clock on Linux, so stamps from forked ranks and pool
workers are comparable with the driver's).  Spans are aggregated as they
close rather than stored, because a scan-bound pass opens a few hundred
thousand of them:

* ``calls`` / ``total_ns`` / ``count`` cover only the *outermost* span of
  a name (``move_cell`` -> ``remove_cell`` + ``insert_cell`` is one commit,
  not three);
* ``self_ns`` is a span's duration minus the time its child spans in the
  same thread cover, summed over every span of the name.

Threads keep separate stacks and tables (the simulated cluster runs its
ranks as threads).  Forked children (socket ranks, sweep pool workers)
reset what they inherited and write their tables to one JSON file per
process in ``ship_dir`` each time their main thread's stack empties — a
forked child leaves through ``os._exit`` and never returns to the parent's
frames.  The driver merges those files when the pass ends.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter_ns

#: The public comm ops of a rank communicator.
COMM_OPS = ("send", "recv", "bcast", "scatter", "gather", "barrier")


class _ThreadState:
    """One thread's span stack and aggregate tables."""

    __slots__ = ("stack", "stats", "samples", "counters", "main")

    def __init__(self, main: bool):
        #: Open spans: ``[name, start_ns, child_ns, outermost]``.
        self.stack: list[list[Any]] = []
        #: name -> ``[calls, total_ns, self_ns, count]``.
        self.stats: dict[str, list[int]] = {}
        self.samples: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.main = main


class Recorder:
    """Aggregating span recorder shared by every wrapper of one traced pass.

    ``sampled`` names keep each outermost duration so percentiles can be
    taken; all other names keep sums only.
    """

    def __init__(self, ship_dir: str | Path, sampled: tuple[str, ...] = ()):
        self.ship_dir = Path(ship_dir)
        self.sampled = frozenset(sampled)
        self.pid = os.getpid()
        self.child = False
        self.active = False
        self._threads: dict[int, _ThreadState] = {}
        #: ``(token, start_ns, end_ns, size, start_method)`` per cluster run.
        self.cluster_runs: list[tuple] = []
        #: ``(token, rank, entry_ns, exit_ns, comm_ns)`` per rank body.
        self.rank_events: list[tuple] = []
        self._tokens = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # -- thread state -----------------------------------------------------
    def _state(self) -> _ThreadState:
        tid = threading.get_ident()
        st = self._threads.get(tid)
        if st is None:
            st = _ThreadState(threading.current_thread() is threading.main_thread())
            self._threads[tid] = st
        return st

    def _after_fork(self) -> None:
        # Only the forking thread survives a fork; everything inherited
        # belongs to the parent, which reports it itself.
        if not self.active:
            return
        self.pid = os.getpid()
        self.child = True
        self._threads = {}
        self.cluster_runs = []
        self.rank_events = []
        self._tokens = 0

    def new_token(self) -> str:
        self._tokens += 1
        return f"{self.pid}:{self._tokens}"

    # -- spans ------------------------------------------------------------
    def enter(self, name: str) -> tuple[_ThreadState, list[Any]]:
        st = self._state()
        stack = st.stack
        frame = [name, 0, 0, not stack or stack[-1][0] != name]
        stack.append(frame)
        frame[1] = _now()
        return st, frame

    def exit(self, st: _ThreadState, frame: list[Any], count: float = 0) -> int:
        dur = _now() - frame[1]
        stack = st.stack
        stack.pop()
        if stack:
            stack[-1][2] += dur
        name = frame[0]
        agg = st.stats.get(name)
        if agg is None:
            agg = st.stats[name] = [0, 0, 0, 0]
        agg[2] += dur - frame[2]
        if frame[3]:
            agg[0] += 1
            agg[1] += dur
            agg[3] += count
            if name in self.sampled:
                st.samples.setdefault(name, []).append(dur)
        if not stack and self.child and st.main:
            self.flush()
        return dur

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to a plain counter (no span)."""
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + value

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        count: Callable[[tuple, dict, Any], float] | None = None,
    ) -> Callable[..., Any]:
        """A span-recording stand-in for ``fn``.

        ``count(args, kwargs, result)`` gives the work count charged to
        the outermost span (e.g. candidates scanned); it is not called
        when ``fn`` raises.
        """
        rec = self

        def spanned(*args: Any, **kwargs: Any) -> Any:
            st, frame = rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.exit(st, frame)
                raise
            rec.exit(st, frame, count(args, kwargs, result) if count else 0)
            return result

        spanned.__name__ = getattr(fn, "__name__", name)
        spanned.__qualname__ = getattr(fn, "__qualname__", name)
        spanned.__doc__ = getattr(fn, "__doc__", None)
        spanned.__wrapped__ = fn  # type: ignore[attr-defined]
        return spanned

    # -- shipping ---------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """This process's tables, JSON-ready (thread tables kept apart)."""
        return {
            "pid": self.pid,
            "threads": [
                {
                    "main": st.main,
                    "stats": st.stats,
                    "samples": st.samples,
                    "counters": st.counters,
                }
                for st in list(self._threads.values())
            ],
            "cluster_runs": list(self.cluster_runs),
            "rank_events": list(self.rank_events),
        }

    def flush(self) -> None:
        """Write this (child) process's tables to ``ship_dir/<pid>.json``."""
        path = self.ship_dir / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def collect(self) -> list[dict[str, Any]]:
        """The driver's snapshot followed by every shipped child snapshot."""
        out = [self.snapshot()]
        for path in sorted(self.ship_dir.glob("*.json")):
            out.append(json.loads(path.read_text()))
        return out


# ---------------------------------------------------------------------------
# Installing and restoring wrappers
# ---------------------------------------------------------------------------


class Patches:
    """Attribute replacements that are undone exactly, by identity."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, bool, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        own = vars(owner)
        had = attr in own
        self._saved.append((owner, attr, had, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, had, old = self._saved.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def module_bindings(fn: Any, prefix: str = "repro") -> list[tuple[Any, str]]:
    """Every ``(module, name)`` under ``prefix`` bound to ``fn`` itself.

    ``from x import f`` copies the binding, so a module function has to be
    replaced in each module that imported it for callers there to see
    the wrapper.
    """
    out = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


def pickled_len(obj: Any) -> int:
    """Payload size as the real backends put it on the wire."""
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class RankFn:
    """Per-rank body wrapper: a root span plus timed comm ops.

    Comm ops are wrapped on the communicator instance, depth-guarded like
    ``repro.parallel.trace.CommTraceRecorder`` so a collective built from
    the backend's own ``recv`` counts once.  The instance attributes are
    removed again when the body returns.
    """

    def __init__(self, fn: Callable[..., Any], rec: Recorder, token: str):
        self.fn = fn
        self.rec = rec
        self.token = token

    def __call__(self, comm: Any, *args: Any, **kwargs: Any) -> Any:
        rec = self.rec
        depth = [0]
        comm_ns = [0]

        def timed(op: str, base: Callable[..., Any]) -> Callable[..., Any]:
            name = ("mpi.send" if op == "send" else
                    "mpi.recv" if op == "recv" else "mpi.collective")

            def call(*a: Any, **k: Any) -> Any:
                if depth[0]:
                    return base(*a, **k)
                depth[0] += 1
                st, frame = rec.enter(name)
                try:
                    result = base(*a, **k)
                finally:
                    depth[0] -= 1
                    comm_ns[0] += rec.exit(st, frame)
                _count_bytes(rec, comm, op, a, k)
                return result

            return call

        for op in COMM_OPS:
            setattr(comm, op, timed(op, getattr(comm, op)))
        st, frame = rec.enter("mpi.rank")
        try:
            return self.fn(comm, *args, **kwargs)
        finally:
            for op in COMM_OPS:
                vars(comm).pop(op, None)
            rec.rank_events.append(
                (self.token, comm.rank, frame[1], _now(), comm_ns[0])
            )
            # Closing the root span flushes a forked rank's tables.
            rec.exit(st, frame)


def _count_bytes(rec: Recorder, comm: Any, op: str, a: tuple, k: dict) -> None:
    """Charge the payload bytes this rank put on the wire for one op."""
    if op == "send":
        rec.add("mpi.send.calls", 1)
        rec.add("mpi.send.bytes", pickled_len(a[0] if a else k.get("obj")))
        return
    if op in ("recv", "barrier"):
        return
    root = a[1] if len(a) > 1 else k.get("root", 0)
    obj = a[0] if a else k.get("obj", k.get("objs"))
    if op == "bcast" and comm.rank == root:
        rec.add("mpi.send.bytes", pickled_len(obj) * (comm.size - 1))
    elif op == "scatter" and comm.rank == root:
        rec.add("mpi.send.bytes", sum(
            pickled_len(o) for r, o in enumerate(obj) if r != root
        ))
    elif op == "gather" and comm.rank != root:
        rec.add("mpi.send.bytes", pickled_len(obj))
