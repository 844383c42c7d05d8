"""Deterministic discrete-event simulated cluster.

Runs an SPMD function on ``size`` ranks, each an OS thread with a
**virtual clock**.  Wall-clock time never enters any result:

* **computation** advances a rank's clock through its
  :class:`~repro.cost.workmeter.WorkMeter` — the cost engine charges work
  units as the algorithm executes, and every communication call first folds
  the accumulated model-seconds into the rank's clock;
* **communication** advances clocks through the
  :class:`~repro.parallel.mpi.netmodel.NetworkModel`: a send serializes the
  payload onto the wire (sender pays ``bytes/bandwidth``), the message
  arrives one latency later, and collectives pay binomial-tree costs.

Determinism
-----------
The only scheduling decision that can affect results is *which message a
blocked receive completes with*.  The cluster resolves it conservatively,
in classic parallel-discrete-event style:

* messages are totally ordered by ``(arrival, source, seq)`` and per-
  ``(source, dest)`` arrivals are monotone (MPI non-overtaking);
* a candidate message with arrival ``a`` is delivered only when every
  other live rank's clock floor satisfies ``clock + latency > a`` — no
  rank can still produce an earlier-arriving message (sends cost at least
  one latency, and a blocked rank resumes no earlier than its block time);
* when **all** live ranks are blocked, the globally minimum candidate is
  delivered (nothing can precede it); if no candidate exists anywhere the
  run is deadlocked and :class:`DeadlockError` is raised on every rank.

Consequently a run's results, clocks and message traces are a pure
function of the SPMD code, its inputs, and the models — independent of
host load, GIL scheduling, or thread wake-up order.
"""

from __future__ import annotations

import pickle
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cost.workmeter import WorkMeter, WorkModel
from repro.parallel.intercept import chained
from repro.parallel.mpi.comm import (
    ANY_SOURCE,
    CommError,
    Communicator,
    DeadlockError,
)
from repro.parallel.mpi.message import Message
from repro.parallel.mpi.netmodel import NetworkModel

__all__ = ["SimCluster", "SimRunResult"]

_RUNNING = "running"
_BLOCKED_RECV = "blocked-recv"
_BLOCKED_COLL = "blocked-coll"
_DONE = "done"

#: Condition re-check interval for blocked ranks: bounds every wait so a
#: missed notify (or a rank that died without one) can never wedge the
#: run — the deadlock detector runs on each wakeup.
_COND_POLL_SECONDS = 0.5


@dataclass
class SimRunResult:
    """Outcome of one simulated SPMD run."""

    results: list[Any]
    clocks: list[float]
    meters: list[WorkMeter]

    @property
    def makespan(self) -> float:
        """Virtual wall-clock of the parallel run (slowest rank)."""
        return max(self.clocks)


@dataclass
class _Rank:
    index: int
    meter: WorkMeter
    clock: float = 0.0
    meter_mark: float = 0.0
    state: str = _RUNNING
    want: tuple[int, int] | None = None  # (source, tag) when blocked on recv
    inbox: dict[tuple[int, int], deque[Message]] = field(default_factory=dict)


class _SimComm(Communicator):
    """Per-rank endpoint bound to a :class:`SimCluster`."""

    def __init__(self, cluster: "SimCluster", rank: int):
        self._cluster = cluster
        self._rank = rank

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._cluster.size

    @property
    def meter(self) -> WorkMeter:
        """This rank's work meter (drive the cost engine through it)."""
        return self._cluster._ranks[self._rank].meter

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        self._cluster._send(self._rank, obj, dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = 0) -> tuple[int, Any]:
        self._check_rank(source, allow_any=True)
        return self._cluster._recv(self._rank, source, tag)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_rank(root)
        return self._cluster._collective(self._rank, "bcast", root, obj)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_rank(root)
        if self._rank == root:
            if objs is None or len(objs) != self.size:
                raise CommError(
                    f"scatter needs a length-{self.size} sequence at the root"
                )
        return self._cluster._collective(self._rank, "scatter", root, objs)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root)
        return self._cluster._collective(self._rank, "gather", root, obj)

    def barrier(self) -> None:
        self._cluster._collective(self._rank, "barrier", 0, None)

    def elapsed(self) -> float:
        return self._cluster._elapsed(self._rank)

    def progress(self) -> None:
        self._cluster._progress(self._rank)


class SimCluster:
    """Deterministic simulated cluster (see module docstring).

    Parameters
    ----------
    size:
        Number of ranks (≥ 1).
    network:
        Communication cost model (fast-ethernet-class default).
    work_model:
        Seconds-per-unit model installed in every rank's work meter.
    faults:
        Optional :class:`~repro.parallel.faults.FaultPlan` armed on every
        rank in exception mode — ranks are threads of one process, so
        kills/wedges surface as :class:`InjectedFault` on the victim (and
        ``CommError`` on ranks blocked on it), deterministically.
    trace_dir:
        Optional directory for per-rank comm-event traces
        (:class:`~repro.parallel.trace.CommTraceRecorder`); recording is
        local-only, so traced runs stay bit-identical.
    """

    #: Clock domain of ``elapsed()``/results: deterministic model-seconds.
    clock = "model"

    def __init__(
        self,
        size: int,
        network: NetworkModel | None = None,
        work_model: WorkModel | None = None,
        faults: "FaultPlan | None" = None,
        trace_dir: str | None = None,
    ):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self.network = network or NetworkModel()
        self.work_model = work_model or WorkModel()
        self.faults = faults
        self.trace_dir = trace_dir
        self._cond = threading.Condition()
        self._ranks = [_Rank(i, WorkMeter(self.work_model)) for i in range(size)]
        self._seq = 0
        self._chan_last_arrival: dict[tuple[int, int], float] = {}
        self._coll: dict[str, Any] | None = None
        self._coll_gen = 0
        self._coll_results: dict[int, dict[str, Any]] = {}
        self._failure: BaseException | None = None

    # ==================================================================
    # public API
    # ==================================================================
    def run(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        per_rank_kwargs: Sequence[dict[str, Any]] | None = None,
    ) -> SimRunResult:
        """Execute ``fn(comm, *args, **kwargs, **per_rank_kwargs[rank])``.

        Blocks until every rank returns; re-raises the first rank failure.
        A cluster instance is single-use: clocks and mailboxes are not
        reset between runs.
        """
        if per_rank_kwargs is not None and len(per_rank_kwargs) != self.size:
            raise ValueError("per_rank_kwargs must have one entry per rank")
        fn = chained(fn, self, mode="exception")
        results: list[Any] = [None] * self.size
        errors: list[BaseException | None] = [None] * self.size

        def target(rank: int) -> None:
            comm = _SimComm(self, rank)
            kw = dict(kwargs or {})
            if per_rank_kwargs is not None:
                kw.update(per_rank_kwargs[rank])
            try:
                results[rank] = fn(comm, *args, **kw)
            except BaseException as exc:  # noqa: BLE001 - propagated below
                errors[rank] = exc
                with self._cond:
                    if self._failure is None:
                        self._failure = exc
                    self._cond.notify_all()
            finally:
                with self._cond:
                    st = self._ranks[rank]
                    self._sync_clock(st)
                    st.state = _DONE
                    self._cond.notify_all()

        threads = [
            threading.Thread(
                target=target, args=(i,), name=f"simrank-{i}", daemon=True
            )
            for i in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Prefer a root-cause failure (lowest such rank) over the
        # derivative "another rank failed" errors chained from it.
        derivative = [
            exc
            for exc in errors
            if exc is not None and exc.__cause__ is self._failure is not None
        ]
        for exc in errors:
            if exc is not None and exc not in derivative:
                raise exc
        for exc in errors:
            if exc is not None:
                raise exc
        return SimRunResult(
            results=results,
            clocks=[r.clock for r in self._ranks],
            meters=[r.meter for r in self._ranks],
        )

    # ==================================================================
    # clock plumbing
    # ==================================================================
    def _sync_clock(self, st: _Rank) -> None:
        now = st.meter.seconds()
        if now > st.meter_mark:
            st.clock += now - st.meter_mark
            st.meter_mark = now

    def _elapsed(self, rank: int) -> float:
        with self._cond:
            st = self._ranks[rank]
            self._sync_clock(st)
            return st.clock

    def _progress(self, rank: int) -> None:
        with self._cond:
            self._sync_clock(self._ranks[rank])
            self._cond.notify_all()

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise CommError("another rank failed") from self._failure

    # ==================================================================
    # point-to-point
    # ==================================================================
    def _send(self, rank: int, obj: Any, dest: int, tag: int) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        with self._cond:
            self._check_failure()
            st = self._ranks[rank]
            self._sync_clock(st)
            # Sender serializes the payload onto the wire...
            st.clock += max(len(payload), self.network.min_payload) / self.network.bandwidth
            # ...and the first byte lands one latency later.
            arrival = st.clock + self.network.latency
            chan = (rank, dest)
            last = self._chan_last_arrival.get(chan, -1.0)
            if arrival <= last:  # enforce non-overtaking per channel
                arrival = last + 1e-12
            self._chan_last_arrival[chan] = arrival
            self._seq += 1
            msg = Message(
                arrival=arrival,
                source=rank,
                seq=self._seq,
                dest=dest,
                tag=tag,
                payload=payload,
            )
            self._ranks[dest].inbox.setdefault((rank, tag), deque()).append(msg)
            self._cond.notify_all()

    def _recv(self, rank: int, source: int, tag: int) -> tuple[int, Any]:
        with self._cond:
            st = self._ranks[rank]
            self._sync_clock(st)
            st.state = _BLOCKED_RECV
            st.want = (source, tag)
            self._cond.notify_all()
            try:
                while True:
                    self._check_failure()
                    msg = self._try_deliver(st)
                    if msg is not None:
                        break
                    self._raise_if_deadlocked()
                    self._cond.wait(timeout=_COND_POLL_SECONDS)
            finally:
                st.state = _RUNNING
                st.want = None
            st.clock = max(st.clock, msg.arrival)
            self._cond.notify_all()
        return msg.source, pickle.loads(msg.payload)

    def _candidate(self, st: _Rank) -> Message | None:
        """Best matching queued message for a blocked rank (no safety)."""
        source, tag = st.want
        best: Message | None = None
        for (src, t), q in st.inbox.items():
            if t != tag or not q:
                continue
            if source != ANY_SOURCE and src != source:
                continue
            head = q[0]
            if best is None or head < best:
                best = head
        return best

    def _try_deliver(self, st: _Rank) -> Message | None:
        """Pop the candidate if conservative safety allows (see module doc)."""
        best = self._candidate(st)
        if best is None:
            return None
        lat = self.network.latency
        for other in self._ranks:
            if other.index == st.index or other.state == _DONE:
                continue
            if other.clock + lat <= best.arrival:
                # ``other`` could still produce an earlier-arriving message
                # — unless everyone is blocked and this is the global
                # minimum candidate (nothing can move before it).
                if not self._all_blocked():
                    return None
                gmin = self._global_min_candidate()
                if gmin is None or gmin is not best:
                    return None
                break
        st.inbox[(best.source, best.tag)].popleft()
        return best

    def _all_blocked(self) -> bool:
        return all(r.state != _RUNNING for r in self._ranks)

    def _global_min_candidate(self) -> Message | None:
        best: Message | None = None
        for r in self._ranks:
            if r.state != _BLOCKED_RECV:
                continue
            c = self._candidate(r)
            if c is not None and (best is None or c < best):
                best = c
        return best

    def _raise_if_deadlocked(self) -> None:
        """All live ranks blocked on recv with no messages anywhere."""
        if not self._all_blocked():
            return
        if any(r.state == _BLOCKED_COLL for r in self._ranks):
            # A collective in progress completes once everyone arrives;
            # mixing a blocked recv with a pending collective that can
            # never complete is caught by the recv side below.
            if all(
                r.state in (_DONE, _BLOCKED_COLL) for r in self._ranks
            ):
                return  # collective will complete
        if self._global_min_candidate() is None:
            states = {r.index: r.state for r in self._ranks}
            exc = DeadlockError(f"all ranks blocked with no messages: {states}")
            self._failure = exc
            self._cond.notify_all()
            raise exc

    # ==================================================================
    # collectives
    # ==================================================================
    def _collective(self, rank: int, op: str, root: int, obj: Any) -> Any:
        with self._cond:
            self._check_failure()
            st = self._ranks[rank]
            self._sync_clock(st)
            if self._coll is None:
                self._coll_gen += 1
                self._coll = {
                    "op": op,
                    "root": root,
                    "gen": self._coll_gen,
                    "entries": {},
                    "taken": 0,
                }
            coll = self._coll
            if coll["op"] != op or coll["root"] != root:
                exc = CommError(
                    f"collective mismatch: rank {rank} called {op}(root={root}) "
                    f"while {coll['op']}(root={coll['root']}) is in progress"
                )
                self._failure = exc
                self._cond.notify_all()
                raise exc
            if rank in coll["entries"]:
                raise CommError(f"rank {rank} entered {op} twice")
            coll["entries"][rank] = (st.clock, obj)
            gen = coll["gen"]
            if len(coll["entries"]) == self.size:
                self._finish_collective(coll)
                self._coll = None
                # Every member is released now, before its thread wakes
                # to take its result: it must not count as blocked.
                for member in coll["entries"]:
                    self._ranks[member].state = _RUNNING
            else:
                st.state = _BLOCKED_COLL
                while gen not in self._coll_results:
                    self._check_failure()
                    self._cond.wait(timeout=_COND_POLL_SECONDS)
                st.state = _RUNNING
            res = self._coll_results[gen]
            res["taken"] += 1
            if res["taken"] == self.size:
                del self._coll_results[gen]
            st.clock = max(st.clock, res["completion"])
            self._cond.notify_all()
            payload = res["per_rank"][rank]
        return payload

    def _finish_collective(self, coll: dict[str, Any]) -> None:
        op = coll["op"]
        root = coll["root"]
        entries = coll["entries"]
        start = max(clock for clock, _ in entries.values())
        net = self.network
        per_rank: list[Any] = [None] * self.size
        if op == "barrier":
            completion = start + net.barrier_time(self.size)
        elif op == "bcast":
            blob = pickle.dumps(entries[root][1], protocol=pickle.HIGHEST_PROTOCOL)
            completion = start + net.bcast_time(len(blob), self.size)
            for r in range(self.size):
                per_rank[r] = (
                    entries[root][1] if r == root else pickle.loads(blob)
                )
        elif op == "scatter":
            parts = entries[root][1]
            blobs = [
                pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL) for p in parts
            ]
            completion = start + net.scatter_time(sum(map(len, blobs)), self.size)
            for r in range(self.size):
                per_rank[r] = parts[r] if r == root else pickle.loads(blobs[r])
        elif op == "gather":
            blobs = {
                r: pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
                for r, (_, obj) in entries.items()
            }
            completion = start + net.gather_time(
                sum(map(len, blobs.values())), self.size
            )
            gathered = [
                entries[r][1] if r == root else pickle.loads(blobs[r])
                for r in range(self.size)
            ]
            per_rank[root] = gathered
        else:  # pragma: no cover - guarded by the public API
            raise CommError(f"unknown collective {op!r}")
        self._coll_results[coll["gen"]] = {
            "completion": completion,
            "per_rank": per_rank,
            "taken": 0,
        }
        self._cond.notify_all()
