"""Socket router backend: the real-process cluster, O(p) file descriptors.

The simulated cluster answers the paper's *model* questions; this backend
runs the same SPMD strategy code on genuine OS processes — the execution
path behind ``--cluster socket`` and the wall-clock half of the
``speedup`` scenario.  Differences from
:class:`~repro.parallel.mpi.simcluster.SimCluster`:

* ``elapsed()`` is wall-clock (``time.perf_counter`` since rank start);
* there are no virtual clocks: the work meter still counts units (priced
  by ``work_model`` into model-seconds for the calibration fit) but does
  not drive time;
* ANY_SOURCE order reflects real arrival order — Type III results vary
  run to run, exactly as they did on the paper's real cluster, while
  rank-addressed strategies (Type I/II) are bit-identical at any p.

Topology & framing
------------------
A **hub-and-spoke router**: the parent owns one listening socket, every
rank holds exactly one connection to it, and all point-to-point traffic
is forwarded through the hub as length-prefixed frames
(:mod:`repro.parallel.mpi.message`).  Total descriptor budget is
``p + 1`` at the router and one per rank — p = 64 on one host is routine
and p in the hundreds fits inside default fd limits.

By default the router listens on an ``AF_UNIX`` socket in a private
temporary directory (lowest latency, no port allocation); pass
``address=(host, port)`` for ``AF_INET`` — the hook for multi-host fan-out
later (``port=0`` picks a free port).  Each frame is a fixed 17-byte
header (kind, source, dest, tag, payload length) plus the pickled object;
the router forwards DATA frames to ``dest`` without unpickling them.

Protocol semantics (tag matching, ANY_SOURCE behavior over dead peers,
out-of-order stashing, root-sequenced collectives) live in
:class:`~repro.parallel.mpi.commbase.BufferedComm`, and the conformance
suite (``tests/parallel/test_backend_conformance.py``) pins this backend
and the simulated one to one contract.

Liveness: PEERDOWN, heartbeats, deadline
----------------------------------------
A routed star must *tell* ranks about departures:

* when a rank ships its RESULT (clean finish) the router broadcasts a
  PEERDOWN frame for it — peers drop it from ANY_SOURCE wait sets and a
  targeted receive from it raises :class:`CommError`.  Because each
  rank's frames arrive on one ordered stream, everything it sent is
  forwarded *before* its PEERDOWN — no message loss on a clean exit;
* every rank starts *away* (no connection).  One admission takes each
  HELLO bearing the per-run session token — a rank's first connect and
  its reconnect after a dropped connection alike — and flushes the frames
  queued for the rank while it was away; any other connection is closed
  and ignored.  An EOF makes the rank away again.  A re-HELLO that
  arrives before the router has read its rank's old connection's EOF is
  parked and admitted at that EOF (closed if the rank retires first): the
  rank already sends on it;
* an away rank whose process has exited (SIGKILL, OOM, ``os._exit``),
  whether before its first HELLO or after a drop, makes the router
  terminate the survivors and raise
  ``CommError("rank(s) died without result: ...")``;
* every rank runs a daemon heartbeat thread; a rank that is alive but
  wedged (SIGSTOP, native-code hang) stops heartbeating, and the router
  raises :class:`CommError` once its silence exceeds
  ``heartbeat_timeout``.  The router's last-seen table starts at a rank's
  admission, takes every frame, and is beaten once when a connection
  drops, so the same window bounds a reconnect;
* the whole run sits under a configurable ``timeout`` deadline (CLI:
  ``--deadline``), so no failure mode can stall a caller forever.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import selectors
import socket
import sys
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.cost.workmeter import WorkMeter, WorkModel
from repro.parallel.intercept import chained
from repro.parallel.mpi.comm import ANY_SOURCE, ClusterRunResult, CommError
from repro.parallel.mpi.commbase import BufferedComm
from repro.parallel.mpi.message import (
    FRAME_DATA,
    FRAME_HEARTBEAT,
    FRAME_HELLO,
    FRAME_PEERDOWN,
    FRAME_RESULT,
    forward_frame,
    pack_frame,
    recv_frame,
    send_frame,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults ← comm)
    from repro.parallel.faults import FaultPlan

__all__ = [
    "SocketCluster",
    "MAX_SOCKET_RANKS",
    "DEFAULT_TIMEOUT",
    "pick_start_method",
]

#: Default run deadline (seconds): generous for real workloads, finite so
#: a hung backend can never stall a caller (CI enforces a tighter one).
DEFAULT_TIMEOUT = 600.0

#: Largest supported rank count.  The router holds one connection per
#: rank plus the listener — ``p + 1`` descriptors — so the real bound is
#: the host fd limit; 256 keeps a misconfigured sweep from hitting it.
MAX_SOCKET_RANKS = 256

#: Router poll interval while waiting for frames/results.
_POLL_SECONDS = 0.2

#: Cap on the exponential backoff between a rank's reconnect attempts.
_RECONNECT_BACKOFF_CAP = 2.0

#: Bound on reading a freshly accepted connection's HELLO: a real rank
#: sends it right after connecting, so only a stray client waits this out.
_HELLO_TIMEOUT_SECONDS = 2.0

#: Grace for ``join()`` on a process already observed dead (exitcode
#: set) — reaping bookkeeping, not a liveness decision.
_REAP_JOIN_SECONDS = 1.0

#: SIGTERM grace before escalating to SIGKILL during cleanup; short
#: because a SIGSTOPped rank leaves SIGTERM pending forever.
_TERM_GRACE_SECONDS = 5.0

#: Default heartbeat send interval (seconds) inside each rank.
DEFAULT_HEARTBEAT = 2.0


class _SocketComm(BufferedComm):
    """Per-process endpoint over the single router connection.

    Protocol semantics live in :class:`BufferedComm`; the transport here
    is one stream socket to the router.  ``_transmit`` frames and sends
    (under a lock shared with the heartbeat thread); ``_pump`` reads one
    frame — DATA is stashed, PEERDOWN marks the peer dead.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        sock: socket.socket,
        work_model: WorkModel | None = None,
        family: int | None = None,
        address: Any = None,
        token: bytes | None = None,
        reconnect_attempts: int = 8,
        reconnect_backoff: float = 0.05,
    ):
        super().__init__(rank, size, work_model)
        self._sock = sock
        # sendall() may interleave with the heartbeat thread's pings;
        # frames must hit the stream whole or routing desynchronizes.
        self._send_lock = threading.Lock()
        # Reconnect-with-backoff: with a (family, address, token) triple
        # a dropped connection is re-dialed and re-HELLOed instead of
        # failing the rank; without one (direct construction in tests)
        # a drop is terminal, as before.
        self._family = family
        self._address = address
        self._token = token
        self._reconnect_attempts = reconnect_attempts
        self._reconnect_backoff = reconnect_backoff
        self._reconnect_lock = threading.Lock()

    def _fault_disconnect(self) -> None:
        """Sever the router connection without dying (``disconnect`` fault).

        ``shutdown`` (not ``close``) so a concurrent reader on the old
        socket sees EOF rather than EBADF; the reconnect path replaces
        and closes the socket object itself.
        """
        with self._send_lock:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - already severed
                pass

    def _reconnect(self, dead_sock: socket.socket) -> None:
        """Replace a dropped router connection; raises CommError on defeat.

        Idempotent across threads: whoever wins the lock re-dials; the
        loser sees ``self._sock`` already replaced and returns.  The
        router bounds re-admission by its heartbeat window and the run
        deadline, so the client keeps its retry budget small.
        """
        if self._address is None:
            raise CommError(
                f"rank {self._rank}: router connection lost "
                "(reconnect disabled: no router address)"
            )
        with self._reconnect_lock:
            if self._sock is not dead_sock:
                return  # another thread already reconnected
            delay = self._reconnect_backoff
            last: Exception | None = None
            for _attempt in range(self._reconnect_attempts):
                try:
                    sock = _dial(
                        self._family, self._address, self._rank, self._token
                    )
                except OSError as exc:
                    last = exc
                    time.sleep(delay)
                    delay = min(delay * 2, _RECONNECT_BACKOFF_CAP)
                    continue
                old, self._sock = self._sock, sock
                try:
                    old.close()
                except OSError:  # pragma: no cover - double close
                    pass
                return
            raise CommError(
                f"rank {self._rank}: could not reconnect to the router "
                f"after {self._reconnect_attempts} attempts ({last})"
            )

    def _sendall(self, data: bytes) -> None:
        while True:
            with self._send_lock:
                sock = self._sock
                try:
                    forward_frame(sock, data)
                    return
                except OSError:
                    pass
            # A frame either fails whole (before any byte is accepted) or
            # dies with the connection; resending it whole on the new
            # connection cannot interleave with stale bytes — the router
            # discards the old stream at EOF.
            self._reconnect(sock)

    def _transmit(self, obj: Any, dest: int, tag: int) -> None:
        if dest in self._dead:
            raise CommError(
                f"rank {self._rank}: send to rank {dest} failed — peer died "
                "(router reported it down)"
            )
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._sendall(pack_frame(FRAME_DATA, self._rank, dest, tag, payload))
        except OSError as exc:
            raise CommError(
                f"rank {self._rank}: send to rank {dest} failed — router "
                f"connection lost ({exc})"
            ) from None

    def _pump(self, source: int, tag: int) -> None:
        if source == ANY_SOURCE:
            peers = set(range(self._size)) - {self._rank}
            if peers <= self._dead:
                raise CommError(
                    f"rank {self._rank}: recv(ANY_SOURCE, tag={tag}) "
                    "with no live peers and no matching stashed message"
                )
        elif source in self._dead:
            raise CommError(
                f"rank {self._rank}: rank {source} died before "
                f"sending tag={tag}"
            )
        while True:
            sock = self._sock
            try:
                kind, src, _dest, t, payload = recv_frame(sock)
                break
            except (EOFError, OSError) as exc:
                try:
                    self._reconnect(sock)
                except CommError:
                    raise CommError(
                        f"rank {self._rank}: router connection lost while "
                        f"waiting for a message ({exc})"
                    ) from None
        if kind == FRAME_DATA:
            self._stash.append((src, t, pickle.loads(payload)))
        elif kind == FRAME_PEERDOWN:
            # ``src`` is gone (finished or died); the recv loop re-checks
            # liveness, so a targeted wait on it errors next iteration.
            self._dead.add(src)
        # Anything else is router-internal; ignore.


def _heartbeat_loop(
    comm: _SocketComm, stop: threading.Event, interval: float
) -> None:
    while not stop.wait(interval):
        try:
            comm._sendall(pack_frame(FRAME_HEARTBEAT, comm.rank, -1, 0))
        except (OSError, CommError):
            # Router gone and reconnect defeated; the main thread's own
            # send/recv will notice too.
            return


def _dial(family: int, address: Any, rank: int, token: bytes) -> socket.socket:
    """Connect to the router and introduce ``rank`` with the session token.

    The one dial of a rank: its first connect and every reconnect.  Raises
    :class:`OSError` (with the socket closed) when the router is unreachable.
    """
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.connect(address)
        if family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(sock, FRAME_HELLO, rank, -1, 0, token)
    except OSError:
        sock.close()
        raise
    return sock


def _socket_worker(
    rank: int,
    size: int,
    family: int,
    address: Any,
    work_model: WorkModel | None,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    heartbeat: float,
    token: bytes,
) -> None:
    try:
        sock = _dial(family, address, rank, token)
    except OSError:
        # Router already gone (parent died / run aborted): exit silently;
        # the parent reports the failure on its side.
        return
    comm = _SocketComm(
        rank, size, sock, work_model,
        family=family, address=address, token=token,
    )
    stop = threading.Event()
    hb = threading.Thread(
        target=_heartbeat_loop,
        args=(comm, stop, heartbeat),
        name=f"sockrank-{rank}-heartbeat",
        daemon=True,
    )
    hb.start()
    try:
        result = fn(comm, *args, **kwargs)
        status = ("ok", result, comm.elapsed(), comm.meter.snapshot())
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        status = ("error", repr(exc), comm.elapsed(), comm.meter.snapshot())
    stop.set()
    try:
        payload = pickle.dumps(status, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        payload = pickle.dumps(
            (
                "error",
                f"rank {rank} produced an unpicklable result",
                comm.elapsed(),
                comm.meter.snapshot(),
            )
        )
    try:
        comm._sendall(pack_frame(FRAME_RESULT, rank, -1, 0, payload))
    except OSError:
        # Parent already gone; exiting without a result surfaces there as
        # "died without result".
        pass
    finally:
        sock.close()


def pick_start_method() -> str:
    """``fork`` where safe and available, else ``spawn``.

    macOS can fork but CoreFoundation makes it unsafe-by-default (Python
    3.8+ defaults the platform to spawn for the same reason); Windows has
    no fork at all.  The SPMD function and its arguments must be
    picklable either way (module-level functions; specs are plain
    dataclasses).
    """
    if sys.platform != "darwin" and "fork" in mp.get_all_start_methods():
        return "fork"
    return "spawn"


def _died_without_result(procs: list[Any], ranks: list[int]) -> str:
    """The report of ranks whose process exited without shipping a result."""
    return "rank(s) died without result: " + ", ".join(
        f"rank {r} (exitcode {procs[r].exitcode})" for r in ranks
    )


class SocketCluster:
    """Hub-and-spoke SPMD execution (see module docstring).

    Parameters
    ----------
    size:
        Number of ranks, ``1 <= size <= MAX_SOCKET_RANKS``.
    work_model:
        Seconds-per-unit model for each rank's work meter (profiling and
        the wall-clock calibration fit; does not affect execution).
    timeout:
        Run deadline in seconds (``None`` disables it).  On expiry the
        surviving ranks are terminated and :class:`CommError` is raised.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"`` override; defaults to
        :func:`pick_start_method`.
    address:
        ``None`` (default) for an ``AF_UNIX`` socket in a private temp
        directory, or ``(host, port)`` for ``AF_INET`` (``port=0`` picks
        a free port) — the multi-host hook.
    heartbeat:
        Per-rank heartbeat send interval in seconds.
    heartbeat_timeout:
        Silence threshold after which an admitted rank counts as wedged;
        defaults to ``max(30, 10 × heartbeat)`` — generous enough that CPU
        oversubscription at p = 64 cannot starve a healthy rank's
        heartbeat thread into a false positive.  The same window bounds
        a disconnected rank's reconnect; before its first HELLO only the
        run deadline bounds a rank.
    faults:
        Optional :class:`~repro.parallel.faults.FaultPlan` armed on
        every rank in process mode (kills really ``_exit``, wedges
        really SIGSTOP, disconnects really drop the connection).
    on_rank_failure:
        ``"abort"`` (default): any mid-run rank loss terminates the
        survivors and raises :class:`CommError` — bit-identical to the
        pre-fault-tolerance behavior.  ``"degrade"``: the loss is
        broadcast as PEERDOWN, recorded on ``ClusterRunResult.lost``, and the
        run continues with the survivors.
    trace_dir:
        Optional directory for per-rank comm-event traces
        (:class:`~repro.parallel.trace.CommTraceRecorder`); recording is
        local-only, so traced runs stay bit-identical.
    """

    #: Clock domain reported by ``elapsed()``/results (vs ``"model"``).
    clock = "wall"

    def __init__(
        self,
        size: int,
        work_model: WorkModel | None = None,
        timeout: float | None = DEFAULT_TIMEOUT,
        start_method: str | None = None,
        address: tuple[str, int] | None = None,
        heartbeat: float = DEFAULT_HEARTBEAT,
        heartbeat_timeout: float | None = None,
        faults: "FaultPlan | None" = None,
        on_rank_failure: str = "abort",
        trace_dir: str | None = None,
    ):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if size > MAX_SOCKET_RANKS:
            raise ValueError(
                f"size {size} exceeds the socket router bound (p <= "
                f"{MAX_SOCKET_RANKS}): one connection per rank plus the "
                "listener must fit inside the host's fd limit"
            )
        self.size = size
        self.work_model = work_model
        self.timeout = timeout
        self.start_method = start_method or pick_start_method()
        self.address = address
        self.heartbeat = heartbeat
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else max(30.0, 10.0 * heartbeat)
        )
        self.faults = faults
        self.on_rank_failure = on_rank_failure
        self.trace_dir = trace_dir

    def run(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        per_rank_kwargs: Sequence[dict[str, Any]] | None = None,
    ) -> ClusterRunResult:
        """Execute ``fn(comm, *args, **kwargs, **per_rank_kwargs[rank])``.

        Raises :class:`CommError` if any rank fails — with its repr'd
        exception when the rank shipped one, "died without result" when
        its process exited first, or a heartbeat/deadline report when
        it wedged — always after every child process has been reaped and
        every descriptor closed.
        """
        if per_rank_kwargs is not None and len(per_rank_kwargs) != self.size:
            raise ValueError("per_rank_kwargs must have one entry per rank")
        fn = chained(fn, self, mode="process")
        ctx = mp.get_context(self.start_method)
        # Per-run session token: every HELLO must carry it, so a stray
        # client (or a rank from a previous run racing cleanup) can never
        # be admitted as a live rank.  Pickled once, it is the HELLO payload
        # byte for byte: the router compares bytes, never unpickling what
        # an unknown client sent.
        token = pickle.dumps(
            os.urandom(16).hex(),  # repro: noqa[D103] -- connection-admission secret only; never reaches results, seeds, or cache keys
            protocol=pickle.HIGHEST_PROTOCOL,
        )

        tmpdir: str | None = None
        if self.address is None:
            tmpdir = tempfile.mkdtemp(prefix="repro-sock-")
            family = socket.AF_UNIX
            addr: Any = os.path.join(tmpdir, "router.sock")
        else:
            family = socket.AF_INET
            addr = tuple(self.address)

        listener = socket.socket(family, socket.SOCK_STREAM)
        procs: list[Any] = []
        conns: dict[int, socket.socket] = {}
        parked: dict[int, socket.socket] = {}
        sel = selectors.DefaultSelector()
        try:
            listener.bind(addr)
            listener.listen(self.size)
            if family == socket.AF_INET:
                addr = listener.getsockname()  # resolve port 0

            t0 = time.perf_counter()
            deadline = None if self.timeout is None else t0 + self.timeout
            for rank in range(self.size):
                kw = dict(kwargs or {})
                if per_rank_kwargs is not None:
                    kw.update(per_rank_kwargs[rank])
                proc = ctx.Process(
                    target=_socket_worker,
                    args=(
                        rank,
                        self.size,
                        int(family),
                        addr,
                        self.work_model,
                        fn,
                        tuple(args),
                        kw,
                        self.heartbeat,
                        token,
                    ),
                    name=f"sockrank-{rank}",
                )
                proc.start()
                procs.append(proc)

            statuses, lost = self._route(
                sel, listener, conns, parked, procs, deadline, token
            )
            wall = time.perf_counter() - t0
        finally:
            self._cleanup(sel, conns, parked, listener, procs, tmpdir)

        failures = [
            (r, st[1])
            for r, st in enumerate(statuses)
            if st is not None and st[0] == "error"
        ]
        if failures:
            raise CommError(f"rank failures: {failures}")
        if len(lost) == self.size:
            raise CommError(f"all ranks lost: {lost}")
        assert all(
            st is not None for r, st in enumerate(statuses) if r not in lost
        )
        meters = []
        for st in statuses:
            meter = WorkMeter(self.work_model)
            if st is not None:
                meter.units.update(st[3])
            meters.append(meter)
        return ClusterRunResult(
            results=[None if st is None else st[1] for st in statuses],
            clocks=[0.0 if st is None else float(st[2]) for st in statuses],
            meters=meters,
            makespan=wall,
            lost=lost,
        )

    # -- the run's one phase ----------------------------------------------
    def _route(
        self,
        sel: selectors.BaseSelector,
        listener: socket.socket,
        conns: dict[int, socket.socket],
        parked: dict[int, socket.socket],
        procs: list[Any],
        deadline: float | None,
        token: bytes,
    ) -> tuple[list[tuple[str, Any, float, dict] | None], dict[int, str]]:
        """Admit ranks and forward frames between them until every result is in.

        Returns ``(statuses, lost)``: ``lost`` is only ever populated
        under ``on_rank_failure="degrade"`` — the abort path raises on
        the first loss, exactly as before fault tolerance existed.

        Every rank starts *away* (no connection).  ``accept`` judges each
        HELLO on the listener — a rank's first connect and its reconnect
        after a dropped connection alike.  One bearing the session token
        for a rank without a result is admitted at once if the rank is
        away; if the rank's old connection is still open here (its EOF not
        yet read), the new one is ``parked`` and admitted at that EOF —
        the rank has already moved on to it — or closed if the rank
        retires first.  Any other connection is closed and ignored.
        Frames for an away rank queue here and are flushed on admission.
        A connection EOF makes its rank away again; an away rank whose
        process has exited is a death.
        ``last_seen`` (set at admission and on every frame, beaten once
        when a connection drops) bounds an admitted rank's silence, and so
        its reconnect window, by the heartbeat timeout; before its first
        HELLO only the run deadline bounds a rank.
        """
        listener.setblocking(False)
        sel.register(listener, selectors.EVENT_READ, None)
        statuses: list[tuple[str, Any, float, dict] | None] = [None] * self.size
        pending = set(range(self.size))  # ranks without a result yet
        deaths: list[int] = []
        lost: dict[int, str] = {}
        requeue: dict[int, list[bytes]] = {}
        last_seen: dict[int, float] = {}
        silent = (
            f"went silent: no heartbeat for {self.heartbeat_timeout:.1f}s "
            "(wedged or stopped)"
        )

        def deliver(to: int, frame: bytes) -> None:
            """Forward a frame, or queue it while its rank is away.

            A connected rank with frames still queued (its flush or a
            forward failed) gets later frames queued behind them, in order.
            """
            if to in conns and not requeue.get(to):
                try:
                    forward_frame(conns[to], frame)
                    return
                except OSError:
                    # The connection broke; its EOF will surface via select
                    # and make the rank away.  Queue the frame for its
                    # reconnect rather than report a living rank as down.
                    pass
            requeue.setdefault(to, []).append(frame)

        def tell_peerdown(gone: int, to: int) -> None:
            if to in pending:
                deliver(to, pack_frame(FRAME_PEERDOWN, gone, to, 0))

        def retire(rank: int) -> None:
            pending.discard(rank)
            requeue.pop(rank, None)
            last_seen.pop(rank, None)
            conn = parked.pop(rank, None)
            if conn is not None:
                conn.close()

        def lose(rank: int, reason: str) -> None:
            retire(rank)
            if self.on_rank_failure == "degrade":
                lost[rank] = reason
                for peer in range(self.size):
                    if peer != rank:
                        tell_peerdown(rank, peer)
            else:
                deaths.append(rank)

        def drop_conn(rank: int) -> None:
            conn = conns.pop(rank, None)
            if conn is None:
                return
            sel.unregister(conn)
            conn.close()

        def accept() -> bool:
            """Take one connection off the listener and admit (or park) its
            rank if the HELLO is good; False once the accept queue is empty."""
            try:
                conn, _peer = listener.accept()
            except OSError:  # BlockingIOError: nothing queued
                return False
            try:
                conn.settimeout(_HELLO_TIMEOUT_SECONDS)
                kind, src, _dest, _tag, payload = recv_frame(conn)
            except (EOFError, OSError):
                conn.close()
                return True
            if kind != FRAME_HELLO or payload != token or src not in pending:
                # Strays, bad tokens, or ranks finished or given up on: the
                # router never admits them.
                conn.close()
            elif src in conns:
                # The rank re-dialed before its old connection's EOF got
                # here; it already sends on the new one, so keep it for
                # that EOF (a newer re-dial supersedes an older one).
                stale = parked.pop(src, None)
                if stale is not None:
                    stale.close()
                parked[src] = conn
            else:
                admit(src, conn)
            return True

        def admit(src: int, conn: socket.socket) -> None:
            """Make ``conn`` the rank's connection and flush its queue."""
            conn.settimeout(None)
            if conn.family == socket.AF_INET:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            queued = requeue.pop(src, [])
            for i, frame in enumerate(queued):
                try:
                    forward_frame(conn, frame)
                except OSError:
                    # Dropped again mid-flush: keep the unsent tail (this
                    # frame included) for the next admission, but still
                    # read what the rank sent — a rank that finished and
                    # exited before admission has its RESULT buffered here,
                    # and the connection's EOF then makes it away again.
                    requeue[src] = queued[i:]
                    break
            conns[src] = conn
            sel.register(conn, selectors.EVENT_READ, src)
            last_seen[src] = time.perf_counter()

        while pending:
            now = time.perf_counter()
            if deadline is not None and now >= deadline:
                raise CommError(
                    f"socket run exceeded its {self.timeout:.0f}s deadline; "
                    f"still waiting for ranks {sorted(pending)}"
                )
            stale = sorted(
                r for r, seen in last_seen.items()
                if now - seen > self.heartbeat_timeout
            )
            if stale and self.on_rank_failure != "degrade":
                raise CommError(f"rank(s) {stale} {silent}")
            for r in stale:
                # SIGKILL: works on a SIGSTOPped process where SIGTERM
                # would stay pending forever.
                if procs[r].is_alive():
                    procs[r].kill()
                    procs[r].join()
                drop_conn(r)
                lose(r, f"rank {r} {silent}")
            poll = _POLL_SECONDS
            if deadline is not None:
                poll = min(poll, max(0.0, deadline - now))
            accepting = False
            for key, _events in sel.select(timeout=poll):
                if key.data is None:
                    accepting = True  # the listener: admitted below
                    continue
                rank = key.data
                try:
                    kind, _src, dest, tag, payload = recv_frame(key.fileobj)
                except (EOFError, OSError):
                    drop_conn(rank)
                    if rank in parked:
                        admit(rank, parked.pop(rank))
                    elif rank in pending:
                        # The rank is away until it re-HELLOs (or is found
                        # dead below).  One beat now makes the heartbeat
                        # timeout the reconnect budget.
                        last_seen[rank] = time.perf_counter()
                    continue
                if rank not in pending:
                    continue  # a heartbeat that raced its rank's RESULT
                last_seen[rank] = time.perf_counter()
                if kind == FRAME_RESULT:
                    statuses[rank] = pickle.loads(payload)
                    retire(rank)
                    # A rank's stream is ordered: everything it sent was
                    # forwarded before this point, so peers see its data
                    # before learning it is gone.
                    for peer in range(self.size):
                        if peer != rank:
                            tell_peerdown(rank, peer)
                elif kind == FRAME_DATA and 0 <= dest < self.size:
                    # (comm validates ``dest``; out of range is dropped)
                    if dest in pending:
                        deliver(
                            dest,
                            pack_frame(FRAME_DATA, rank, dest, tag, payload),
                        )
                    else:
                        tell_peerdown(dest, rank)
                # HEARTBEAT, duplicate HELLO or unknown: nothing to route.
            # An away rank whose process has exited can never HELLO again.
            # Judge that only with the accept queue drained: a rank that
            # connects, finishes fast and exits leaves its connection (HELLO
            # and RESULT already buffered) queued there, and must be
            # admitted and its result read, not reported dead.  Otherwise
            # admit one connection per turn, so a re-HELLO queued behind
            # others meets its rank only after this turn's EOFs are read.
            exited = [
                r for r in sorted(pending - conns.keys())
                if procs[r].exitcode is not None
            ]
            if exited:
                while accept():
                    pass
            elif accepting:
                accept()
            for r in exited:
                if r not in conns:
                    procs[r].join(timeout=_REAP_JOIN_SECONDS)
                    lose(r, _died_without_result(procs, [r]))
            if deaths:
                raise CommError(_died_without_result(procs, deaths))
        return statuses, lost

    def _cleanup(
        self,
        sel: selectors.BaseSelector,
        conns: dict[int, socket.socket],
        parked: dict[int, socket.socket],
        listener: socket.socket,
        procs: list[Any],
        tmpdir: str | None,
    ) -> None:
        """Reap every child and close every descriptor, error or not."""
        alive = [p for p in procs if p.is_alive()]
        for proc in alive:
            proc.terminate()
        for proc in alive:
            # Short grace: a SIGSTOPped rank leaves SIGTERM pending
            # forever, so escalate to SIGKILL (which stops nothing)
            # quickly instead of stalling the error path.
            proc.join(timeout=_TERM_GRACE_SECONDS)
            if proc.is_alive():
                proc.kill()
                proc.join()
        sel.close()
        for conn in [*conns.values(), *parked.values()]:
            try:
                conn.close()
            except OSError:  # pragma: no cover - double close is harmless
                pass
        conns.clear()
        parked.clear()
        try:
            listener.close()
        except OSError:  # pragma: no cover
            pass
        if tmpdir is not None:
            try:
                os.unlink(os.path.join(tmpdir, "router.sock"))
            except OSError:
                pass
            try:
                os.rmdir(tmpdir)
            except OSError:  # pragma: no cover - leftover files
                pass
