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
* an EOF on a rank's connection before its RESULT (SIGKILL, OOM,
  ``os._exit``) makes the router terminate the survivors and raise
  ``CommError("rank(s) died without result: ...")``;
* every rank runs a daemon heartbeat thread; a rank that is alive but
  wedged (SIGSTOP, native-code hang) stops heartbeating, and the router's
  :class:`LivenessMonitor` raises :class:`CommError` once its silence
  exceeds ``heartbeat_timeout``;
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

#: Grace for ``join()`` on a process already observed dead (exitcode set
#: or EOF seen) — reaping bookkeeping, not a liveness decision.
_REAP_JOIN_SECONDS = 1.0

#: SIGTERM grace before escalating to SIGKILL during cleanup; short
#: because a SIGSTOPped rank leaves SIGTERM pending forever.
_TERM_GRACE_SECONDS = 5.0

#: Default heartbeat send interval (seconds) inside each rank.
DEFAULT_HEARTBEAT = 2.0


class LivenessMonitor:
    """Tracks when each rank was last seen; flags the ones gone silent.

    EOF tells the router that a rank *died*; nothing tells it that a rank
    is alive but *wedged*.  The router beats the monitor on *every* frame
    (data counts as proof of life, heartbeats only cover idle ranks) and
    declares a rank wedged once its silence exceeds ``timeout``.
    """

    def __init__(self, timeout: float):
        self.timeout = timeout
        self._last: dict[int, float] = {}

    def register(self, rank: int) -> None:
        self._last[rank] = time.perf_counter()

    def beat(self, rank: int) -> None:
        if rank in self._last:
            self._last[rank] = time.perf_counter()

    def forget(self, rank: int) -> None:
        self._last.pop(rank, None)

    def reset(self) -> None:
        """Restart every rank's window (e.g. after a long accept phase)."""
        now = time.perf_counter()
        for rank in self._last:
            self._last[rank] = now

    def stale(self, now: float) -> list[int]:
        """Ranks silent for longer than ``timeout``, sorted."""
        return sorted(
            r for r, seen in self._last.items() if now - seen > self.timeout
        )

    def silence_error(self, ranks: list[int]) -> CommError:
        """The wedge report the router raises under the abort policy."""
        return CommError(
            f"rank(s) {ranks} went silent: no heartbeat for "
            f"{self.timeout:.1f}s (wedged or stopped)"
        )


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
        token: str | None = None,
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
                sock = socket.socket(self._family, socket.SOCK_STREAM)
                try:
                    sock.connect(self._address)
                    if self._family == socket.AF_INET:
                        sock.setsockopt(
                            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                        )
                    send_frame(
                        sock, FRAME_HELLO, self._rank, -1, 0,
                        pickle.dumps(
                            self._token, protocol=pickle.HIGHEST_PROTOCOL
                        ),
                    )
                except OSError as exc:
                    last = exc
                    sock.close()
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
    token: str | None = None,
) -> None:
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.connect(address)
    except OSError:
        # Router already gone (parent died / run aborted): exit silently;
        # the parent reports the failure on its side.
        sock.close()
        return
    if family == socket.AF_INET:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_frame(
        sock, FRAME_HELLO, rank, -1, 0,
        pickle.dumps(token, protocol=pickle.HIGHEST_PROTOCOL),
    )
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
        Silence threshold after which a rank counts as wedged; defaults
        to ``max(30, 10 × heartbeat)`` — generous enough that CPU
        oversubscription at p = 64 cannot starve a healthy rank's
        heartbeat thread into a false positive.  The same window bounds
        a disconnected rank's re-admission.
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
        its connection hit EOF first, or a heartbeat/deadline report when
        it wedged — always after every child process has been reaped and
        every descriptor closed.
        """
        if per_rank_kwargs is not None and len(per_rank_kwargs) != self.size:
            raise ValueError("per_rank_kwargs must have one entry per rank")
        fn = chained(fn, self, mode="process")
        ctx = mp.get_context(self.start_method)
        # Per-run session token: a reconnecting rank must present it with
        # its re-HELLO, so a stray client (or a rank from a previous run
        # racing cleanup) can never be admitted as a live rank.
        token = os.urandom(16).hex()  # repro: noqa[D103] -- connection-admission secret only; never reaches results, seeds, or cache keys

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

            monitor = self._accept_all(listener, conns, procs, deadline, token)
            # The listener stays open through routing: it is the
            # re-admission endpoint for ranks whose connection drops.
            statuses, lost = self._route(
                sel, listener, conns, procs, monitor, deadline, t0, token
            )
            wall = time.perf_counter() - t0
        finally:
            self._cleanup(sel, conns, listener, procs, tmpdir)

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

    # -- run phases -------------------------------------------------------
    def _accept_all(
        self,
        listener: socket.socket,
        conns: dict[int, socket.socket],
        procs: list[Any],
        deadline: float | None,
        token: str,
    ) -> LivenessMonitor:
        """Accept one HELLO-bearing connection per rank; map rank → conn."""
        listener.settimeout(_POLL_SECONDS)
        monitor = LivenessMonitor(self.heartbeat_timeout)
        while len(conns) < self.size:
            now = time.perf_counter()
            if deadline is not None and now >= deadline:
                missing = sorted(set(range(self.size)) - set(conns))
                raise CommError(
                    f"socket run exceeded its {self.timeout:.0f}s deadline "
                    f"while waiting for ranks {missing} to connect"
                )
            try:
                conn, _peer = listener.accept()
            except socket.timeout:
                # Only with the accept queue drained is a missing-but-
                # exited rank really gone: a rank that connects, finishes
                # fast and exits leaves its connection (HELLO and RESULT
                # already buffered) waiting here, and must not be
                # misreported as dead.
                dead = [
                    r
                    for r in range(self.size)
                    if r not in conns and procs[r].exitcode is not None
                ]
                if dead:
                    raise CommError(
                        "rank(s) died without result: "
                        + ", ".join(
                            f"rank {r} (exitcode {procs[r].exitcode})"
                            for r in dead
                        )
                    )
                continue
            kind, src, _dest, _tag, payload = recv_frame(conn)
            tok = pickle.loads(payload) if payload else None
            if (
                kind != FRAME_HELLO
                or not 0 <= src < self.size
                or src in conns
                or tok != token
            ):
                conn.close()
                raise CommError(
                    f"socket router: bad HELLO (kind={kind}, rank={src})"
                )
            conns[src] = conn
            monitor.register(src)
        return monitor

    def _route(
        self,
        sel: selectors.BaseSelector,
        listener: socket.socket,
        conns: dict[int, socket.socket],
        procs: list[Any],
        monitor: LivenessMonitor,
        deadline: float | None,
        t0: float,
        token: str,
    ) -> tuple[list[tuple[str, Any, float, dict] | None], dict[int, str]]:
        """Forward frames between ranks until every result is in.

        Returns ``(statuses, lost)``: ``lost`` is only ever populated
        under ``on_rank_failure="degrade"`` — the abort path raises on
        the first loss, exactly as before fault tolerance existed.

        A connection EOF whose process is still alive opens a
        *disconnected* window instead of counting as a death: frames for
        the rank are queued, and a re-HELLO on the (still open) listener
        bearing the session token re-admits it and flushes the queue.
        The window is bounded by the heartbeat timeout (the monitor is
        beaten once, at disconnect) and by the run deadline.
        """
        for rank, conn in conns.items():
            sel.register(conn, selectors.EVENT_READ, rank)
        listener.settimeout(0.0)
        sel.register(listener, selectors.EVENT_READ, None)
        # Restart the liveness window now: a long accept phase (spawn at
        # p = 64) must not count against ranks that connected early.
        monitor.reset()
        statuses: list[tuple[str, Any, float, dict] | None] = [None] * self.size
        pending = set(range(self.size))  # ranks without a result yet
        down: set[int] = set()  # finished or dead ranks
        deaths: list[int] = []
        lost: dict[int, str] = {}
        disconnected: set[int] = set()
        requeue: dict[int, list[bytes]] = {}

        def tell_peerdown(gone: int, to: int) -> None:
            if to in down:
                return
            frame = pack_frame(FRAME_PEERDOWN, gone, to, 0)
            if to in disconnected:
                requeue.setdefault(to, []).append(frame)
                return
            if to not in conns:
                return
            try:
                forward_frame(conns[to], frame)
            except OSError:
                pass  # that conn's own EOF will surface via select

        def mark_dead(rank: int, reason: str) -> None:
            pending.discard(rank)
            down.add(rank)
            disconnected.discard(rank)
            requeue.pop(rank, None)
            monitor.forget(rank)
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
            try:
                sel.unregister(conn)
            except KeyError:  # pragma: no cover - never registered
                pass
            conn.close()

        while pending:
            now = time.perf_counter()
            if deadline is not None and now >= deadline:
                raise CommError(
                    f"socket run exceeded its {self.timeout:.0f}s deadline; "
                    f"still waiting for ranks {sorted(pending)}"
                )
            # A disconnected rank whose process has exited can never
            # re-HELLO: convert the open window into a death now.
            for r in sorted(disconnected):
                if r in pending and procs[r].exitcode is not None:
                    procs[r].join(timeout=_REAP_JOIN_SECONDS)
                    mark_dead(
                        r,
                        f"rank {r} died while disconnected "
                        f"(exitcode {procs[r].exitcode})",
                    )
            stale = [r for r in monitor.stale(now) if r in pending]
            if stale:
                if self.on_rank_failure == "degrade":
                    for r in stale:
                        # SIGKILL: works on a SIGSTOPped process where
                        # SIGTERM would stay pending forever.
                        if procs[r].is_alive():
                            procs[r].kill()
                            procs[r].join()
                        drop_conn(r)
                        mark_dead(
                            r,
                            f"rank {r} went silent: no heartbeat for "
                            f"{self.heartbeat_timeout:.1f}s "
                            "(wedged or stopped)",
                        )
                else:
                    raise monitor.silence_error(stale)
            poll = _POLL_SECONDS
            if deadline is not None:
                poll = min(poll, max(0.0, deadline - now))
            for key, _events in sel.select(timeout=poll):
                if key.data is None:
                    self._readmit(
                        listener, sel, conns, monitor,
                        disconnected, requeue, pending, token,
                    )
                    continue
                rank = key.data
                conn = key.fileobj
                try:
                    kind, _src, dest, tag, payload = recv_frame(conn)
                except (EOFError, OSError):
                    sel.unregister(conn)
                    conn.close()
                    del conns[rank]
                    if rank not in pending:
                        continue
                    if procs[rank].is_alive():
                        # Dropped connection, living process: open the
                        # re-admission window.  One beat now makes the
                        # heartbeat timeout the reconnect budget.
                        disconnected.add(rank)
                        monitor.beat(rank)
                    else:
                        procs[rank].join(timeout=_REAP_JOIN_SECONDS)
                        mark_dead(
                            rank,
                            f"rank {rank} died without result "
                            f"(exitcode {procs[rank].exitcode})",
                        )
                    continue
                monitor.beat(rank)
                if kind == FRAME_HEARTBEAT:
                    continue
                if kind == FRAME_RESULT:
                    statuses[rank] = pickle.loads(payload)
                    pending.discard(rank)
                    down.add(rank)
                    monitor.forget(rank)
                    # A rank's stream is ordered: everything it sent was
                    # forwarded before this point, so peers see its data
                    # before learning it is gone.
                    for peer in range(self.size):
                        if peer != rank:
                            tell_peerdown(rank, peer)
                    continue
                if kind == FRAME_DATA:
                    if not 0 <= dest < self.size:
                        continue  # comm validates; drop defensively
                    frame = pack_frame(FRAME_DATA, rank, dest, tag, payload)
                    if dest in disconnected:
                        requeue.setdefault(dest, []).append(frame)
                        continue
                    if dest in down or dest not in conns:
                        tell_peerdown(dest, rank)
                        continue
                    try:
                        forward_frame(conns[dest], frame)
                    except OSError:
                        tell_peerdown(dest, rank)
                    continue
                # HELLO (duplicate) or unknown: ignore.
            if deaths:
                for r in deaths:
                    procs[r].join(timeout=_REAP_JOIN_SECONDS)
                raise CommError(
                    "rank(s) died without result: "
                    + ", ".join(
                        f"rank {r} (exitcode {procs[r].exitcode})"
                        for r in deaths
                    )
                )
        return statuses, lost

    def _readmit(
        self,
        listener: socket.socket,
        sel: selectors.BaseSelector,
        conns: dict[int, socket.socket],
        monitor: LivenessMonitor,
        disconnected: set[int],
        requeue: dict[int, list[bytes]],
        pending: set[int],
        token: str,
    ) -> None:
        """Admit one reconnecting rank: token-checked re-HELLO, queue flush."""
        try:
            conn, _peer = listener.accept()
        except (BlockingIOError, OSError):
            return
        try:
            conn.settimeout(2.0)
            kind, src, _dest, _tag, payload = recv_frame(conn)
            tok = pickle.loads(payload) if payload else None
        except (EOFError, OSError, pickle.UnpicklingError):
            conn.close()
            return
        if (
            kind != FRAME_HELLO
            or tok != token
            or src not in disconnected
            or src not in pending
        ):
            # Strays, bad tokens, or ranks we already gave up on: the
            # router never readmits them (re-admission is bounded by the
            # heartbeat window that `mark_dead` closes).
            conn.close()
            return
        conn.settimeout(None)
        if conn.family == socket.AF_INET:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        queued = requeue.pop(src, [])
        while queued:
            frame = queued.pop(0)
            try:
                forward_frame(conn, frame)
            except OSError:
                # Dropped again mid-flush: keep the window open with the
                # unsent tail (this frame included) intact.
                requeue[src] = [frame, *queued]
                conn.close()
                return
        disconnected.discard(src)
        conns[src] = conn
        sel.register(conn, selectors.EVENT_READ, src)
        monitor.beat(src)

    def _cleanup(
        self,
        sel: selectors.BaseSelector,
        conns: dict[int, socket.socket],
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
        for conn in conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - double close is harmless
                pass
        conns.clear()
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
