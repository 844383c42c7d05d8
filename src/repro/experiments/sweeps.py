"""Sweep execution: one loop, shards, and the resume cache.

Takes the :class:`~repro.experiments.registry.SweepCell` lists the registry
resolves and runs them through :func:`run_sweep`: cache look-ups first,
then one completion loop over the pending cells.  The loop runs each
cell in-process (``backend="serial"``) or as one task of a
:class:`ProcessPoolExecutor` (``backend="chunked"``, the default once
``workers`` is given).  Pool workers persist across tasks, so a worker's
single-flight circuit/grid/initial-placement caches carry over from one
cell to its next.  Pool workers die with the sweep process (Linux): a
killed sweep leaves no orphans, and loses only the cells that were
running.

A cell runs as one lookup in the registry's strategy table:
``get_strategy(cell.strategy).run(cell.spec, **params)``.  Each cell is a
pure function of its spec and parameters (all randomness
flows from ``spec.seed`` through :mod:`repro.utils.rng` streams), so every
backend produces **identical** records modulo the host-dependent
``wall_seconds``; the determinism tests in ``tests/experiments`` pin that.
That purity is also what makes two orthogonal features safe:

* **sharding** — :func:`shard_cells` deterministically partitions a cell
  list into ``count`` disjoint, covering shards (``repro sweep --shard
  i/N``) that independent hosts can run and later merge;
* **resume** — an optional :class:`~repro.experiments.artifacts.CellCache`
  lets :func:`run_sweep` skip cells whose results are already on disk and
  run only the missing/failed ones, with cache hits bit-identical to
  fresh runs.

A failing cell (bad circuit, runner error) never takes the sweep down: it
yields a :class:`~repro.experiments.artifacts.RunRecord` with ``ok=False``
and the traceback, and the remaining cells proceed.  Pool-level failures
(a worker dying mid-task) are charged the wall time observed since the
previous completion, not zero.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from functools import partial
from typing import Callable, Sequence

from repro.experiments.artifacts import CellCache, RunRecord
from repro.experiments.registry import SweepCell, get_strategy
from repro.parallel.faults import FaultPlan
from repro.parallel.mpi.comm import CommError, DeadlockError
from repro.parallel.runners import ParallelOutcome

__all__ = [
    "classify_failure",
    "run_cell",
    "run_sweep",
    "DEFAULT_BACKOFF_BASE",
    "TRANSIENT_EXCEPTIONS",
    "ProgressFn",
    "SWEEP_BACKENDS",
    "parse_shard",
    "shard_cells",
]

#: Called after each cell completes: ``progress(done, total, record)``.
ProgressFn = Callable[[int, int, RunRecord], None]

#: The ``backend`` names :func:`run_sweep` accepts: in-process, or the
#: process pool (which runs one cell per task; the name is historical).
SWEEP_BACKENDS = ("serial", "chunked")

#: Exception types retrying can plausibly fix: rank deaths, wedges and
#: dropped connections (:class:`CommError` covers all injected faults),
#: plus the OS-level failures real clusters produce.  Everything else —
#: parser errors, bad specs, :class:`DeadlockError` (the simulated
#: cluster's *structural* verdict: the same program deadlocks the same
#: way every run) — is deterministic and fails fast.
TRANSIENT_EXCEPTIONS = (CommError, ConnectionError, TimeoutError, OSError)

#: First retry waits about this long (seconds); each further retry
#: doubles it, modulated by a per-(cell, attempt) deterministic jitter.
DEFAULT_BACKOFF_BASE = 0.1


def classify_failure(exc: BaseException) -> str:
    """``"transient"`` (a retry may succeed) or ``"deterministic"``.

    The split drives the sweep retry loop: transient failures burn a
    retry budget with backoff; deterministic ones are final on the first
    attempt — retrying a reproducible failure only wastes the budget.
    """
    if isinstance(exc, DeadlockError):
        return "deterministic"
    if isinstance(exc, TRANSIENT_EXCEPTIONS):
        return "transient"
    return "deterministic"


def _backoff_delay(cell_id: str, attempt: int, base: float) -> float:
    """Deterministically jittered exponential backoff for one retry.

    ``stable_hash`` keys the jitter on (cell, attempt), so concurrent
    pool workers retrying different cells do not thundering-herd, yet a
    re-run of the same sweep sleeps the same schedule.
    """
    from repro.utils.hashing import stable_hash

    jitter = int(stable_hash(("retry", cell_id, attempt), length=8), 16)
    frac = 0.5 + jitter / 0xFFFFFFFF / 2.0  # [0.5, 1.0)
    return base * (2 ** (attempt - 1)) * frac


def _dispatch(cell: SweepCell, attempt: int = 1) -> ParallelOutcome:
    params = cell.params_dict()
    faults = params.get("faults")
    if isinstance(faults, str):
        # Attempt-scoped clauses (``attempt=N``) fire only on their
        # attempt; the runner receives a pre-filtered, unscoped plan so a
        # retried run is indistinguishable from a fresh fault-free one.
        plan = FaultPlan.parse(faults, seed=cell.spec.seed).for_attempt(attempt)
        if plan.faults:
            params["faults"] = plan
        else:
            del params["faults"]
    return get_strategy(cell.strategy).run(cell.spec, **params)


def _failure_record(
    cell: SweepCell,
    error: str,
    wall_seconds: float,
    attempts: int = 1,
    attempt_errors: list[str] | None = None,
) -> RunRecord:
    return RunRecord(
        scenario=cell.scenario,
        cell_id=cell.cell_id,
        strategy=cell.strategy,
        spec=cell.spec.to_dict(),
        params=cell.params_dict(),
        ok=False,
        error=error,
        outcome=None,
        wall_seconds=wall_seconds,
        attempts=attempts,
        attempt_errors=attempt_errors or [],
    )


def run_cell(
    cell: SweepCell,
    max_retries: int = 0,
    backoff_base: float = DEFAULT_BACKOFF_BASE,
) -> RunRecord:
    """Execute one cell, capturing failures into the record.

    Transient failures (see :func:`classify_failure`) are retried up to
    ``max_retries`` times with deterministically jittered exponential
    backoff; each retry re-dispatches the cell from scratch (cells are
    pure functions of their inputs, so a retried success is bit-identical
    to a first-try success — :meth:`RunRecord.canonical` strips the
    ``attempts``/``attempt_errors`` bookkeeping).  Deterministic failures
    are final immediately.

    Safe to ship across process boundaries: both the cell (dataclasses of
    plain data) and the record (dicts of JSON scalars) pickle cheaply.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    t0 = time.perf_counter()
    attempt_errors: list[str] = []
    attempt = 0
    while True:
        attempt += 1
        try:
            outcome = _dispatch(cell, attempt=attempt)
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            final = (
                classify_failure(exc) == "deterministic"
                or attempt > max_retries
            )
            if final:
                return _failure_record(
                    cell,
                    error,
                    time.perf_counter() - t0,
                    attempts=attempt,
                    attempt_errors=attempt_errors,
                )
            attempt_errors.append(error)
            time.sleep(_backoff_delay(cell.cell_id, attempt, backoff_base))
            continue
        return RunRecord(
            scenario=cell.scenario,
            cell_id=cell.cell_id,
            strategy=cell.strategy,
            spec=cell.spec.to_dict(),
            params=cell.params_dict(),
            ok=True,
            error=None,
            outcome=outcome.to_dict(),
            wall_seconds=time.perf_counter() - t0,
            attempts=attempt,
            attempt_errors=attempt_errors,
        )


def _run_task(cell: SweepCell, max_retries: int) -> RunRecord:
    """One pool task: one cell.  Submitted in place of :func:`run_cell`
    so the worker looks ``run_cell`` up by name, and a wrapped one (a
    tracer's, which pickles by a foreign module path) runs there too."""
    return run_cell(cell, max_retries=max_retries)


def _exit_with_driver(driver_pid: int) -> None:
    """Pool-worker initializer: on Linux, die when the sweep driver dies.

    ``PR_SET_PDEATHSIG`` has the kernel SIGKILL this worker when its
    parent exits, so a killed driver cannot leave workers blocked on the
    call queue forever.  A driver that died before the ``prctl`` took
    effect has already re-parented the worker; ``getppid`` shows that.
    Starts no thread: socket cells fork their ranks inside the worker.
    """
    if sys.platform != "linux":
        return
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    # A failing prctl leaves the worker as it was: working, unguarded.
    prctl(1, signal.SIGKILL)  # 1 == PR_SET_PDEATHSIG
    if os.getppid() != driver_pid:
        os._exit(1)


def _pool(workers: int) -> ProcessPoolExecutor:
    """The sweep's process pool of ``workers``, which die with their parent.

    On Linux the workers are forked: they must be the driver's own
    children (not a forkserver's) for the parent-death signal to track it.
    """
    context = multiprocessing.get_context(
        "fork" if sys.platform == "linux" else None)
    return ProcessPoolExecutor(
        workers, mp_context=context,
        initializer=_exit_with_driver, initargs=(os.getpid(),),
    )


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"i/N"`` into a validated ``(index, count)`` pair (1-based)."""
    try:
        index_s, count_s = text.split("/", 1)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise ValueError(f"shard must look like 'i/N', got {text!r}") from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard index out of range: {index}/{count}")
    return index, count


def shard_cells(
    cells: Sequence[SweepCell], index: int, count: int
) -> list[SweepCell]:
    """Deterministic shard ``index`` of ``count`` (1-based, round-robin).

    The ``count`` shards are disjoint and cover the input; round-robin
    (``cells[index-1::count]``) balances grids whose cost grows along an
    axis (e.g. p, circuit size) far better than contiguous splitting.
    """
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard index out of range: {index}/{count}")
    return list(cells[index - 1::count])


# ---------------------------------------------------------------------------
# The front door
# ---------------------------------------------------------------------------


def run_sweep(
    cells: Sequence[SweepCell],
    workers: int | None = None,
    progress: ProgressFn | None = None,
    backend: str | None = None,
    cache: CellCache | None = None,
    max_retries: int = 0,
) -> list[RunRecord]:
    """Run every cell; return records in the input order.

    ``backend="chunked"`` runs each pending cell as one task of a process
    pool of ``workers`` (default: the CPU count), never more workers than
    pending cells.  Unset, ``backend`` means ``"chunked"`` when
    ``workers`` is given and ``"serial"`` (in-process, one cell at a
    time) otherwise.  ``"serial"`` with ``workers``, or any other name,
    is a :class:`ValueError`.  Every field except the host-dependent
    ``wall_seconds`` is identical across backends (compare via
    :meth:`RunRecord.canonical`).

    ``cache`` short-circuits cells whose results it already holds (their
    records count toward ``progress`` immediately) and files every fresh
    successful record as it completes, which is all ``repro sweep
    --resume`` is: an interrupted sweep leaves every finished cell on
    disk.  No pool starts when every cell is a hit.  ``progress`` fires
    once per cell, in completion order.  ``max_retries`` re-runs
    transiently failed cells (see :func:`run_cell`).
    """
    if backend not in (None, *SWEEP_BACKENDS):
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {list(SWEEP_BACKENDS)}"
        )
    if backend == "serial" and workers is not None:
        raise ValueError(
            "backend 'serial' runs in-process: workers need backend 'chunked'"
        )
    pooled = backend == "chunked" or workers is not None

    total = len(cells)
    slots: list[RunRecord | None] = [None] * total
    pending: list[int] = []
    done = 0
    for i, cell in enumerate(cells):
        hit = cache.get(cell) if cache is not None else None
        if hit is None:
            pending.append(i)
            continue
        slots[i] = hit
        done += 1
        if progress:
            progress(done, total, hit)

    size = min(workers or os.cpu_count() or 1, len(pending))
    with (_pool(size) if pooled and pending else nullcontext()) as pool:
        last_event = time.perf_counter()
        if pool is None:
            finished = (
                (i, partial(run_cell, cells[i], max_retries=max_retries))
                for i in pending
            )
        else:
            futures = {
                pool.submit(_run_task, cells[i], max_retries): i
                for i in pending
            }
            # Take completions as they happen (a slow head cell must not
            # make the whole sweep look hung); the slots keep the order.
            finished = ((futures[f], f.result) for f in as_completed(futures))
        for i, result in finished:
            try:
                record = result()
            except Exception as exc:  # noqa: BLE001 - e.g. a broken pool
                # Charge the wall time observed since the previous event:
                # 0.0 would undercount the failure, and time since the
                # start would charge a late one the whole sweep.
                record = _failure_record(
                    cells[i], f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - last_event,
                )
            last_event = time.perf_counter()
            slots[i] = record
            if cache is not None:
                cache.put(cells[i], record)
            done += 1
            if progress:
                progress(done, total, record)
    return [r for r in slots if r is not None]
