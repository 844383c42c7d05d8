"""Pluggable sweep execution: backends, shards, and the resume cache.

Takes the :class:`~repro.experiments.registry.SweepCell` lists the registry
resolves and runs them through a :class:`SweepBackend`:

* :class:`SerialBackend` — in-process, one cell at a time;
* :class:`ChunkedBackend` — cells batched into contiguous chunks, one
  chunk per :class:`ProcessPoolExecutor` task.  Cells of one scenario
  arrive grouped by circuit (the registry's resolution order), so a
  chunk's cells share the worker process's single-flight
  circuit/grid/initial-placement caches — the per-process setup that
  dominates small cells is paid once per chunk instead of once per cell;
* :class:`ProcessPoolBackend` — the chunked backend at chunk size 1:
  one cell per pool task (maximal fan-out, per-cell setup cost).

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
(a worker dying mid-task) are charged the wall time observed between
submission and the failure, not zero.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Protocol, Sequence

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
    "SweepBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ChunkedBackend",
    "BACKENDS",
    "make_backend",
    "parse_shard",
    "shard_cells",
]

#: Called after each cell completes: ``progress(done, total, record)``.
ProgressFn = Callable[[int, int, RunRecord], None]

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


def _run_chunk(
    cells: list[SweepCell], max_retries: int = 0
) -> list[RunRecord]:
    """Worker-side body of :class:`ChunkedBackend`: one pool task, n cells."""
    return [run_cell(cell, max_retries=max_retries) for cell in cells]


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class SweepBackend(Protocol):
    """Executes a cell list into records, preserving input order.

    Implementations must return one record per input cell, in input order,
    with every field except ``wall_seconds`` identical to what
    :class:`SerialBackend` would produce, and must fire ``progress`` once
    per completed cell (completion order is theirs to choose).
    """

    name: str

    def run(
        self, cells: Sequence[SweepCell], progress: ProgressFn | None = None
    ) -> list[RunRecord]:
        ...


class SerialBackend:
    """In-process execution, cells in order — the reference backend."""

    name = "serial"

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        max_retries: int = 0,
    ):
        self.max_retries = max_retries

    def run(
        self, cells: Sequence[SweepCell], progress: ProgressFn | None = None
    ) -> list[RunRecord]:
        records = []
        for i, cell in enumerate(cells):
            record = run_cell(cell, max_retries=self.max_retries)
            records.append(record)
            if progress:
                progress(i + 1, len(cells), record)
        return records


class ChunkedBackend:
    """Contiguous chunks of cells per pool task (amortized worker setup)."""

    name = "chunked"

    #: Target tasks per worker when ``chunk_size`` is unset — enough slack
    #: for load balancing without giving up the amortization.
    OVERSUBSCRIBE = 4

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        max_retries: int = 0,
    ):
        self.workers = workers
        self.chunk_size = chunk_size
        self.max_retries = max_retries

    def _resolve_chunk_size(self, n_cells: int) -> int:
        if self.chunk_size is not None:
            if self.chunk_size < 1:
                raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
            return self.chunk_size
        workers = self.workers or os.cpu_count() or 1
        return max(1, -(-n_cells // (workers * self.OVERSUBSCRIBE)))

    def run(
        self, cells: Sequence[SweepCell], progress: ProgressFn | None = None
    ) -> list[RunRecord]:
        total = len(cells)
        if not total:
            return []
        size = self._resolve_chunk_size(total)
        chunks = [list(cells[i:i + size]) for i in range(0, total, size)]
        starts = [i * size for i in range(len(chunks))]
        slots: list[RunRecord | None] = [None] * total
        done = 0
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            last_event = time.perf_counter()
            futures = {
                pool.submit(_run_chunk, chunk, self.max_retries): k
                for k, chunk in enumerate(chunks)
            }
            # Report completions as they happen (a slow head chunk must
            # not make the whole sweep look hung) while keeping order.
            for future in as_completed(futures):
                k = futures[future]
                now = time.perf_counter()
                try:
                    records = future.result()
                except Exception as exc:  # noqa: BLE001 - e.g. broken pool
                    # Charge the wall time observed since the previous pool
                    # event (0.0 would undercount the failure; time since
                    # pool start would charge a late one the whole sweep),
                    # split evenly over the chunk's cells, not duplicated.
                    elapsed = (now - last_event) / max(1, len(chunks[k]))
                    records = [
                        _failure_record(c, f"{type(exc).__name__}: {exc}", elapsed)
                        for c in chunks[k]
                    ]
                last_event = now
                for j, record in enumerate(records):
                    slots[starts[k] + j] = record
                    done += 1
                    if progress:
                        progress(done, total, record)
        return [r for r in slots if r is not None]


class ProcessPoolBackend(ChunkedBackend):
    """The chunked backend pinned to chunk size 1: one pool task per cell."""

    name = "process"

    def _resolve_chunk_size(self, n_cells: int) -> int:
        return 1


BACKENDS: dict[str, type] = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "chunked": ChunkedBackend,
}


def make_backend(
    name: str,
    workers: int | None = None,
    chunk_size: int | None = None,
    max_retries: int = 0,
) -> SweepBackend:
    """Instantiate a named backend (``serial`` / ``process`` / ``chunked``)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    return cls(workers=workers, chunk_size=chunk_size, max_retries=max_retries)


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
    processes: bool = False,
    progress: ProgressFn | None = None,
    backend: str | SweepBackend | None = None,
    chunk_size: int | None = None,
    cache: CellCache | None = None,
    max_retries: int = 0,
) -> list[RunRecord]:
    """Run every cell; return records in the input order.

    ``backend`` selects the execution engine by name or instance; when
    unset, ``processes=True`` (or a ``workers`` count) picks the process
    pool and plain calls stay serial — the pre-backend API unchanged.
    Every field except the host-dependent ``wall_seconds`` is identical
    across backends (compare via :meth:`RunRecord.canonical`).

    ``cache`` short-circuits cells whose results it already holds (their
    records count toward ``progress`` immediately) and files every fresh
    successful record, which is all ``repro sweep --resume`` is.
    ``progress`` fires once per cell; completion order is the backend's.
    ``max_retries`` re-runs transiently failed cells (see
    :func:`run_cell`); it applies when ``backend`` is a name — an
    instance carries its own retry budget.
    """
    if backend is None:
        backend = "process" if (processes or workers is not None) else "serial"
    if isinstance(backend, str):
        backend = make_backend(
            backend, workers=workers, chunk_size=chunk_size,
            max_retries=max_retries,
        )

    if cache is None:
        return backend.run(cells, progress)

    total = len(cells)
    slots: list[RunRecord | None] = [None] * total
    pending: list[SweepCell] = []
    pending_idx: list[int] = []
    done = 0
    for i, cell in enumerate(cells):
        hit = cache.get(cell)
        if hit is not None:
            slots[i] = hit
            done += 1
            if progress:
                progress(done, total, hit)
        else:
            pending.append(cell)
            pending_idx.append(i)

    if pending:
        # Cache cells as they complete, not after the whole run: an
        # interrupted sweep must leave everything it finished on disk for
        # --resume.  Completion hands us records, not cells, so pair them
        # by cell_id — unless ids collide (possible for hand-built lists;
        # never for registry output), in which case defer to the
        # positional pairing after the run.
        by_id: dict[str, SweepCell] = {}
        ids_unique = True
        for cell in pending:
            if cell.cell_id in by_id:
                ids_unique = False
            by_id[cell.cell_id] = cell

        def _shifted(_done: int, _total: int, record: RunRecord) -> None:
            nonlocal done
            done += 1
            if ids_unique:
                cell = by_id.get(record.cell_id)
                if cell is not None:
                    cache.put(cell, record)
            if progress:
                progress(done, total, record)

        fresh = backend.run(pending, _shifted)
        for i, cell, record in zip(pending_idx, pending, fresh):
            if not ids_unique:
                cache.put(cell, record)
            slots[i] = record
    return [r for r in slots if r is not None]
