"""Run-record artifacts: JSON (full fidelity) and CSV (flat summary).

A sweep produces one :class:`RunRecord` per cell.  The
:class:`ArtifactStore` persists a record list as

* ``<root>/<name>.json`` — metadata plus every record, including the full
  quality-vs-time history (what ``repro tables`` re-renders and what
  downstream analysis loads);
* ``<root>/<name>.csv`` — one flat row per record for spreadsheets and
  quick ``pandas``-free inspection.

Records are **canonical** modulo wall-clock: :meth:`RunRecord.canonical`
drops the host-dependent ``wall_seconds`` so serial and process-pool runs
of the same cells compare equal byte-for-byte (the determinism contract
pinned by the tests).  On the wall-clock backend (``socket``) *every*
clock in the outcome is a host measurement — ``runtime``, the
per-rank clocks, the history timestamps — so canonicalisation strips
those too; on ``sim`` they are deterministic model-seconds and stay part
of the determinism key.

Cell cache (resume)
-------------------
:class:`CellCache` is a content-addressed store of completed cells: each
successful :class:`RunRecord` is filed under :func:`cell_key` — a stable
hash of ``(spec, strategy, params, version_key)`` — as
``<root>/<key>.json``.  Because every cell is a pure function of exactly
those inputs, a cache hit is **bit-identical** to a fresh run (modulo
``wall_seconds``), which is what makes ``repro sweep --resume`` and
sharded runs merge to the same artifact as an unsharded run.  The key
deliberately excludes the scenario and cell id (presentation labels, not
result inputs); :meth:`CellCache.get` re-labels a hit for the requesting
cell.  :func:`version_key` folds the package version plus a result-schema
tag into every key, so numerics-changing releases can never replay stale
records.  Failed records are never cached — resume always re-runs them.
"""

from __future__ import annotations

import csv
import json
import os
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.parallel.runners import ParallelOutcome

try:  # POSIX-only; the cache degrades to plain atomic replace without it
    import fcntl
except ImportError:  # pragma: no cover - non-posix hosts
    fcntl = None  # type: ignore[assignment]
from repro.utils.hashing import stable_hash

if TYPE_CHECKING:  # import cycle guard: registry imports nothing from here
    from repro.experiments.registry import SweepCell

__all__ = [
    "RunRecord",
    "ArtifactStore",
    "CellCache",
    "CSV_COLUMNS",
    "CANONICAL_RESULT_FIELDS",
    "CANONICAL_OPERATIONAL_FIELDS",
    "NON_IDENTITY_PARAMS",
    "cell_key",
    "version_key",
    "failed",
]

#: Bump when the meaning/encoding of cached results changes without a
#: package version bump (e.g. a RunRecord schema change).
RESULT_SCHEMA = "cell-v3"


def version_key() -> str:
    """The code-version component of every cache key.

    Combines the package version with :data:`RESULT_SCHEMA`; cached
    records from any other version are simply never looked up.
    """
    import repro  # deferred: repro/__init__ imports this module

    return f"{repro.__version__}/{RESULT_SCHEMA}"

#: Flat columns written to the CSV summary, in order.
CSV_COLUMNS = (
    "scenario",
    "cell_id",
    "strategy",
    "circuit",
    "objectives",
    "iterations",
    "seed",
    "p",
    "pattern",
    "retry_threshold",
    "cluster",
    "ok",
    "attempts",
    "runtime",
    "best_mu",
    "error",
)


#: Identity classification of every :class:`RunRecord` field — the
#: manifest the K303 lint rule cross-references against the dataclass.
#: A new field must be added to exactly one of these two tuples (and, if
#: operational, is stripped from the determinism key by
#: :meth:`RunRecord.canonical`, which iterates the operational tuple).
CANONICAL_RESULT_FIELDS = (
    "scenario",
    "cell_id",
    "strategy",
    "spec",
    "params",
    "ok",
    "error",
    "outcome",
)

#: Host- or schedule-dependent bookkeeping: two healthy runs of the same
#: cell legitimately disagree on these, so :meth:`RunRecord.canonical`
#: strips every one of them.
CANONICAL_OPERATIONAL_FIELDS = (
    "wall_seconds",
    "attempts",
    "attempt_errors",
)

#: Runner params that bound *how long* a cell may run, not *what* it
#: computes.  :func:`cell_key` excludes exactly these from the hashed
#: params (and the K302 lint rule checks the filter uses this manifest),
#: so e.g. retrying with a different deadline still hits the cache.
NON_IDENTITY_PARAMS = ("deadline",)


@dataclass
class RunRecord:
    """One executed sweep cell: inputs, outcome (or failure), timing."""

    scenario: str
    cell_id: str
    strategy: str
    spec: dict[str, Any]
    params: dict[str, Any]
    ok: bool
    error: str | None
    outcome: dict[str, Any] | None
    wall_seconds: float
    #: Execution attempts consumed (1 = first try succeeded or failed
    #: deterministically; > 1 means the retry loop re-ran a transient
    #: failure).  Operational metadata: stripped by :meth:`canonical`, so
    #: a retried cell stays bit-identical to a fresh success.
    attempts: int = 1
    #: Tracebacks of the failed attempts that preceded the final one
    #: (the final failure, if any, lives in ``error``).
    attempt_errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        return cls(
            scenario=d["scenario"],
            cell_id=d["cell_id"],
            strategy=d["strategy"],
            spec=dict(d.get("spec", {})),
            params=dict(d.get("params", {})),
            ok=bool(d["ok"]),
            error=d.get("error"),
            outcome=d.get("outcome"),
            wall_seconds=float(d.get("wall_seconds", 0.0)),
            attempts=int(d.get("attempts", 1)),
            attempt_errors=list(d.get("attempt_errors", [])),
        )

    def canonical(self) -> dict[str, Any]:
        """The record minus host-dependent timing — the determinism key.

        On the simulated cluster every clock is a model-second and part
        of the key.  On a real backend (only those paths set
        ``extras["cluster"]``) ``runtime``, the per-rank clocks and the
        history timestamps are host wall time: two perfectly healthy
        runs of the same cell never agree on them, so they are stripped
        and only the solution, the meter charges (``model_seconds``,
        ``work_units``) and the µ trajectory remain.
        """
        d = self.to_dict()
        # Retry bookkeeping and wall timing are operational, not part of
        # the result: a cell that failed transiently and was re-run must
        # compare equal to one that succeeded first try.
        for k in CANONICAL_OPERATIONAL_FIELDS:
            d.pop(k, None)
        out = d.get("outcome")
        if out:
            extras = out.get("extras") or {}
            if "cluster" in extras:
                out.pop("runtime", None)
                extras.pop("wall_seconds", None)
                extras.pop("rank_clocks", None)
                if out.get("history"):
                    out["history"] = [list(h[:2]) for h in out["history"]]
        return d

    def parallel_outcome(self) -> ParallelOutcome:
        """Rebuild the rich outcome object (raises if the cell failed)."""
        if not self.ok or self.outcome is None:
            raise ValueError(f"cell {self.cell_id} failed: {self.error}")
        return ParallelOutcome.from_dict(self.outcome)

    def csv_row(self) -> dict[str, Any]:
        out = self.outcome or {}
        return {
            "scenario": self.scenario,
            "cell_id": self.cell_id,
            "strategy": self.strategy,
            "circuit": self.spec.get("circuit", ""),
            "objectives": "+".join(self.spec.get("objectives", [])),
            "iterations": self.spec.get("iterations", ""),
            "seed": self.spec.get("seed", ""),
            "p": self.params.get("p", out.get("p", 1)),
            "pattern": self.params.get("pattern", ""),
            "retry_threshold": self.params.get("retry_threshold", ""),
            "cluster": self.params.get("cluster", "sim"),
            "ok": int(self.ok),
            "attempts": self.attempts,
            "runtime": out.get("runtime", ""),
            "best_mu": out.get("best_mu", ""),
            "error": (self.error or "").splitlines()[0] if self.error else "",
        }


class ArtifactStore:
    """Reads and writes sweep artifacts under one root directory."""

    def __init__(self, root: str | Path = "artifacts"):
        self.root = Path(root)

    def save(
        self,
        name: str,
        records: Sequence[RunRecord],
        meta: dict[str, Any] | None = None,
    ) -> tuple[Path, Path]:
        """Write ``<name>.json`` and ``<name>.csv``; returns both paths."""
        self.root.mkdir(parents=True, exist_ok=True)
        json_path = self.root / f"{name}.json"
        csv_path = self.root / f"{name}.csv"
        payload = {
            "meta": meta or {},
            "records": [r.to_dict() for r in records],
        }
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        with csv_path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
            writer.writeheader()
            for r in records:
                writer.writerow(r.csv_row())
        return json_path, csv_path

    def load(self, name_or_path: str | Path) -> tuple[dict[str, Any], list[RunRecord]]:
        """Load ``(meta, records)`` from a store name or an explicit path."""
        path = Path(name_or_path)
        # Only a literal .json suffix means "explicit path"; a dot
        # elsewhere in the name (e.g. "run.v2") is still a store name.
        if path.suffix != ".json":
            path = self.root / f"{path}.json"
        payload = json.loads(Path(path).read_text())
        records = [RunRecord.from_dict(d) for d in payload.get("records", [])]
        return payload.get("meta", {}), records

    def list(self) -> list[Path]:
        """All JSON artifacts under the root, sorted by name."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*.json"))


def failed(records: Iterable[RunRecord]) -> list[RunRecord]:
    """The subset of records whose cells raised."""
    return [r for r in records if not r.ok]


def cell_key(cell: "SweepCell", version: str | None = None) -> str:
    """Content hash identifying a cell's *result*, not its labels.

    Covers the spec, the strategy, the runner parameters and the code
    version — everything the deterministic runners consume — and nothing
    else: two cells with different scenario names or cell ids but the same
    physics share one key.  The :data:`NON_IDENTITY_PARAMS` knobs are
    excluded: they bound how long a run may take, not what it computes,
    so retrying with e.g. a different deadline still hits the cache.
    """
    params = {k: v for k, v in cell.params if k not in NON_IDENTITY_PARAMS}
    return stable_hash({
        "version": version or version_key(),
        "strategy": cell.strategy,
        "spec": cell.spec.to_dict(),
        "params": params,
    })


class CellCache:
    """Content-addressed store of completed cell records (one file each).

    ``read=False`` makes :meth:`get` always miss (write-through mode: a
    fresh sweep records its cells for a later ``--resume`` without reusing
    anything); ``write=False`` makes :meth:`put` a no-op.  ``also_read``
    lists extra directories consulted (after ``root``) on lookup — how
    ``--resume DIR`` replays another run's cache while still filing fresh
    cells under its own output directory.

    Writes are concurrency-safe at two levels: each entry is written to a
    process- and thread-unique tmp file and atomically ``os.replace``-d
    into place (no torn entries, ever), and on POSIX a per-key ``flock``
    in ``<root>/.locks/`` serialises writers of the same key with
    first-writer-wins semantics — once a valid successful record is on
    disk for a key, later writers (pool workers, shard processes,
    fallback promotion) leave it untouched instead of rewriting it.
    """

    def __init__(
        self,
        root: str | Path,
        read: bool = True,
        write: bool = True,
        also_read: Sequence[str | Path] = (),
    ):
        self.root = Path(root)
        self.read = read
        self.write = write
        self.also_read = [Path(p) for p in also_read]

    def path_for(self, cell: "SweepCell") -> Path:
        return self.root / f"{cell_key(cell)}.json"

    def get(self, cell: "SweepCell") -> RunRecord | None:
        """The cached record for ``cell``, re-labelled to its ids, or None.

        Corrupt entries (interrupted writers predating atomic replace,
        disk trouble) read as misses, never as errors — resume re-runs.
        """
        if not self.read:
            return None
        name = f"{cell_key(cell)}.json"
        for root in [self.root, *self.also_read]:
            try:
                payload = json.loads((root / name).read_text())
                record = RunRecord.from_dict(payload["record"])
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if not record.ok:
                continue
            # The key excludes presentation labels; adopt the caller's.
            record.scenario = cell.scenario
            record.cell_id = cell.cell_id
            if root is not self.root:
                # Promote fallback hits into the primary root so this
                # cache directory ends up self-contained (a later resume
                # against it alone replays everything).
                self.put(cell, record)
            return record
        return None

    def _has_valid_entry(self, path: Path) -> bool:
        """True when ``path`` already holds a readable, successful record."""
        try:
            payload = json.loads(path.read_text())
            return bool(RunRecord.from_dict(payload["record"]).ok)
        except (OSError, ValueError, KeyError, TypeError):
            return False

    def put(self, cell: "SweepCell", record: RunRecord) -> Path | None:
        """File a successful record under the cell's key (failures skip).

        First writer wins: if a valid entry for the key already exists it
        is kept as-is (results are pure functions of the key, so any
        valid entry is the right one — and not rewriting means readers
        racing a writer in the flock-less fallback never see churn).
        """
        if not self.write or not record.ok:
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(cell)
        tmp = path.with_suffix(
            f".tmp{os.getpid()}-{threading.get_ident()}"
        )
        lock_fh = None
        if fcntl is not None:
            lock_dir = self.root / ".locks"
            lock_dir.mkdir(exist_ok=True)
            lock_fh = open(lock_dir / f"{path.stem}.lock", "w")
            fcntl.flock(lock_fh, fcntl.LOCK_EX)
        try:
            if self._has_valid_entry(path):
                return path
            tmp.write_text(json.dumps(
                {"key": path.stem, "version": version_key(),
                 "record": record.to_dict()},
                indent=2, sort_keys=True,
            ))
            os.replace(tmp, path)
        finally:
            if lock_fh is not None:
                fcntl.flock(lock_fh, fcntl.LOCK_UN)
                lock_fh.close()
        return path

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
