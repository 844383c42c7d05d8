"""The benchmark's three workloads and the checks on their outputs.

Every workload builds its cells through the public registry and runs them
through ``run_cell``/``run_sweep``.  The experiment seed of the cells is
fixed per run (``--experiment-seed``, default 1; the expected results of
seeds 1..RECORDED_SEEDS are in ``expected.json``), and the workload seed
``--seed`` orders the cells of a pass (:func:`ordered`).  Holding the
experiment seed fixed is deliberate: it changes the placement trajectory,
which moves wall time by up to ~15% (width-legality early exits in the
scans) and µ by up to ~40% on the Type II cell — more than any bound of
a steady benchmark allows.

The Type II cell runs on the simulated cluster, not on real socket
ranks.  On a shared 2-vCPU host the socket version (two rank processes
plus the parent's router, synchronising every iteration) spread 15–28%
between runs even in its fastest pass, against 2–9% for ``scan``: every
iteration waits for the slower rank, so both vCPUs must be at full speed
together.

* ``scan`` — the ``scanbound`` serial cell on synth500 with exhaustive
  probe windows, once with ``eval_mode=scalar`` and once with ``batch``:
  the paper's allocation-bound regime, where the cost kernel does almost
  all the work and comm, set-up and the sweep layer do almost none.
  synth500 rather than synth1000: measured interleaved on a shared 2-CPU
  host, the synth1000 pass spread twice as much (17% against 9%
  interquartile range), its larger working set being more exposed to
  cache contention from other tenants.
* ``type2-sim`` — the Table 2 Type II cell on s3330 (random rows,
  p = 2) on the simulated cluster, ranks as threads: the Type II
  protocol through the rank communicators (sends, receives, collectives
  and their waits) and the cluster lifecycle, with per-rank solution
  refreshes instead of the scan.
* ``sweep`` — all 36 smoke cells of table1, table2, table4, knobs and
  shootout through the chunked process pool into a fresh cell cache plus
  an artifact save, then a resume pass that must hit the cache for every
  cell: many short cells dominated by per-cell set-up, pool start-up and
  cache traffic rather than the kernel.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Experiment seeds with recorded results (1 is the default; the others
#: are held out for checking that a per-layer ranking generalises).
RECORDED_SEEDS = 5

#: Scale divisors of the paper's iteration budgets (``REPRO_SCALE``):
#: 20 scan iterations per mode and 40 Type II master iterations keep a
#: scan pass near two seconds and a Type II pass near four on a 2-CPU
#: host, so a run takes the fastest of several.  Fewer Type II
#: iterations (23, at scale 200) end with µ = 0 on every recorded seed.
SCAN_SCALE = 250
TYPE2_SCALE = 100

SWEEP_SCENARIOS = ("table1", "table2", "table4", "knobs", "shootout")
SWEEP_WORKERS = 2

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def ordered(cells: list, seed: int) -> list:
    """The pass order of ``cells`` for workload seed ``seed``.

    On ``sweep`` the order decides which cells share a pool chunk (and
    its worker's warm caches); on ``scan`` which eval mode runs first.
    """
    out = list(cells)
    random.Random(seed).shuffle(out)
    return out


def scan_cells(seed: int) -> list:
    from repro.experiments.registry import override_eval_mode, resolve

    base = resolve("scanbound", scale=SCAN_SCALE, circuits=["synth500"],
                   seeds=[seed])
    return override_eval_mode(base, "scalar") + override_eval_mode(base, "batch")


def type2_cells(seed: int) -> list:
    from repro.experiments.registry import resolve

    return [
        c for c in resolve("table2", scale=TYPE2_SCALE, circuits=["s3330"],
                           seeds=[seed])
        if c.strategy == "type2"
        and c.params_dict() == {"p": 2, "pattern": "random"}
    ]


def sweep_cells(seed: int) -> list:
    from repro.experiments.registry import resolve

    cells = []
    for name in SWEEP_SCENARIOS:
        cells.extend(resolve(name, smoke=True, seeds=[seed]))
    return cells


@dataclass
class PassResult:
    """One workload pass: its records and the SimE iterations it ran."""

    records: list
    iterations: int
    #: Records served from the cache (resume pass), checked like the rest.
    resumed: list


def run_cells(cells: list, tmp: Path) -> PassResult:
    # Called through the module so a traced pass sees the wrapped run_cell.
    from repro.experiments import sweeps

    records = [sweeps.run_cell(cell) for cell in cells]
    return PassResult(records, _iterations(records), [])


def run_sweep_pass(cells: list, tmp: Path) -> PassResult:
    from repro.experiments import sweeps
    from repro.experiments.artifacts import ArtifactStore, CellCache

    cache = CellCache(tmp / "cache")
    cold = sweeps.run_sweep(cells, backend="chunked", workers=SWEEP_WORKERS,
                            cache=cache)
    ArtifactStore(tmp / "artifacts").save("sweep", cold)
    resumed = sweeps.run_sweep(cells, backend="chunked",
                               workers=SWEEP_WORKERS, cache=cache)
    return PassResult(cold, _iterations(cold), resumed)


def _iterations(records: list) -> int:
    return sum(int((r.outcome or {}).get("iterations", 0)) for r in records)


def prepare(workload: "Workload", cells: list) -> None:
    """The workload's set-up: build and attach every problem it uses."""
    from repro.parallel.runners import build_problem

    seen = set()
    for cell in cells:
        key = json.dumps(cell.spec.to_dict(), sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        problem = build_problem(cell.spec)
        problem.engine.attach(problem.initial_placement())


@dataclass(frozen=True)
class Workload:
    name: str
    cells: Callable[[int], list]
    run_pass: Callable[[list, Path], PassResult]
    #: ``PAPER_SHARES`` key of the workload's objective set.
    paper_version: str
    min_nproc: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", scan_cells, run_cells, "wirelength-power-delay", 1),
        Workload("type2-sim", type2_cells, run_cells, "wirelength-power", 1),
        Workload("sweep", sweep_cells, run_sweep_pass, "wirelength-power", 2),
    )
}


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def canonical_hash(record: Any) -> str:
    """Digest of the record minus host-dependent timing."""
    blob = json.dumps(record.canonical(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def model_seconds(record: Any) -> Any:
    """The cell's deterministic clock: per-rank meters on real backends,
    the simulated makespan or serial model time otherwise."""
    out = record.outcome or {}
    extras = out.get("extras") or {}
    if "cluster" in extras:
        return extras["model_seconds"]
    return out.get("runtime")


def record_key(record: Any) -> str:
    """Scenarios share cell ids (table1, table2 and shootout all hold
    ``s1196/seed1/serial``), so expectations are keyed by both."""
    return f"{record.scenario}:{record.cell_id}"


def summarize(record: Any) -> dict[str, Any]:
    out = record.outcome or {}
    return {
        "best_mu": out.get("best_mu"),
        "model_seconds": model_seconds(record),
        "canonical": canonical_hash(record),
    }


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text())


def check_record(record: Any, expected: dict[str, Any]) -> list[str]:
    """Mismatches of one record against its recorded expectation."""
    want = expected.get(record_key(record))
    if want is None:
        return [f"{record_key(record)}: no recorded expectation"]
    if not record.ok:
        first = (record.error or "").splitlines()[:1]
        return [f"{record.cell_id}: cell failed: {first}"]
    got = summarize(record)
    return [
        f"{record.cell_id}: {key} {got[key]!r} != recorded {want[key]!r}"
        for key in ("best_mu", "model_seconds", "canonical")
        if got[key] != want[key]
    ]
