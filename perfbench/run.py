"""The repository benchmark: end-to-end metrics, a traced per-layer run,
and a correctness check on every cell it runs.

Run from the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --record                  # re-record expected.json

``--trace 0`` repeats workload passes for ``--seconds`` and reports the
end-to-end metrics (timings from the fastest pass).  ``--trace 1`` runs one
untraced pass and one traced pass and reports the per-layer metrics of
``layers.py``.  Either way the last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); a
human-readable summary and the host provenance go to standard error.
The exit code is 0 only when every cell matched its recorded result.

End-to-end metrics:

* ``wall_s`` — wall time of one workload pass, the fastest of the
  passes.  Every pass does the same deterministic work, and on a shared
  host other tenants only ever add time to it: over six 30-second scan
  runs on a 2-CPU host the median pass spread 20% (interquartile range
  over median) and the fastest pass 3.6%.  The median and pass count go
  to standard error;
* ``setup_s`` — importing ``repro`` and building and attaching every
  problem of the workload in a fresh interpreter, in seconds at
  reference host speed (``hostspeed.py``): each probe is scaled by a
  reference-kernel sample taken just before it, and the median of
  ``SETUP_PROBES`` probes is reported.  A probe lasts well under a
  second, so the sample sees the speed the probe ran at; a pass lasts
  seconds and spans several of the host's speed flips, and scaling it
  by one sample added noise, so ``wall_s`` takes the fastest pass
  instead.  The raw probe times go to standard error;
* ``iters_per_s`` — SimE iterations completed per wall second in the
  fastest pass (Type II master iterations; summed over the cells of
  ``sweep``);
* ``peak_rss_mb`` — ``ru_maxrss`` of the benchmark process plus that of
  its largest child;
* ``best_mu`` — mean best µ over the workload's cells, which must equal
  the recorded values exactly;
* ``ok_rate`` — the share of attempted cell runs that passed every check
  (``1 - fail_rate``; the failure count is ``failed`` in the JSON line).

All scratch files live under ``.perfbench_tmp/`` in the working
directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("scan", "type2-sim", "sweep")
SETUP_PROBES = 7
SCRATCH = Path(".perfbench_tmp")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("iters_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("best_mu", "mu"),
    ("ok_rate", "ratio"),
)


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                    help="with --record: re-record only this workload")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed: the order of the cells in a pass")
    ap.add_argument("--experiment-seed", type=int, default=1,
                    help="experiment seed of every cell (one with recorded results)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record expected.json instead of timing")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    return args


class Tally:
    """Attempted and failed cell runs, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, records: list, expected: dict) -> None:
        from workloads import check_record

        for record in records:
            self.attempted += 1
            problems = check_record(record, expected)
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def check_pass(tally: Tally, cells: list, result, expected: dict) -> None:
    from repro.experiments.artifacts import cell_key

    tally.check(result.records, expected)
    tally.check(result.resumed, expected)
    # A cache hit returns a stored record, wall clock included; a re-run
    # cell cannot reproduce one to the last bit.  Cells of different
    # scenarios with the same physics share a cache key, so the hit may
    # carry the wall clock of any cold record under its key.
    cold_walls: dict[str, set] = {}
    for cell, cold in zip(cells, result.records):
        cold_walls.setdefault(cell_key(cell), set()).add(cold.wall_seconds)
    for cell, warm in zip(cells, result.resumed):
        if warm.wall_seconds not in cold_walls[cell_key(cell)]:
            tally.fail(f"{warm.cell_id}: resume pass missed the cache")


def provenance(workload: str, seed: int, experiment_seed: int) -> dict:
    import multiprocessing

    import numpy as np
    from repro.parallel.mpi.mp_backend import pick_start_method

    return {
        "workload": workload,
        "seed": seed,
        "experiment_seed": experiment_seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "pool_start_method": multiprocessing.get_start_method(),
        "rank_start_method": pick_start_method(),
    }


def measure_setup(name: str, seed: int, tmp: Path) -> float:
    """Median set-up seconds over ``SETUP_PROBES`` fresh interpreters, each
    at reference host speed.  A probe is short enough that the host speed
    sampled just before it is the speed it ran at."""
    import hostspeed

    times, raw = [], []
    for _ in range(SETUP_PROBES):
        factor = hostspeed.scale(hostspeed.sample())
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(tmp)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        times.append(raw[-1] * factor)
    _log(f"set-up probes {', '.join(f'{t:.3f}' for t in raw)} s raw")
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_passes(workload, cells, expected, seconds: float, tmp: Path, tally: Tally):
    """Repeat passes until the next one would overrun ``seconds``."""
    walls, mus, iterations = [], None, 0
    start = time.perf_counter()
    while True:
        pass_dir = tmp / f"pass{len(walls)}"
        t0 = time.perf_counter()
        result = workload.run_pass(cells, pass_dir)
        wall = time.perf_counter() - t0
        shutil.rmtree(pass_dir, ignore_errors=True)
        walls.append(wall)
        iterations = result.iterations
        check_pass(tally, cells, result, expected)
        if mus is None:
            mus = [(r.outcome or {}).get("best_mu") or 0.0 for r in result.records]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, iterations, mus


def run_end_to_end(
    workload, cells, expected, seconds: float, setup_s: float, tmp: Path,
    tally: Tally,
) -> dict:
    walls, iterations, mus = timed_passes(
        workload, cells, expected, seconds, tmp, tally
    )
    values = {
        "wall_s": min(walls),
        "setup_s": setup_s,
        "iters_per_s": iterations / min(walls),
        "peak_rss_mb": peak_rss_mb(),
        "best_mu": statistics.fmean(mus),
        "ok_rate": (tally.attempted - tally.failed) / max(1, tally.attempted),
    }
    _log(f"{len(walls)} pass(es): " + ", ".join(f"{w:.3f}" for w in walls) + " s")
    _log(f"pass wall median {statistics.median(walls):.3f} s, "
         f"fastest {min(walls):.3f} s")
    _log(f"fail_rate = {tally.failed}/{tally.attempted}")
    return {name: (values[name], unit) for name, unit in END_TO_END}


def run_traced(workload, cells, expected, tmp: Path, tally: Tally) -> dict:
    from layers import SAMPLED, derive, install, merge, per_layer
    from spans import Recorder
    from workloads import SWEEP_WORKERS, canonical_hash

    t0 = time.perf_counter()
    plain = workload.run_pass(cells, tmp / "untraced")
    wall_untraced = time.perf_counter() - t0
    check_pass(tally, cells, plain, expected)

    ship = tmp / "spans"
    ship.mkdir()
    rec = Recorder(ship, sampled=SAMPLED)
    patches = install(rec)
    try:
        t0 = time.perf_counter()
        traced = workload.run_pass(cells, tmp / "traced")
        wall_traced = time.perf_counter() - t0
    finally:
        patches.restore()
        rec.active = False
    check_pass(tally, cells, traced, expected)
    for a, b in zip(plain.records, traced.records):
        if canonical_hash(a) != canonical_hash(b):
            tally.fail(f"{b.cell_id}: traced result differs from untraced")

    values, unmeasured = derive(
        merge(rec.collect()),
        wall_traced=wall_traced,
        wall_untraced=wall_untraced,
        paper_version=workload.paper_version,
        workers=SWEEP_WORKERS if workload.name == "sweep" else 1,
    )
    for name, reason in unmeasured.items():
        _log(f"{name} unmeasured: {reason}")
        values[name] = -1.0
    _log(f"untraced {wall_untraced:.3f} s, traced {wall_traced:.3f} s")
    return {name: (values[name], unit) for name, unit in per_layer()}


def run_workload(args, tmp: Path) -> int:
    from workloads import RECORDED_SEEDS, WORKLOADS, load_expected, ordered, prepare

    workload = WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    if nproc < workload.min_nproc:
        _log(f"refusing to time {workload.name}: it runs "
             f"{workload.min_nproc} ranks or workers, but nproc is {nproc}")
        return 2
    seed = args.experiment_seed
    if not 1 <= seed <= RECORDED_SEEDS:
        _log(f"--experiment-seed must be 1..{RECORDED_SEEDS} (recorded results)")
        return 2
    for key, value in provenance(workload.name, args.seed, seed).items():
        _log(f"{key} = {value}")
    expected = load_expected()[workload.name][str(seed)]
    cells = ordered(workload.cells(seed), args.seed)
    tally = Tally()
    setup_s = None if args.trace else measure_setup(workload.name, seed, tmp)
    prepare(workload, cells)
    if args.trace:
        metrics = run_traced(workload, cells, expected, tmp, tally)
    else:
        metrics = run_end_to_end(
            workload, cells, expected, args.seconds, setup_s, tmp, tally
        )
    for problem in tally.problems[:20]:
        _log(f"MISMATCH {problem}")
    for name, (value, unit) in metrics.items():
        _log(f"{name:32s} {value:.6g} {unit}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in turn, in its own process; one summary table."""
    rows, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--experiment-seed", str(args.experiment_seed)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1]) if lines else None
    for name, row in rows.items():
        if row is None:
            print(f"{name}: no result")
            continue
        print(f"{name}: correct={row['correct']} "
              f"fail_rate={row['failed']}/{row['attempted']}")
        for metric, m in row["metrics"].items():
            print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
    return status


def record(only: str | None) -> int:
    """Run every workload (or just ``only``) once per recorded experiment
    seed and write the results every later run is checked against."""
    from repro.experiments import sweeps
    from workloads import (
        EXPECTED_PATH, RECORDED_SEEDS, SWEEP_WORKERS, WORKLOADS, record_key,
        summarize,
    )

    out: dict = json.loads(EXPECTED_PATH.read_text()) if only else {}
    for name, workload in WORKLOADS.items():
        if only and name != only:
            continue
        out[name] = {}
        for seed in range(1, RECORDED_SEEDS + 1):
            cells = workload.cells(seed)
            if name == "sweep":
                records = sweeps.run_sweep(cells, backend="chunked",
                                           workers=SWEEP_WORKERS)
            else:
                records = [sweeps.run_cell(c) for c in cells]
            entry = {}
            for r in records:
                if not r.ok:
                    raise RuntimeError(f"{r.cell_id} failed:\n{r.error}")
                entry[record_key(r)] = summarize(r)
            out[name][str(seed)] = entry
            _log(f"recorded {name} seed {seed}: {len(entry)} cells")
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (Path("src") / "repro" / "__init__.py").is_file():
        _log("no repro sources under ./src; run from the repository root")
        return 2
    sys.path.insert(0, "src")
    if args.workload == "all":
        return run_all(args)
    tmp = SCRATCH / str(os.getpid())
    tmp.mkdir(parents=True)
    # Keep every file the program puts in a temp dir inside the working
    # directory.  The path stays relative so that a socket cluster's
    # rendezvous socket path would fit the AF_UNIX limit.
    tempfile.tempdir = str(tmp)
    try:
        return record(args.workload) if args.record else run_workload(args, tmp)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
