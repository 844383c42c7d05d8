"""Which calls the traced run wraps, and the per-layer metrics they give.

Every wrapped call is a public function or method of ``repro``; the
table below names the layer (span) each one is charged to.  The metric
list :func:`per_layer` is the ``per_layer`` block of ``BENCHMARK.json``;
each entry says which end-to-end metric it should move and on which
workload it is heavy:

* ``cost.probe.*`` / ``cost.soa.*`` — the scalar and batched candidate
  scans; move ``wall_s``/``iters_per_s``, heavy on ``scan`` (soa only in
  its batch half);
* ``cost.commit.*`` — the incremental commit path; heavy on ``scan`` and
  ``type2-sim``;
* ``cost.refresh``/``cost.power``/``cost.delay``/``cost.eval`` — solution
  refreshes and goodness/µ queries; heavy on ``type2-sim``;
* ``sime.*`` — the SimE phases; every workload;
* ``netlist.build``/``runners.build_problem``/``cost.engine_init`` —
  per-cell set-up; move ``setup_s`` and ``wall_s``, heavy on ``sweep``;
* ``mpi.*`` — rank communicators and cluster lifecycle; heavy on
  ``type2-sim``, zero on ``scan``;
* ``experiments.*`` — cells, the pool, the cache and artifacts; heavy on
  ``sweep``, zero on ``scan`` apart from the cells themselves;
* ``share.*`` — the paper's Section 4 view: wall share per work-meter
  category beside the model-second share and the paper's gprof share.
"""

from __future__ import annotations

import math
import multiprocessing
from collections import defaultdict
from typing import Any

from spans import Patches, RankFn, Recorder, _now, module_bindings

#: Spans whose individual durations are kept for percentiles.
SAMPLED = ("sime.step", "experiments.cell")

#: Work-meter categories given a wall share: the self time of these spans.
WALL_CATEGORIES = {
    "allocation": ("sime.allocate", "cost.probe", "cost.soa", "cost.commit"),
    "goodness": ("sime.evaluate", "cost.eval"),
    "selection": ("sime.select",),
    "wirelength": ("cost.refresh",),
    "power": ("cost.power",),
    "delay": ("cost.delay",),
}

#: Categories the paper's Section 4 profile reports.
PAPER_CATEGORIES = ("allocation", "wirelength", "goodness", "delay")


def _model_categories() -> tuple[str, ...]:
    from repro.cost.workmeter import CATEGORIES

    return CATEGORIES


def per_layer() -> list[tuple[str, str]]:
    out = [
        ("cost.probe.self_s", "s"),
        ("cost.probe.candidates", "count"),
        ("cost.probe.ns_per_candidate", "ns"),
        ("cost.soa.self_s", "s"),
        ("cost.soa.candidates", "count"),
        ("cost.soa.ns_per_candidate", "ns"),
        ("cost.commit.self_s", "s"),
        ("cost.commit.calls", "count"),
        ("cost.commit.us_per_call", "us"),
        ("cost.refresh.self_s", "s"),
        ("cost.power.self_s", "s"),
        ("cost.delay.self_s", "s"),
        ("cost.eval.self_s", "s"),
        ("sime.evaluate.self_s", "s"),
        ("sime.select.self_s", "s"),
        ("sime.allocate.self_s", "s"),
        ("sime.step.self_s", "s"),
        ("sime.step.p50_ms", "ms"),
        ("sime.step.tail_ms", "ms"),
        ("sime.step.tail_pct", "pct"),
        ("sime.step.samples", "count"),
        ("netlist.build.self_s", "s"),
        ("runners.build_problem.self_s", "s"),
        ("cost.engine_init.self_s", "s"),
        ("mpi.send.calls", "count"),
        ("mpi.send.bytes", "bytes"),
        ("mpi.recv.wait_s", "s"),
        ("mpi.collective.s", "s"),
        ("mpi.rank.compute_s", "s"),
        ("mpi.rank.self_s", "s"),
        ("mpi.rank.imbalance", "ratio"),
        ("mpi.spawn_s", "s"),
        ("mpi.teardown_s", "s"),
        ("experiments.cell.self_s", "s"),
        ("experiments.cell.p50_s", "s"),
        ("experiments.cell.tail_s", "s"),
        ("experiments.cell.tail_pct", "pct"),
        ("experiments.cell.samples", "count"),
        ("experiments.pool.overhead_s", "s"),
        ("experiments.cache.put_us", "us"),
        ("experiments.cache.get_us", "us"),
        ("experiments.cache.hit_ratio", "ratio"),
        ("experiments.artifacts.save_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
    ]
    out += [(f"share.wall.{c}", "ratio") for c in WALL_CATEGORIES]
    out += [(f"share.model.{c}", "ratio") for c in _model_categories()]
    out += [(f"share.paper.{c}", "ratio") for c in PAPER_CATEGORIES]
    return out


# ---------------------------------------------------------------------------
# The wrapped calls
# ---------------------------------------------------------------------------


def _arg(a: tuple, k: dict, i: int, name: str) -> Any:
    return a[i] if len(a) > i else k[name]


def _windows_size(windows: Any) -> int:
    return sum(hi - lo + 1 for _r, lo, hi in windows)


def install(rec: Recorder) -> Patches:
    """Wrap every traced call; the returned patches undo it exactly."""
    from repro.cost.delay import DelayModel
    from repro.cost.engine import CostEngine
    from repro.cost.power import PowerModel
    from repro.cost.probe import ProbeContext
    from repro.cost.soa import BatchProbeContext
    from repro.experiments import sweeps
    from repro.experiments.artifacts import ArtifactStore, CellCache
    from repro.netlist import suite
    from repro.parallel import runners
    from repro.parallel.mpi.simcluster import SimCluster
    from repro.parallel.mpi.socket_backend import SocketCluster
    from repro.sime import goodness, selection
    from repro.sime.allocation import Allocator
    from repro.sime.engine import SimulatedEvolution

    def cell_units(_a: tuple, _k: dict, record: Any) -> int:
        # Serial cells carry their meter's units; parallel cells are
        # counted from the cluster result instead (see cluster_run).
        units = ((record.outcome or {}).get("extras") or {}).get("work_units")
        for cat, u in (units or {}).items():
            rec.add(f"model.{cat}", u)
        return 0

    methods = [
        (CostEngine, "open_probe", "cost.probe", None),
        (ProbeContext, "scan_row", "cost.probe",
         lambda a, k, r: _arg(a, k, 3, "hi_slot") - _arg(a, k, 2, "lo_slot") + 1),
        (ProbeContext, "probe", "cost.probe", lambda a, k, r: 1),
        (ProbeContext, "probe_many", "cost.probe", lambda a, k, r: len(r)),
        (ProbeContext, "flush_charges", "cost.probe", None),
        (CostEngine, "open_batch_probe", "cost.soa", None),
        (BatchProbeContext, "scan_rows", "cost.soa",
         lambda a, k, r: _windows_size(_arg(a, k, 1, "windows"))),
        (BatchProbeContext, "score_windows", "cost.soa",
         lambda a, k, r: len(r[0])),
        (BatchProbeContext, "flush_charges", "cost.soa", None),
        (CostEngine, "insert_cell", "cost.commit", None),
        (CostEngine, "remove_cell", "cost.commit", None),
        (CostEngine, "remove_cells", "cost.commit", None),
        (CostEngine, "move_cell", "cost.commit", None),
        (CostEngine, "swap_cells", "cost.commit", None),
        (CostEngine, "refresh_totals", "cost.refresh", None),
        (CostEngine, "full_refresh", "cost.refresh", None),
        (CostEngine, "attach", "cost.refresh", None),
        (CostEngine, "attach_shared", "cost.refresh", None),
        (PowerModel, "total", "cost.power", None),
        (DelayModel, "path_delays_full", "cost.delay", None),
        (CostEngine, "cell_goodness", "cost.eval", None),
        (CostEngine, "mu", "cost.eval", None),
        (CostEngine, "costs", "cost.eval", None),
        (Allocator, "allocate", "sime.allocate", None),
        (SimulatedEvolution, "step", "sime.step", None),
        (CostEngine, "__init__", "cost.engine_init", None),
        (CellCache, "get", "experiments.cache.get",
         lambda a, k, r: int(r is not None)),
        (CellCache, "put", "experiments.cache.put", None),
        (ArtifactStore, "save", "experiments.artifacts.save", None),
    ]
    functions = [
        (suite.paper_circuit, "netlist.build", None),
        (runners.build_problem, "runners.build_problem", None),
        (goodness.evaluate_goodness, "sime.evaluate", None),
        (selection.select_cells, "sime.select", None),
        (sweeps.run_cell, "experiments.cell", cell_units),
        (sweeps.run_sweep, "experiments.sweep", None),
    ]

    patches = Patches()
    for owner, attr, name, count in methods:
        patches.set(owner, attr, rec.wrap(vars(owner)[attr], name, count))
    for fn, name, count in functions:
        wrapped = rec.wrap(fn, name, count)
        for module, attr in module_bindings(fn):
            patches.set(module, attr, wrapped)
    for cls in (SimCluster, SocketCluster):
        patches.set(cls, "run", _cluster_run(rec, vars(cls)["run"]))
    rec.active = True
    return patches


def _cluster_run(rec: Recorder, orig: Any) -> Any:
    spanned = rec.wrap(orig, "mpi.cluster")

    def run(cluster: Any, fn: Any, *args: Any, **kwargs: Any) -> Any:
        method = getattr(cluster, "start_method", "thread")
        if method not in ("thread", "fork"):
            # A spawned rank starts from a fresh import without these
            # wrappers and could not ship spans back.
            rec.add("mpi.unshipped_runs", 1)
            return spanned(cluster, fn, *args, **kwargs)
        token = rec.new_token()
        t0 = _now()
        result = spanned(cluster, RankFn(fn, rec, token), *args, **kwargs)
        rec.cluster_runs.append((token, t0, _now(), cluster.size, method))
        for meter in result.meters:
            for cat, u in meter.units.items():
                rec.add(f"model.{cat}", u)
        return result

    run.__wrapped__ = orig  # type: ignore[attr-defined]
    return run


# ---------------------------------------------------------------------------
# From spans to metrics
# ---------------------------------------------------------------------------


def merge(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold per-process, per-thread tables into one view.

    ``driver_main_self_ns`` is the summed self time of the driver's main
    thread: the time the traced pass spent inside *some* wrapped call on
    the path the wall clock measures.
    """
    stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    samples: dict[str, list[int]] = defaultdict(list)
    counters: dict[str, float] = defaultdict(float)
    driver_main_self = 0
    runs, ranks = {}, defaultdict(list)
    for i, snap in enumerate(snapshots):
        for th in snap["threads"]:
            for name, agg in th["stats"].items():
                tot = stats[name]
                for j in range(4):
                    tot[j] += agg[j]
            if i == 0 and th["main"]:
                driver_main_self += sum(agg[2] for agg in th["stats"].values())
            for name, vals in th["samples"].items():
                samples[name].extend(vals)
            for name, v in th["counters"].items():
                counters[name] += v
        for token, t0, t1, size, _method in snap["cluster_runs"]:
            runs[token] = (t0, t1, size)
        for token, rank, entry, exit_, comm in snap["rank_events"]:
            ranks[token].append((rank, entry, exit_, comm))
    return {
        "stats": stats,
        "samples": samples,
        "counters": counters,
        "driver_main_self_ns": driver_main_self,
        "runs": runs,
        "ranks": ranks,
    }


def self_ns(view: dict[str, Any], name: str) -> int:
    return view["stats"][name][2] if name in view["stats"] else 0


def tail(samples: list[int]) -> tuple[float, float, float]:
    """``(p50, tail, tail_pct)``: the tail is the highest of p99.9, p99,
    p95, p90 and p75 with at least ten samples beyond it (p50 when there
    are too few samples for any of them)."""
    if not samples:
        return 0.0, 0.0, 0.0
    xs = sorted(samples)
    n = len(xs)

    def pct(q: float) -> float:
        return float(xs[max(0, math.ceil(q / 100.0 * n) - 1)])

    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            return pct(50.0), pct(q), q
    return pct(50.0), pct(50.0), 50.0


def derive(
    view: dict[str, Any],
    *,
    wall_traced: float,
    wall_untraced: float,
    paper_version: str,
    workers: int,
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metric values, plus the reasons for any left unmeasured."""
    from repro.analysis.profiling import PAPER_SHARES
    from repro.parallel.mpi.calibration import calibrated_work_model

    stats, counters = view["stats"], view["counters"]
    m: dict[str, float] = {}
    unmeasured: dict[str, str] = {}

    def s(name: str) -> float:
        return self_ns(view, name) / 1e9

    def agg(name: str, j: int) -> float:
        return stats[name][j] if name in stats else 0

    for layer in ("probe", "soa"):
        name = f"cost.{layer}"
        cands = agg(name, 3)
        m[f"{name}.self_s"] = s(name)
        m[f"{name}.candidates"] = cands
        m[f"{name}.ns_per_candidate"] = self_ns(view, name) / cands if cands else 0.0
    calls = agg("cost.commit", 0)
    m["cost.commit.self_s"] = s("cost.commit")
    m["cost.commit.calls"] = calls
    m["cost.commit.us_per_call"] = self_ns(view, "cost.commit") / 1e3 / calls if calls else 0.0
    for name in ("cost.refresh", "cost.power", "cost.delay", "cost.eval",
                 "sime.evaluate", "sime.select", "sime.allocate", "sime.step",
                 "netlist.build", "runners.build_problem", "cost.engine_init",
                 "experiments.cell", "mpi.rank"):
        m[f"{name}.self_s"] = s(name)
    p50, tl, q = tail(view["samples"]["sime.step"])
    m["sime.step.p50_ms"], m["sime.step.tail_ms"] = p50 / 1e6, tl / 1e6
    m["sime.step.tail_pct"] = q
    m["sime.step.samples"] = len(view["samples"]["sime.step"])

    m["mpi.send.calls"] = counters.get("mpi.send.calls", 0)
    m["mpi.send.bytes"] = counters.get("mpi.send.bytes", 0)
    m["mpi.recv.wait_s"] = agg("mpi.recv", 1) / 1e9
    m["mpi.collective.s"] = agg("mpi.collective", 1) / 1e9
    spawn = teardown = compute = max_sum = mean_sum = 0.0
    missing = 0
    for token, (t0, t1, size) in view["runs"].items():
        evs = view["ranks"].get(token, [])
        if len(evs) != size:
            missing += 1
            continue
        spawn += max(e[1] for e in evs) - t0
        teardown += t1 - max(e[2] for e in evs)
        per_rank = [e[2] - e[1] - e[3] for e in evs]
        compute += sum(per_rank)
        max_sum += max(per_rank)
        mean_sum += sum(per_rank) / len(per_rank)
    m["mpi.spawn_s"], m["mpi.teardown_s"] = spawn / 1e9, teardown / 1e9
    m["mpi.rank.compute_s"] = compute / 1e9
    m["mpi.rank.imbalance"] = max_sum / mean_sum if mean_sum else 0.0
    rank_metrics = ("mpi.send.calls", "mpi.send.bytes", "mpi.recv.wait_s",
                    "mpi.collective.s", "mpi.rank.compute_s", "mpi.rank.self_s",
                    "mpi.rank.imbalance", "mpi.spawn_s", "mpi.teardown_s")
    if missing or counters.get("mpi.unshipped_runs"):
        for name in rank_metrics:
            unmeasured[name] = (
                f"{missing + int(counters.get('mpi.unshipped_runs', 0))} "
                "cluster run(s) started ranks whose spans could not be shipped"
            )

    cells = view["samples"]["experiments.cell"]
    p50, tl, q = tail(cells)
    m["experiments.cell.p50_s"], m["experiments.cell.tail_s"] = p50 / 1e9, tl / 1e9
    m["experiments.cell.tail_pct"] = q
    m["experiments.cell.samples"] = len(cells)
    sweep_ns = agg("experiments.sweep", 1)
    m["experiments.pool.overhead_s"] = (
        (sweep_ns - agg("experiments.cell", 1) / max(1, workers)) / 1e9
        if sweep_ns else 0.0
    )
    if sweep_ns and multiprocessing.get_start_method() != "fork":
        for name in ("experiments.cell.p50_s", "experiments.cell.tail_s",
                     "experiments.pool.overhead_s"):
            unmeasured[name] = "pool workers are not forked, so their cell spans stay in the workers"
    for op in ("put", "get"):
        name = f"experiments.cache.{op}"
        n = agg(name, 0)
        m[f"{name}_us"] = agg(name, 1) / 1e3 / n if n else 0.0
    # The sweep workload looks every cell up twice — once cold (all
    # misses) and once on resume — so the resume pass accounts for half
    # of the lookups and every hit.
    gets = agg("experiments.cache.get", 0)
    m["experiments.cache.hit_ratio"] = agg("experiments.cache.get", 3) / (gets / 2) if gets else 0.0
    m["experiments.artifacts.save_s"] = agg("experiments.artifacts.save", 1) / 1e9

    m["trace.wall_s"] = wall_traced
    m["trace.overhead_s"] = wall_traced - wall_untraced
    # Time the driver spent outside every wrapped call.  A hole *inside*
    # a wrapped container shows up as that container's own self time
    # instead: experiments.cell, sime.step and mpi.rank report it.
    m["trace.unattributed_s"] = wall_traced - view["driver_main_self_ns"] / 1e9

    cat_wall = {
        cat: sum(self_ns(view, n) for n in names)
        for cat, names in WALL_CATEGORIES.items()
    }
    total_wall = sum(cat_wall.values())
    for cat, v in cat_wall.items():
        m[f"share.wall.{cat}"] = v / total_wall if total_wall else 0.0
    model = calibrated_work_model()
    secs = {c: counters.get(f"model.{c}", 0.0) * model.cost(c)
            for c in _model_categories()}
    total_model = sum(secs.values())
    for cat, v in secs.items():
        m[f"share.model.{cat}"] = v / total_model if total_model else 0.0
        if not total_model:
            unmeasured[f"share.model.{cat}"] = "no cell reported work-meter units"
    paper = PAPER_SHARES.get(paper_version, {})
    for cat in PAPER_CATEGORIES:
        m[f"share.paper.{cat}"] = paper.get(cat, 0.0)
    return m, unmeasured
