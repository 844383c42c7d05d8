"""Batched SoA kernel: equivalence with the scalar reference.

The batch path's contract is two-tiered (see :mod:`repro.cost.soa`): the
scalar kernel stays bit-identical to ``trial_insertion`` (pinned in
``test_probe.py``); the vectorized kernel's budgeted fold must match every
candidate within ``BATCH_ULP_BUDGET`` ulps, and its exact fold must match
every candidate bit for bit (``==``) — both with identical legality,
winners' tie-breaking and meter charges.  The property tests here
randomize netlists, placements and probe windows against the pinned
``trial_insertion`` reference, including the all-candidates-illegal width
fallback, nets with zero or one placed fixed pin, unplaced neighbours,
high-fanout nets and exact goodness ties.
"""

import math

import numpy as np
import pytest

from repro.cost.engine import CostEngine
from repro.cost.soa import (
    _FOLD_LOOP_MAX,
    BATCH_ULP_BUDGET,
    BatchProbeContext,
    EquivalenceError,
    ulp_diff,
)
from repro.experiments.registry import resolve
from repro.experiments.sweeps import run_cell
from repro.layout.grid import RowGrid
from repro.layout.initial import random_placement
from repro.netlist.generator import CircuitSpec, generate_circuit
from repro.parallel.runners import (
    SERIAL_STREAM,
    build_problem,
    make_config,
    stream_for,
)
from repro.sime import allocation
from repro.sime.config import SimEConfig
from repro.sime.engine import SimulatedEvolution
from repro.utils.rng import RngStream

OBJECTIVE_SETS = (
    ("wirelength",),
    ("wirelength", "power"),
    ("wirelength", "power", "delay"),
)


def _engine(netlist, objectives, estimator, seed=3, num_rows=5, alpha=0.1,
            row_height=4.0):
    grid = RowGrid.for_netlist(netlist, num_rows=num_rows, alpha=alpha,
                               row_height=row_height)
    engine = CostEngine(
        netlist, grid, objectives=objectives, estimator=estimator,
        critical_paths=8,
    )
    engine.attach(random_placement(grid, RngStream(seed)))
    return engine


def _random_circuit(rng: RngStream):
    n = 40 + rng.randint(0, 80)
    return generate_circuit(
        CircuitSpec(
            name=f"prop{n}", n_gates=n, n_inputs=4 + rng.randint(0, 4),
            n_outputs=4 + rng.randint(0, 4), frac_dff=0.05,
            depth=5 + rng.randint(0, 5),
        ),
        RngStream(rng.randint(0, 2**31), "prop"),
    )


# ---------------------------------------------------------------------------
# ulp_diff itself
# ---------------------------------------------------------------------------
def test_ulp_diff_units():
    assert int(ulp_diff(1.0, 1.0)[0]) == 0
    assert int(ulp_diff(1.0, np.nextafter(1.0, 2.0))[0]) == 1
    assert int(ulp_diff(np.nextafter(1.0, 2.0), 1.0)[0]) == 1
    assert int(ulp_diff(-0.0, 0.0)[0]) == 1
    assert int(ulp_diff(-1.0, np.nextafter(-1.0, 0.0))[0]) == 1
    # Distances add across the representable grid.
    a, b = 1.0, np.nextafter(np.nextafter(1.0, 2.0), 2.0)
    assert int(ulp_diff(a, b)[0]) == 2


# ---------------------------------------------------------------------------
# property tests against the pinned trial_insertion reference
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("estimator", ["steiner", "hpwl"])
def test_property_batch_matches_trial_insertion(estimator):
    """Randomized netlists/placements/windows: every batch-scored candidate
    is within the ulp budget of trial_insertion, with identical legality
    and coordinates; the scalar kernel scan stays bit-identical."""
    rng = RngStream(17, estimator)
    for trial in range(4):
        nl = _random_circuit(rng)
        objectives = OBJECTIVE_SETS[trial % len(OBJECTIVE_SETS)]
        engine = _engine(
            nl, objectives, estimator, seed=trial + 1,
            num_rows=3 + rng.randint(0, 4),
        )
        grid = engine.grid
        p = engine.placement
        cells = [c.index for c in nl.movable_cells()]
        removed = list(dict.fromkeys(
            cells[rng.randint(0, len(cells))] for _ in range(4)
        ))
        engine.remove_cells(removed)
        cell = removed[0]
        # Random clamped windows over random rows (the allocator always
        # clamps before scanning).
        windows = []
        for _ in range(3):
            r = rng.randint(0, grid.num_rows)
            n_row = len(p.rows[r])
            lo = rng.randint(0, n_row + 1)
            hi = min(n_row, lo + rng.randint(0, 6))
            windows.append((r, lo, hi))
        bctx = engine.open_batch_probe(cell)
        g, legal, rows_arr, slots_arr, cx = bctx.score_windows(
            windows, charge=False
        )
        ctx = engine.open_probe(cell)
        for i in range(g.shape[0]):
            r, s = int(rows_arr[i]), int(slots_arr[i])
            t = engine.trial_insertion(cell, r, s)
            assert bool(legal[i]) == t.legal
            assert float(cx[i]) == t.x  # candidate coordinate is bit-exact
            assert int(ulp_diff(float(g[i]), t.goodness)[0]) <= BATCH_ULP_BUDGET
            # Scalar kernel: bit-identical per candidate.
            s_cx, _ = engine.insertion_coords(cell, r, s)
            assert ctx._goodness_at(r, s_cx) == t.goodness


@pytest.mark.parametrize("objectives", OBJECTIVE_SETS)
def test_scan_row_batch_matches_scalar_scan(small_netlist, objectives):
    """scan_row vs one-window scan_rows over every row: same winner within the
    budget, identical allocation/probe charges."""
    engine = _engine(small_netlist, objectives, "steiner")
    engine_b = _engine(small_netlist, objectives, "steiner")
    cell = engine.placement.rows[0][0]
    for e in (engine, engine_b):
        e.remove_cell(cell)
    p = engine.placement
    windows = [(r, 0, len(p.rows[r])) for r in range(engine.grid.num_rows)]

    ctx = engine.open_probe(cell)
    before_s = dict(engine.meter.units)
    sbest = None
    for r, lo, hi in windows:
        sbest = ctx.scan_row(r, lo, hi, sbest)
    ctx.flush_charges()

    bctx = engine_b.open_batch_probe(cell)
    before_b = dict(engine_b.meter.units)
    bbest = None
    for r, lo, hi in windows:
        bbest = bctx.scan_rows([(r, lo, hi)], bbest)
    bctx.flush_charges()

    for cat in ("allocation", "probe"):
        assert (engine.meter.units[cat] - before_s.get(cat, 0.0)
                == engine_b.meter.units[cat] - before_b.get(cat, 0.0))
    assert (sbest is None) == (bbest is None)
    if sbest is not None:
        assert int(ulp_diff(sbest[0], bbest[0])[0]) <= BATCH_ULP_BUDGET
        # The winner may only differ at an in-budget tie flip: scored by
        # the scalar kernel, the batch winner is a near-tie of the scalar
        # winner (each goodness is within the budget of its scalar value).
        if sbest[1:] != bbest[1:]:
            _g, row, slot = bbest
            s_cx, _ = engine.insertion_coords(cell, row, slot)
            g_at_bwin = ctx._goodness_at(row, s_cx)
            assert g_at_bwin <= sbest[0]
            assert int(ulp_diff(sbest[0], g_at_bwin)[0]) <= 2 * BATCH_ULP_BUDGET

    # The exact twin: the same winner, bit for bit, and the same charges.
    engine_e = _engine(small_netlist, objectives, "steiner")
    engine_e.remove_cell(cell)
    before_e = dict(engine_e.meter.units)
    ectx = engine_e.open_batch_probe(cell, exact=True)
    ebest = None
    for r, lo, hi in windows:
        ebest = ectx.scan_rows([(r, lo, hi)], ebest)
    ectx.flush_charges()
    assert ebest == sbest
    for cat in ("allocation", "probe"):
        assert (engine.meter.units[cat] - before_s.get(cat, 0.0)
                == engine_e.meter.units[cat] - before_e.get(cat, 0.0))


def test_all_candidates_illegal_width_fallback(small_netlist):
    """With a near-zero width slack every foreign row is illegal: both
    kernels charge the scanned candidates but return no winner."""
    engine = _engine(small_netlist, ("wirelength",), "steiner", alpha=1e-9)
    p = engine.placement
    home = 0
    cell = p.rows[home][0]
    engine.remove_cell(cell)
    foreign = [r for r in range(engine.grid.num_rows) if r != home]
    windows = [(r, 0, len(p.rows[r])) for r in foreign]
    assert all(
        p.row_width[r] + p._widths[cell]
        > engine.grid.max_legal_width + 1e-9
        for r in foreign
    )
    ctx = engine.open_probe(cell)
    sbest = None
    for r, lo, hi in windows:
        sbest = ctx.scan_row(r, lo, hi, sbest)
    assert sbest is None
    assert ctx._pending_units > 0  # illegal rows still charge

    bctx = engine.open_batch_probe(cell)
    assert bctx.scan_rows(windows) is None
    assert bctx._pending_units == ctx._pending_units
    assert bctx._pending_probes == ctx._pending_probes


# ---------------------------------------------------------------------------
# the exact fold: bit-identical to the scalar kernel
# ---------------------------------------------------------------------------
def _fanout_circuit(seed: int):
    """One input pad feeding a shallow circuit: nets of degree 10-20 whose
    padded pin tables are wider than the fold's loop limit."""
    return generate_circuit(
        CircuitSpec(name="fan", n_gates=80, n_inputs=1, n_outputs=3,
                    frac_dff=0.05, depth=3),
        RngStream(seed, "fan"),
    )


def _assert_exact_round(engine, cell, windows) -> BatchProbeContext:
    """Every candidate of one round: the exact fold == the fused kernel ==
    ``trial_insertion``; then the same winner and the same charges."""
    bctx = engine.open_batch_probe(cell, exact=True)
    g, legal, rows_arr, slots_arr, cx = bctx.score_windows(
        windows, charge=False
    )
    ctx = engine.open_probe(cell)
    for i in range(g.shape[0]):
        r, s = int(rows_arr[i]), int(slots_arr[i])
        s_cx, _ = engine.insertion_coords(cell, r, s)
        assert float(cx[i]) == s_cx
        assert float(g[i]) == ctx._goodness_at(r, s_cx)
        t = engine.trial_insertion(cell, r, s)
        assert bool(legal[i]) == t.legal
        assert float(g[i]) == t.goodness

    before = engine.meter.snapshot()
    sbest = None
    for r, lo, hi in windows:
        sbest = ctx.scan_row(r, lo, hi, sbest)
    ctx.flush_charges()
    mid = engine.meter.snapshot()
    ectx = engine.open_batch_probe(cell, exact=True)
    ebest = ectx.scan_rows(windows)
    ectx.flush_charges()
    after = engine.meter.snapshot()
    assert ebest == sbest
    for cat in ("allocation", "probe"):
        assert (mid.get(cat, 0.0) - before.get(cat, 0.0)
                == after.get(cat, 0.0) - mid.get(cat, 0.0))
    return bctx


@pytest.mark.parametrize("objectives", OBJECTIVE_SETS)
@pytest.mark.parametrize("estimator", ["steiner", "hpwl"])
def test_property_exact_fold_is_bit_identical(estimator, objectives):
    """Randomized netlists, placements and windows: every exact-scored
    candidate equals the fused kernel and trial_insertion with ``==``,
    with the same winner and charges.  Coverage of the edge cases is
    asserted, not assumed: nets with zero and with one placed fixed pin,
    unplaced neighbours mid-pin-order, padding wider than the fold's loop
    limit, and width-illegal rows."""
    rng = RngStream(29 + len(objectives), estimator)
    seen_m = set()
    wide = illegal = False
    for trial in range(4):
        nl = (_fanout_circuit(trial) if trial % 2
              else _random_circuit(rng))
        # An irrational row pitch: with the default integer geometry every
        # y-term sum is exact in any order, and could not tell folds apart.
        engine = _engine(
            nl, objectives, estimator, seed=trial + 1,
            num_rows=3 + rng.randint(0, 4), alpha=0.02, row_height=math.pi,
        )
        p = engine.placement
        net_pins = engine.evaluator.net_pins
        cells = [c.index for c in nl.movable_cells()]
        probed = [cells[rng.randint(0, len(cells))] for _ in range(3)]
        # Unplace the probed cells and a share of their neighbours — the
        # state mid-way through an allocation round.
        removed = set(probed)
        for cell in probed:
            for j in engine._cell_nets[cell]:
                for c in net_pins[j]:
                    if nl.cells[c].is_movable and rng.randint(0, 3) == 0:
                        removed.add(c)
        engine.remove_cells(sorted(removed))
        # The widest-padded movable cell's round is probed too.
        probed.append(max(
            (c for c in cells if c in removed or rng.randint(0, 4) == 0),
            key=lambda c: max(len(net_pins[j]) for j in engine._cell_nets[c]),
        ))
        for cell in dict.fromkeys(probed):
            if p.row_of[cell] >= 0:
                engine.remove_cell(cell)
            windows = [(r, 0, len(p.rows[r]))
                       for r in range(engine.grid.num_rows)]
            windows += [(r, max(0, len(p.rows[r]) // 2 - 2),
                         len(p.rows[r]) // 2) for r in (0, 1)]
            bctx = _assert_exact_round(engine, cell, windows)
            seen_m.update(int(m) for m in bctx._m)
            wide |= (engine.probe_table(cell).batch.pins_ext.shape[1]
                     > _FOLD_LOOP_MAX)
            illegal |= any(
                p.row_width[r] + p._widths[cell]
                > engine.grid.max_legal_width + 1e-9
                for r, _lo, _hi in windows
            )
    assert {0, 1} <= seen_m
    assert wide
    assert illegal


@pytest.mark.parametrize("objectives", OBJECTIVE_SETS)
def test_probe_table_restates_the_netlist(objectives):
    """Every cell's static probe table — pads and high-fanout nets
    included — equals the connectivity the kernels and the allocator used
    to derive on their own, and its numpy tables equal the padded
    per-net gathers the SoA kernel built from the netlist."""
    nl = _fanout_circuit(0)
    engine = _engine(nl, objectives, "steiner")
    net_pins = engine.evaluator.net_pins
    n = nl.num_cells
    assert list(nl.pads())
    assert max(len(pins) for pins in net_pins) > _FOLD_LOOP_MAX
    has_crit = False
    for cell in range(n):
        nets = engine._cell_nets[cell]
        table = engine.probe_table(cell)
        assert list(table.pins) == [
            c for j in nets for c in net_pins[j] if c != cell
        ]
        spans = table.spans
        assert len(spans) == len(nets)
        for j, (a, g, b) in zip(nets, spans):
            pre, post = table.pins[a:g], table.pins[g:b]
            assert [*pre, cell, *post] == net_pins[j]
        assert table.units == 1 + sum(engine._degrees[j] for j in nets)
        assert table.act == tuple(engine._act[j] for j in nets)
        crit = engine._cell_crit_nets[cell]
        assert list(table.crit) == [
            (nets.index(j), engine._drive_res[j], engine._sink_caps[j])
            for j in crit
        ]
        has_crit |= bool(crit)

        others = [[c for c in net_pins[j] if c != cell] for j in nets]
        ins = [net_pins[j].index(cell) for j in nets]
        d = max((len(o) for o in others), default=0)
        pins = np.full((len(nets), d), n, dtype=np.intp)
        pins_ext = np.full((len(nets), d + 1), n, dtype=np.intp)
        for i, (o, k) in enumerate(zip(others, ins)):
            pins[i, : len(o)] = o
            pins_ext[i, :k] = o[:k]
            pins_ext[i, k + 1: len(o) + 1] = o[k:]
        gap = np.zeros(pins_ext.shape, dtype=bool)
        gap[np.arange(len(nets)), np.asarray(ins, dtype=np.intp)] = True
        assert table.batch is None
        engine.open_batch_probe(cell)
        assert np.array_equal(table.batch.pins, pins)
        assert np.array_equal(table.batch.pins_ext, pins_ext)
        assert np.array_equal(table.batch.gap, gap)
    assert has_crit == ("delay" in objectives)


def test_exact_fold_ties_pick_first_in_scan_order(small_netlist):
    """A cell whose neighbours are all unplaced scores every candidate
    identically; the exact fold, like the fused kernel, must return the
    first legal candidate in scan order — even with rows scanned out of
    index order."""
    engine = _engine(small_netlist, ("wirelength", "power", "delay"),
                     "steiner")
    p = engine.placement
    pads = {c.index for c in small_netlist.pads()}
    cell = next(
        c.index for c in small_netlist.movable_cells()
        if not pads.intersection(engine.probe_table(c.index).pins)
    )
    engine.remove_cells(sorted({cell, *engine.probe_table(cell).pins}))
    rows = list(range(engine.grid.num_rows))[::-1]
    windows = [(r, 0, len(p.rows[r])) for r in rows]
    bctx = _assert_exact_round(engine, cell, windows)
    assert not bctx._m.any()
    g, legal, rows_arr, slots_arr, _cx = bctx.score_windows(
        windows, charge=False
    )
    assert legal.sum() >= 2 and np.all(g[legal] == g[legal][0])
    first = int(np.flatnonzero(legal)[0])
    best = engine.open_batch_probe(cell, exact=True).scan_rows(windows)
    assert best[1:] == (rows_arr[first], slots_arr[first])


def test_exact_check_gate_demands_bit_equality(small_problem):
    """The exact gate has no ulp budget: a mirror nudged by a few ulps
    passes the budgeted gate but trips the exact one, and so does a
    winner that is not the fused kernel's."""
    grid, engine, placement = small_problem
    cell = placement.rows[0][0]
    engine.remove_cell(cell)
    windows = [(r, 0, len(placement.rows[r])) for r in range(grid.num_rows)]
    ctx = engine.open_probe(cell)
    best = engine.open_batch_probe(cell, exact=True).scan_rows(windows)
    engine.open_batch_probe(cell, exact=True).assert_matches_scalar(
        ctx, windows, best
    )
    with pytest.raises(EquivalenceError, match="winner"):
        engine.open_batch_probe(cell, exact=True).assert_matches_scalar(
            ctx, windows, (best[0], best[1], best[2] + 1)
        )
    soa = engine.soa_state()
    for c in engine.probe_table(cell).pins:
        if placement.x[c] == placement.x[c]:
            soa.x[c] = np.nextafter(np.nextafter(soa.x[c], np.inf), np.inf)
    engine.open_batch_probe(cell).assert_matches_scalar(ctx, windows)
    with pytest.raises(EquivalenceError, match="exact goodness"):
        engine.open_batch_probe(cell, exact=True).assert_matches_scalar(
            ctx, windows
        )


# ---------------------------------------------------------------------------
# round-size dispatch in the allocator
# ---------------------------------------------------------------------------
def test_exact_dispatch_is_invisible_end_to_end(monkeypatch):
    """A scalar scanbound cell gives the same record and the same meter
    snapshot (``work_units``) whether every round or no round runs on the
    exact fold."""
    cell = resolve("scanbound", scale=100000, circuits=["synth250"],
                   seeds=[1])[0]
    calls = []
    open_batch = CostEngine.open_batch_probe

    def spy(engine, c, exact=False):
        calls.append(exact)
        return open_batch(engine, c, exact)

    monkeypatch.setattr(CostEngine, "open_batch_probe", spy)
    records = []
    for threshold in (0, math.inf):
        monkeypatch.setattr(allocation, "EXACT_KERNEL_MIN_CANDIDATES",
                            threshold)
        calls.clear()
        records.append(run_cell(cell))
        assert all(calls) and bool(calls) == (threshold == 0)
    exact, fused = records
    assert exact.ok and fused.ok
    assert exact.canonical() == fused.canonical()
    assert (exact.outcome["extras"]["work_units"]
            == fused.outcome["extras"]["work_units"])


def test_check_mode_gates_exact_rounds(small_netlist, monkeypatch):
    """Check mode on exact-fold rounds: the bit-equality gate runs (and
    passes) alongside the budgeted one, and the run equals a scalar run."""
    monkeypatch.setattr(allocation, "EXACT_KERNEL_MIN_CANDIDATES", 0)
    gated = []
    check = BatchProbeContext.assert_matches_scalar

    def spy(bctx, scalar_ctx, windows, *best):
        gated.append(bctx._exact)
        return check(bctx, scalar_ctx, windows, *best)

    monkeypatch.setattr(BatchProbeContext, "assert_matches_scalar", spy)
    (res_s, units_s) = _run(small_netlist, "scalar", iterations=2,
                            row_window=4, slot_window=40)
    assert not gated
    (res_c, units_c) = _run(small_netlist, "check", iterations=2,
                            row_window=4, slot_window=40)
    assert gated.count(True) == gated.count(False) > 0
    assert units_c == units_s
    assert res_c.history == res_s.history


def test_default_windows_never_build_the_mirror():
    """Smoke-sized rounds stay on the fused kernel: a default-window cell
    never creates the SoA mirror nor any cell's numpy tables, so it pays
    nothing for them."""
    cell = next(c for c in resolve("table1", smoke=True)
                if c.strategy == "serial")
    cfg = make_config(cell.spec)
    assert (cfg.row_window, cfg.slot_window) == (2, 2)
    problem = build_problem(cell.spec)
    rng = stream_for(cell.spec.seed, SERIAL_STREAM, "serial-sel")
    SimulatedEvolution(problem.engine, cfg, rng).run(
        problem.initial_placement()
    )
    assert problem.engine._soa is None
    tables = [t for t in problem.engine._probe_tables if t is not None]
    assert tables and all(t.batch is None for t in tables)


# ---------------------------------------------------------------------------
# SoA mirror synchronisation
# ---------------------------------------------------------------------------
def test_soa_mirror_tracks_engine_mutations(small_problem):
    """After arbitrary engine mutations the mirror equals the placement
    without any bulk resync."""
    grid, engine, placement = small_problem
    n = grid.netlist.num_cells
    engine.soa_state().ensure_fresh(placement)
    soa = engine.soa_state()
    cells = [c.index for c in grid.netlist.movable_cells()]
    rng = RngStream(9)
    for _ in range(30):
        c = cells[rng.randint(0, len(cells))]
        engine.move_cell(c, rng.randint(0, grid.num_rows), rng.randint(0, 20))
    assert not soa._stale
    assert np.array_equal(
        soa.x[:n], np.asarray(placement.x), equal_nan=True
    )
    assert np.array_equal(
        soa.y[:n], np.asarray(placement.y), equal_nan=True
    )
    assert np.isnan(soa.x[n]) and np.isnan(soa.y[n])  # sentinel intact


def test_soa_mirror_resyncs_after_rebind(small_problem):
    """Rebinding a placement marks the mirror stale; the next batch probe
    bulk-copies the new coordinates."""
    grid, engine, placement = small_problem
    n = grid.netlist.num_cells
    engine.soa_state().ensure_fresh(placement)
    other = random_placement(grid, RngStream(23, "other"))
    engine.placement = other
    engine.full_refresh()
    soa = engine.soa_state()
    assert soa._stale
    soa.ensure_fresh(other)
    assert np.array_equal(soa.x[:n], np.asarray(other.x), equal_nan=True)
    assert np.array_equal(soa.y[:n], np.asarray(other.y), equal_nan=True)


def test_check_gate_catches_mirror_desync(small_problem):
    """A corrupted mirror coordinate trips EquivalenceError in the gate."""
    grid, engine, placement = small_problem
    cell = placement.rows[0][0]
    engine.remove_cell(cell)
    soa = engine.soa_state()
    soa.ensure_fresh(placement)
    neighbor = next(
        c for c in engine.probe_table(cell).pins
        if placement.x[c] == placement.x[c]
    )
    soa.x[neighbor] += 1e6  # desync the mirror
    ctx = engine.open_probe(cell)
    bctx = engine.open_batch_probe(cell)
    windows = [(1, 0, min(4, len(placement.rows[1])))]
    with pytest.raises(EquivalenceError):
        bctx.assert_matches_scalar(ctx, windows)


# ---------------------------------------------------------------------------
# full-run behaviour of the eval modes
# ---------------------------------------------------------------------------
def _run(netlist, eval_mode, seed=1, iterations=4, **windows):
    engine = _engine(netlist, ("wirelength", "power"), "steiner", seed=seed)
    cfg = SimEConfig(max_iterations=iterations, eval_mode=eval_mode,
                     **windows)
    sime = SimulatedEvolution(engine, cfg, RngStream(5))
    result = sime.run(engine.placement, iterations=iterations)
    return result, engine.meter.snapshot()


def test_check_mode_run_equals_scalar_run(small_netlist):
    """A check-mode run commits the scalar decisions: identical history,
    best solution and meter charges to a plain scalar run."""
    (res_s, units_s) = _run(small_netlist, "scalar")
    (res_c, units_c) = _run(small_netlist, "check")
    assert units_c == units_s
    assert res_c.best_rows == res_s.best_rows
    assert res_c.best_mu == res_s.best_mu
    assert res_c.history == res_s.history


def test_batch_mode_run_is_deterministic_and_charges_match(small_netlist):
    """Batch runs are reproducible bit-for-bit, and their meter charges
    equal the scalar accounting model (units depend only on the windows
    scanned along the trajectory, which determinism pins)."""
    (res_a, units_a) = _run(small_netlist, "batch")
    (res_b, units_b) = _run(small_netlist, "batch")
    assert units_a == units_b
    assert res_a.best_rows == res_b.best_rows
    assert res_a.best_mu == res_b.best_mu
    assert res_a.history == res_b.history
    assert units_a.get("probe", 0.0) > 0
    assert 0.0 <= res_a.best_mu <= 1.0


def test_batch_context_charges_match_scalar(small_problem):
    """One batch scan charges exactly what the scalar scan charges."""
    grid, engine, placement = small_problem
    cell = placement.rows[0][0]
    engine.remove_cell(cell)
    lo, hi = 0, min(4, len(placement.rows[1]))
    ctx = engine.open_probe(cell)
    before = dict(engine.meter.units)
    ctx.scan_row(1, lo, hi, None)
    ctx.flush_charges()
    scalar_alloc = engine.meter.units["allocation"] - before.get("allocation", 0.0)
    scalar_probe = engine.meter.units["probe"] - before.get("probe", 0.0)
    bctx = engine.open_batch_probe(cell)
    before = dict(engine.meter.units)
    bctx.scan_rows([(1, lo, hi)], None)
    bctx.flush_charges()
    assert engine.meter.units["allocation"] - before["allocation"] == scalar_alloc
    assert engine.meter.units["probe"] - before["probe"] == scalar_probe


def test_eval_mode_validation():
    with pytest.raises(ValueError):
        SimEConfig(eval_mode="bogus")
    assert SimEConfig(eval_mode="batch").eval_mode == "batch"


def test_probe_charge_rides_with_trial_insertion(small_problem):
    """trial_insertion and ProbeContext.probe both count one probe unit,
    and the probe category costs zero model-seconds (not a paper phase)."""
    grid, engine, placement = small_problem
    cell = placement.rows[0][0]
    engine.remove_cell(cell)
    before = engine.meter.units.get("probe", 0.0)
    seconds_before = engine.meter.seconds()
    engine.trial_insertion(cell, 1, 0)
    engine.open_probe(cell).probe(1, 0)
    assert engine.meter.units["probe"] - before == 2.0
    # Identical model-seconds contribution: zero.
    alloc_cost = engine.meter.model.cost("allocation")
    assert engine.meter.model.cost("probe") == 0.0
    assert alloc_cost > 0.0
    assert seconds_before < engine.meter.seconds()  # allocation still bills
