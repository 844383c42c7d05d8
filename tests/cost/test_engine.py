"""Cost engine: incremental consistency, probes, goodness, µ(s)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.engine import CostEngine
from repro.layout.grid import RowGrid
from repro.layout.initial import random_placement
from repro.utils.rng import RngStream


def test_objectives_validation(small_netlist):
    grid = RowGrid.for_netlist(small_netlist)
    with pytest.raises(ValueError, match="unknown objectives"):
        CostEngine(small_netlist, grid, objectives=("wirelength", "area"))
    with pytest.raises(ValueError, match="mandatory"):
        CostEngine(small_netlist, grid, objectives=("power",))


def test_attach_requires_matching_grid(small_netlist):
    g1 = RowGrid.for_netlist(small_netlist, num_rows=4)
    g2 = RowGrid.for_netlist(small_netlist, num_rows=5)
    engine = CostEngine(small_netlist, g1)
    with pytest.raises(ValueError, match="different grid"):
        engine.attach(random_placement(g2, RngStream(0)))


def test_queries_require_attachment(small_netlist):
    grid = RowGrid.for_netlist(small_netlist)
    engine = CostEngine(small_netlist, grid)
    with pytest.raises(RuntimeError, match="attach"):
        engine.costs()


def test_full_refresh_totals(small_problem):
    grid, engine, placement = small_problem
    assert engine.wirelength_total == pytest.approx(sum(engine.net_lengths))
    assert engine.power_total == pytest.approx(
        sum(a * l for a, l in zip(engine._act, engine.net_lengths))
    )
    assert engine.delay_max == pytest.approx(float(engine.path_delays.max()))


def test_costs_include_width(small_problem):
    grid, engine, placement = small_problem
    costs = engine.costs()
    assert set(costs) == {"wirelength", "power", "delay", "width"}
    assert costs["width"] == placement.max_row_width()


def test_mu_in_unit_interval(small_problem):
    _, engine, _ = small_problem
    assert 0.0 <= engine.mu() <= 1.0
    for v in engine.memberships().values():
        assert 0.0 <= v <= 1.0


def test_incremental_move_consistency(small_problem):
    grid, engine, placement = small_problem
    cells = [c.index for c in grid.netlist.movable_cells()]
    rng = RngStream(4)
    for _ in range(25):
        c = cells[rng.randint(0, len(cells))]
        engine.move_cell(c, rng.randint(0, grid.num_rows), rng.randint(0, 20))
    engine.assert_consistent()


def test_incremental_swap_consistency(small_problem):
    grid, engine, placement = small_problem
    cells = [c.index for c in grid.netlist.movable_cells()]
    rng = RngStream(5)
    for _ in range(25):
        a = cells[rng.randint(0, len(cells))]
        b = cells[rng.randint(0, len(cells))]
        if a != b:
            engine.swap_cells(a, b)
    engine.assert_consistent()


def test_bulk_remove_then_insert_consistency(small_problem):
    grid, engine, placement = small_problem
    cells = [c.index for c in grid.netlist.movable_cells()][:10]
    engine.remove_cells(cells)
    for i, c in enumerate(cells):
        engine.insert_cell(c, i % grid.num_rows, 0)
    engine.assert_consistent()


def test_remove_excludes_pin(small_problem):
    """Removing a cell shortens (or preserves) each of its nets."""
    grid, engine, placement = small_problem
    cell = next(
        c.index
        for c in grid.netlist.movable_cells()
        if all(engine._degrees[j] >= 3 for j in engine._cell_nets[c.index])
    )
    before = [engine.net_lengths[j] for j in engine._cell_nets[cell]]
    engine.remove_cell(cell)
    after = [engine.net_lengths[j] for j in engine._cell_nets[cell]]
    # With >= 2 remaining pins the net still has a length, <= original +
    # the shift effect of repacking; at minimum it stays finite.
    assert all(np.isfinite(after))
    engine.insert_cell(cell, 0, 0)
    engine.assert_consistent()


def test_trial_matches_commit(small_problem):
    """A trial's goodness must equal the post-commit cell goodness when the
    downstream shift is empty (insertion at a row end)."""
    grid, engine, placement = small_problem
    cell = placement.rows[0][0]
    engine.remove_cell(cell)
    row = grid.num_rows - 1
    slot = len(placement.rows[row])
    trial = engine.trial_insertion(cell, row, slot)
    engine.insert_cell(cell, row, slot)
    engine.assert_consistent()
    assert engine.cell_goodness(cell) == pytest.approx(trial.goodness, abs=1e-9)


def test_trial_rejects_overfull_row(small_netlist):
    grid = RowGrid.for_netlist(small_netlist, num_rows=4, alpha=0.01)
    engine = CostEngine(small_netlist, grid)
    placement = random_placement(grid, RngStream(0))
    engine.attach(placement)
    # Find the widest row; inserting there must be flagged illegal.
    widest = max(range(grid.num_rows), key=lambda r: placement.row_width[r])
    donor_row = min(range(grid.num_rows), key=lambda r: placement.row_width[r])
    cell = placement.rows[donor_row][0]
    engine.remove_cell(cell)
    trial = engine.trial_insertion(cell, widest, 0)
    assert not trial.legal


def test_insertion_coords(small_problem):
    grid, engine, placement = small_problem
    row = 0
    # Insertion at the start: center at half the cell width.
    cell = placement.rows[1][0]
    engine.remove_cell(cell)
    x, y = engine.insertion_coords(cell, row, 0)
    assert x == pytest.approx(grid.netlist.cells[cell].width_sites / 2)
    assert y == grid.row_y(row)
    # Insertion at the end: after the current row width.
    x_end, _ = engine.insertion_coords(cell, row, 10_000)
    assert x_end == pytest.approx(
        placement.row_width[row] + grid.netlist.cells[cell].width_sites / 2
    )


def test_cell_goodness_bounds(small_problem):
    grid, engine, placement = small_problem
    for c in list(grid.netlist.movable_cells())[:20]:
        g = engine.cell_goodness(c.index)
        assert 0.0 <= g <= 1.0


def test_goodness_prefers_shorter_nets(small_problem):
    """Moving a cell to its connected cells' median must not reduce its
    wirelength ratio below the pre-move value by more than epsilon."""
    grid, engine, placement = small_problem
    cell = placement.rows[0][0]
    before = engine.cell_objective_ratios(cell)[0]
    # Exile the cell to the far corner: ratio must not improve.
    engine.move_cell(cell, grid.num_rows - 1, 10_000)
    engine.full_refresh()
    after = engine.cell_objective_ratios(cell)[0]
    assert after <= before + 0.25  # corner can coincidentally be close


def test_meter_charges_by_category(small_netlist):
    grid = RowGrid.for_netlist(small_netlist)
    engine = CostEngine(small_netlist, grid, objectives=("wirelength", "power"))
    engine.attach(random_placement(grid, RngStream(2)))
    assert engine.meter.units["wirelength"] > 0
    assert engine.meter.units["power"] > 0
    engine.meter.reset()
    cell = engine.placement.rows[0][0]
    engine.remove_cell(cell)
    engine.trial_insertion(cell, 0, 0)
    engine.insert_cell(cell, 0, 0)
    assert engine.meter.units["allocation"] > 0
    assert engine.meter.units.get("wirelength", 0) == 0  # no full sweep


def test_wirelength_only_engine(small_netlist):
    grid = RowGrid.for_netlist(small_netlist)
    engine = CostEngine(small_netlist, grid, objectives=("wirelength",))
    engine.attach(random_placement(grid, RngStream(1)))
    assert not engine.has_power and not engine.has_delay
    assert engine.delay_max == 0.0
    assert set(engine.memberships()) == {"wirelength"}
    assert 0.0 <= engine.mu() <= 1.0


def test_hpwl_estimator_option(small_netlist):
    grid = RowGrid.for_netlist(small_netlist)
    e1 = CostEngine(small_netlist, grid, estimator="steiner")
    e2 = CostEngine(small_netlist, grid, estimator="hpwl")
    p = random_placement(grid, RngStream(1))
    e1.attach(p)
    e2.attach(p.copy())
    assert e2.wirelength_total <= e1.wirelength_total + 1e-9


def _wpd_engine(netlist, grid):
    return CostEngine(
        netlist, grid, objectives=("wirelength", "power", "delay"),
        critical_paths=8,
    )


def _random_ops(rng, cells, num_rows, n_ops):
    """``n_ops`` random mutations, each a tuple of engine calls that
    leaves the placement complete."""
    ops = []
    for _ in range(n_ops):
        op = rng.randint(0, 3)
        if op == 0:
            cell = cells[rng.randint(0, len(cells))]
            ops.append((("move_cell", (cell, rng.randint(0, num_rows),
                                       rng.randint(0, 25))),))
        elif op == 1:
            a = cells[rng.randint(0, len(cells))]
            b = cells[rng.randint(0, len(cells))]
            if a != b:
                ops.append((("swap_cells", (a, b)),))
        else:
            c = cells[rng.randint(0, len(cells))]
            ops.append((("remove_cell", (c,)),
                        ("insert_cell", (c, rng.randint(0, num_rows), 0))))
    return ops


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31), n_ops=st.integers(1, 15))
def test_property_incremental_always_consistent(small_netlist, seed, n_ops):
    """Property: after every mutation the maintained per-net lengths are a
    fresh sweep bit for bit, and a twin whose evaluation is discarded
    charges the meter exactly the same, keeps its SoA mirror in sync, and
    holds the same state once both re-attach."""
    grid = RowGrid.for_netlist(small_netlist, num_rows=5)
    engine = _wpd_engine(small_netlist, grid)
    twin = _wpd_engine(small_netlist, grid)
    placement = random_placement(grid, RngStream(seed))
    engine.attach(placement)
    twin.attach(placement.copy())
    twin.soa_state().ensure_fresh(twin.placement)
    twin.discard_evaluation()
    cells = [c.index for c in small_netlist.movable_cells()]
    for op in _random_ops(RngStream(seed + 1), cells, grid.num_rows, n_ops):
        for e in (engine, twin):
            for name, args in op:
                getattr(e, name)(*args)
        p = engine.placement
        fresh = engine.evaluator.full_sweep(np.asarray(p.x), np.asarray(p.y))
        assert np.array_equal(_bits(fresh), _bits(engine.net_lengths))
        assert twin.meter.units == engine.meter.units
        assert twin.placement.to_rows() == p.to_rows()
    engine.assert_consistent()
    soa, n = twin.soa_state(), small_netlist.num_cells
    assert np.array_equal(soa.x[:n], np.asarray(twin.placement.x), equal_nan=True)
    assert np.array_equal(soa.y[:n], np.asarray(twin.placement.y), equal_nan=True)

    engine.attach(engine.placement)
    twin.attach(twin.placement)
    mine, theirs = engine.share_state(), twin.share_state()
    assert mine[:4] == theirs[:4]
    assert np.array_equal(_bits(mine[4]), _bits(theirs[4]))
    assert [twin.cell_goodness(c) for c in cells] == [
        engine.cell_goodness(c) for c in cells
    ]
    assert twin.mu() == engine.mu()
    assert twin.meter.units == engine.meter.units


#: Every reader of the evaluation, each of which must refuse to run while
#: it is discarded.
EVALUATION_READERS = {
    "cell_goodness": lambda e, c: e.cell_goodness(c),
    "cell_objective_ratios": lambda e, c: e.cell_objective_ratios(c),
    "costs": lambda e, c: e.costs(),
    "memberships": lambda e, c: e.memberships(),
    "mu": lambda e, c: e.mu(),
    "delay_max": lambda e, c: e.delay_max,
    "refresh_totals": lambda e, c: e.refresh_totals(),
    "charge_refresh": lambda e, c: e.charge_refresh(),
    "share_state": lambda e, c: e.share_state(),
    "assert_consistent": lambda e, c: e.assert_consistent(),
}


@pytest.mark.parametrize("reader", sorted(EVALUATION_READERS))
def test_discarded_evaluation_readers_raise(small_problem, reader):
    _, engine, placement = small_problem
    read = EVALUATION_READERS[reader]
    cell = placement.rows[0][0]
    engine.discard_evaluation()
    engine.move_cell(cell, 1, 0)
    with pytest.raises(RuntimeError, match="discarded"):
        read(engine, cell)
    engine.attach(placement)
    read(engine, cell)


@pytest.mark.parametrize("exit_", ["attach", "attach_shared", "full_refresh"])
def test_discarded_evaluation_ends_at_rebind_or_full_refresh(
    small_problem, exit_
):
    grid, engine, placement = small_problem
    state = engine.share_state()
    snapshot = placement.copy()
    engine.discard_evaluation()
    engine.swap_cells(placement.rows[0][0], placement.rows[1][0])
    if exit_ == "attach":
        engine.attach(placement)
    elif exit_ == "attach_shared":
        engine.attach_shared(snapshot, state)
    else:
        engine.full_refresh()
    engine.assert_consistent()
    assert 0.0 <= engine.mu() <= 1.0


def test_discard_evaluation_requires_attachment(small_netlist):
    engine = CostEngine(small_netlist, RowGrid.for_netlist(small_netlist))
    with pytest.raises(RuntimeError, match="attach"):
        engine.discard_evaluation()
