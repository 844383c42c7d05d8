"""Allocation operator: sorted individual best-fit."""

import pytest

from repro.cost.engine import CostEngine
from repro.layout.grid import RowGrid
from repro.layout.initial import random_placement
from repro.sime.allocation import Allocator
from repro.sime.config import SimEConfig
from repro.sime.goodness import evaluate_goodness
from repro.utils.rng import RngStream


@pytest.fixture()
def setup(small_netlist):
    grid = RowGrid.for_netlist(small_netlist, num_rows=5)
    engine = CostEngine(small_netlist, grid, objectives=("wirelength", "power"))
    placement = random_placement(grid, RngStream(0))
    engine.attach(placement)
    allocator = Allocator(engine, SimEConfig(), RngStream(1))
    return grid, engine, placement, allocator


def test_allocate_preserves_invariants(setup):
    grid, engine, placement, allocator = setup
    goodness = evaluate_goodness(engine)
    selected = list(goodness)[:15]
    allocator.allocate(selected, goodness)
    placement.validate()
    engine.assert_consistent()


def test_allocate_empty_selection_is_noop(setup):
    grid, engine, placement, allocator = setup
    before = placement.to_rows()
    allocator.allocate([], {})
    assert placement.to_rows() == before


def test_allocate_respects_allowed_rows(setup):
    """Type II building block: a rank's allocation moves cells only
    within its rows and leaves every other row as it was."""
    grid, engine, placement, allocator = setup
    goodness = evaluate_goodness(engine)
    allowed = [1, 3]
    others = {r: list(placement.rows[r])
              for r in range(grid.num_rows) if r not in allowed}
    selected = [c for c in list(goodness) if placement.row_of[c] in allowed][:10]
    allocator.allocate(selected, goodness, allowed_rows=allowed)
    for c in selected:
        assert placement.row_of[c] in allowed
    for r, content in others.items():
        assert placement.rows[r] == content
    placement.validate()


def test_allocate_rejects_empty_rows(setup):
    grid, engine, placement, allocator = setup
    with pytest.raises(ValueError, match="allowed_rows"):
        allocator.allocate([placement.rows[0][0]], {placement.rows[0][0]: 0.1},
                           allowed_rows=[])


def test_allocation_improves_wirelength(setup):
    """Repeated allocation of the worst cells must reduce total wirelength."""
    grid, engine, placement, allocator = setup
    start = engine.wirelength_total
    for _ in range(5):
        engine.full_refresh()
        goodness = evaluate_goodness(engine)
        worst = sorted(goodness, key=goodness.get)[:20]
        allocator.allocate(worst, goodness)
    engine.full_refresh()
    assert engine.wirelength_total < start


def test_width_constraint_respected(small_netlist):
    grid = RowGrid.for_netlist(small_netlist, num_rows=5, alpha=0.15)
    engine = CostEngine(small_netlist, grid, objectives=("wirelength",))
    placement = random_placement(grid, RngStream(3))
    engine.attach(placement)
    allocator = Allocator(engine, SimEConfig(), RngStream(4))
    for _ in range(4):
        engine.full_refresh()
        goodness = evaluate_goodness(engine)
        selected = sorted(goodness, key=goodness.get)[:25]
        allocator.allocate(selected, goodness)
        assert placement.max_row_width() <= grid.max_legal_width + 1e-6


def test_sort_order_configurable(setup):
    grid, engine, placement, allocator = setup
    goodness = evaluate_goodness(engine)
    selected = list(goodness)[:8]
    asc = sorted(selected, key=lambda c: goodness[c])
    allocator.config = SimEConfig(sort_descending=True)
    # The order only affects internal processing; both must stay valid.
    allocator.allocate(selected, goodness)
    placement.validate()
    assert asc  # sanity: list non-empty


def test_target_point_median(setup):
    grid, engine, placement, allocator = setup
    cell = placement.rows[0][0]
    tx, ty = allocator._target_point(cell)
    # Must lie within the layout's coordinate envelope (pads included).
    xs = [v for v in placement.x if v == v]
    ys = [v for v in placement.y if v == v]
    assert min(xs) - 1 <= tx <= max(xs) + 1
    assert min(ys) - 1 <= ty <= max(ys) + 1


def test_ideal_slot_bisection(setup):
    grid, engine, placement, allocator = setup
    row = 0
    # x before the first cell -> slot 0; far right -> end slot.
    assert allocator._ideal_slot(row, -100.0) == 0
    assert allocator._ideal_slot(row, 1e9) == len(placement.rows[row])


def test_best_fit_keeps_first_best_on_ties(setup):
    """Tie-breaking pin: with strict ``>``, the first best-goodness
    candidate in scan order wins — in the kernel AND the scalar reference.

    The probe window is replayed with ``trial_insertion`` in the exact
    scan order (rows by distance to the target, slots ascending) to find
    the first maximum; ``_best_fit`` must return it under both paths.
    The inflated optimistic bounds clamp many ratios to 1.0, so genuine
    ties exist in the window (asserted, not assumed).
    """
    grid, engine, placement, allocator = setup
    cfg = allocator.config
    cell = placement.rows[2][0]
    engine.remove_cell(cell)
    tx, ty = allocator._target_point(cell)
    target_row = grid.nearest_row(ty)
    rows = list(range(grid.num_rows))
    cand_rows = sorted(rows, key=lambda r: abs(r - target_row))[
        : 2 * cfg.row_window + 1
    ]
    scan = []
    for r in cand_rows:
        ideal = allocator._ideal_slot(r, tx)
        lo = max(0, ideal - cfg.slot_window)
        hi = min(len(placement.rows[r]), ideal + cfg.slot_window)
        for slot in range(lo, hi + 1):
            t = engine.trial_insertion(cell, r, slot)
            if t.legal:
                scan.append(t)
    assert scan, "probe window produced no legal candidate"
    best_g = max(t.goodness for t in scan)
    ties = [t for t in scan if t.goodness == best_g]
    assert len(ties) >= 2, "fixture produced no goodness tie; pick another cell"
    first = ties[0]

    from repro.sime import allocation
    from repro.sime.allocation import Allocator

    # The fused kernel, the exact vectorized fold (every round dispatched
    # to it) and the scalar reference loop.
    for use_kernel, threshold in ((True, float("inf")), (True, 0),
                                  (False, float("inf"))):
        Allocator.use_kernel = use_kernel
        saved = allocation.EXACT_KERNEL_MIN_CANDIDATES
        allocation.EXACT_KERNEL_MIN_CANDIDATES = threshold
        try:
            row, slot = allocator._best_fit(cell, rows)
        finally:
            Allocator.use_kernel = True
            allocation.EXACT_KERNEL_MIN_CANDIDATES = saved
        assert (row, slot) == (first.row, first.slot), (
            f"use_kernel={use_kernel}, exact threshold={threshold} broke "
            "first-wins tie-breaking"
        )
