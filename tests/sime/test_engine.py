"""Serial SimE loop: convergence, determinism, bookkeeping."""

import pytest

from repro.cost.engine import CostEngine
from repro.layout.grid import RowGrid
from repro.layout.initial import random_placement
from repro.sime.config import SimEConfig
from repro.sime.engine import SimulatedEvolution
from repro.utils.rng import RngStream


def build(small_netlist, objectives=("wirelength", "power"), **cfg):
    grid = RowGrid.for_netlist(small_netlist, num_rows=5)
    engine = CostEngine(small_netlist, grid, objectives=objectives,
                        critical_paths=8)
    config = SimEConfig(**cfg)
    return grid, engine, SimulatedEvolution(engine, config, RngStream(cfg.get("seed", 2)))


def test_run_improves_quality(small_netlist):
    grid, engine, sime = build(small_netlist, max_iterations=25)
    placement = random_placement(grid, RngStream(1))
    start_mu = None
    result = sime.run(placement)
    assert result.iterations == 25
    assert result.history[0].mu <= result.best_mu
    assert result.best_mu > 0.0
    # Wirelength at the end well below the start.
    assert result.history[-1].costs["wirelength"] < result.history[0].costs[
        "wirelength"
    ] * 1.02


def test_run_deterministic(small_netlist):
    g1, _, s1 = build(small_netlist, max_iterations=10)
    r1 = s1.run(random_placement(g1, RngStream(1)))
    g2, _, s2 = build(small_netlist, max_iterations=10)
    r2 = s2.run(random_placement(g2, RngStream(1)))
    assert [h.mu for h in r1.history] == [h.mu for h in r2.history]
    assert r1.best_rows == r2.best_rows


def test_best_tracking_monotone(small_netlist):
    grid, engine, sime = build(small_netlist, max_iterations=20)
    result = sime.run(random_placement(grid, RngStream(1)))
    best_so_far = -1.0
    for rec in result.history:
        best_so_far = max(best_so_far, rec.mu)
    assert result.best_mu == pytest.approx(max(best_so_far, result.history[0].mu),
                                           abs=1e-12) or result.best_mu >= best_so_far


def test_best_placement_materializes(small_netlist):
    grid, engine, sime = build(small_netlist, max_iterations=5)
    result = sime.run(random_placement(grid, RngStream(1)))
    best = result.best_placement(grid)
    best.validate()
    fresh = CostEngine(small_netlist, grid, objectives=("wirelength", "power"))
    fresh.attach(best)
    assert fresh.mu() == pytest.approx(result.best_mu, abs=1e-9)


def test_stall_limit_stops_early(small_netlist):
    grid, engine, sime = build(small_netlist, max_iterations=200, stall_limit=3)
    result = sime.run(random_placement(grid, RngStream(1)))
    assert result.iterations < 200


def test_iteration_records_complete(small_netlist):
    grid, engine, sime = build(small_netlist, max_iterations=6)
    result = sime.run(random_placement(grid, RngStream(1)))
    for i, rec in enumerate(result.history):
        assert rec.iteration == i
        assert 0 <= rec.mu <= 1
        assert rec.num_selected >= 0
        assert rec.model_seconds >= 0
        assert "wirelength" in rec.costs
    # model_seconds is cumulative and non-decreasing.
    secs = [r.model_seconds for r in result.history]
    assert secs == sorted(secs)


def test_delay_objective_runs(small_netlist):
    grid, engine, sime = build(
        small_netlist, objectives=("wirelength", "power", "delay"), max_iterations=8
    )
    result = sime.run(random_placement(grid, RngStream(1)))
    assert "delay" in result.best_costs
    assert result.best_costs["delay"] > 0


def test_work_units_recorded(small_netlist):
    grid, engine, sime = build(small_netlist, max_iterations=4)
    result = sime.run(random_placement(grid, RngStream(1)))
    assert result.work_units["allocation"] > 0
    assert result.work_units["wirelength"] > 0
    assert result.model_seconds > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SimEConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SimEConfig(bias=2.0)
    with pytest.raises(ValueError):
        SimEConfig(stall_limit=0)
