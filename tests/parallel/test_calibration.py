"""Calibrated work/network models: anchors, invariants, host fitting."""

import pytest

from repro.cost.workmeter import WorkModel
from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS, paper_circuit
from repro.parallel.mpi.calibration import (
    PAPER_SERIAL_SECONDS_PER_ITER,
    calibrate_to_host,
    calibrated_network_model,
    calibrated_work_model,
    fit_work_model,
    measure_host_samples,
)
from repro.parallel.runners import ExperimentSpec, run_serial


def test_anchor_constant():
    assert PAPER_SERIAL_SECONDS_PER_ITER == pytest.approx(92.0 / 3500.0)


def test_work_model_covers_all_hot_categories():
    model = calibrated_work_model()
    for cat in ("allocation", "wirelength", "power", "goodness", "selection",
                "delay", "merge"):
        assert model.cost(cat) > 0, cat


def test_allocation_is_most_expensive_per_unit():
    model = calibrated_work_model()
    alloc = model.cost("allocation")
    for cat in ("wirelength", "power", "selection"):
        assert alloc > model.cost(cat)


def test_network_model_is_fast_ethernet_class():
    net = calibrated_network_model()
    assert 1e-4 <= net.latency <= 5e-3     # MPICH-over-TCP small-message range
    assert 5e6 <= net.bandwidth <= 12.5e6  # <= 100 Mbit/s line rate


def test_serial_s1196_lands_near_paper_per_iteration():
    """The calibration anchor: a serial s1196 WL+P iteration costs ≈ 26 ms
    of model time (within 30 % — unit counts drift slightly with seeds)."""
    spec = ExperimentSpec(
        circuit="s1196", objectives=("wirelength", "power"), iterations=12
    )
    out = run_serial(spec)
    per_iter = out.runtime / out.iterations
    assert per_iter == pytest.approx(PAPER_SERIAL_SECONDS_PER_ITER, rel=0.30)


def test_bigger_circuit_costs_more_per_iteration():
    """No per-circuit fudge factors: s3330's cost emerges from its size."""
    small = run_serial(
        ExperimentSpec(circuit="s1238", objectives=("wirelength", "power"),
                       iterations=6)
    )
    big = run_serial(
        ExperimentSpec(circuit="s3330", objectives=("wirelength", "power"),
                       iterations=6)
    )
    assert big.runtime / big.iterations > 1.8 * (small.runtime / small.iterations)


# ------------------------------------------------------- wall-clock fitting


def test_fit_recovers_an_exact_scale():
    """Samples generated by a uniformly scaled model fit back exactly."""
    base = calibrated_work_model()
    scale = 3.5
    samples = []
    for alloc, wl in ((1000.0, 50.0), (4000.0, 200.0), (9000.0, 700.0)):
        units = {"allocation": alloc, "wirelength": wl}
        model_s = sum(u * base.cost(c) for c, u in units.items())
        samples.append((units, scale * model_s))
    fitted, fit = fit_work_model(samples)
    assert fit.scale == pytest.approx(scale)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.n_samples == 3
    # Per-category *shares* are preserved: uniform scaling only.
    for cat, s in base.seconds_per_unit.items():
        assert fitted.cost(cat) == pytest.approx(s * scale)


def test_fit_rejects_degenerate_samples():
    with pytest.raises(ValueError, match="at least one"):
        fit_work_model([])
    with pytest.raises(ValueError, match="no modelled work"):
        fit_work_model([({"unknown-category": 5.0}, 1.0)])
    with pytest.raises(ValueError, match="negative wall"):
        fit_work_model([({"allocation": 1.0}, -0.5)])


def test_fit_accepts_custom_base_model():
    base = WorkModel(seconds_per_unit={"allocation": 2.0})
    fitted, fit = fit_work_model([({"allocation": 10.0}, 40.0)], base=base)
    assert fit.scale == pytest.approx(2.0)
    assert fitted.cost("allocation") == pytest.approx(4.0)


def test_calibrate_to_host_measures_through_socket_backend():
    """End to end on this host: real one-rank processes, positive scale,
    model-seconds now tracking measured wall time."""
    samples = measure_host_samples(circuit="s1196", budgets=(2, 4))
    assert len(samples) == 2
    for units, wall in samples:
        assert units.get("allocation", 0.0) > 0.0
        assert wall > 0.0
    fitted, fit = calibrate_to_host(circuit="s1196", budgets=(2, 4))
    assert fit.scale > 0.0 and fit.n_samples == 2
    # The fitted model prices the measured workloads near their walls
    # (single shared scale, so not exact per sample).
    units, wall = samples[-1]
    priced = sum(u * fitted.cost(c) for c, u in units.items())
    assert priced == pytest.approx(wall, rel=0.8)


def test_measure_host_samples_validates_budgets():
    with pytest.raises(ValueError, match=">= 1"):
        measure_host_samples(budgets=(0,))
