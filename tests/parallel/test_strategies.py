"""Integration tests of the three parallel strategies (small budgets).

These use the small generated circuit via a custom spec-compatible path:
the strategies build problems from the paper-circuit registry, so a tiny
entry is injected for test speed.
"""

import pytest

from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS
from repro.parallel.runners import ExperimentSpec, run_serial
from repro.parallel.type1 import assign_net_owners, partition_cells, run_type1
from repro.parallel.type2 import parallel_iterations, run_type2
from repro.parallel.type3 import run_type3
from repro.parallel.type3x import run_type3_diversified


@pytest.fixture(scope="module", autouse=True)
def tiny_suite_entry():
    """Register a fast test circuit in the suite registry."""
    PAPER_CIRCUITS["_test120"] = (
        CircuitSpec("_test120", n_gates=120, n_inputs=6, n_outputs=6,
                    frac_dff=0.05, depth=8),
        999,
    )
    yield
    PAPER_CIRCUITS.pop("_test120")
    from repro.netlist.suite import paper_circuit

    paper_circuit.cache_clear()


SPEC = ExperimentSpec(circuit="_test120", objectives=("wirelength", "power"),
                      iterations=8, seed=3)


@pytest.fixture(scope="module")
def serial():
    return run_serial(SPEC)


# ---------------------------------------------------------------- type 1
def test_type1_reproduces_serial_trajectory(serial):
    out = run_type1(SPEC, p=3)
    assert out.best_mu == pytest.approx(serial.best_mu, abs=1e-9)
    # Per-iteration µ matches the serial run exactly (Type I invariant):
    # Type I evaluates before each allocation plus a closing round, so its
    # records 1..N are the serial post-allocation records 0..N-1.
    serial_mus = [mu for _, mu, _ in serial.history]
    t1_mus = [mu for _, mu, _ in out.history]
    assert len(t1_mus) == len(serial_mus) + 1
    assert t1_mus[1:] == pytest.approx(serial_mus, abs=1e-9)


def test_type1_is_slower_than_serial(serial):
    for p in (2, 4):
        out = run_type1(SPEC, p=p)
        assert out.runtime > serial.runtime


def test_type1_needs_two_ranks():
    with pytest.raises(ValueError):
        run_type1(SPEC, p=1)


def test_partition_cells_covers_all():
    from repro.netlist.suite import paper_circuit

    nl = paper_circuit("_test120")
    parts = partition_cells(nl, 4)
    flat = sorted(c for part in parts for c in part)
    assert flat == sorted(c.index for c in nl.movable_cells())
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1


def test_net_owners_disjoint_and_complete():
    from repro.netlist.suite import paper_circuit

    nl = paper_circuit("_test120")
    parts = partition_cells(nl, 3)
    owned = assign_net_owners(nl, parts)
    flat = sorted(j for part in owned for j in part)
    assert flat == list(range(nl.num_nets))


# ---------------------------------------------------------------- type 2
def test_type2_budget_formula():
    assert parallel_iterations(3500, 2) == 4000
    assert parallel_iterations(3500, 3) == 4500
    assert parallel_iterations(3500, 5) == 5500
    assert parallel_iterations(5000, 2, 6 / 5, 1 / 5) == 6000
    assert parallel_iterations(5000, 4, 6 / 5, 1 / 5) == 8000


@pytest.mark.parametrize("pattern", ["fixed", "random"])
def test_type2_runs_and_speeds_up(serial, pattern):
    """With compute-dominated costs (cheap network) Type II must beat the
    serial runtime despite its larger iteration budget."""
    from repro.parallel.mpi.netmodel import NetworkModel

    fast_net = NetworkModel(latency=1e-6, bandwidth=1e10)
    out = run_type2(SPEC, p=3, pattern=pattern, network=fast_net)
    assert out.runtime < serial.runtime  # domain decomposition pays off
    assert out.best_mu > 0
    assert out.iterations == parallel_iterations(SPEC.iterations, 3)


def test_type2_small_circuit_comm_bound():
    """On a tiny circuit with the calibrated fast-ethernet model the
    per-iteration communication dominates and Type II does NOT pay off —
    the problem-size dependence the paper discusses."""
    serial = run_serial(SPEC)
    out = run_type2(SPEC, p=3, pattern="fixed")
    assert out.runtime > serial.runtime


def test_type2_deterministic():
    a = run_type2(SPEC, p=3, pattern="random")
    b = run_type2(SPEC, p=3, pattern="random")
    assert a.best_mu == b.best_mu
    assert a.runtime == pytest.approx(b.runtime)
    assert [m for _, m, _ in a.history] == [m for _, m, _ in b.history]


def test_type2_solution_valid():
    out = run_type2(SPEC, p=4, pattern="fixed")
    from repro.layout.grid import RowGrid
    from repro.layout.placement import Placement
    from repro.netlist.suite import paper_circuit

    grid = RowGrid.for_netlist(paper_circuit("_test120"))
    best = Placement.from_rows(grid, out.extras["best_rows"])
    best.validate()


def test_type2_needs_two_ranks():
    with pytest.raises(ValueError):
        run_type2(SPEC, p=1)


@pytest.mark.parametrize("cluster", ["sim", "socket"])
def test_type2_rejects_an_unknown_pattern_before_any_rank(cluster, monkeypatch):
    import repro.parallel.runners as runners_mod

    def no_cluster(*args, **kwargs):
        raise AssertionError("a cluster was built for an invalid pattern")

    monkeypatch.setattr(runners_mod, "make_cluster", no_cluster)
    with pytest.raises(ValueError, match="unknown row pattern 'bogus'"):
        run_type2(SPEC, p=2, pattern="bogus", cluster=cluster)


# ---------------------------------------------------------------- type 3
def test_type3_runtime_tracks_serial(serial):
    out = run_type3(SPEC, p=3, retry_threshold=3)
    assert out.runtime == pytest.approx(serial.runtime, rel=0.35)


def test_type3_quality_at_least_single_thread():
    out = run_type3(SPEC, p=4, retry_threshold=3)
    assert out.best_mu >= max(out.extras["slave_mus"]) - 1e-12


def test_type3_deterministic():
    a = run_type3(SPEC, p=3, retry_threshold=2)
    b = run_type3(SPEC, p=3, retry_threshold=2)
    assert a.best_mu == b.best_mu
    assert a.extras["exchanges"] == b.extras["exchanges"]


def test_type3_validation():
    with pytest.raises(ValueError):
        run_type3(SPEC, p=2, retry_threshold=5)
    with pytest.raises(ValueError):
        run_type3(SPEC, p=3, retry_threshold=0)
    # The diversified variant runs the same driver, so the same checks.
    for crossover in (True, False):
        with pytest.raises(ValueError, match="at least 3 ranks"):
            run_type3_diversified(SPEC, p=2, retry_threshold=5,
                                  crossover=crossover)
        with pytest.raises(ValueError, match="retry_threshold must be >= 1"):
            run_type3_diversified(SPEC, p=3, retry_threshold=0,
                                  crossover=crossover)


# ---------------------------------------------------------------- type 3x
def test_type3x_runs_with_crossover():
    out = run_type3_diversified(SPEC, p=3, retry_threshold=2, crossover=True)
    assert out.best_mu > 0
    assert out.strategy == "type3x"


def test_type3x_without_crossover():
    out = run_type3_diversified(SPEC, p=3, retry_threshold=2, crossover=False)
    assert out.strategy == "type3-diverse"
