"""ClusterBackend protocol: one SPMD contract, both executions.

Pins the tentpole invariants: ``make_cluster`` builds conforming
backends, every strategy runner executes on both, and threading the
``cluster="sim"`` default through the runners changed nothing — sim
results are bit-identical to a direct pre-protocol run.
"""

import pytest

from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS
from repro.parallel.mpi.backend import (
    CLUSTERS,
    ClusterBackend,
    ClusterRunResult,
    make_cluster,
)
from repro.parallel.mpi.simcluster import SimCluster
from repro.parallel.mpi.socket_backend import SocketCluster
from repro.parallel.runners import ExperimentSpec, run_serial
from repro.parallel.type1 import run_type1
from repro.parallel.type2 import run_type2
from repro.parallel.type3 import run_type3
from repro.parallel.type3x import run_type3_diversified


@pytest.fixture(scope="module", autouse=True)
def tiny_suite_entry():
    PAPER_CIRCUITS["_testbk"] = (
        CircuitSpec("_testbk", n_gates=100, n_inputs=5, n_outputs=5,
                    frac_dff=0.05, depth=7),
        987,
    )
    yield
    PAPER_CIRCUITS.pop("_testbk")
    from repro.netlist.suite import paper_circuit

    paper_circuit.cache_clear()


SPEC = ExperimentSpec(circuit="_testbk", objectives=("wirelength", "power"),
                      iterations=4, seed=7)


def _echo(comm):
    comm.meter.charge("allocation", 1.0)
    return comm.gather(comm.rank, root=0)


def test_make_cluster_builds_conforming_backends():
    for kind, cls, clock in (
        ("sim", SimCluster, "model"),
        ("socket", SocketCluster, "wall"),
    ):
        cl = make_cluster(kind, 2)
        assert isinstance(cl, cls)
        assert isinstance(cl, ClusterBackend)
        assert cl.clock == clock and cl.size == 2
        res = cl.run(_echo)
        assert isinstance(res, ClusterRunResult)
        assert res.results[0] == [0, 1]
        assert len(res.clocks) == 2 and len(res.meters) == 2
        assert res.makespan >= 0


def test_make_cluster_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown cluster backend"):
        make_cluster("slurm", 2)
    assert CLUSTERS == ("sim", "socket")


def test_make_cluster_timeout_threads_through():
    cl = make_cluster("socket", 2, timeout=42.0)
    assert cl.timeout == 42.0


@pytest.mark.parametrize("runner,kwargs", [
    (run_type1, {"p": 2}),
    (run_type2, {"p": 2, "pattern": "random"}),
    (run_type3, {"p": 3, "retry_threshold": 1}),
    (run_type3_diversified, {"p": 3, "retry_threshold": 1}),
])
def test_every_strategy_runs_on_both_backends(runner, kwargs):
    sim = runner(SPEC, cluster="sim", **kwargs)
    sock = runner(SPEC, cluster="socket", **kwargs)
    for out in (sim, sock):
        assert 0.0 <= out.best_mu <= 1.0
        assert out.runtime > 0.0
        assert out.p == kwargs["p"]
    # socket outcomes label their clock domain and carry both clocks.
    assert sock.extras["cluster"] == "socket"
    assert sock.extras["wall_seconds"] > 0.0
    assert len(sock.extras["model_seconds"]) == kwargs["p"]
    assert "cluster" not in sim.extras  # sim extras unchanged vs pre-protocol


def test_unknown_cluster_rejected_by_runners():
    with pytest.raises(ValueError, match="unknown cluster backend"):
        run_type2(SPEC, p=2, cluster="mpi")
    with pytest.raises(ValueError, match="unknown cluster backend"):
        run_serial(SPEC, cluster="mpi")


def test_sim_default_is_bit_identical_to_explicit_sim():
    """cluster='sim' is the default and a pure pass-through."""
    a = run_type2(SPEC, p=2, pattern="fixed")
    b = run_type2(SPEC, p=2, pattern="fixed", cluster="sim")
    assert a.to_dict() == b.to_dict()


def test_type1_on_socket_reproduces_serial_quality():
    """Type I replays the serial search on any backend (it broadcasts the
    master's deterministic trajectory), so even real-process runs land on
    the serial µ exactly."""
    serial = run_serial(SPEC)
    sock = run_type1(SPEC, p=2, cluster="socket")
    assert sock.best_mu == pytest.approx(serial.best_mu, abs=1e-12)


def test_serial_on_socket_matches_sim_quality_with_wall_runtime():
    sim = run_serial(SPEC)
    sock = run_serial(SPEC, cluster="socket")
    assert sock.best_mu == pytest.approx(sim.best_mu, abs=1e-12)
    assert sock.best_costs == sim.best_costs
    assert sock.extras["model_seconds"] == pytest.approx(sim.runtime)
    assert sock.runtime > 0.0  # wall-clock, not model time
