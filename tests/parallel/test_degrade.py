"""Survivor degradation: type3/type3x continue after mid-run rank loss.

``on_rank_failure="degrade"`` lets the central-store strategies absorb a
searcher death: the backend stops waiting for the lost rank, the store
closes out with the survivors' contributions, and the outcome records
what was lost.  The default ``"abort"`` must stay exactly as fail-fast
as it always was.
"""

import pytest

from repro.parallel.faults import KILL_EXIT, FaultPlan
from repro.parallel.mpi.comm import CommError
from repro.parallel.runners import ExperimentSpec
from repro.parallel.type3 import run_type3
from repro.parallel.type3x import run_type3_diversified

SPEC = ExperimentSpec(
    circuit="synth250", objectives=("wirelength",), seed=11, iterations=30
)


@pytest.mark.parametrize("cluster", ["socket"])
def test_type3_degrades_onto_survivors(cluster):
    out = run_type3(
        SPEC, p=4, retry_threshold=3, cluster=cluster,
        faults="kill:rank=2:at=6", on_rank_failure="degrade", deadline=120.0,
    )
    degraded = out.extras["degraded"]
    assert degraded["lost_ranks"] == [2]
    assert degraded["p_effective"] == 3
    assert f"exitcode {KILL_EXIT}" in degraded["reasons"]["2"]
    assert out.extras["on_rank_failure"] == "degrade"
    assert out.extras["faults"] == "kill:rank=2:at=6"
    # The outcome is built from the survivors only.
    assert len(out.extras["slave_mus"]) == 2
    assert out.best_mu > 0


def test_type3_abort_stays_fail_fast():
    with pytest.raises(CommError, match="died without result"):
        run_type3(
            SPEC, p=4, retry_threshold=3, cluster="socket",
            faults="kill:rank=2:at=6", deadline=120.0,
        )


def test_type3_rank0_loss_aborts_even_under_degrade():
    """Losing the central store is not survivable: no store, no protocol."""
    with pytest.raises(CommError):
        run_type3(
            SPEC, p=3, retry_threshold=3, cluster="socket",
            faults="kill:rank=0:at=3", on_rank_failure="degrade",
            deadline=120.0,
        )


def test_type3x_degrades_onto_survivors():
    out = run_type3_diversified(
        SPEC, p=4, retry_threshold=3, cluster="socket",
        faults="kill:rank=3:at=6", on_rank_failure="degrade", deadline=120.0,
    )
    degraded = out.extras["degraded"]
    assert degraded["lost_ranks"] == [3]
    assert degraded["p_effective"] == 3
    assert len(out.extras["slave_mus"]) == 2


def test_degrade_without_faults_is_bit_identical_to_abort():
    """The policy only changes behavior when a rank is actually lost:
    clean runs are byte-identical either way (sim backend, so even the
    clocks must agree)."""
    a = run_type3(SPEC, p=3, retry_threshold=3, cluster="sim")
    b = run_type3(
        SPEC, p=3, retry_threshold=3, cluster="sim",
        on_rank_failure="degrade",
    )
    assert a.best_mu == b.best_mu
    assert a.best_costs == b.best_costs
    assert a.extras["rank_clocks"] == b.extras["rank_clocks"]
    assert "degraded" not in b.extras


def test_invalid_policy_rejected():
    with pytest.raises(ValueError, match="on_rank_failure"):
        run_type3(
            SPEC, p=3, retry_threshold=3, cluster="socket",
            on_rank_failure="retry",
        )
