"""Registry resolution: every named scenario yields valid, unique cells."""

from __future__ import annotations

import pytest

from repro.experiments.registry import (
    SCENARIOS,
    STRATEGIES,
    SweepCell,
    base_spec,
    custom_sweep,
    derive_seeds,
    get_scenario,
    list_scenarios,
    resolve,
    scaled_iterations,
)
from repro.netlist.suite import list_all_circuits, list_paper_circuits
from repro.parallel.runners import ExperimentSpec


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_resolves_to_valid_cells(name):
    cells = resolve(name, scale=100)
    assert cells, name
    known_circuits = set(list_all_circuits())
    ids = [c.cell_id for c in cells]
    assert len(ids) == len(set(ids)), "cell ids must be unique"
    for cell in cells:
        assert isinstance(cell, SweepCell)
        assert cell.scenario == name
        assert cell.strategy in STRATEGIES
        assert cell.spec.circuit in known_circuits
        assert cell.spec.iterations >= 1
        params = cell.params_dict()
        assert params.get("p", 1) >= STRATEGIES[cell.strategy].min_p
        if cell.strategy in ("type3", "type3x"):
            assert params["retry_threshold"] >= 1
        if cell.strategy == "type2":
            assert params["pattern"] in ("fixed", "random", "contiguous")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_resolution_is_deterministic(name):
    assert resolve(name, scale=100) == resolve(name, scale=100)


def test_table_scenarios_include_serial_baseline():
    for name in ("table1", "table2", "table3", "table4"):
        strategies = {c.strategy for c in resolve(name)}
        assert "serial" in strategies, name


def test_scaling_and_smoke():
    full = resolve("table2", scale=1)
    scaled = resolve("table2", scale=100)
    smoke = resolve("table2", smoke=True)
    assert full[0].spec.iterations == 3500
    assert scaled[0].spec.iterations == 35
    assert smoke[0].spec.iterations < scaled[0].spec.iterations
    # Smoke shrinks the circuit set but keeps the table's column structure.
    assert {c.spec.circuit for c in smoke} == {"s1196"}
    assert {c.params_dict().get("p") for c in smoke if c.strategy == "type2"} == {
        2, 3, 4, 5,
    }


def test_table4_retry_thresholds_scale_and_dedupe():
    cells = resolve("table4", scale=1)
    retries = {
        c.params_dict()["retry_threshold"] for c in cells if c.strategy == "type3"
    }
    assert retries == {50, 100, 150, 200}
    # Under smoke budgets the four fractions collapse; duplicates must fold.
    smoke = resolve("table4", smoke=True)
    ids = [c.cell_id for c in smoke]
    assert len(ids) == len(set(ids))


def test_profile_scenario_has_both_program_versions():
    cells = resolve("profile", smoke=True)
    versions = {c.spec.objectives for c in cells}
    assert versions == {
        ("wirelength", "power"),
        ("wirelength", "power", "delay"),
    }


def test_circuit_and_scenario_overrides():
    cells = resolve("table1", circuits=["s1238"], seeds=[7, 9])
    assert {c.spec.circuit for c in cells} == {"s1238"}
    assert {c.spec.seed for c in cells} == {7, 9}
    with pytest.raises(KeyError):
        resolve("table1", circuits=["nonexistent"])
    with pytest.raises(KeyError):
        get_scenario("nonexistent")


def test_custom_sweep_grid():
    scenario = custom_sweep(
        circuits=["s1196", "s1238"],
        strategies=["serial", "type2", "type3"],
        p_values=[2, 4],
        patterns=["fixed", "random"],
    )
    cells = resolve(scenario, scale=100)
    by_strategy: dict[str, int] = {}
    for c in cells:
        by_strategy[c.strategy] = by_strategy.get(c.strategy, 0) + 1
    assert by_strategy["serial"] == 2  # one per circuit
    assert by_strategy["type2"] == 2 * 2 * 2  # circuit x pattern x p
    assert by_strategy["type3"] == 2  # p=2 filtered out (needs >= 3)
    with pytest.raises(ValueError):
        custom_sweep(circuits=["s1196"], strategies=["type3"], p_values=[2])


def test_custom_sweep_records_dropped_p_values_structurally():
    # No warning leaks (filterwarnings=error would fail this test if one
    # did); the drop is recorded on the scenario with its reason.
    scenario = custom_sweep(
        circuits=["s1196"], strategies=["type3"], p_values=[2, 4]
    )
    assert scenario.dropped_cells == (("type3[p=2]", "type3 needs p >= 3"),)
    # Dropped points are really excluded from resolution.
    assert {c.params_dict()["p"] for c in resolve(scenario)} == {4}


def test_custom_sweep_clean_grid_drops_nothing():
    scenario = custom_sweep(circuits=["s1196"], strategies=["serial", "type2"])
    assert scenario.dropped_cells == ()


def test_derive_seeds_deterministic_and_distinct():
    a = derive_seeds(1, 5)
    assert a == derive_seeds(1, 5)
    assert len(set(a)) == 5
    assert a != derive_seeds(2, 5)


def test_scaled_iterations_floor():
    assert scaled_iterations(3500, 100) == 35
    assert scaled_iterations(3500, 1000, minimum=20) == 20
    assert scaled_iterations(3500, 1) == 3500


@pytest.mark.parametrize("scale", [0, -1])
def test_scale_below_one_is_refused(scale):
    """A library caller's scale < 1 is an error naming the scale, not a
    silent clamp to the paper's full budget."""
    with pytest.raises(ValueError, match=f"scale must be >= 1, got {scale}"):
        scaled_iterations(3500, scale)
    with pytest.raises(ValueError, match="scale"):
        resolve("table1", scale=scale, circuits=["s1196"])


def test_spec_serialization_roundtrip():
    spec = ExperimentSpec(
        circuit="s1196",
        objectives=("wirelength", "power", "delay"),
        iterations=42,
        seed=9,
        bias=0.1,
    )
    d = spec.to_dict()
    assert d["objectives"] == ["wirelength", "power", "delay"]
    assert ExperimentSpec.from_dict(d) == spec
    # Unknown keys (forward compatibility) are ignored.
    d["future_field"] = True
    assert ExperimentSpec.from_dict(d) == spec


def test_scaling_scenario_walks_the_ladder():
    cells = resolve("scaling", scale=100)
    circuits = [c.spec.circuit for c in cells if c.strategy == "serial"]
    assert circuits == ["synth250", "synth500", "synth1000", "synth2000"]
    assert {c.strategy for c in cells} == {"serial", "type2"}
    # Smoke keeps only the cheapest rung.
    assert {c.spec.circuit for c in resolve("scaling", smoke=True)} == {"synth250"}


def test_knobs_scenario_folds_knobs_into_specs():
    cells = resolve("knobs", scale=100)
    betas = {c.spec.beta for c in cells}
    assert betas == {0.3, 0.7, 1.0}
    biases = {c.spec.bias for c in cells if not c.spec.adaptive_bias}
    assert biases == {-0.1, 0.0, 0.1}
    assert any(c.spec.adaptive_bias for c in cells)
    # Knob overrides are spec fields, not runner params.
    assert all("beta" not in c.params_dict() for c in cells)


def test_retry_scenario_pairs_type3_with_type3x():
    cells = resolve("retry", scale=1)
    by_strategy: dict[str, set] = {}
    for c in cells:
        if c.strategy in ("type3", "type3x"):
            by_strategy.setdefault(c.strategy, set()).add(
                c.params_dict()["retry_threshold"]
            )
    assert by_strategy["type3"] == by_strategy["type3x"]
    assert len(by_strategy["type3"]) == 5  # densified Table-4 axis


def test_shootout_scenario_covers_every_parallel_strategy():
    cells = resolve("shootout", scale=100)
    assert {c.strategy for c in cells} == {
        "serial", "type1", "type2", "type3", "type3x",
    }
    ps = {c.params_dict().get("p") for c in cells if c.strategy != "serial"}
    assert ps == {4}


def test_spec_carries_fuzzy_knobs_roundtrip():
    spec = ExperimentSpec(
        circuit="s1196", beta=0.4, goals=(2.0, 2.5, 4.0), bias=0.05
    )
    d = spec.to_dict()
    assert d["beta"] == 0.4 and d["goals"] == [2.0, 2.5, 4.0]
    back = ExperimentSpec.from_dict(d)
    assert back == spec
    assert isinstance(back.goals, tuple)


def test_listing_order_matches_paper():
    names = [s.name for s in list_scenarios()]
    assert names[:4] == ["table1", "table2", "table3", "table4"]
    # Scenario circuit tuples follow the suite's paper-table order
    # (pinned in tests/netlist/test_suite.py).
    assert get_scenario("table1").circuits == tuple(list_paper_circuits())


# ----------------------------------------------------- speedup / backends


def test_speedup_scenario_covers_all_backends_and_all_strategies():
    cells = resolve("speedup", scale=100)
    strategies = {c.strategy for c in cells}
    assert strategies == {"serial", "type1", "type2", "type3", "type3x"}
    clusters = {c.params_dict().get("cluster") for c in cells}
    assert clusters == {"sim", "socket"}
    # Every (strategy, p) point up to the paper's 8 nodes exists on both
    # backends symmetrically; the socket-only ladder extends type2 past
    # the paper's 8 nodes.
    by_point = {}
    for c in cells:
        params = c.params_dict()
        key = (c.strategy, params.get("p", 1))
        by_point.setdefault(key, set()).add(params["cluster"])
    ladder_points = {("type2", p) for p in (16, 32, 64)}
    for key, backends in by_point.items():
        if key in ladder_points:
            assert backends == {"socket"}, key
        else:
            assert backends == {"sim", "socket"}, key
    # The ladder (and its serial baseline) runs on the cluster-scale
    # rung: paper circuits cannot row-decompose past p = 32.
    for c in cells:
        p = c.params_dict().get("p", 1)
        if (c.strategy, p) in ladder_points:
            assert c.spec.circuit == "synth8000", c.cell_id
    baseline = [
        c for c in cells
        if c.strategy == "serial" and c.spec.circuit == "synth8000"
    ]
    assert len(baseline) == 1
    assert baseline[0].params_dict()["cluster"] == "socket"
    # The shared p axis reaches the paper's 8 nodes; type3 starts at 4
    # (store); the socket ladder climbs to 64.
    ps = {p for (s, p) in by_point if s == "type1"}
    assert ps == {2, 4, 8}
    assert {p for (s, p) in by_point if s == "type2"} == {2, 4, 8, 16, 32, 64}
    assert {p for (s, p) in by_point if s == "type3"} == {4, 8}
    # p=1 is the serial row.
    assert ("serial", 1) in by_point
    # The ladder is excluded from smoke runs (it spawns 16-64 processes
    # per cell, far beyond what a smoke pass should do).
    smoke_ps = {
        c.params_dict().get("p", 1) for c in resolve("speedup", smoke=True)
    }
    assert max(smoke_ps) <= 8


def test_validate_rejects_bad_cluster():
    from repro.experiments.registry import _validate

    with pytest.raises(ValueError, match="unknown cluster backend"):
        _validate("type2", {"p": 2, "cluster": "mpi"})
    with pytest.raises(ValueError, match="in-process only"):
        _validate("profile", {"cluster": "socket"})
    _validate("serial", {"cluster": "socket"})  # fine


def test_override_cluster_rewrites_params_and_ids():
    from repro.experiments.registry import override_cluster

    cells = resolve("smoke", smoke=True)
    forced = override_cluster(cells, "socket")
    assert len(forced) == len(cells)
    for before, after in zip(cells, forced):
        assert after.params_dict()["cluster"] == "socket"
        assert "cluster=socket" in after.cell_id
        assert after.spec == before.spec
    # Forcing sim on cells with no cluster param (they already run on
    # sim) is a complete no-op: ids and cache keys stay untouched.
    assert override_cluster(cells, "sim") == cells
    speedup_cells = resolve("speedup", scale=100)
    sim_pinned = [
        c for c in speedup_cells if c.params_dict().get("cluster") == "sim"
    ]
    assert override_cluster(sim_pinned, "sim") == sim_pinned
    # A scenario pinning several backends per point collapses to one cell
    # per point — rewritten twins dedupe, ids stay unique — and every
    # point survives, the socket-only p up to 64 ladder included.
    socket_forced = override_cluster(speedup_cells, "socket")

    def point(c):
        prm = c.params_dict()
        return (c.strategy, c.spec.circuit, prm.get("p", 1),
                prm.get("pattern"))

    assert {point(c) for c in socket_forced} == {
        point(c) for c in speedup_cells
    }
    assert len({c.cell_id for c in socket_forced}) == len(socket_forced)
    for c in socket_forced:
        assert c.cell_id.count("cluster=") == 1
        assert c.params_dict().get("cluster") == "socket"
    assert max(c.params_dict().get("p", 1) for c in socket_forced) == 64
    with pytest.raises(ValueError, match="unknown cluster backend"):
        override_cluster(cells, "slurm")


def test_override_cluster_leaves_profile_cells_alone():
    from repro.experiments.registry import override_cluster

    cells = resolve("profile", scale=100)
    forced = override_cluster(cells, "socket")
    assert forced == cells


def test_speedup_cell_ids_distinguish_backends():
    ids = [c.cell_id for c in resolve("speedup", scale=100)]
    assert len(ids) == len(set(ids))
    assert any("cluster=sim" in i for i in ids)
    assert any("cluster=socket" in i for i in ids)


def test_override_eval_mode_rewrites_spec_and_ids():
    from repro.experiments.registry import override_eval_mode

    cells = resolve("smoke", smoke=True)
    forced = override_eval_mode(cells, "batch")
    assert len(forced) == len(cells)
    for before, after in zip(cells, forced):
        assert after.spec.eval_mode == "batch"
        assert "eval_mode=batch" in after.cell_id
        assert after.params == before.params  # params never carry the mode
    # Forcing the default mode on default cells is a complete no-op.
    assert override_eval_mode(cells, "scalar") == cells
    # Re-forcing substitutes rather than appending a second tag.
    again = override_eval_mode(forced, "check")
    for c in again:
        assert c.cell_id.count("eval_mode=") == 1
        assert c.spec.eval_mode == "check"
    with pytest.raises(ValueError, match="eval_mode"):
        override_eval_mode(cells, "vectorized")


def test_eval_mode_roundtrips_through_spec_dicts():
    from repro.parallel.runners import ExperimentSpec, make_config

    spec = base_spec("s1196", iterations=5, eval_mode="batch")
    assert spec.eval_mode == "batch"
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    assert make_config(spec).eval_mode == "batch"
    # Old artifacts (no eval_mode key) default to the bit-exact path.
    d = spec.to_dict()
    del d["eval_mode"]
    assert ExperimentSpec.from_dict(d).eval_mode == "scalar"
