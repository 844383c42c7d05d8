"""DESIGN §7 claims on in-memory sweep records: hold, break, lack a cell."""

from __future__ import annotations

import pytest

from repro.analysis.claims import CLAIMS, FAILS, HOLDS, UNCHECKED, check_claims
from repro.experiments.artifacts import RunRecord
from repro.experiments.registry import SCENARIOS, base_spec
from repro.parallel.runners import ParallelOutcome

WP = ("wirelength", "power")
WPD = ("wirelength", "power", "delay")
P = (2, 3, 4, 5)


def _rec(strategy, *, circuit="s1494", objectives=WP, mu=0.6, t=10.0,
         reach=None, costs=None, extras=None, ok=True, **params):
    """One record; µ first reaches ``mu`` at model-time ``reach`` (default
    ``t``)."""
    shown = {"objectives": objectives} if strategy == "profile" else params
    label = ",".join(
        f"{k}={'+'.join(v) if isinstance(v, tuple) else v}"
        for k, v in shown.items())
    cell_id = f"{circuit}/seed1/{strategy}" + (f"[{label}]" if label else "")
    spec = base_spec(circuit, objectives, 10)
    outcome = ParallelOutcome(
        strategy, circuit, objectives, params.get("p", 1), 10, t, mu,
        costs or {name: 1.0 for name in objectives},
        [(0, 0.3, 0.0), (10, mu, t if reach is None else reach)],
        extras or {},
    )
    return RunRecord(
        scenario="test", cell_id=cell_id, strategy=strategy,
        spec=spec.to_dict(), params=params, ok=ok,
        error=None if ok else "boom",
        outcome=outcome.to_dict() if ok else None, wall_seconds=0.0,
    )


def _shares(allocation=0.95, wirelength=0.03, goodness=0.01):
    return {"shares": {"allocation": allocation, "wirelength": wirelength,
                       "goodness": goodness}}


#: Per claimed scenario, the (strategy, kwargs) of a cell set every
#: claim holds on: Type I a flat slowdown with serial quality, Type II
#: reaching serial µ sooner as p grows, Type III at serial runtime within
#: 0.01 of serial µ, allocation dominating both profile versions.
_HOLDING = {
    "profile": [("profile", {"objectives": v, "extras": _shares()})
                for v in (WP, WPD)],
    "table1": [("serial", {})]
    + [("type1", {"p": p, "t": 12.0 + 0.1 * p}) for p in P],
    "table2": [("serial", {})]
    + [("type2", {"pattern": pat, "p": p, "t": 8.0, "reach": 6.0 - 0.5 * p})
       for pat in ("fixed", "random") for p in P],
    "table3": [("serial", {"objectives": WPD})]
    + [("type2", {"objectives": WPD, "pattern": pat, "p": p, "t": 8.0,
                  "reach": 6.0 - 0.5 * p})
       for pat in ("fixed", "random") for p in P],
    "table4": [("serial", {})]
    + [("type3", {"retry_threshold": k, "p": p, "mu": 0.59})
       for k in (1, 2) for p in (3, 4, 5)],
}


def _records(scenario, over=None):
    """The holding cell set, with ``over[cell_id]`` kwargs applied."""
    over = over or {}
    out = []
    for strategy, kwargs in _HOLDING[scenario]:
        rec = _rec(strategy, **kwargs)
        if rec.cell_id in over:
            rec = _rec(strategy, **{**kwargs, **over[rec.cell_id]})
        out.append(rec)
    return out


def _fixed_and_random(pattern_ps, **kwargs):
    return {f"s1494/seed1/type2[pattern={pat},p={p}]": kwargs
            for pat, ps in pattern_ps.items() for p in ps}


def test_claims_are_keyed_by_registered_scenarios():
    assert set(CLAIMS) == {"profile", "table1", "table2", "table3", "table4"}
    assert set(CLAIMS) <= set(SCENARIOS)
    assert check_claims("smoke", _records("table1")) == []


@pytest.mark.parametrize("scenario", sorted(_HOLDING))
def test_every_claim_holds_on_a_holding_cell_set(scenario):
    records = _records(scenario)
    verdicts = check_claims(scenario, records, [r.cell_id for r in records])
    assert [v.claim for v in verdicts] == [c.name for c in CLAIMS[scenario]]
    assert [v.status for v in verdicts] == [HOLDS] * len(verdicts), verdicts
    assert all(v.line().endswith(": holds") for v in verdicts)


#: (scenario, index of the claim broken, cell overrides, a number the
#: verdict must name).
_BREAKS = [
    ("profile", 0, {"s1494/seed1/profile[objectives=wirelength+power]":
                    {"extras": _shares(allocation=0.85)}}, "0.8500"),
    ("profile", 1, {"s1494/seed1/profile[objectives=wirelength+power+delay]":
                    {"extras": _shares(wirelength=0.08)}}, "0.0900"),
    ("table1", 0, {"s1494/seed1/type1[p=2]": {"t": 9.0}}, "0.9000"),
    ("table1", 1, {"s1494/seed1/type1[p=5]": {"t": 16.0}}, "1.3115"),
    ("table1", 2, {"s1494/seed1/type1[p=3]": {"mu": 0.61}}, "0.01"),
    ("table2", 0, _fixed_and_random({"fixed": (4, 5)}, t=8.0, reach=6.0),
     "6.0000"),
    ("table2", 1, _fixed_and_random({"random": (5,)}, t=11.0, reach=11.0),
     "11.0000"),
    ("table2", 2, _fixed_and_random({"random": (4, 5)}, t=8.0, reach=4.9),
     "9.8000"),
    ("table3", 0, {"s1494/seed1/type2[pattern=random,p=3]":
                   {"costs": {"wirelength": 1.0, "power": 1.0}}}, "7 of 8"),
    ("table3", 1, _fixed_and_random({"random": (4, 5)}, t=8.0, reach=6.0),
     "6.0000"),
    ("table3", 2, _fixed_and_random({"fixed": (5,), "random": (5,)},
                                    t=11.0, reach=11.0), "11.0000"),
    ("table4", 0, {"s1494/seed1/type3[retry_threshold=1,p=4]": {"t": 14.0}},
     "1.4000"),
    ("table4", 1, {f"s1494/seed1/type3[retry_threshold=2,p={p}]": {"mu": 0.55}
                   for p in (3, 4, 5)}, "0.5500"),
    ("table4", 2, {f"s1494/seed1/type3[retry_threshold={k},p={p}]": {"mu": 0.57}
                   for k in (1, 2) for p in (3, 4, 5)}, "0.5700"),
]


@pytest.mark.parametrize(
    "scenario, index, over, number", _BREAKS,
    ids=[f"{s}-{CLAIMS[s][i].name.split()[0]}-{i}" for s, i, _, _ in _BREAKS])
def test_a_broken_claim_does_not_hold_and_names_its_numbers(
    scenario, index, over, number,
):
    records = _records(scenario, over)
    verdicts = check_claims(scenario, records, [r.cell_id for r in records])
    broken = verdicts[index]
    assert broken.status == FAILS
    assert broken.line() == f"{broken.claim}: does not hold: {broken.detail}"
    assert number in broken.detail, broken.detail


@pytest.mark.parametrize("scenario", sorted(_HOLDING))
def test_a_lacking_cell_leaves_every_claim_unchecked(scenario):
    records = _records(scenario)
    planned = [r.cell_id for r in records]
    gone = records[-1].cell_id
    for subset, plan in (
        (records[:-1], planned),  # a shard or an interrupted run
        (records[:-1], ()),  # no plan: the claims find the gap themselves
        (records[:-1] + [_rec(records[-1].strategy, ok=False,
                              **_HOLDING[scenario][-1][1])], planned),  # failed
    ):
        verdicts = check_claims(scenario, subset, plan)
        assert [v.status for v in verdicts] == [UNCHECKED] * len(verdicts)
        assert all(gone in v.detail for v in verdicts), verdicts


@pytest.mark.parametrize("scenario", sorted(_HOLDING))
def test_a_planned_circuit_without_records_leaves_every_claim_unchecked(scenario):
    """A shard can hold every cell of one circuit and none of another:
    the cells it has would pass, but the plan is not met."""
    records = _records(scenario)
    planned = [r.cell_id for r in records] + ["s1238/seed1/serial"]
    verdicts = check_claims(scenario, records, planned)
    assert [v.status for v in verdicts] == [UNCHECKED] * len(verdicts)
    assert all("s1238/seed1/serial" in v.detail for v in verdicts)


def test_no_records_are_not_checked():
    verdicts = check_claims("table2", [])
    assert verdicts and all(v.status == UNCHECKED for v in verdicts)
