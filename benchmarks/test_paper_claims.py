"""The paper's claims (DESIGN.md §7) and the ablations, on sweep records.

Every experiment runs through the one scenario path: ``resolve`` then
``run_sweep``, at scale 100 (the paper's budgets / 100) unless noted.

* One test per claimed scenario (``profile``, ``table1``-``table4``) runs
  it on its registered circuits and requires every
  :mod:`repro.analysis.claims` verdict to hold.  The same verdicts at any
  budget come from ``repro sweep --scenario NAME --scale N``, cached and
  resumable; ``--scale 1`` is the paper's full budget.
* E6 and E10 assert on registered scenarios' serial cells; A1-A3 and A5
  run unregistered :class:`~repro.experiments.registry.Scenario` objects;
  A4 sets SimE against SA and ESP, which are not registry strategies.
  A1's mobility half is a tier-1 unit test
  (``tests/parallel/test_netmodel_partition.py``).

Run explicitly, ``-s`` to see the tables and verdicts::

    PYTHONPATH=src python -m pytest benchmarks -q -s

(tier-1 collection is scoped to ``tests/``).  Serial cells that two
experiments share (Tables 1 and 2 start from the same serial run) run
once per session, through a session cell cache.
"""

from __future__ import annotations

import pytest

from repro.analysis.claims import CLAIMS, HOLDS, check_claims
from repro.analysis.reporting import render_records
from repro.baselines.esp import run_esp
from repro.baselines.sa import SAConfig, run_sa
from repro.experiments.artifacts import CellCache
from repro.experiments.registry import (
    PAPER_ITERS_T2_WP,
    PAPER_ITERS_T4,
    Scenario,
    StrategyGrid,
    resolve,
)
from repro.experiments.sweeps import run_sweep
from repro.netlist.suite import list_scaling_circuits

SCALE = 100
WP = ("wirelength", "power")


@pytest.fixture(scope="session")
def run(tmp_path_factory):
    """Run cells through ``run_sweep`` and a session cell cache, print
    their table, and require every cell to succeed."""
    cache = CellCache(tmp_path_factory.mktemp("cells"))

    def run_cells(cells):
        records = run_sweep(cells, cache=cache)
        print()
        print(render_records(records))
        assert all(r.ok for r in records), [r.cell_id for r in records if not r.ok]
        return records

    return run_cells


def _scenario(name, circuit, grids, objectives=WP, paper_iterations=PAPER_ITERS_T2_WP):
    """An unregistered one-circuit scenario for an ablation."""
    return Scenario(
        name=name, title=name, description=name, objectives=objectives,
        paper_iterations=paper_iterations, circuits=(circuit,), grids=grids,
    )


def _serial(scenario, circuits=None, scale=SCALE):
    return [c for c in resolve(scenario, scale=scale, circuits=circuits)
            if c.strategy == "serial"]


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_paper_claims(name, run):
    """E1-E5: the scenario's DESIGN.md §7 claims hold at scale 100."""
    cells = resolve(name, scale=SCALE)
    verdicts = check_claims(name, run(cells), [c.cell_id for c in cells])
    for v in verdicts:
        print(f"  {v.claim}: {v.status}: {v.detail}")
    assert verdicts
    assert all(v.status == HOLDS for v in verdicts), [
        v.line() for v in verdicts if v.status != HOLDS]


def test_serial_convergence(run):
    """E6 — Figure 1 / Section 3: µ rises substantially over a serial run
    and its second half beats its first, on Table 1's serial cells of
    s1196 and s1238.  The set must not widen: on s3330 at this budget µ
    moves by only 0.001."""
    for r in run(_serial("table1", circuits=("s1196", "s1238"))):
        hist = r.outcome["history"]
        first_mu = hist[0][1]
        assert r.outcome["best_mu"] > first_mu + 0.05, (r.cell_id, first_mu)
        mus = [mu for _, mu, _ in hist]
        mid = len(mus) // 2
        assert sum(mus[mid:]) / len(mus[mid:]) > sum(mus[:mid]) / mid, r.cell_id


def test_scaling_ladder(run):
    """E10 — serial model-time per iteration grows along the synthetic
    ladder (250 to 2000 cells), the top rung well over 3x the bottom;
    scale 500 keeps the big rungs light."""
    per_iter = {
        r.spec["circuit"]: r.outcome["runtime"] / max(1, r.outcome["iterations"])
        for r in run(_serial("scaling", scale=500))
    }
    costs = [per_iter[c] for c in list_scaling_circuits() if c in per_iter]
    assert costs == sorted(costs), "per-iteration cost must grow with size"
    assert costs[-1] > 3 * costs[0], "8x the cells must cost well over 3x"


def test_contiguous_pattern_costs_quality(run):
    """A1 — Type II at p=4 on s1196: the contiguous-only row pattern,
    which never lets a cell leave its row band, ends below the better of
    the paper's fixed and random patterns."""
    scenario = _scenario("a1-patterns", "s1196", (StrategyGrid("type2", (
        ("pattern", ("fixed", "random", "contiguous")), ("p", (4,)))),))
    mu = {r.params["pattern"]: r.outcome["best_mu"]
          for r in run(resolve(scenario, scale=SCALE))}
    assert mu["contiguous"] < max(mu["fixed"], mu["random"]), mu


def test_allocation_window(run):
    """A2 — serial s1196: widening the allocation probe window (rows ×
    slots probed per cell) costs model-time, and the widest window is not
    worse than the narrowest."""
    windows = ((1, 1), (2, 2), (3, 4))
    scenario = _scenario("a2-windows", "s1196", tuple(
        StrategyGrid("serial", (("row_window", (rw,)), ("slot_window", (sw,))))
        for rw, sw in windows))
    outcomes = [r.outcome for r in run(resolve(scenario, scale=SCALE))]
    times = [o["runtime"] for o in outcomes]
    assert times[0] < times[1] < times[2], times
    assert outcomes[2]["best_mu"] >= outcomes[0]["best_mu"] - 0.03


def test_fuzzy_beta(run):
    """A3 — serial s1196, WL+P+D, 32 critical paths: every OWA and-ness
    β gives a valid µ, and pure-min (β=1) does not beat pure-mean (β=0)
    by more than 0.05."""
    scenario = _scenario(
        "a3-beta", "s1196",
        (StrategyGrid("serial", (("beta", (0.0, 0.7, 1.0)),
                                 ("critical_paths", (32,)))),),
        objectives=("wirelength", "power", "delay"),
    )
    mu = {r.spec["beta"]: r.outcome["best_mu"]
          for r in run(resolve(scenario, scale=SCALE))}
    assert all(0 <= m <= 1 for m in mu.values()), mu
    assert mu[1.0] <= mu[0.0] + 0.05, mu


def test_baselines(run):
    """A4 — SimE (Table 1's serial s1196 cell) against SA given a
    comparable move budget: SimE reaches µ > 0.3, and SA does not
    dominate it.  ESP, SimE's wirelength-only ancestor, is shown too."""
    (cell,) = _serial("table1", circuits=("s1196",))
    (sime,) = run([cell])
    iters = cell.spec.iterations
    esp = run_esp(cell.spec)
    sa = run_sa(cell.spec, SAConfig(max_moves=max(5000, iters * 1500), t_floor=1e-5))
    print(f"ESP µ {esp.best_mu:.3f} t {esp.runtime:.2f}; "
          f"SA µ {sa.best_mu:.3f} t {sa.runtime:.2f}")
    mu, t = sime.outcome["best_mu"], sime.outcome["runtime"]
    assert mu > 0.3
    assert mu >= sa.best_mu - 0.05 or t <= sa.runtime, (mu, t, sa.best_mu, sa.runtime)


def test_type3_diversified(run):
    """A5 — Section 7's future work: at p=4 on s1238, diversified Type
    III (per-rank allocators, with or without crossover) at least matches
    plain Type III, less 0.03; the retry threshold is 1/12 of the
    budget."""
    retry = (("retry_frac", (1 / 12,)),)
    scenario = _scenario("a5-type3x", "s1238", (
        StrategyGrid("type3", retry + (("p", (4,)),)),
        StrategyGrid("type3x", retry + (("crossover", (False, True)), ("p", (4,)))),
    ), paper_iterations=PAPER_ITERS_T4)
    mu = {(r.strategy, r.params.get("crossover")): r.outcome["best_mu"]
          for r in run(resolve(scenario, scale=SCALE))}
    plain = mu.pop(("type3", None))
    assert max(mu.values()) >= plain - 0.03, (plain, mu)
