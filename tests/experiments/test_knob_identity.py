"""Golden pin and properties of the run-time knob table (``KNOBS``).

Cell ids and ``cell_key``s are the resume cache's and the artifacts'
identity: forcing a knob must never move them except where the knob is
identity-affecting.  ``fixtures/knob_identity.json`` holds ``[rows,
sha256 of (cell_id, cell_key) rows]`` per scenario, mode and knob set,
generated with the five per-knob ``override_*`` functions the table
replaced.  Every registered scenario (full and smoke) under every knob
set below, and the cells of the CI's ``repro run --circuit`` command
lines, must still produce byte-identical ids and keys.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.cli as cli
from repro.experiments.artifacts import NON_IDENTITY_PARAMS, cell_key
from repro.experiments.registry import KNOBS, list_scenarios, override, resolve

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "knob_identity.json").read_text()
)

KNOB_SETS = [
    {},
    {"cluster": "sim"},
    {"cluster": "socket"},
    {"eval_mode": "scalar"},
    {"eval_mode": "batch"},
    {"eval_mode": "check"},
    {"cluster": "socket", "deadline": 60},
    {"faults": "kill:at=5:attempt=1"},
    {"on_rank_failure": "degrade"},
    {"cluster": "socket", "eval_mode": "check"},
    # The chaos-smoke combination.
    {"cluster": "socket", "deadline": 120, "faults": "kill:rank=2:at=6",
     "on_rank_failure": "degrade"},
]


def _label(knobs):
    return "+".join(f"{k}={knobs[k]}" for k in KNOBS if k in knobs) or "-"


def _digest(cells):
    rows = [[c.cell_id, cell_key(c, version="pin")] for c in cells]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_every_scenario_and_knob_set_matches_the_golden_ids_and_keys():
    got = {}
    for scenario in list_scenarios():
        for smoke in (False, True):
            base = resolve(scenario, scale=100, smoke=smoke)
            for knobs in KNOB_SETS:
                cells = override(base, **knobs)
                mode = "smoke" if smoke else "full"
                key = f"{scenario.name}/{mode}/{_label(knobs)}"
                got[key] = [len(cells), _digest(cells)]
    assert len(got) == 264
    assert sum(rows for rows, _ in got.values()) == 3113
    assert got == GOLDEN["entries"]


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "pinned", GOLDEN["run"], ids=lambda p: " ".join(p["argv"][:8])
)
def test_run_command_lines_build_the_golden_cell(pinned, monkeypatch):
    captured = []

    def fake_run_cell(cell, max_retries=0):
        captured.append(cell)
        raise _Captured

    monkeypatch.setattr(cli, "run_cell", fake_run_cell)
    with pytest.raises(_Captured):
        cli.main(["run", *pinned["argv"]])
    (cell,) = captured
    assert cell.cell_id == pinned["cell_id"]
    assert cell.to_dict()["params"] == pinned["params"]
    assert cell_key(cell, version="pin") == pinned["cell_key"]


# ------------------------------------------------------------ properties

#: Values each knob is forced to below (every choice, plus samples).
_VALUES = {
    "cluster": KNOBS["cluster"].choices,
    "eval_mode": KNOBS["eval_mode"].choices,
    "deadline": (60.0,),
    "faults": ("kill:at=5:attempt=1", "drop:rank=1:at=4"),
    "on_rank_failure": KNOBS["on_rank_failure"].choices,
}


def _population():
    """Every registered cell, full and smoke, plus each on socket (so the
    deadline knob has cells to apply to)."""
    cells = []
    for scenario in list_scenarios():
        for smoke in (False, True):
            cells += resolve(scenario, scale=100, smoke=smoke)
    return cells + override(cells, cluster="socket")


def test_forcing_a_knob_moves_identity_exactly_when_it_should():
    assert set(_VALUES) == set(KNOBS)
    changed = {name: 0 for name in KNOBS}
    for cell in _population():
        for name, knob in KNOBS.items():
            for value in _VALUES[name]:
                (forced,) = override([cell], **{name: value})
                applies = knob.applies(cell.strategy, cell.params_dict())
                if not applies or knob.current(cell) == value:
                    # A knob the cell ignores, or its own value: untouched.
                    assert forced == cell
                    continue
                changed[name] += 1
                assert knob.current(forced) == value
                same_key = cell_key(forced, version="pin") == cell_key(
                    cell, version="pin")
                if name in NON_IDENTITY_PARAMS:
                    assert forced.cell_id == cell.cell_id
                    assert same_key
                else:
                    assert forced.cell_id != cell.cell_id
                    assert f"{name}=" in forced.cell_id
                    assert not same_key
    # Every knob was exercised on some cell.
    assert all(changed.values()), changed


def test_override_dedups_and_validates():
    cells = resolve("speedup", smoke=True)
    forced = override(cells, cluster="sim")
    assert len({c.cell_id for c in forced}) == len(forced) < len(cells)
    assert override(cells) == cells
    assert override(cells, cluster=None, faults=None) == cells
    with pytest.raises(ValueError, match="deadline must be positive"):
        override(cells, deadline=0)
    with pytest.raises(ValueError, match="bad fault"):
        override(cells, faults="kill:when=3")
    with pytest.raises(ValueError, match="on_rank_failure must be one of"):
        override(cells, on_rank_failure="retry")
    with pytest.raises(TypeError, match="unknown knob"):
        override(cells, gamma=1)
