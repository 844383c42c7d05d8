"""Shared fixtures for the protocol-checker suite: a tiny fast circuit."""

from __future__ import annotations

import pytest

from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS
from repro.parallel.runners import ExperimentSpec


@pytest.fixture(scope="package", autouse=True)
def tiny_suite_entry():
    """Register a fast test circuit in the suite registry."""
    PAPER_CIRCUITS["_check120"] = (
        CircuitSpec("_check120", n_gates=120, n_inputs=6, n_outputs=6,
                    frac_dff=0.05, depth=8),
        999,
    )
    yield
    PAPER_CIRCUITS.pop("_check120")
    from repro.netlist.suite import paper_circuit

    paper_circuit.cache_clear()


@pytest.fixture(scope="package")
def tiny_spec():
    return ExperimentSpec(
        circuit="_check120", objectives=("wirelength", "power"),
        iterations=6, seed=3,
    )
