"""Shared utilities: seeded RNG streams, hashing, validation."""

from repro.utils.hashing import canonical_json, stable_hash
from repro.utils.rng import RngStream, spawn_streams
from repro.utils.validation import check_positive, check_probability, check_in_range

__all__ = [
    "RngStream",
    "spawn_streams",
    "canonical_json",
    "stable_hash",
    "check_positive",
    "check_probability",
    "check_in_range",
]
