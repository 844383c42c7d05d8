"""Seeded random-number streams.

Every stochastic component in the library draws from an :class:`RngStream`
rather than the global :mod:`random` / :mod:`numpy.random` state.  This gives

* **reproducibility** — a run is a pure function of its seeds;
* **per-rank independence** — parallel strategies hand each rank its own
  stream derived from a root seed (``parallel/runners.py::stream_for``),
  mirroring how the paper ran "the same starting solution but with
  different randomization seeds" (Section 6.3).

Streams are thin wrappers over :class:`numpy.random.Generator` with a few
convenience draws used throughout the SimE code (uniform variates for the
selection operator, permutations for row patterns, etc.).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
import numpy.typing as npt

__all__ = ["RngStream"]


class RngStream:
    """A named, seeded random stream.

    Parameters
    ----------
    seed:
        Any value accepted by :func:`numpy.random.default_rng` (an int, a
        ``SeedSequence``, or a ``BitGenerator`` instance).
    name:
        Optional label used in ``repr`` and error messages; useful when
        debugging parallel runs with one stream per rank.
    """

    __slots__ = ("_gen", "name", "seed")

    def __init__(
        self,
        seed: int | np.random.SeedSequence | np.random.BitGenerator | None = 0,
        name: str = "rng",
    ) -> None:
        self.seed = seed
        self.name = name
        self._gen = np.random.default_rng(seed)

    # -- scalar draws ---------------------------------------------------
    def random(self) -> float:
        """Uniform variate in ``[0, 1)``."""
        return float(self._gen.random())

    def uniform(self, low: float, high: float) -> float:
        """Uniform variate in ``[low, high)``."""
        return float(self._gen.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Integer uniform in ``[low, high)`` (numpy convention)."""
        return int(self._gen.integers(low, high))

    def exponential(self, scale: float) -> float:
        """Exponential variate with the given scale (mean)."""
        return float(self._gen.exponential(scale))

    # -- vector draws ---------------------------------------------------
    def random_vector(self, n: int) -> npt.NDArray[np.float64]:
        """``n`` uniform variates in ``[0, 1)`` as a float64 array."""
        return self._gen.random(n)

    def permutation(self, n: int) -> npt.NDArray[Any]:
        """A random permutation of ``range(n)``."""
        return self._gen.permutation(n)

    def choice(
        self, seq: Sequence[Any], size: int | None = None, replace: bool = True
    ) -> Any:
        """Random choice from a sequence (numpy semantics)."""
        idx = self._gen.choice(len(seq), size=size, replace=replace)
        if size is None:
            return seq[int(idx)]
        return [seq[int(i)] for i in idx]

    def shuffle(self, items: list[Any]) -> None:
        """In-place Fisher–Yates shuffle of a Python list."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self._gen.integers(0, i + 1))
            items[i], items[j] = items[j], items[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(name={self.name!r}, seed={self.seed!r})"
