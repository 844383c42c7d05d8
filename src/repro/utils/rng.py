"""Seeded random-number streams.

Every stochastic component in the library draws from an :class:`RngStream`
rather than the global :mod:`random` / :mod:`numpy.random` state.  This gives

* **reproducibility** — a run is a pure function of its seeds;
* **per-rank independence** — parallel strategies hand each rank its own
  stream derived from a root seed, mirroring how the paper ran "the same
  starting solution but with different randomization seeds" (Section 6.3).

Streams are thin wrappers over :class:`numpy.random.Generator` with a few
convenience draws used throughout the SimE code (uniform variates for the
selection operator, permutations for row patterns, etc.).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
import numpy.typing as npt

from repro.utils.hashing import stable_hash

__all__ = ["RngStream", "spawn_streams", "rank_substream"]


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

    # -- stream management ----------------------------------------------
    def spawn(self, n: int) -> list["RngStream"]:
        """Derive ``n`` statistically independent child streams."""
        seq = np.random.SeedSequence(
            self.seed if isinstance(self.seed, int) else None
        )
        children = seq.spawn(n)
        return [
            RngStream(child, name=f"{self.name}.{i}") for i, child in enumerate(children)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(name={self.name!r}, seed={self.seed!r})"


def spawn_streams(root_seed: int, n: int, prefix: str = "rank") -> list[RngStream]:
    """Create ``n`` independent streams for ``n`` parallel ranks.

    Rank ``i`` receives a stream derived from ``(root_seed, i)`` via
    :class:`numpy.random.SeedSequence`, so streams never collide even for
    adjacent seeds — the standard mpi4py-era idiom for per-rank RNGs.
    """
    seq = np.random.SeedSequence(root_seed)
    children = seq.spawn(n)
    return [RngStream(c, name=f"{prefix}{i}") for i, c in enumerate(children)]


def rank_substream(seed: int, rank: int, name: str = "rank") -> RngStream:
    """Deterministic counter-based RNG substream for one rank.

    The stream is a Philox (counter-based) generator whose 128-bit key is
    ``stable_hash((seed, rank))`` — a pure function of the two integers,
    with no spawn-tree state to thread through the program.  That buys
    the guarantees massive fan-out needs (the mrg32k3a independent-stream
    design PyMOSO uses, in numpy form):

    * **reproducible anywhere** — any process can reconstruct rank ``k``'s
      stream from ``(seed, k)`` alone: identical across backends
      (sim/socket), start methods (fork/spawn), hosts, and runs;
    * **pairwise independent** — distinct ``(seed, rank)`` pairs hash to
      distinct keys, and distinct Philox keys index statistically
      independent 2^128-long streams, so no two ranks' draws overlap;
    * **O(1) construction** — no need to spawn ``p`` children to get the
      ``p``-th stream, which matters at p in the hundreds.

    Note the paper-reproduction strategies keep their original
    ``SeedSequence.spawn`` derivation (changing it would perturb every
    pinned benchmark); this is the scheme new cluster-scale code should
    use.
    """
    key = int(stable_hash((int(seed), int(rank)), length=32), 16)
    return RngStream(np.random.Philox(key=key), name=f"{name}{rank}")
