"""Row-allocation patterns for Type II domain decomposition.

The paper compares two ways of handing placement rows to slaves each
iteration (Section 6.2):

* the **fixed alternating pattern** of Kling & Banerjee [5]: "in the even
  iterations, each slave gets a slice of K/m rows ... in the odd iterations
  the j-th slave gets the set of rows j, j+m, j+2m, and so on" — with this
  pattern "each cell can move to any position on the grid in at most two
  steps";
* the **random pattern** of Sait et al. [7]: a fresh random permutation of
  the rows is split into m groups each iteration.

A plain contiguous-only pattern is provided for the mobility ablation
(A1 in DESIGN.md): it never lets a cell leave its row band, demonstrating
why the alternation matters.

All patterns return a list of ``m`` row-index lists that partition
``range(num_rows)``; every processor always receives at least one row
(``num_rows >= m`` is required).
"""

from __future__ import annotations

from repro.utils.rng import RngStream

__all__ = [
    "ROW_PATTERNS",
    "check_pattern",
    "fixed_row_pattern",
    "random_row_pattern",
    "contiguous_row_pattern",
    "pattern_by_name",
]

#: The pattern names :func:`pattern_by_name` dispatches on.
ROW_PATTERNS = ("fixed", "random", "contiguous")


def check_pattern(name: str) -> None:
    """The one row-pattern name check every caller shares."""
    if name not in ROW_PATTERNS:
        raise ValueError(f"unknown row pattern {name!r}")


def _check(num_rows: int, m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if num_rows < m:
        raise ValueError(
            f"cannot split {num_rows} rows among {m} processors "
            "(every processor needs at least one row)"
        )


def contiguous_row_pattern(num_rows: int, m: int) -> list[list[int]]:
    """Contiguous slices of ``~num_rows/m`` rows (np.array_split sizing)."""
    _check(num_rows, m)
    base, extra = divmod(num_rows, m)
    out: list[list[int]] = []
    start = 0
    for j in range(m):
        count = base + (1 if j < extra else 0)
        out.append(list(range(start, start + count)))
        start += count
    return out


def strided_row_pattern(num_rows: int, m: int) -> list[list[int]]:
    """Strided interleave: slave ``j`` gets rows ``j, j+m, j+2m, ...``."""
    _check(num_rows, m)
    return [list(range(j, num_rows, m)) for j in range(m)]


def fixed_row_pattern(num_rows: int, m: int, iteration: int) -> list[list[int]]:
    """The Kling–Banerjee alternating pattern (see module docstring).

    Even iterations: contiguous slices; odd iterations: strided interleave.
    """
    _check(num_rows, m)
    if iteration % 2 == 0:
        return contiguous_row_pattern(num_rows, m)
    return strided_row_pattern(num_rows, m)


def random_row_pattern(num_rows: int, m: int, rng: RngStream) -> list[list[int]]:
    """A fresh random permutation of rows split into ``m`` groups."""
    _check(num_rows, m)
    perm = [int(v) for v in rng.permutation(num_rows)]
    base, extra = divmod(num_rows, m)
    out: list[list[int]] = []
    start = 0
    for j in range(m):
        count = base + (1 if j < extra else 0)
        out.append(sorted(perm[start : start + count]))
        start += count
    return out


def pattern_by_name(
    name: str, num_rows: int, m: int, iteration: int, rng: RngStream
) -> list[list[int]]:
    """Dispatch on the paper's pattern names: ``fixed`` / ``random`` /
    ``contiguous`` (ablation)."""
    check_pattern(name)
    if name == "fixed":
        return fixed_row_pattern(num_rows, m, iteration)
    if name == "random":
        return random_row_pattern(num_rows, m, rng)
    return contiguous_row_pattern(num_rows, m)
