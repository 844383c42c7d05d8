"""Speed-up math and the paper's quality-bracket convention.

Tables 2 and 3 report, per parallel configuration, the runtime — and "in
cases where the parallel algorithm failed to achieve the highest serial
quality, the time shown is for the percentage of serial quality indicated
in brackets".  :func:`quality_bracket` reproduces that convention from a
run's quality-vs-time history.

The ``speedup`` scenario compares the two execution backends, and a
speed-up is only meaningful **within** one clock domain: a virtual
(model-second) parallel time divides a virtual serial baseline, a
wall-clock socket time divides the socket serial baseline.
:func:`backend_speedup` is the None-tolerant ratio the report assembly
uses — a missing or failed baseline yields ``None``, never a mixed-domain
number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.runners import ParallelOutcome

__all__ = [
    "speedup",
    "efficiency",
    "backend_speedup",
    "quality_bracket",
    "BracketResult",
]


def speedup(serial_time: float, parallel_time: float) -> float:
    """Classic speed-up ``T_serial / T_parallel``."""
    if parallel_time <= 0:
        raise ValueError("parallel_time must be > 0")
    return serial_time / parallel_time


def efficiency(serial_time: float, parallel_time: float, p: int) -> float:
    """Parallel efficiency ``speedup / p``."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return speedup(serial_time, parallel_time) / p


def backend_speedup(
    serial_time: float | None, parallel_time: float | None
) -> float | None:
    """Same-clock-domain speed-up, ``None`` when either side is missing.

    Report assembly helper: one backend of a sim/socket pair may have failed
    or not run (e.g. a sharded sweep), and a table cell built from half a
    pair must render as absent rather than raise or divide clocks from
    different domains.
    """
    if serial_time is None or parallel_time is None or parallel_time <= 0:
        return None
    return speedup(serial_time, parallel_time)


@dataclass(frozen=True)
class BracketResult:
    """The paper's table cell: a time, possibly with a quality bracket.

    ``reached`` — parallel run matched the serial best quality; ``time``
    is when it first did.  Otherwise ``time`` is the full runtime and
    ``percent`` the share of serial quality attained (the bracket).
    """

    time: float
    reached: bool
    percent: int

    def cell(self, decimals: int = 1) -> str:
        """Render like the paper: ``"45.0"`` or ``"93.1 (94)"``."""
        t = f"{self.time:.{decimals}f}"
        return t if self.reached else f"{t} ({self.percent})"


def quality_bracket(
    outcome: ParallelOutcome, serial_best_mu: float, tolerance: float = 1e-9
) -> BracketResult:
    """Apply the paper's bracket convention to a parallel outcome.

    Uses the outcome's (iteration, µ, time) history: the reported time is
    the first time µ reached the serial best, else the total runtime with
    the achieved percentage.
    """
    if serial_best_mu <= 0:
        # Degenerate serial baseline: any parallel result trivially matches.
        return BracketResult(time=outcome.runtime, reached=True, percent=100)
    t = outcome.time_to_quality(serial_best_mu - tolerance)
    if t is not None:
        return BracketResult(time=t, reached=True, percent=100)
    pct = int(round(100.0 * max(0.0, outcome.best_mu) / serial_best_mu))
    return BracketResult(time=outcome.runtime, reached=False, percent=min(pct, 99))
