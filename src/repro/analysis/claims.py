"""The paper's acceptance claims (DESIGN §7), checked on sweep records.

Each claim is a shape claim of the paper's narrative — Type I is a
slowdown, Type II speeds up with p, allocation dominates the profile —
stated as a check over the
:class:`~repro.experiments.artifacts.RunRecord`\\ s of one registered
scenario.  :data:`CLAIMS` keys them by scenario name, and
:func:`check_claims` returns one :class:`Verdict` per claim:

* ``holds``;
* ``does not hold``, with the numbers it compared;
* ``not checked``, with the cells it lacked.

A claim never holds on a partial or failed cell set: every planned cell
must have an ok record, and every cell a claim reads must be there (so a
``--shard i/N`` run is never checked).  The thresholds carry the slack
that scaled budgets need; they are the same at any ``--scale``, so
``repro sweep --scenario table2 --scale 1`` checks Table 2 at the paper's
full budget.  Only the ``repro sweep`` command imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.analysis.speedup import quality_bracket

if TYPE_CHECKING:  # import cycle guard: experiments.artifacts imports runners
    from repro.experiments.artifacts import RunRecord

__all__ = ["HOLDS", "FAILS", "UNCHECKED", "Claim", "Verdict", "CLAIMS", "check_claims"]

HOLDS = "holds"
FAILS = "does not hold"
UNCHECKED = "not checked"

#: Processor counts of Tables 1-3, and of Table 4 (Type III needs p >= 3).
_P = (2, 3, 4, 5)
_P_T3 = (3, 4, 5)
_PROFILE_VERSIONS = (("wirelength", "power"), ("wirelength", "power", "delay"))
_EVAL_CATEGORIES = ("wirelength", "power", "goodness", "delay")

#: One comparison: did it hold, and the numbers it compared.
Comparison = tuple[bool, str]
_Group = tuple[Any, Any]


@dataclass(frozen=True)
class Verdict:
    """One claim's outcome; ``detail`` holds the compared numbers (or the
    lacking cells), and :meth:`line` shows them unless the claim holds."""

    claim: str
    status: str
    detail: str = ""

    def line(self) -> str:
        if self.status == HOLDS:
            return f"{self.claim}: {HOLDS}"
        return f"{self.claim}: {self.status}: {self.detail}"


@dataclass(frozen=True)
class Claim:
    """A DESIGN §7 claim: ``check`` yields the comparisons it makes."""

    name: str
    check: Callable[["_Cells"], Iterable[Comparison]]


class _Missing(Exception):
    """A cell a claim reads has no ok record."""


class _Cells:
    """Ok records grouped by ``(circuit, seed)``, found by strategy and
    by spec fields or runner params."""

    def __init__(self, records: Iterable["RunRecord"]):
        self.groups: dict[_Group, list["RunRecord"]] = {}
        for r in records:
            key = (r.spec.get("circuit"), r.spec.get("seed"))
            self.groups.setdefault(key, []).append(r)
        if not self.groups:
            raise _Missing("every cell")

    def find(self, group: _Group, strategy: str, **want: Any) -> "RunRecord":
        for r in self.groups[group]:
            fields = {**r.spec, **r.params}
            if r.strategy == strategy and all(
                    fields.get(k) == v for k, v in want.items()):
                return r
        label = ",".join(f"{k}={_fmt(v)}" for k, v in want.items())
        raise _Missing(f"{group[0]}/seed{group[1]}/{strategy}"
                       + (f"[{label}]" if label else ""))

    def all(self, group: _Group, strategy: str) -> list["RunRecord"]:
        return [r for r in self.groups[group] if r.strategy == strategy]


def _fmt(v: Any) -> str:
    return "+".join(map(str, v)) if isinstance(v, (list, tuple)) else str(v)


def _mu(r: "RunRecord") -> float:
    return float((r.outcome or {})["best_mu"])


def _t(r: "RunRecord") -> float:
    return float((r.outcome or {})["runtime"])


# --- E1: Section 4 profile --------------------------------------------------


def _profiles(cells: _Cells) -> Iterator[tuple[str, dict[str, float]]]:
    for g in cells.groups:
        for version in _PROFILE_VERSIONS:
            r = cells.find(g, "profile", objectives=list(version))
            shares = (r.outcome or {}).get("extras", {}).get("shares", {})
            yield f"{g[0]} {'-'.join(version)}", shares


def _e1_allocation(cells: _Cells) -> Iterator[Comparison]:
    for label, shares in _profiles(cells):
        a = shares.get("allocation", 0.0)
        yield a > 0.90, f"{label}: allocation {a:.4f} > 0.90"


def _e1_evaluation(cells: _Cells) -> Iterator[Comparison]:
    for label, shares in _profiles(cells):
        e = sum(shares.get(c, 0.0) for c in _EVAL_CATEGORIES)
        yield e < 0.07, f"{label}: evaluation {e:.4f} < 0.07"


# --- E2: Table 1, Type I ----------------------------------------------------


def _type1_ratios(
    cells: _Cells,
) -> Iterator[tuple[str, "RunRecord", list["RunRecord"]]]:
    for g in cells.groups:
        serial = cells.find(g, "serial")
        yield g[0], serial, [cells.find(g, "type1", p=p) for p in _P]


def _e2_slowdown(cells: _Cells) -> Iterator[Comparison]:
    for c, s, t1 in _type1_ratios(cells):
        low = min(_t(r) / _t(s) for r in t1)
        yield low > 1.0, f"{c}: min Type I/serial runtime {low:.4f} > 1"


def _e2_flat(cells: _Cells) -> Iterator[Comparison]:
    for c, s, t1 in _type1_ratios(cells):
        ratios = [_t(r) / _t(s) for r in t1]
        spread = max(ratios) / min(ratios)
        yield spread < 1.25, f"{c}: max/min ratio over p {spread:.4f} < 1.25"


def _e2_quality(cells: _Cells) -> Iterator[Comparison]:
    for c, s, t1 in _type1_ratios(cells):
        gap = max(abs(_mu(r) - _mu(s)) for r in t1)
        yield gap <= 1e-9, f"{c}: max |µ_p - µ_serial| {gap:.3g} <= 1e-9"


# --- E3/E4: Tables 2 and 3, Type II -----------------------------------------
#
# Aggregated over the circuit set, as the paper's narrative is: its own
# Table 2 has per-circuit violations (s1238's fixed-pattern times grow
# with p), so per-circuit monotonicity would be wrong even against it.


def _type2_totals(cells: _Cells) -> tuple[float, dict[tuple[str, int], float]]:
    """The serial runtime total, and each (pattern, p)'s total
    quality-bracket time (the paper's table cell) over the groups."""
    serial_total = 0.0
    totals = {(pat, p): 0.0 for pat in ("fixed", "random") for p in _P}
    for g in cells.groups:
        s = cells.find(g, "serial")
        serial_total += _t(s)
        for pat, p in totals:
            r = cells.find(g, "type2", pattern=pat, p=p)
            totals[pat, p] += quality_bracket(r.parallel_outcome(), _mu(s)).time
    return serial_total, totals


def _growth(slack: float) -> Callable[[_Cells], Iterator[Comparison]]:
    def check(cells: _Cells) -> Iterator[Comparison]:
        _, agg = _type2_totals(cells)
        for pat in ("fixed", "random"):
            best = min(agg[pat, 4], agg[pat, 5])
            yield best <= agg[pat, 2] * slack, (
                f"{pat}: min(p=4, p=5) {best:.4f} <= p=2 {agg[pat, 2]:.4f} "
                f"x {slack:.2f}")
    return check


def _e3_beats_serial(cells: _Cells) -> Iterator[Comparison]:
    serial, agg = _type2_totals(cells)
    yield agg["random", 5] < serial, (
        f"random p=5 {agg['random', 5]:.4f} < serial {serial:.4f}")


def _e3_random_competitive(cells: _Cells) -> Iterator[Comparison]:
    _, agg = _type2_totals(cells)
    rnd = agg["random", 4] + agg["random", 5]
    fxd = agg["fixed", 4] + agg["fixed", 5]
    yield rnd <= fxd * 1.15, f"random {rnd:.4f} <= fixed {fxd:.4f} x 1.15"


def _e4_delay(cells: _Cells) -> Iterator[Comparison]:
    for g in cells.groups:
        t2 = [cells.find(g, "type2", pattern=pat, p=p)
              for pat in ("fixed", "random") for p in _P]
        n = sum("delay" in (r.outcome or {}).get("best_costs", {}) for r in t2)
        yield n == len(t2), f"{g[0]}: {n} of {len(t2)} carry a delay cost"


def _e4_beats_serial(cells: _Cells) -> Iterator[Comparison]:
    serial, agg = _type2_totals(cells)
    best = min(agg["random", 5], agg["fixed", 5])
    yield best < serial, f"min(random, fixed) p=5 {best:.4f} < serial {serial:.4f}"


# --- E5: Table 4, Type III --------------------------------------------------


def _type3_grid(
    cells: _Cells,
) -> Iterator[tuple[str, "RunRecord", dict[tuple[int, int], "RunRecord"]]]:
    """Per group: serial, and type3 by (retry threshold, p) for every
    threshold present (scaling can merge the paper's four) and every p."""
    for g in cells.groups:
        serial = cells.find(g, "serial")
        retries = sorted({r.params["retry_threshold"] for r in cells.all(g, "type3")})
        if not retries:
            raise _Missing(f"{g[0]}/seed{g[1]}/type3")
        yield g[0], serial, {
            (k, p): cells.find(g, "type3", retry_threshold=k, p=p)
            for k in retries for p in _P_T3
        }


def _e5_runtime(cells: _Cells) -> Iterator[Comparison]:
    for c, s, t3 in _type3_grid(cells):
        ratios = [_t(r) / _t(s) for r in t3.values()]
        lo, hi = min(ratios), max(ratios)
        yield 0.65 < lo and hi < 1.35, (
            f"{c}: Type III/serial runtime {lo:.4f}..{hi:.4f} within 0.65..1.35")


def _e5_retry(cells: _Cells) -> Iterator[Comparison]:
    for c, _s, t3 in _type3_grid(cells):
        lo, hi = min(k for k, _ in t3), max(k for k, _ in t3)
        mean_lo = sum(_mu(t3[lo, p]) for p in _P_T3) / len(_P_T3)
        mean_hi = sum(_mu(t3[hi, p]) for p in _P_T3) / len(_P_T3)
        yield mean_hi >= mean_lo - 0.02, (
            f"{c}: mean µ at retry {hi} {mean_hi:.4f} >= at retry {lo} "
            f"{mean_lo:.4f} - 0.02")


def _e5_reaches_serial(cells: _Cells) -> Iterator[Comparison]:
    for c, s, t3 in _type3_grid(cells):
        best = max(_mu(r) for r in t3.values())
        yield best >= _mu(s) - 0.02, (
            f"{c}: best Type III µ {best:.4f} >= serial µ {_mu(s):.4f} - 0.02")


#: Scenario name -> its DESIGN §7 claims, in the order they print.
CLAIMS: dict[str, tuple[Claim, ...]] = {
    "profile": (
        Claim("E1 allocation share > 0.90 in every profile", _e1_allocation),
        Claim("E1 evaluation categories < 0.07 combined", _e1_evaluation),
    ),
    "table1": (
        Claim("E2 Type I is a slowdown at every p", _e2_slowdown),
        Claim("E2 Type I runtime ratio is flat in p", _e2_flat),
        Claim("E2 Type I quality equals serial", _e2_quality),
    ),
    "table2": (
        Claim("E3 p=4 or p=5 keeps the p=2 time, both patterns", _growth(1.10)),
        Claim("E3 random p=5 beats serial in total", _e3_beats_serial),
        Claim("E3 random is competitive with fixed at p=4,5",
              _e3_random_competitive),
    ),
    "table3": (
        Claim("E4 every Type II result carries a delay cost", _e4_delay),
        Claim("E4 p=4 or p=5 keeps the p=2 time, both patterns", _growth(1.15)),
        Claim("E4 a p=5 pattern beats serial in total", _e4_beats_serial),
    ),
    "table4": (
        Claim("E5 Type III runtime tracks serial", _e5_runtime),
        Claim("E5 the highest retry threshold keeps mean quality",
              _e5_retry),
        Claim("E5 best Type III quality reaches serial", _e5_reaches_serial),
    ),
}


def check_claims(
    scenario: str,
    records: Sequence["RunRecord"],
    planned: Iterable[str] = (),
) -> list[Verdict]:
    """One :class:`Verdict` per claim of ``scenario`` (none if it has no
    claims).  ``planned`` lists the cell ids the run was asked for; any
    of them, or any record, without an ok record leaves every claim
    not checked."""
    claims = CLAIMS.get(scenario, ())
    ok = [r for r in records if r.ok and r.outcome is not None]
    have = {r.cell_id for r in ok}
    lacking = [cid for cid in dict.fromkeys(
        [*planned, *(r.cell_id for r in records)]) if cid not in have]
    verdicts = []
    for claim in claims:
        if lacking:
            shown = ", ".join(lacking[:3]) + (", ..." if len(lacking) > 3 else "")
            verdicts.append(Verdict(
                claim.name, UNCHECKED,
                f"{len(lacking)} cell(s) lack an ok record: {shown}"))
            continue
        try:
            comparisons = list(claim.check(_Cells(ok)))
        except _Missing as exc:
            verdicts.append(Verdict(claim.name, UNCHECKED, f"lacks {exc}"))
            continue
        failing = [text for held, text in comparisons if not held]
        verdicts.append(Verdict(
            claim.name, FAILS if failing else HOLDS,
            "; ".join(failing or [text for _, text in comparisons])))
    return verdicts
