"""The incremental multi-objective cost engine.

Every heuristic in this library — serial SimE, all three parallel
strategies, and the SA/ESP baselines — evaluates placements through one
:class:`CostEngine`.  The engine owns:

* the per-net **length cache** (updated incrementally on every structural
  change to the placement);
* the **power** accumulation (activity-weighted lengths);
* the **path-delay vector** over the extracted critical paths;
* the **fuzzy memberships** and the scalar quality µ(s);
* the **work meter** — every operation charges the category the paper's
  gprof profile uses, which is what makes the Section 4 reproduction and
  the simulated cluster's virtual clocks possible.

Mutation API
------------
``remove_cell`` / ``insert_cell`` / ``move_cell`` / ``swap_cells`` wrap the
:class:`~repro.layout.placement.Placement` operations and apply *exact*
incremental cache updates (including the cells that shift when a packed row
opens or closes a gap).  ``trial_insertion`` is the allocation operator's
probe: it scores a hypothetical insertion **without** committing, using the
standard approximation that ignores the downstream shift during the probe
(the exact effect lands at commit time).  This probe-heavy pattern is
precisely why Allocation dominates the runtime profile, as the paper
reports.  ``open_probe`` returns the fused probe kernel
(:class:`~repro.cost.probe.ProbeContext`) that hoists the fixed-pin work
out of the candidate loop; its results and meter charges are bit-identical
to ``trial_insertion``, which is kept as the scalar reference.

Incremental evaluation
----------------------
Since the estimators' batch and scalar paths are bit-identical per net
(see :mod:`repro.cost.steiner`), the incremental caches *are* the full
sweep: ``refresh_totals`` re-derives the solution-level totals from the
cached per-net lengths with the same reductions ``full_refresh`` applies
to a freshly swept vector — same bits, same meter charges, none of the
per-pin re-walk.  The SimE loop runs on ``refresh_totals``;
``full_refresh`` remains the from-scratch path (attachment, debugging,
and the ``refresh_policy="full"`` reference pipeline).  Goodness is
dirty-tracked: a cell's cached goodness is invalidated only when one of
its incident nets changes length, and re-evaluation still charges one
``goodness`` unit per cell per sweep (the meter models the paper's
algorithm, not this implementation's shortcuts).

A caller that rebinds before it reads the evaluation again (a Type II
rank after selection) calls ``discard_evaluation``: until then commits
charge exactly as before but skip the nets no charge depends on.

Performance note: following the domain guides (profile first, then pick the
representation the hot path wants), all per-net/per-cell caches that the
probe loops touch are plain Python lists — the loops make millions of
scalar accesses where numpy indexing overhead dominates — while the
once-per-iteration full sweep and the path-delay algebra stay vectorized.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cost.bounds import CostBounds
from repro.cost.delay import DelayModel
from repro.cost.fuzzy import FuzzyAggregator, GoalVector, membership
from repro.cost.power import PowerModel
from repro.cost.wirelength import NetEvaluator
from repro.cost.workmeter import WorkMeter
from repro.layout.grid import RowGrid
from repro.layout.placement import Placement
from repro.netlist.core import Netlist
from repro.netlist.paths import PathSet, extract_critical_paths
from repro.netlist.switching import compute_switching

__all__ = ["CostEngine", "Objectives", "ProbeTable", "TrialResult"]

# Engine construction is repeated per simulated rank with identical inputs
# (same netlist singleton, same cached activity); the pure derived objects
# are cached on the netlist instance, single-flight under one lock, so a
# p-rank cluster builds them once.  Keys hold references to their inputs,
# so identity comparison is sound (no id() reuse).
_construct_lock = threading.Lock()


def _cached_zeros(netlist: Netlist) -> np.ndarray:
    """Shared read-only zero activity vector (wirelength-only engines)."""
    with _construct_lock:
        zeros = getattr(netlist, "_repro_zero_activity", None)
        if zeros is None:
            zeros = np.zeros(netlist.num_nets)
            zeros.setflags(write=False)
            netlist._repro_zero_activity = zeros
        return zeros


def _cached_paths(netlist: Netlist, k: int) -> PathSet:
    with _construct_lock:
        cache = getattr(netlist, "_repro_paths_cache", None)
        if cache is None:
            cache = netlist._repro_paths_cache = {}
        paths = cache.get(k)
        if paths is None:
            paths = cache[k] = extract_critical_paths(netlist, k=k)
        return paths


def _cached_bounds(
    netlist: Netlist,
    activity: np.ndarray,
    pathset: PathSet | None,
    wire_cap_per_unit: float,
    bound_scale: float,
) -> CostBounds:
    with _construct_lock:
        cache = getattr(netlist, "_repro_bounds_cache", None)
        if cache is None:
            cache = netlist._repro_bounds_cache = []
        for act, ps, wc, bs, bounds in cache:
            if act is activity and ps is pathset and wc == wire_cap_per_unit \
                    and bs == bound_scale:
                return bounds
        bounds = CostBounds.compute(
            netlist, activity, pathset, wire_cap_per_unit, bound_scale=bound_scale
        )
        cache.append((activity, pathset, wire_cap_per_unit, bound_scale, bounds))
        return bounds

#: Valid objective names, in canonical order.
Objectives = ("wirelength", "power", "delay")


@dataclass(frozen=True)
class TrialResult:
    """Outcome of an allocation probe at one candidate position."""

    legal: bool
    goodness: float
    row: int
    slot: int
    x: float
    y: float


#: One shared copy of each span triple (see ProbeTable): the same few
#: small-int triples recur across cells, so tables stay compact.
_SPANS: dict[tuple[int, int, int], tuple[int, int, int]] = {}


class ProbeTable:
    """One cell's static probe data, derived once from the netlist.

    Read by the fused kernel (:mod:`repro.cost.probe`), the SoA kernel
    (:mod:`repro.cost.soa`) and the allocator's target-point gather.

    * ``pins`` — the incident nets' other pins in pin order, flat (a
      neighbour on two nets appears twice).
    * ``spans`` — ``(start, split, end)`` per net: its other pins are
      ``pins[start:end]``, and the cell's own pin sits before ``split``.
    * ``units`` — one candidate's work units, ``1 + Σ degree``.
    * ``act`` — the per-net switching activities.
    * ``crit`` — the critical nets as ``(net column, drive resistance,
      sink caps)``; empty without the delay objective.
    * ``batch`` — the SoA kernel's numpy tables, derived from the above on
      the cell's first vectorized round (None until then).
    """

    __slots__ = ("pins", "spans", "units", "act", "crit", "batch")

    def __init__(self, engine: "CostEngine", cell: int):
        nets = engine._cell_nets[cell]
        net_pins = engine.evaluator.net_pins
        degrees = engine._degrees
        pins: list[int] = []
        spans: list[tuple[int, int, int]] = []
        units = 1.0
        for j in nets:
            a = len(pins)
            for c in net_pins[j]:
                if c == cell:
                    g = len(pins)
                else:
                    pins.append(c)
            span = (a, g, len(pins))
            spans.append(_SPANS.setdefault(span, span))
            units += degrees[j]
        self.pins = tuple(pins)
        self.spans = tuple(spans)
        self.units = units
        self.act = tuple([engine._act[j] for j in nets])
        crit = engine._cell_crit_nets[cell]
        self.crit = tuple(
            (nets.index(j), engine._drive_res[j], engine._sink_caps[j])
            for j in crit
        )
        self.batch = None


class CostEngine:
    """Multi-objective incremental cost evaluation (see module docstring).

    Parameters
    ----------
    netlist:
        Frozen netlist.
    grid:
        Row grid (geometry + width constraint).
    objectives:
        Subset of ``("wirelength", "power", "delay")``; order-insensitive,
        ``wirelength`` is mandatory (the other objectives derive from it).
    estimator:
        Net-length estimator, ``"steiner"`` or ``"hpwl"``.
    activity:
        Optional per-net switching activities; computed from the netlist
        when omitted and the power objective is enabled.
    pathset:
        Optional critical paths; extracted when omitted and the delay
        objective is enabled.
    aggregator / goals:
        Fuzzy aggregation parameters for µ(s) and the goodness measure.
    meter:
        Work meter; a fresh one is created when omitted.
    bound_scale:
        Calibration of the optimistic bounds (see
        :meth:`repro.cost.bounds.CostBounds.compute`).
    """

    def __init__(
        self,
        netlist: Netlist,
        grid: RowGrid,
        objectives: Sequence[str] = ("wirelength", "power"),
        estimator: str = "steiner",
        activity: np.ndarray | None = None,
        pathset: PathSet | None = None,
        aggregator: FuzzyAggregator | None = None,
        goals: GoalVector | None = None,
        meter: WorkMeter | None = None,
        wire_cap_per_unit: float = 0.1,
        critical_paths: int = 64,
        bound_scale: float = 8.0,
    ):
        netlist.freeze()
        objs = tuple(o for o in Objectives if o in objectives)
        unknown = set(objectives) - set(Objectives)
        if unknown:
            raise ValueError(f"unknown objectives: {sorted(unknown)}")
        if "wirelength" not in objs:
            raise ValueError("the wirelength objective is mandatory")
        self.netlist = netlist
        self.grid = grid
        self.objectives = objs
        self.meter = meter if meter is not None else WorkMeter()
        self.aggregator = aggregator or FuzzyAggregator()
        self.goals = goals or GoalVector()

        self.evaluator = NetEvaluator(netlist, estimator)

        self.has_power = "power" in objs
        self.has_delay = "delay" in objs
        if activity is None:
            activity = (
                compute_switching(netlist)
                if self.has_power
                else _cached_zeros(netlist)
            )
        self.power_model = PowerModel(netlist, activity) if self.has_power else None
        if self.has_delay:
            if pathset is None:
                pathset = _cached_paths(netlist, critical_paths)
            self.delay_model = DelayModel(netlist, pathset, wire_cap_per_unit)
        else:
            self.delay_model = None

        self.bounds = _cached_bounds(
            netlist,
            activity,
            pathset if self.has_delay else None,
            wire_cap_per_unit,
            bound_scale,
        )

        # ---- hot-path caches (plain Python containers) -----------------
        n_cells = netlist.num_cells
        self._degrees: list[int] = [int(d) for d in self.evaluator.net_degree]
        self._cell_nets: list[list[int]] = [
            [int(j) for j in netlist.nets_of_cell(i)] for i in range(n_cells)
        ]
        self._bound_wl: list[float] = [float(v) for v in self.bounds.net_wirelength]
        self._act: list[float] = [float(v) for v in activity]
        self._cell_o_wl: list[float] = [
            sum(self._bound_wl[j] for j in nets) for nets in self._cell_nets
        ]
        self._cell_o_pw: list[float] = [
            sum(self._act[j] * self._bound_wl[j] for j in nets)
            for nets in self._cell_nets
        ]
        if self.has_delay:
            dm = self.delay_model
            self._drive_res: list[float] = [float(v) for v in dm.drive_res]
            self._sink_caps: list[float] = [float(v) for v in dm.sink_caps]
            self._wire_cap: float = dm.wire_cap
            self._cell_crit_nets: list[list[int]] = [
                [j for j in nets if dm.is_critical(j)] for nets in self._cell_nets
            ]
            self._cell_o_d: list[float] = [
                sum(
                    self._drive_res[j]
                    * (self._wire_cap * self._bound_wl[j] + self._sink_caps[j])
                    for j in crit
                )
                for crit in self._cell_crit_nets
            ]
        else:
            self._cell_crit_nets = [[] for _ in range(n_cells)]
            self._cell_o_d = [0.0] * n_cells
        self._beta = self.aggregator.beta
        #: Work units one full wirelength sweep charges (one per net-pin).
        self._sweep_units: float = float(sum(self._degrees))
        #: Lazily-built per-cell static probe data (see ProbeTable).
        self._probe_tables: list[ProbeTable | None] = [None] * n_cells

        # Mutable evaluation state (populated by attach()).
        #: Per-cell cached goodness; None = stale (dirty-set invalidation).
        self._goodness_cache: list[float | None] = [None] * n_cells
        #: Per-net cached estimator y-term (single-trunk branch sum or
        #: HPWL y-span); None = unknown.  All placement mutations shift
        #: cells horizontally except for the moved cell itself, so for
        #: every other net a commit only recomputes the x-span and reuses
        #: this term — bit-identical to a full evaluation.
        self._net_branch: list[float | None] = [None] * netlist.num_nets
        #: Lazily-built SoA mirror for the batched evaluation path (see
        #: :mod:`repro.cost.soa`); None until the first vectorized probe,
        #: so runs whose rounds all stay on the scalar kernel never pay
        #: for keeping it in sync.
        self._soa = None
        self._placement: Placement | None = None
        self.net_lengths: list[float] = []
        self.wirelength_total: float = 0.0
        self.power_total: float = 0.0
        self.path_delays: np.ndarray | None = None

    # ------------------------------------------------------------------
    # attachment / full evaluation
    # ------------------------------------------------------------------
    def attach(self, placement: Placement) -> "CostEngine":
        """Bind a placement and run one full evaluation sweep."""
        if placement.grid is not self.grid:
            raise ValueError("placement belongs to a different grid")
        self.placement = placement
        self.full_refresh()
        return self

    def full_refresh(self) -> None:
        """Recompute every cache from the current (complete) placement."""
        p = self._require_placement()
        self._discarded = False
        x = np.asarray(p.x)
        y = np.asarray(p.y)
        branch: list = [None] * self.netlist.num_nets
        lengths = self.evaluator.full_sweep(x, y, branch_out=branch)
        self.net_lengths = lengths.tolist()
        self._net_branch = branch
        self._goodness_cache = [None] * self.netlist.num_cells
        if self._soa is not None:
            self._soa.mark_stale()
        self._finish_refresh(lengths)

    def share_state(self) -> tuple:
        """Snapshot the evaluation state for :meth:`attach_shared`.

        Only valid when the caches exactly reflect the bound placement
        (immediately after a refresh/attach, before further mutations).
        """
        self._require_evaluation()
        return (
            list(self.net_lengths),
            list(self._net_branch),
            self.wirelength_total,
            self.power_total,
            None if self.path_delays is None else self.path_delays.copy(),
        )

    def attach_shared(self, placement: Placement, state: tuple) -> "CostEngine":
        """Bind a placement adopting evaluation state computed elsewhere.

        ``state`` (from :meth:`share_state`) must be the evaluation of the
        *same* rows — e.g. a simulated master rank's caches for the
        solution it just broadcast.  Every entry is a deterministic
        function of the coordinates, so adopting copies is bit-identical
        to re-evaluating, and the meter is charged exactly as
        :meth:`attach` would charge.  This is a wall-clock shortcut for
        simulated clusters whose ranks share memory; the modelled
        communication and work are unchanged.
        """
        if placement.grid is not self.grid:
            raise ValueError("placement belongs to a different grid")
        lengths, branches, wl_total, pw_total, path_delays = state
        self.placement = placement
        self.net_lengths = list(lengths)
        self._net_branch = list(branches)
        self.wirelength_total = wl_total
        self.power_total = pw_total
        self.path_delays = None if path_delays is None else path_delays.copy()
        self.charge_refresh()
        return self

    def charge_refresh(self) -> None:
        """Charge one full evaluation without recomputing anything.

        Valid only when every cache already holds exactly what a refresh
        would produce (a just-attached or just-adopted solution).  Charges
        are identical to :meth:`full_refresh`.
        """
        self._require_placement()
        self._require_evaluation()
        self.meter.charge("wirelength", self._sweep_units)
        if self.has_power:
            self.meter.charge("power", float(self.netlist.num_nets))
        if self.has_delay:
            self.meter.charge("delay", float(len(self.delay_model.pathset.nets)))

    def refresh_totals(self) -> None:
        """Re-derive the solution totals from the cached per-net lengths.

        Charges **exactly** what :meth:`full_refresh` charges and produces
        bit-identical totals: the cached lengths equal a fresh sweep's
        per-net bits (the estimators' bit-exactness contract plus the
        exact incremental maintenance that ``assert_consistent`` /
        ``verify_every`` pin), and the reductions below are the same
        operations ``full_refresh`` applies to its freshly swept vector.
        Cached goodness stays valid — that is the point: only cells whose
        incident nets changed since the last sweep re-evaluate.
        """
        self._require_placement()
        self._require_evaluation()
        lengths = np.asarray(self.net_lengths)
        self._finish_refresh(lengths)

    def _finish_refresh(self, lengths: np.ndarray) -> None:
        """Shared totals/charges tail of the two refresh flavours."""
        self.meter.charge("wirelength", self._sweep_units)
        self.wirelength_total = float(lengths.sum())
        if self.has_power:
            self.power_total = self.power_model.total(lengths)
            self.meter.charge("power", float(self.netlist.num_nets))
        if self.has_delay:
            self.path_delays = self.delay_model.path_delays_full(lengths)
            self.meter.charge("delay", float(len(self.delay_model.pathset.nets)))

    @property
    def placement(self) -> Placement | None:
        """The bound placement (settable; rebinding stales all goodness)."""
        return self._placement

    @placement.setter
    def placement(self, placement: Placement | None) -> None:
        # A rebind means the solution changed out from under the engine
        # (e.g. Type I ranks receiving a broadcast placement): every cached
        # goodness is potentially stale.  Mutations *through* the engine
        # invalidate precisely instead (see ``_update_nets_of``).  It also
        # ends a discarded evaluation: ``attach`` re-evaluates and
        # ``attach_shared`` adopts one.
        self._placement = placement
        self._discarded = False
        self._goodness_cache = [None] * self.netlist.num_cells
        self._net_branch = [None] * self.netlist.num_nets
        if self._soa is not None:
            self._soa.mark_stale()

    def _require_placement(self) -> Placement:
        if self._placement is None:
            raise RuntimeError("no placement attached; call attach() first")
        return self._placement

    #: Set by :meth:`discard_evaluation`, cleared by a rebind or
    #: :meth:`full_refresh` (a class default: construction does nothing).
    _discarded = False

    def discard_evaluation(self) -> None:
        """Stop maintaining the evaluation until the next rebind.

        For a caller that rebinds (``attach`` / ``attach_shared``) before
        it reads any evaluation again: a Type II rank between selection
        and the next broadcast.  Mutations still keep the placement and
        the SoA mirror exact and charge the meter exactly as before —
        ``Σ degree`` of the touched nets, plus the ``delay`` path counts,
        for which the critical nets are still evaluated — but skip every
        other net.  Until a rebind or :meth:`full_refresh`, every reader
        of the evaluation raises rather than return a stale cache.
        """
        self._require_placement()
        self._discarded = True

    def _require_evaluation(self) -> None:
        if self._discarded:
            raise RuntimeError(
                "evaluation discarded since discard_evaluation(); "
                "rebind a placement with attach() first"
            )

    # ------------------------------------------------------------------
    # solution-level queries
    # ------------------------------------------------------------------
    @property
    def delay_max(self) -> float:
        self._require_evaluation()
        if not self.has_delay:
            return 0.0
        return float(self.path_delays.max())

    def costs(self) -> dict[str, float]:
        """Current objective costs (width reported alongside)."""
        p = self._require_placement()
        self._require_evaluation()
        out = {"wirelength": self.wirelength_total, "width": p.max_row_width()}
        if self.has_power:
            out["power"] = self.power_total
        if self.has_delay:
            out["delay"] = self.delay_max
        return out

    def memberships(self) -> dict[str, float]:
        """Fuzzy membership per enabled objective."""
        self._require_evaluation()
        out = {
            "wirelength": membership(
                self.wirelength_total,
                self.bounds.total_wirelength,
                self.goals.wirelength,
            )
        }
        if self.has_power:
            out["power"] = membership(
                self.power_total, self.bounds.total_power, self.goals.power
            )
        if self.has_delay:
            out["delay"] = membership(
                self.delay_max, self.bounds.max_delay, self.goals.delay
            )
        return out

    def mu(self) -> float:
        """Scalar solution quality µ(s) ∈ [0, 1] (paper Section 2)."""
        return self.aggregator.combine(self.memberships())

    # ------------------------------------------------------------------
    # per-cell queries (goodness support)
    # ------------------------------------------------------------------
    def cell_objective_ratios(self, cell: int) -> list[float]:
        """Per-objective goodness ratios ``min(1, O_i / C_i)`` for a cell.

        The cell cost ``C_i`` for wirelength/power is the sum over the
        cell's incident nets of the cached lengths/powers — which is why
        computing a cell's goodness "requires that the wirelength of all
        fan-in cells be known" (paper Section 6.1).  The delay ratio uses
        the cell's incident *critical* nets; cells not on any critical path
        get a delay ratio of 1 (nothing to improve).
        """
        self._require_evaluation()
        self.meter.charge("goodness", 1.0)
        nets = self._cell_nets[cell]
        lengths = self.net_lengths
        c_wl = 0.0
        for j in nets:
            c_wl += lengths[j]
        o_wl = self._cell_o_wl[cell]
        ratios = [o_wl / c_wl if c_wl > o_wl else 1.0]
        if self.has_power:
            act = self._act
            c_pw = 0.0
            for j in nets:
                c_pw += act[j] * lengths[j]
            o_pw = self._cell_o_pw[cell]
            ratios.append(o_pw / c_pw if c_pw > o_pw else 1.0)
        if self.has_delay:
            crit = self._cell_crit_nets[cell]
            if crit:
                dr = self._drive_res
                sc = self._sink_caps
                wc = self._wire_cap
                c_d = 0.0
                for j in crit:
                    c_d += dr[j] * (wc * lengths[j] + sc[j])
                o_d = self._cell_o_d[cell]
                ratios.append(o_d / c_d if c_d > o_d else 1.0)
            else:
                ratios.append(1.0)
        return ratios

    def cell_goodness(self, cell: int) -> float:
        """Multiobjective fuzzy goodness g_i ∈ [0, 1] of one cell.

        Dirty-tracked: the value is cached and reused until one of the
        cell's incident nets changes length (``_update_nets_of``
        invalidates the pins of every changed net).  A cache hit still
        charges one ``goodness`` unit — the meter counts the evaluations
        the paper's algorithm performs, not the ones this implementation
        can skip.
        """
        self._require_evaluation()
        g = self._goodness_cache[cell]
        if g is not None:
            self.meter.charge("goodness", 1.0)
            return g
        ratios = self.cell_objective_ratios(cell)
        worst = min(ratios)
        mean = sum(ratios) / len(ratios)
        g = self._beta * worst + (1.0 - self._beta) * mean
        self._goodness_cache[cell] = g
        return g

    def probe_table(self, cell: int) -> ProbeTable:
        """The cell's static probe data, built on first use."""
        table = self._probe_tables[cell]
        if table is None:
            table = self._probe_tables[cell] = ProbeTable(self, cell)
        return table

    # ------------------------------------------------------------------
    # structural mutations with incremental updates
    # ------------------------------------------------------------------
    def remove_cell(self, cell: int, charge_to: str = "allocation") -> tuple[int, int]:
        """Remove a cell from the placement, updating caches exactly."""
        p = self._require_placement()
        r = p.row_of[cell]
        s = p.slot_of[cell]
        p.remove_cell(cell)
        # Cells at and after slot s shifted left; plus the removed cell's
        # nets lose a pin.
        changed = [cell] + p.rows[r][s:]
        self._update_nets_of(changed, charge_to, moved=(cell,), rows=(r,))
        return r, s

    def remove_cells(self, cells: Sequence[int], charge_to: str = "allocation") -> None:
        """Bulk removal: one placement pass + one incremental cache pass.

        Equivalent to repeated :meth:`remove_cell` but avoids re-evaluating
        the same nets once per removed neighbour — the allocation operator
        removes its whole selection set through this.
        """
        p = self._require_placement()
        row_of = p.row_of
        touched_rows = {row_of[c] for c in cells}
        changed = p.remove_cells(cells)
        self._update_nets_of(changed, charge_to, moved=cells,
                             rows=touched_rows)

    def insert_cell(
        self, cell: int, row: int, slot: int, charge_to: str = "allocation"
    ) -> None:
        """Insert an unplaced cell, updating caches exactly."""
        p = self._require_placement()
        p.insert_cell(cell, row, slot)
        slot = p.slot_of[cell]
        changed = p.rows[row][slot:]
        self._update_nets_of(changed, charge_to, moved=(cell,), rows=(row,))

    def move_cell(
        self, cell: int, row: int, slot: int, charge_to: str = "allocation"
    ) -> None:
        """Remove + insert with incremental updates."""
        self.remove_cell(cell, charge_to)
        self.insert_cell(cell, row, slot, charge_to)

    def swap_cells(self, a: int, b: int, charge_to: str = "allocation") -> None:
        """Exchange two placed cells, updating caches exactly."""
        p = self._require_placement()
        ra, rb = p.row_of[a], p.row_of[b]
        sa, sb = p.slot_of[a], p.slot_of[b]
        p.swap_cells(a, b)
        if ra == rb:
            changed: set[int] = set(p.rows[ra][min(sa, sb) :])
        else:
            changed = set(p.rows[ra][sa:])
            changed.update(p.rows[rb][sb:])
        changed.update((a, b))
        self._update_nets_of(sorted(changed), charge_to, moved=(a, b),
                             rows=(ra, rb))

    def _update_nets_of(
        self,
        cells: Sequence[int],
        charge_to: str,
        moved: Sequence[int] | None = None,
        rows: Sequence[int] | None = None,
    ) -> None:
        """Recompute the nets touching ``cells``; update all totals.

        ``moved`` names the cells whose y or membership changed (the
        removed/inserted/swapped cells); every other touched cell only
        shifted horizontally, so nets not incident to a moved cell reuse
        their cached y-term and recompute the x-span only — bit-identical
        to a full evaluation.  The iteration order over the net set is
        independent of the hint, so the floating-point delta accumulation
        is identical with or without it.

        ``rows`` names the rows whose membership or packing changed, so
        the SoA mirror can invalidate just their cached insertion
        boundaries; ``None`` drops the whole row cache (conservative).

        While the evaluation is discarded only the critical nets are
        evaluated (see :meth:`discard_evaluation`); the charge, a sum of
        integers, is bit-identical to the maintained path's.
        """
        p = self.placement
        cell_nets = self._cell_nets
        nets: set[int] = set()
        for c in cells:
            nets.update(cell_nets[c])
        lengths = self.net_lengths
        act = self._act
        eval_branch = self.evaluator.eval_net_branch
        net_pins = self.evaluator.net_pins
        goodness_cache = self._goodness_cache
        degrees = self._degrees
        branches = self._net_branch
        has_power = self.has_power
        has_delay = self.has_delay
        x, y = p.x, p.y
        soa = self._soa
        if soa is not None:
            # Keep the batch path's SoA mirror in sync: ``cells`` is
            # exactly the coordinate-changed set (removed cells now NaN,
            # packed neighbours shifted).
            soa.update_cells(cells, x, y, rows)
        # One unit per net-pin: a sum of integers, exact in any order.
        units = float(sum(map(degrees.__getitem__, nets)))
        wl_delta = 0.0
        pw_delta = 0.0
        evaluated = nets
        if self._discarded:
            evaluated = nets & self.delay_model.critical_nets if has_delay else ()
        if moved is None:
            forced: set[int] = nets
        else:
            forced = set()
            for c in moved:
                forced.update(cell_nets[c])
        for j in evaluated:  # repro: noqa[D105] -- int-set order is deterministic in CPython (unsalted int hash) and this delta fold order is pinned bit-exact by BENCH_PR3; sorted() would change the bits
            old = lengths[j]
            if j in forced:
                new, br = eval_branch(j, x, y)
                branches[j] = br
            else:
                br = branches[j]
                if br is None:
                    new, br = eval_branch(j, x, y)
                    branches[j] = br
                else:
                    # Span-only re-evaluation (the single hottest loop in
                    # the commit path): x extent of placed pins + the
                    # cached y-term — exact selection plus the same final
                    # add the full estimator performs, so bit-identical.
                    lo = hi = 0.0
                    m = 0
                    for c in net_pins[j]:
                        vx = x[c]
                        if vx == vx:
                            if m == 0:
                                lo = hi = vx
                            elif vx < lo:
                                lo = vx
                            elif vx > hi:
                                hi = vx
                            m += 1
                    new = 0.0 if m < 2 else (hi - lo) + br
            if new == old:
                continue
            lengths[j] = new
            # Goodness dirty-set: every pin of a length-changed net has a
            # stale cached goodness (unchanged nets leave it bit-valid).
            for c in net_pins[j]:
                goodness_cache[c] = None
            wl_delta += new - old
            if has_power:
                pw_delta += act[j] * (new - old)
            if has_delay:
                # Path-delay shifts triggered by a mutation bill to the
                # mutating phase (gprof attributes callee time to the
                # caller's tree — allocation-internal recalcs are what make
                # allocation 98 % in the paper's profile).
                units += self.delay_model.shift_for_net(
                    j, old, new, self.path_delays
                )
        self.wirelength_total += wl_delta
        self.power_total += pw_delta
        self.meter.charge(charge_to, units)

    # ------------------------------------------------------------------
    # allocation probes
    # ------------------------------------------------------------------
    def insertion_coords(self, cell: int, row: int, slot: int) -> tuple[float, float]:
        """Center coordinates ``cell`` would get if inserted at (row, slot)."""
        p = self._require_placement()
        cells = p.rows[row]
        widths = p._widths
        slot = min(max(slot, 0), len(cells))
        if slot == len(cells):
            boundary = p.row_width[row]
        else:
            nxt = cells[slot]
            boundary = p.x[nxt] - widths[nxt] / 2.0
        return boundary + widths[cell] / 2.0, self.grid.row_y(row)

    #: Lazily-bound ProbeContext class (import deferred: probe.py imports
    #: TrialResult from this module).
    _probe_cls = None

    def open_probe(self, cell: int) -> "ProbeContext":
        """Open the fused probe kernel for one cell's best-fit round.

        Precomputes the fixed-pin partial of every incident net once;
        ``probe(row, slot)`` then scores candidates in O(incident nets)
        with results and meter charges bit-identical to
        :meth:`trial_insertion` (see :mod:`repro.cost.probe`).  Valid
        until the next structural mutation.
        """
        cls = CostEngine._probe_cls
        if cls is None:
            from repro.cost.probe import ProbeContext

            CostEngine._probe_cls = cls = ProbeContext
        return cls(self, cell)

    #: Lazily-bound SoA classes (import deferred, same reason as above).
    _soa_cls = None
    _batch_cls = None

    def soa_state(self):
        """The engine's SoA placement mirror, created on first use.

        Runs whose probe rounds all stay on the scalar kernel never call
        this, so they never pay the mirror's sync cost; once created, the
        mutation funnel keeps it fresh.
        """
        soa = self._soa
        if soa is None:
            cls = CostEngine._soa_cls
            if cls is None:
                from repro.cost.soa import SoAState

                CostEngine._soa_cls = cls = SoAState
            soa = self._soa = cls(self)
        return soa

    def open_batch_probe(
        self, cell: int, exact: bool = False
    ) -> "BatchProbeContext":
        """Open the batched (vectorized) probe kernel for one cell.

        The numpy counterpart of :meth:`open_probe`: ``scan_rows`` scores
        every candidate of a probe round in one set of array operations,
        within the documented ulp budget of the scalar kernel — or, with
        ``exact=True``, bit-identical to it (see :mod:`repro.cost.soa`).
        Valid until the next structural mutation.
        """
        cls = CostEngine._batch_cls
        if cls is None:
            from repro.cost.soa import BatchProbeContext

            CostEngine._batch_cls = cls = BatchProbeContext
        return cls(self, cell, exact)

    def trial_insertion(self, cell: int, row: int, slot: int) -> TrialResult:
        """Score inserting the (currently unplaced) ``cell`` at (row, slot).

        Returns the cell's fuzzy goodness at the candidate position.  The
        probe rejects width-illegal rows and ignores the downstream shift
        of packed neighbours (applied exactly at commit time).  Work is
        charged to ``allocation``: one unit per candidate plus one per
        net-pin probed — the paper's "wirelength re-calculation calls made
        in allocation routine".

        This is the scalar reference the fused kernel
        (:meth:`open_probe`) is pinned against; the allocator's hot loop
        uses the kernel.
        """
        p = self._require_placement()
        w = p._widths[cell]
        cx, cy = self.insertion_coords(cell, row, slot)
        legal = p.row_width[row] + w <= self.grid.max_legal_width + 1e-9
        nets = self._cell_nets[cell]
        eval_override = self.evaluator.eval_net_override
        x, y = p.x, p.y
        units = 1.0
        c_wl = 0.0
        c_pw = 0.0
        c_d = 0.0
        act = self._act
        crit = self._cell_crit_nets[cell]
        new_lens: dict[int, float] = {}
        for j in nets:
            new_len = eval_override(j, x, y, cell, cx, cy)
            new_lens[j] = new_len
            units += self._degrees[j]
            c_wl += new_len
            if self.has_power:
                c_pw += act[j] * new_len
        if self.has_delay and crit:
            dr = self._drive_res
            sc = self._sink_caps
            wc = self._wire_cap
            for j in crit:
                c_d += dr[j] * (wc * new_lens[j] + sc[j])
        self.meter.charge("allocation", units)
        # Throughput counter: one unit per candidate scored, zero-cost
        # under every work model (not a paper category) — it reaches
        # the records as ``work_units["probe"]``.
        self.meter.charge("probe", 1.0)

        o_wl = self._cell_o_wl[cell]
        ratios = [o_wl / c_wl if c_wl > o_wl else 1.0]
        if self.has_power:
            o_pw = self._cell_o_pw[cell]
            ratios.append(o_pw / c_pw if c_pw > o_pw else 1.0)
        if self.has_delay:
            if crit:
                o_d = self._cell_o_d[cell]
                ratios.append(o_d / c_d if c_d > o_d else 1.0)
            else:
                ratios.append(1.0)
        worst = min(ratios)
        mean = sum(ratios) / len(ratios)
        return TrialResult(
            legal=legal,
            goodness=self._beta * worst + (1.0 - self._beta) * mean,
            row=row,
            slot=slot,
            x=cx,
            y=cy,
        )

    # ------------------------------------------------------------------
    # consistency checking (tests / debugging)
    # ------------------------------------------------------------------
    def assert_consistent(self, tol: float = 1e-6) -> None:
        """Verify incremental caches against a from-scratch evaluation.

        Requires a complete placement (every movable cell placed).
        """
        p = self._require_placement()
        self._require_evaluation()
        x = np.asarray(p.x)
        y = np.asarray(p.y)
        fresh = self.evaluator.full_sweep(x, y)
        cached = np.asarray(self.net_lengths)
        if not np.allclose(fresh, cached, atol=tol):
            bad = int(np.argmax(np.abs(fresh - cached)))
            raise AssertionError(
                f"net {bad} cached length {cached[bad]} != fresh {fresh[bad]}"
            )
        if abs(float(fresh.sum()) - self.wirelength_total) > tol * max(
            1.0, abs(self.wirelength_total)
        ):
            raise AssertionError("wirelength total drifted")
        if self.has_power:
            expect = self.power_model.total(fresh)
            if abs(expect - self.power_total) > tol * max(1.0, abs(expect)):
                raise AssertionError("power total drifted")
        if self.has_delay:
            expect = self.delay_model.path_delays_full(fresh)
            if not np.allclose(expect, self.path_delays, atol=tol):
                raise AssertionError("path delays drifted")
