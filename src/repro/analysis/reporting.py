"""Plain-text table rendering for sweeps and the CLI.

Two layers:

* the generic :func:`render_table` (aligned monospace dict-rows);
* artifact renderers — :func:`render_records` and the per-table helpers —
  that take the :class:`~repro.experiments.artifacts.RunRecord` lists a
  sweep produced (or an :class:`~repro.experiments.artifacts.ArtifactStore`
  loaded back from disk) and lay them out in the paper's Table 1–4 shapes,
  including the quality-bracket convention of Tables 2/3, with the
  paper's own numbers in a ``paper`` column where it reports them.

No external dependency — aligned monospace columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.analysis.profiling import PAPER_SHARES

if TYPE_CHECKING:  # import cycle guard: experiments.artifacts imports runners
    from repro.experiments.artifacts import RunRecord

__all__ = [
    "render_table",
    "format_seconds",
    "render_records",
    "render_table1_records",
    "render_type2_records",
    "render_table4_records",
    "render_profile_records",
    "render_scaling_records",
    "render_knob_records",
    "render_retry_records",
    "render_shootout_records",
    "render_speedup_records",
    "render_generic_records",
]


#: The paper's Table 1 runtimes in seconds: serial, then Type I at p=2..5.
PAPER_TABLE1_SECONDS: dict[str, tuple[int, ...]] = {
    "s1196": (92, 130, 130, 130, 130),
    "s1488": (187, 263, 263, 263, 263),
    "s1494": (190, 268, 268, 273, 270),
    "s1238": (91, 127, 129, 131, 130),
    "s3330": (3750, 5480, 5463, 5467, 5453),
}

#: The paper's serial µ(s) per circuit, by objective set: Table 2 (w/p)
#: and Table 3 (w/p/d).
PAPER_SERIAL_MU: dict[tuple[str, ...], dict[str, float]] = {
    ("wirelength", "power"): {
        "s1196": 0.684, "s1488": 0.673, "s1494": 0.650, "s1238": 0.719,
        "s3330": 0.699,
    },
    ("wirelength", "power", "delay"): {
        "s1196": 0.634, "s1488": 0.523, "s1494": 0.626, "s1238": 0.666,
        "s3330": 0.674,
    },
}


def format_seconds(seconds: float) -> str:
    """Compact human-readable model-seconds."""
    if seconds >= 100:
        return f"{seconds:.0f}"
    if seconds >= 1:
        return f"{seconds:.1f}"
    return f"{seconds:.3f}"


def render_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render dict-rows as an aligned text table.

    ``columns`` fixes the column order (default: the union of all rows'
    keys in first-seen order, so a sparse first row cannot hide later
    columns).  Missing cells render as ``-``.
    """
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is not None:
        cols = list(columns)
    else:
        cols = []
        for row in rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
    cells = [[_fmt(r.get(c, "-")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(cols))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.3f}" if abs(v) < 100 else f"{v:.1f}"
    return str(v)


# ---------------------------------------------------------------------------
# Artifact (RunRecord) renderers — the paper's table layouts
# ---------------------------------------------------------------------------


def _ok_records(records: Iterable["RunRecord"]) -> list["RunRecord"]:
    return [r for r in records if r.ok and r.outcome is not None]


#: Rows are keyed by (circuit, seed) so multi-seed sweeps never mix
#: replicates into one row.
_GroupKey = tuple

def _group_of(r: "RunRecord") -> _GroupKey:
    return (r.spec.get("circuit", "?"), r.spec.get("seed", 1))


def _group_order(records: Iterable["RunRecord"]) -> list[_GroupKey]:
    order: list[_GroupKey] = []
    for r in records:
        g = _group_of(r)
        if g not in order:
            order.append(g)
    return order


def _by_group(
    records: Iterable["RunRecord"], strategy: str
) -> dict[_GroupKey, list["RunRecord"]]:
    # Exact match: RunRecord.strategy holds the cell's strategy name
    # ("type3" vs "type3x" are distinct strategies, not variants).
    out: dict[_GroupKey, list["RunRecord"]] = {}
    for r in records:
        if r.strategy == strategy:
            out.setdefault(_group_of(r), []).append(r)
    return out


def _serial_by_group(records: Iterable["RunRecord"]) -> dict[_GroupKey, "RunRecord"]:
    return {g: rs[0] for g, rs in _by_group(records, "serial").items()}


def _label(group: _GroupKey, multi_seed: bool) -> dict[str, Any]:
    """Row label columns: the circuit, plus the seed when replicates exist."""
    circuit, seed = group
    return {"Ckt": circuit, "seed": seed} if multi_seed else {"Ckt": circuit}


def render_table1_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Table 1 layout: serial runtime plus Type I runtime per p."""
    ok = _ok_records(records)
    serial = _serial_by_group(ok)
    t1 = _by_group(ok, "type1")
    groups = _group_order(ok)
    multi_seed = len({g[1] for g in groups}) > 1
    rows = []
    for g in groups:
        if g not in serial:
            continue
        s = serial[g].outcome or {}
        row: dict[str, Any] = {
            **_label(g, multi_seed),
            "µ(s)": f"{s.get('best_mu', 0.0):.3f}",
            "Seq": format_seconds(s.get("runtime", 0.0)),
        }
        for r in sorted(t1.get(g, []), key=lambda r: r.params.get("p", 0)):
            o = r.outcome or {}
            row[f"p={r.params.get('p')}"] = format_seconds(o.get("runtime", 0.0))
        paper = PAPER_TABLE1_SECONDS.get(g[0])
        row["paper"] = "/".join(map(str, paper)) if paper else "-"
        rows.append(row)
    return render_table(rows, title=title or (
        "Table 1 — Type I runtimes (model-seconds; paper = the paper's "
        "seconds, Seq/p=2/p=3/p=4/p=5)"))


def render_type2_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Tables 2/3 layout: bracketed times per pattern and processor count.

    Cells follow the paper's convention — the time the parallel run first
    reached the serial best µ, else the full runtime with the achieved
    quality percentage in brackets.  The paper's serial µ(s) for the
    circuit and objective set sits beside the measured one.
    """
    from repro.analysis.speedup import quality_bracket

    ok = _ok_records(records)
    serial = _serial_by_group(ok)
    t2 = _by_group(ok, "type2")
    groups = _group_order(ok)
    multi_seed = len({g[1] for g in groups}) > 1
    rows = []
    for g in groups:
        if g not in serial:
            continue
        s = serial[g].outcome or {}
        paper = PAPER_SERIAL_MU.get(tuple(serial[g].spec.get("objectives", ())), {})
        row: dict[str, Any] = {
            **_label(g, multi_seed),
            "µ(s)": f"{s.get('best_mu', 0.0):.3f}",
            "paper µ(s)": paper.get(g[0], "-"),
            "Seq": format_seconds(s.get("runtime", 0.0)),
        }
        cells = sorted(
            t2.get(g, []),
            key=lambda r: (r.params.get("pattern", ""), r.params.get("p", 0)),
        )
        for r in cells:
            b = quality_bracket(r.parallel_outcome(), s.get("best_mu", 0.0))
            key = f"{str(r.params.get('pattern', '?'))[0]} p={r.params.get('p')}"
            row[key] = b.cell(decimals=2)
        rows.append(row)
    return render_table(
        rows,
        title=title
        or "Type II (model-seconds; (q%) = share of serial quality reached)",
    )


def render_table4_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Table 4 layout: quality/time per retry threshold and p."""
    ok = _ok_records(records)
    serial = _serial_by_group(ok)
    t3 = _by_group(ok, "type3")
    groups = _group_order(ok)
    multi_seed = len({g[1] for g in groups}) > 1
    rows = []
    for g in groups:
        if g not in serial:
            continue
        s = serial[g].outcome or {}
        retries = sorted({r.params.get("retry_threshold", 0) for r in t3.get(g, [])})
        for retry in retries:
            row: dict[str, Any] = {
                **_label(g, multi_seed),
                "retry": retry,
                "Seq µ": f"{s.get('best_mu', 0.0):.3f}",
                "Seq t": format_seconds(s.get("runtime", 0.0)),
            }
            for r in sorted(
                (r for r in t3.get(g, [])
                 if r.params.get("retry_threshold") == retry),
                key=lambda r: r.params.get("p", 0),
            ):
                o = r.outcome or {}
                row[f"p={r.params.get('p')}"] = (
                    f"{o.get('best_mu', 0.0):.3f}@{format_seconds(o.get('runtime', 0.0))}"
                )
            rows.append(row)
    return render_table(
        rows, title=title or "Table 4 — Type III (µ@model-seconds per retry threshold)"
    )


def render_profile_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Section 4 layout: work-category share per circuit and version,
    with the paper's gprof share alongside."""
    rows = []
    for r in _ok_records(records):
        extras = (r.outcome or {}).get("extras", {})
        shares = extras.get("shares", {})
        paper = PAPER_SHARES.get(extras.get("version", ""), {})
        for cat in sorted(shares, key=lambda c: -shares[c]):
            rows.append({
                "Ckt": r.spec.get("circuit", "?"),
                "version": extras.get("version", "?"),
                "category": cat,
                "share %": round(100 * shares[cat], 2),
                "paper %": round(100 * paper[cat], 2) if cat in paper else "-",
            })
    return render_table(rows, title=title or "Section 4 — runtime profile shares")


def render_scaling_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Scaling-ladder layout: per circuit size, serial vs Type II cost."""
    from repro.netlist.suite import circuit_cell_count

    ok = _ok_records(records)
    serial = _serial_by_group(ok)
    t2 = _by_group(ok, "type2")
    groups = _group_order(ok)
    multi_seed = len({g[1] for g in groups}) > 1
    rows = []
    for g in groups:
        if g not in serial:
            continue
        s = serial[g].outcome or {}
        try:
            gates = circuit_cell_count(g[0])
        except KeyError:
            gates = "-"
        row: dict[str, Any] = {
            **_label(g, multi_seed),
            "cells": gates,
            "Seq µ": f"{s.get('best_mu', 0.0):.3f}",
            "Seq t": format_seconds(s.get("runtime", 0.0)),
        }
        for r in sorted(t2.get(g, []), key=lambda r: r.params.get("p", 0)):
            o = r.outcome or {}
            p = r.params.get("p")
            row[f"T2 p={p} µ"] = f"{o.get('best_mu', 0.0):.3f}"
            row[f"T2 p={p} t"] = format_seconds(o.get("runtime", 0.0))
            seq_t, par_t = s.get("runtime", 0.0), o.get("runtime", 0.0)
            row[f"speedup p={p}"] = (
                f"{seq_t / par_t:.2f}x" if par_t > 0 else "-"
            )
        rows.append(row)
    return render_table(
        rows, title=title or "Scaling ladder — model-seconds vs circuit size"
    )


def render_knob_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Knob-grid layout: one row per (β, bias) point, best µ first."""
    rows = []
    for r in sorted(
        _ok_records(records),
        key=lambda r: -(r.outcome or {}).get("best_mu", 0.0),
    ):
        o = r.outcome or {}
        rows.append({
            "Ckt": r.spec.get("circuit", "?"),
            "β": r.spec.get("beta", "-"),
            "bias": "adaptive" if r.spec.get("adaptive_bias")
                    else r.spec.get("bias", "-"),
            "µ(s)": f"{o.get('best_mu', 0.0):.3f}",
            "t": format_seconds(o.get("runtime", 0.0)),
        })
    return render_table(
        rows, title=title or "Knob grid — fuzzy β × selection bias (best µ first)"
    )


def render_retry_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Retry-study layout: type3 and type3x side by side per threshold."""
    ok = _ok_records(records)
    serial = _serial_by_group(ok)
    groups = _group_order(ok)
    multi_seed = len({g[1] for g in groups}) > 1
    names = sorted({r.strategy for r in ok} - {"serial"})
    variants = {name: _by_group(ok, name) for name in names}
    rows = []
    for g in groups:
        if g not in serial:
            continue
        s = serial[g].outcome or {}
        retries = sorted({
            r.params.get("retry_threshold", 0)
            for cells in variants.values()
            for r in cells.get(g, [])
        })
        for retry in retries:
            row: dict[str, Any] = {
                **_label(g, multi_seed),
                "retry": retry,
                "Seq µ": f"{s.get('best_mu', 0.0):.3f}",
            }
            for name, cells in variants.items():
                for r in sorted(
                    (r for r in cells.get(g, [])
                     if r.params.get("retry_threshold") == retry),
                    key=lambda r: r.params.get("p", 0),
                ):
                    o = r.outcome or {}
                    row[f"{name} p={r.params.get('p')}"] = (
                        f"{o.get('best_mu', 0.0):.3f}"
                        f"@{format_seconds(o.get('runtime', 0.0))}"
                    )
            rows.append(row)
    return render_table(
        rows,
        title=title
        or "Retry study — type3 vs type3x (µ@model-seconds per threshold)",
    )


def render_shootout_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Shootout layout: one row per strategy config, bracketed vs serial."""
    from repro.analysis.speedup import quality_bracket

    ok = _ok_records(records)
    serial = _serial_by_group(ok)
    groups = _group_order(ok)
    multi_seed = len({g[1] for g in groups}) > 1
    rows = []
    for g in groups:
        if g not in serial:
            continue
        s = serial[g].outcome or {}
        serial_mu = s.get("best_mu", 0.0)
        rows.append({
            **_label(g, multi_seed),
            "strategy": "serial",
            "µ(s)": f"{serial_mu:.3f}",
            "t": format_seconds(s.get("runtime", 0.0)),
            "vs serial": "1.000",
        })
        others = [r for r in ok if _group_of(r) == g and r.strategy != "serial"]
        for r in sorted(others, key=lambda r: (r.strategy,
                                               str(r.params.get("pattern", "")))):
            o = r.outcome or {}
            b = quality_bracket(r.parallel_outcome(), serial_mu)
            rows.append({
                **_label(g, multi_seed),
                "strategy": _strategy_label(r),
                "µ(s)": f"{o.get('best_mu', 0.0):.3f}",
                "t": b.cell(decimals=2),
                "vs serial": (
                    f"{o.get('best_mu', 0.0) / serial_mu:.3f}"
                    if serial_mu > 0 else "-"
                ),
            })
    return render_table(
        rows,
        title=title
        or "Shootout — strategies head-to-head ((q%) = quality bracket)",
    )


def _strategy_label(r: "RunRecord") -> str:
    label = r.strategy
    if r.params.get("pattern"):
        label += f"/{r.params['pattern']}"
    return label


def render_speedup_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Speedup-scenario layout: execution backends side by side.

    One row per (strategy, p); the sim columns are virtual model-seconds
    against the sim serial baseline, each real backend's columns host
    wall-clock against that backend's own serial baseline — the clock
    domains never mix (Tables 2/3 report exactly this wall-clock view
    for the real cluster).  Columns appear for sim plus the backends
    actually present in the records (older artifacts that carry ``mp``
    cells keep their mp column); points one backend cannot reach (the
    socket-only p > 8 ladder) show "-" in the other columns.
    """
    from repro.analysis.speedup import backend_speedup

    ok = _ok_records(records)
    groups = _group_order(ok)
    multi_seed = len({g[1] for g in groups}) > 1

    def cluster_of(r: "RunRecord") -> str:
        return r.params.get("cluster", "sim")

    present = {cluster_of(r) for r in ok}
    domains = ("sim",) + tuple(sorted(present - {"sim"}))

    def cell_cols(row: dict, r: "RunRecord" | None, domain: str,
                  base: float | None) -> None:
        o = (r.outcome or {}) if r is not None else {}
        t = o.get("runtime") if r is not None else None
        x = backend_speedup(base, t)
        row[f"{domain} t"] = format_seconds(t) if t is not None else "-"
        row[f"{domain} ×"] = f"{x:.2f}" if x is not None else "-"
        row[f"{domain} µ"] = (
            f"{o.get('best_mu', 0.0):.3f}" if r is not None else "-"
        )

    rows = []
    for g in groups:
        in_group = [r for r in ok if _group_of(r) == g]
        serials = {
            cluster_of(r): r for r in in_group if r.strategy == "serial"
        }
        base = {
            k: (r.outcome or {}).get("runtime") for k, r in serials.items()
        }
        row: dict[str, Any] = {**_label(g, multi_seed), "strategy": "serial", "p": 1}
        for domain in domains:
            cell_cols(row, serials.get(domain), domain, base.get(domain))
        rows.append(row)
        keyed: dict[tuple[str, int], dict[str, "RunRecord"]] = {}
        for r in in_group:
            if r.strategy == "serial":
                continue
            key = (_strategy_label(r), r.params.get("p", 0))
            keyed.setdefault(key, {})[cluster_of(r)] = r
        for label_p in sorted(keyed):
            label, p = label_p
            row = {**_label(g, multi_seed), "strategy": label, "p": p}
            for domain in domains:
                cell_cols(row, keyed[label_p].get(domain), domain,
                          base.get(domain))
            rows.append(row)
    head = " | ".join(
        f"{d} (model-seconds, × vs {d} serial)" if d == "sim"
        else f"{d} (wall-seconds, × vs {d} serial)"
        for d in domains
    )
    return render_table(rows, title=title or f"Speedup — {head}")


def render_generic_records(records: Sequence["RunRecord"], title: str | None = None) -> str:
    """Fallback flat layout for custom sweeps (one row per cell)."""
    rows = []
    for r in records:
        o = r.outcome or {}
        rows.append({
            "cell": r.cell_id,
            "ok": "yes" if r.ok else "FAIL",
            "µ(s)": f"{o.get('best_mu', 0.0):.3f}" if r.ok else "-",
            "t": format_seconds(o.get("runtime", 0.0)) if r.ok else "-",
            "iters": r.spec.get("iterations", "-"),
        })
    return render_table(rows, title=title or "Sweep results")


#: scenario-name → (renderer, title) dispatch used by :func:`render_records`.
_RENDERERS = {
    "table1": (render_table1_records, None),
    "table2": (
        render_type2_records,
        "Table 2 — Type II, WL+P (model-seconds; (q%) = quality bracket)",
    ),
    "table3": (
        render_type2_records,
        "Table 3 — Type II, WL+P+delay (model-seconds; (q%) = quality bracket)",
    ),
    "table4": (render_table4_records, None),
    "profile": (render_profile_records, None),
    "scaling": (render_scaling_records, None),
    "knobs": (render_knob_records, None),
    "retry": (render_retry_records, None),
    "shootout": (render_shootout_records, None),
    "speedup": (render_speedup_records, None),
}


def render_records(
    records: Sequence["RunRecord"], scenario: str | None = None
) -> str:
    """Render records in the paper layout for their scenario.

    ``scenario`` defaults to the records' own scenario name; unknown
    scenarios fall back to the generic flat layout.  Failed cells are
    listed beneath the table so they are never silently dropped.
    """
    name = scenario or (records[0].scenario if records else None)
    renderer, table_title = _RENDERERS.get(name or "", (render_generic_records, None))
    body = renderer(records, title=table_title)
    failures = [r for r in records if not r.ok]
    if failures:
        lines = [body, "", f"{len(failures)} failed cell(s):"]
        for r in failures:
            first = ((r.error or "").splitlines() or ["(no error recorded)"])[0]
            lines.append(f"  {r.cell_id}: {first}")
        return "\n".join(lines)
    return body
