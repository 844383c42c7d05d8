"""``repro`` — the command-line front end to the experiment layer.

Subcommands
-----------
``repro list``
    Show registered scenarios (and ``--circuits`` for the circuit suite).
``repro run``
    Run one experiment cell (circuit × strategy × parameters) and print
    the outcome; ``--out`` also writes a JSON/CSV artifact.
``repro sweep``
    Run a registered scenario (``--scenario table1`` … ``table4`` for the
    paper's tables) or an open-ended ``circuit × strategy × p × pattern``
    grid end to end: resolve, run the cells in-process or one per task
    over a process pool of ``--workers N``, save the artifacts, render
    the paper-shaped report and, under a paper table, print one verdict
    line per DESIGN §7 claim.  ``--shard i/N`` runs one deterministic
    slice of the grid (CI/cluster fan-out); ``--resume`` replays
    completed cells from the on-disk cell cache and re-runs only the
    missing or failed ones.
``repro diff``
    Compare two sweep artifacts cell by cell (modulo wall-clock); exit 1
    on any difference — the merge gate for sharded runs.
``repro lint``
    Project-specific AST invariant linter (determinism, comm-protocol,
    cache-identity, typed-island rules) and comm-protocol model checker
    (P501-P504: tag matching, collective alignment, bounded deadlock
    exploration, deadline coverage); ``--trace`` adds the vector-clock
    message-race sanitizer (P505/P506) over traced sim-backend smoke
    runs.  Exit 1 on any unsuppressed finding — the CI ``lint`` job
    gate.  Also ``python -m repro.lint``.

Every stochastic component seeds from the spec, so any command line is
reproducible bit-for-bit; ``--smoke`` shrinks budgets for CI.  Any
command that executes cells exits non-zero if one of them failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.analysis.reporting import render_records, render_table
from repro.experiments.artifacts import (
    NON_IDENTITY_PARAMS,
    ArtifactStore,
    CellCache,
    RunRecord,
    failed,
)
from repro.experiments.registry import (
    KNOBS,
    STRATEGIES,
    SweepCell,
    _cell_id,
    _validate,
    base_spec,
    custom_sweep,
    get_scenario,
    list_scenarios,
    override,
    resolve,
)
from repro.parallel.partition import ROW_PATTERNS
from repro.experiments.sweeps import (
    parse_shard,
    run_cell,
    run_sweep,
    shard_cells,
)
from repro.netlist.suite import (
    list_all_circuits,
    list_paper_circuits,
    list_scaling_circuits,
)

__all__ = ["main", "build_parser"]


def _csv_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _csv_ints(text: str) -> list[int]:
    return [int(t) for t in _csv_list(text)]


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type`` for integers ``>= minimum`` (else exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value

    return parse


_non_negative_int = _int_at_least(0)
_positive_int = _int_at_least(1)


#: Flag, metavar and help of each registry knob (``dest`` is its name).
_KNOB_FLAGS = {
    "cluster": ("--cluster", None,
                "execution backend: sim (simulated cluster, model-seconds) "
                "or socket (real processes, p up to 256, wall-clock)"),
    "eval_mode": ("--eval-mode", None,
                  "allocation evaluation path: scalar (bit-exact), batch "
                  "(vectorized, ulp-budget equivalent) or check (both, gated)"),
    "deadline": ("--deadline", "SECONDS",
                 "run deadline of real-process cells (default 600s); not "
                 "part of cell ids or cache keys"),
    "faults": ("--inject-faults", "SPEC",
               "deterministic fault plan for parallel cells, e.g. "
               "'kill:at=6' or 'wedge:rank=2:at=5'"),
    "on_rank_failure": ("--on-rank-failure", None,
                        "type3/type3x response to losing a rank: fail fast "
                        "(abort) or continue on the survivors (degrade)"),
}


def _knob_parser() -> argparse.ArgumentParser:
    """The knob flags ``run`` and ``sweep`` share.

    An unset knob (``None``) is not forced: each cell keeps its value.
    The registry knob checks each value, so a bad one is a usage error
    (exit 2) before anything runs.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "run-time knobs (same meaning on run and sweep)")
    for name, (flag, metavar, help_text) in _KNOB_FLAGS.items():
        knob = KNOBS[name]

        def parse(text: str, check: Any = knob.check) -> Any:
            try:
                return check(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        group.add_argument(flag, dest=name, type=parse, metavar=metavar,
                           choices=knob.choices or None, help=help_text)
    group.add_argument(
        "--max-retries", type=_non_negative_int, default=0, metavar="N",
        help="re-run a cell up to N times after transient failures (rank "
             "death, wedge, dropped connection) with deterministic "
             "jittered backoff; deterministic failures never retry")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel SimE placement experiments (Sait, Ali & Zaidi, IPPS 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    knobs = _knob_parser()

    p_list = sub.add_parser("list", help="list scenarios and circuits")
    p_list.add_argument("--circuits", action="store_true",
                        help="list the paper circuit suite instead")
    p_list.add_argument("-v", "--verbose", action="store_true",
                        help="include scenario descriptions and grids")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser(
        "run", parents=[knobs], help="run a single experiment cell")
    p_run.add_argument("--circuit", required=True, choices=list_all_circuits())
    p_run.add_argument("--strategy", default="serial", choices=list(STRATEGIES))
    p_run.add_argument("--objectives", type=_csv_list,
                       default=["wirelength", "power"],
                       help="comma-separated subset of wirelength,power,delay")
    p_run.add_argument("--iterations", type=_positive_int, default=35,
                       help="serial iteration budget (default 35 ≈ paper/100)")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--p", type=int, default=None,
                       help="processor count (parallel strategies)")
    p_run.add_argument("--pattern", default=None, choices=ROW_PATTERNS,
                       help="Type II row-allocation pattern (default random)")
    p_run.add_argument("--retry-threshold", type=int, default=None,
                       help="Type III retry threshold (default ~4%% of budget)")
    p_run.add_argument("--out", default=None,
                       help="artifact directory (also writes JSON/CSV)")
    p_run.add_argument("--json", action="store_true",
                       help="print the full outcome record as JSON")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", parents=[knobs],
        help="run a scenario (e.g. a paper table) or custom grid")
    p_sweep.add_argument("--scenario", default=None,
                         help="registered scenario name (see `repro list`)")
    p_sweep.add_argument("--circuits", type=_csv_list, default=None,
                         help="override the scenario's circuit set")
    p_sweep.add_argument("--strategies", type=_csv_list, default=None,
                         help="custom grid: comma-separated strategies")
    p_sweep.add_argument("--p-values", type=_csv_ints, default=[2, 4],
                         help="custom grid: processor counts")
    p_sweep.add_argument("--patterns", type=_csv_list, default=["random"],
                         help="custom grid: Type II patterns")
    p_sweep.add_argument("--seeds", type=_csv_ints, default=None,
                         help="replicate seeds (default: scenario's)")
    p_sweep.add_argument("--scale", type=_positive_int, default=100,
                         help="divide paper iteration budgets by this")
    p_sweep.add_argument("--smoke", action="store_true",
                         help="tiny budgets/circuits (CI); default scenario: smoke")
    p_sweep.add_argument("--workers", type=_positive_int, default=None,
                         help="run the cells one per task over a process "
                              "pool of N (default: in-process)")
    p_sweep.add_argument("--shard", default=None, metavar="I/N",
                         help="run only deterministic shard I of N "
                              "(1-based); shards merge via --resume")
    p_sweep.add_argument("--resume", nargs="?", const="", default=None,
                         metavar="DIR",
                         help="replay completed cells from DIR's cell "
                              "cache (default DIR: --out) and run only "
                              "missing/failed ones")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="do not write the per-cell resume cache")
    p_sweep.add_argument("--out", default="artifacts",
                         help="artifact directory (default: artifacts/)")
    p_sweep.add_argument("--tag", default=None,
                         help="artifact basename (default: scenario name)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_diff = sub.add_parser(
        "diff", help="compare two sweep artifacts (modulo wall-clock)")
    p_diff.add_argument("a", help="first artifact JSON path")
    p_diff.add_argument("b", help="second artifact JSON path")
    p_diff.set_defaults(func=cmd_diff)

    p_lint = sub.add_parser(
        "lint",
        help="AST invariant linter and comm-protocol checker")
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    return parser


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import cmd_lint as _cmd_lint

    return _cmd_lint(args)


def _progress(done: int, total: int, record: RunRecord) -> None:
    status = "ok" if record.ok else "FAIL"
    mu = ""
    if record.ok and record.outcome:
        mu = f"  µ={record.outcome.get('best_mu', 0.0):.3f}"
    print(f"[{done}/{total}] {record.cell_id}: {status}{mu} "
          f"({record.wall_seconds:.1f}s)", flush=True)


def cmd_list(args: argparse.Namespace) -> int:
    if args.circuits:
        print("paper circuit suite:")
        for name in list_paper_circuits():
            print(f"  {name}")
        print("scaling ladder:")
        for name in list_scaling_circuits():
            print(f"  {name}")
        return 0
    rows = []
    for s in list_scenarios():
        # Resolve for real so the count reflects scale-dependent dedup
        # (e.g. Table 4's retry fractions collapsing at small budgets).
        n_cells = len(resolve(s, scale=100))
        rows.append({
            "scenario": s.name,
            "table": s.table if s.table is not None else "-",
            "circuits": len(s.circuits),
            "cells": n_cells,
            "title": s.title,
        })
    print(render_table(rows, title="Registered scenarios (cells at --scale 100)"))
    if args.verbose:
        for s in list_scenarios():
            print(f"\n{s.name}: {s.description}")
            for g in s.grids:
                axes = ", ".join(f"{k}∈{list(v)}" for k, v in g.axes) or "(no axes)"
                print(f"  {g.strategy}: {axes}")
            for cell, reason in s.dropped_cells:
                print(f"  dropped {cell}: {reason}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = base_spec(
        args.circuit, tuple(args.objectives), args.iterations, args.seed
    )
    # A flag for a param the strategy does not take is refused, not dropped.
    strategy = STRATEGIES[args.strategy]
    defaults = {"p": strategy.min_p, "pattern": "random",
                "retry_threshold": max(1, args.iterations // 25)}
    flags = {"p": args.p, "pattern": args.pattern,
             "retry_threshold": args.retry_threshold}
    params: dict[str, Any] = {
        k: defaults[k] if v is None else v
        for k, v in flags.items() if v is not None or k in strategy.params
    }
    try:
        _validate(args.strategy, params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cell = SweepCell(
        "cli-run", "", args.strategy, spec, tuple(sorted(params.items()))
    )
    # Knob by knob in table order (a deadline applies only once a cluster
    # is forced); a value this cell ignores is a usage error, not a no-op.
    for name, knob in KNOBS.items():
        value = getattr(args, name)
        if value is None or value == knob.current(cell):
            continue
        if not knob.applies(args.strategy, cell.params_dict()):
            print(f"error: {_KNOB_FLAGS[name][0]} does not apply to "
                  f"this {args.strategy} cell: {knob.why}", file=sys.stderr)
            return 2
        cell = override([cell], **{name: value})[0]
    # The id lists the identity params plus a non-default eval mode, sorted.
    id_parts = {k: v for k, v in cell.params if k not in NON_IDENTITY_PARAMS}
    if cell.spec.eval_mode != KNOBS["eval_mode"].default:
        id_parts["eval_mode"] = cell.spec.eval_mode
    cell = replace(cell, cell_id=_cell_id(
        args.circuit, args.seed, args.strategy, dict(sorted(id_parts.items()))
    ))
    record = run_cell(cell, max_retries=args.max_retries)
    if not record.ok:
        print(f"FAILED: {record.error}", file=sys.stderr)
        return 1
    if record.attempts > 1:
        print(f"note: succeeded on attempt {record.attempts} "
              f"({record.attempts - 1} transient failure(s) retried)",
              file=sys.stderr)
    if args.json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    else:
        out = record.outcome or {}
        # The real backend's runtime is wall-clock, not model-seconds.
        label = (
            "wall-time"
            if "cluster" in (out.get("extras") or {})
            else "model-time"
        )
        print(f"{record.cell_id}: µ(s)={out.get('best_mu', 0.0):.4f}  "
              f"{label}={out.get('runtime', 0.0):.2f}s  "
              f"iterations={out.get('iterations')}  "
              f"wall={record.wall_seconds:.1f}s")
        for k, v in (out.get("best_costs") or {}).items():
            print(f"  {k:>11}: {v:,.1f}")
    if args.out:
        store = ArtifactStore(args.out)
        # Name the artifact after the cell so successive runs with
        # different configurations don't clobber each other.
        tag = record.cell_id.replace("/", "-")
        json_path, csv_path = store.save(tag, [record])
        print(f"artifact: {json_path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.strategies:
        if args.scenario:
            print("--scenario and --strategies are mutually exclusive "
                  "(a custom grid replaces the named scenario)", file=sys.stderr)
            return 2
        if not args.circuits:
            print("--strategies requires --circuits", file=sys.stderr)
            return 2
        try:
            scenario = custom_sweep(
                circuits=args.circuits,
                strategies=args.strategies,
                p_values=args.p_values,
                patterns=args.patterns,
                seeds=args.seeds or (1,),
            )
            # Keep the user's circuits even under --smoke (resolve would
            # otherwise fall back to the scenario's smoke_circuits default).
            cells = resolve(
                scenario, scale=args.scale, circuits=args.circuits, smoke=args.smoke
            )
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    else:
        name = args.scenario or ("smoke" if args.smoke else None)
        if name is None:
            print("need --scenario NAME, --smoke, or a custom grid "
                  "(--circuits + --strategies)", file=sys.stderr)
            return 2
        try:
            scenario = get_scenario(name)
            cells = resolve(
                scenario,
                scale=args.scale,
                circuits=args.circuits,
                seeds=args.seeds,
                smoke=args.smoke,
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    return _execute_sweep(args, scenario, cells)


def _execute_sweep(
    args: argparse.Namespace, scenario: Any, cells: Sequence[SweepCell]
) -> int:
    """The tail of `sweep`: run, save artifacts, render the report and
    the scenario's claim verdicts.

    Exit status: 0 all cells succeeded, 1 any cell failed, 2 bad usage —
    a red sweep must never look green to a caller or a CI job.  A claim
    that does not hold does not change it.
    """
    from repro.analysis.claims import check_claims

    for cell, reason in scenario.dropped_cells:
        print(f"note: dropped {cell}: {reason}", file=sys.stderr)
    if not cells:
        print("error: resolved 0 cells (empty circuit/seed set?)", file=sys.stderr)
        return 2
    # Smoke runs get their own artifact name so they never clobber a
    # full-scale run of the same scenario, a forced knob suffixes its
    # value for the same reason (unless --tag), and shards get a slice
    # suffix.
    forced = {name: getattr(args, name) for name in KNOBS}
    cells = override(cells, **forced)
    planned = [c.cell_id for c in cells]
    tag = args.tag or scenario.name
    if not args.tag:
        if args.smoke and not tag.endswith("smoke"):
            tag = f"{scenario.name}-smoke"
        tag += "".join(
            KNOBS[name].tag(v) for name, v in forced.items() if v is not None
        )
    shard = None
    if args.shard:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cells = shard_cells(cells, *shard)
        tag = f"{tag}-shard{shard[0]}of{shard[1]}"
        if not cells:
            print("error: shard is empty (more shards than cells?)",
                  file=sys.stderr)
            return 2

    resume = args.resume
    if resume is not None and args.no_cache:
        print("--resume and --no-cache are contradictory (resume replays "
              "the cell cache)", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        # Fresh cells always land in --out's cache (that is what a later
        # `--resume` on this directory resumes from); reads happen only
        # under --resume, additionally consulting an explicit DIR without
        # ever writing into it.
        out_cells = Path(args.out) / "cells"
        extra = []
        if resume:  # explicit DIR (bare --resume means DIR == --out)
            resume_cells = Path(resume) / "cells"
            if resume_cells.resolve() != out_cells.resolve():
                extra = [resume_cells]
        cache = CellCache(out_cells, read=resume is not None, also_read=extra)

    shard_note = f" [shard {shard[0]}/{shard[1]}]" if shard else ""
    print(f"sweep {scenario.name}: {len(cells)} cells"
          + (" (smoke)" if args.smoke else "") + shard_note)
    records = run_sweep(
        cells,
        workers=args.workers,
        progress=_progress,
        cache=cache,
        max_retries=args.max_retries,
    )
    store = ArtifactStore(args.out)
    meta = {
        "scenario": scenario.name,
        "scale": args.scale,
        "smoke": args.smoke,
        "argv": args.repro_argv,
    }
    if shard:
        meta["shard"] = f"{shard[0]}/{shard[1]}"
    json_path, csv_path = store.save(tag, records, meta)
    print(f"\nartifacts: {json_path}  {csv_path}")
    print()
    print(render_records(records, scenario.name))
    verdicts = check_claims(scenario.name, records, planned)
    if verdicts:
        print("\nclaims (DESIGN.md §7):")
        for verdict in verdicts:
            print(f"  {verdict.line()}")
    bad = failed(records)
    if bad:
        print(f"\n{len(bad)} of {len(records)} cell(s) FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two artifacts' canonical records; exit 1 on any difference."""
    store = ArtifactStore(".")
    try:
        _, a_records = store.load(args.a)
        _, b_records = store.load(args.b)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    # A JSON without records is a wrong file, not an empty comparison —
    # "identical: 0 cells" must never green-light a merge gate.
    for path, records in ((args.a, a_records), (args.b, b_records)):
        if not records:
            print(f"error: {path} contains no run records "
                  "(not a sweep artifact?)", file=sys.stderr)
            return 2
    a_map = {r.cell_id: r.canonical() for r in a_records}
    b_map = {r.cell_id: r.canonical() for r in b_records}
    problems = []
    for cid in sorted(a_map.keys() | b_map.keys()):
        if cid not in a_map:
            problems.append(f"only in {args.b}: {cid}")
        elif cid not in b_map:
            problems.append(f"only in {args.a}: {cid}")
        elif a_map[cid] != b_map[cid]:
            keys = [k for k in a_map[cid] if a_map[cid][k] != b_map[cid].get(k)]
            problems.append(f"differs: {cid} (fields: {', '.join(keys)})")
    if problems:
        for p in problems:
            print(p)
        print(f"\n{len(problems)} difference(s)", file=sys.stderr)
        return 1
    print(f"identical: {len(a_map)} cells (modulo wall_seconds)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The argv that actually produced this invocation (sys.argv is wrong
    # for programmatic main([...]) calls) — recorded in artifact meta.
    args.repro_argv = list(argv) if argv is not None else sys.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
