#!/usr/bin/env python3
"""Type II speed-up curves on the simulated cluster — and for real.

Part 1 sweeps processor counts on the deterministic simulated cluster
(model-seconds, the paper's Table 2 axis).  Part 2 runs the same SPMD
Type II program on real OS processes via the socket router backend and
reports genuine wall-clock on this machine.

Run:  python examples/parallel_speedup.py
"""

import time

from repro import ExperimentSpec, run_serial, run_type2
from repro.parallel.mpi.backend import make_cluster
from repro.parallel import type2 as type2_mod


def simulated_sweep(spec: ExperimentSpec) -> None:
    print("== simulated fast-ethernet cluster (deterministic model-seconds) ==")
    serial = run_serial(spec)
    print(f"serial: {serial.runtime:.2f} model-s, µ={serial.best_mu:.3f}")
    for pattern in ("fixed", "random"):
        line = f"  {pattern:<7}"
        for p in (2, 3, 4, 5):
            out = run_type2(spec, p=p, pattern=pattern)
            line += f"  p={p}: {serial.runtime / out.runtime:.2f}x"
        print(line)


def real_processes(spec: ExperimentSpec, p: int = 4) -> None:
    print(f"\n== real socket router backend ({p} OS processes) ==")
    iters = type2_mod.parallel_iterations(spec.iterations, p)

    t0 = time.perf_counter()
    serial = run_serial(spec)
    serial_wall = time.perf_counter() - t0
    print(f"serial wall-clock: {serial_wall:.2f} s (µ={serial.best_mu:.3f})")

    cluster = make_cluster("socket", p)
    res = cluster.run(
        type2_mod._spmd,
        kwargs={"spec": spec, "iterations": iters, "pattern": "random"},
    )
    master = res.results[0]
    print(f"type II wall-clock: {res.makespan:.2f} s with {iters} iterations "
          f"(µ={master['best_mu']:.3f})")
    print(f"real speed-up vs serial wall: {serial_wall / res.makespan:.2f}x")
    print("(each process fully re-evaluates the solution per iteration, as in")
    print(" the paper; wall speed-up is bounded by that duplicated sweep)")


def main() -> None:
    spec = ExperimentSpec(
        circuit="s1196", objectives=("wirelength", "power"), iterations=35, seed=1
    )
    simulated_sweep(spec)
    real_processes(spec)


if __name__ == "__main__":
    main()
