"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD EXPERIMENT_SEED TMPDIR

Run from the repository root.  Prints the seconds from just after
interpreter start-up through importing ``repro`` and building and
attaching every problem the workload uses (see ``workloads.prepare``).
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
import tempfile  # noqa: E402


def main() -> int:
    name, seed, tmp = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    tempfile.tempdir = tmp
    sys.path.insert(0, "src")
    import repro  # noqa: F401
    from workloads import WORKLOADS, prepare

    workload = WORKLOADS[name]
    prepare(workload, workload.cells(seed))
    print(time.perf_counter() - T0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
