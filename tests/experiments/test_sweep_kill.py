"""A killed sweep driver resumes clean and leaves no pool workers behind.

Each kill test runs ``repro sweep`` over a small two-strategy grid in a
subprocess whose ``python -c`` launcher patches one library function to
SIGKILL the process at a fixed point of the run:

* ``cell`` — inside the second cell (its ranks are allocating);
* ``cache-replace`` — after a cell cache entry's tmp file is written,
  before ``os.replace`` moves it in (the writer holds its ``.locks/``
  flock at that moment);
* ``artifact`` — halfway through writing the artifact JSON's tmp file;
* ``put`` — right after a pooled sweep files a cell in the cache.

Then ``--resume`` on the same directory must finish the sweep, and
``repro diff`` against a fresh ``--no-cache`` run must report the two
artifacts identical.  What a kill leaves behind — a leftover tmp file, a
torn cache entry, a stale lock file — reads as a cache miss, never as an
error, and the resumed run's writes of the same files remove the tmp
files.

The last test SIGKILLs the driver of a pooled sweep and requires every
pool worker to exit with it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.experiments.artifacts import CellCache
from repro.experiments.registry import custom_sweep, resolve

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="SIGKILL and /proc semantics are Linux's"
)

#: The grid: two strategies x two seeds on the cheapest paper circuit.
GRID = ["--circuits", "s1196", "--strategies", "serial,type2",
        "--p-values", "2", "--seeds", "1,2", "--smoke", "--tag", "grid"]

#: SIGKILLs the process at the ``nth`` hit of the chosen kill point, then
#: runs ``repro`` with the remaining arguments.
LAUNCHER = textwrap.dedent("""
    import os, pathlib, signal, sys

    point, nth = sys.argv[1], int(sys.argv[2])
    hits = 0

    def due():
        global hits
        hits += 1
        return hits == nth

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    if point == "cell":
        from repro.sime.allocation import Allocator
        real_allocate = Allocator.allocate

        def allocate(self, *args, **kwargs):
            if due():
                die()
            return real_allocate(self, *args, **kwargs)

        Allocator.allocate = allocate
    elif point == "cache-replace":
        real_replace = os.replace

        def replace(src, dst, **kwargs):
            if pathlib.Path(dst).parent.name == "cells" and due():
                die()
            real_replace(src, dst, **kwargs)

        os.replace = replace
    elif point == "artifact":
        real_write_text = pathlib.Path.write_text

        def write_text(self, data, *args, **kwargs):
            if self.name.startswith("grid.json.tmp") and due():
                real_write_text(self, data[: len(data) // 2], *args, **kwargs)
                die()
            return real_write_text(self, data, *args, **kwargs)

        pathlib.Path.write_text = write_text
    elif point == "put":
        from repro.experiments.artifacts import CellCache
        real_put = CellCache.put

        def put(self, *args, **kwargs):
            path = real_put(self, *args, **kwargs)
            if due():
                die()
            return path

        CellCache.put = put
    else:
        sys.exit(f"unknown kill point {point!r}")

    from repro.cli import main
    sys.exit(main(sys.argv[3:]))
""")


def _env() -> dict[str, str]:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _repro(*argv: str, kill: tuple[str, int] | None = None,
           timeout: float = 60) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repro.cli", *argv]
    if kill is not None:
        cmd = [sys.executable, "-c", LAUNCHER, kill[0], str(kill[1]), *argv]
    return subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                          timeout=timeout)


def _grid_cells():
    """The cells ``repro sweep`` resolves for :data:`GRID`."""
    scenario = custom_sweep(circuits=["s1196"], strategies=["serial", "type2"],
                            p_values=[2], patterns=["random"], seeds=[1, 2])
    return resolve(scenario, circuits=["s1196"], smoke=True)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("fresh")
    proc = _repro("sweep", *GRID, "--no-cache", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out / "grid.json"


def _killed(out: Path, point: str, nth: int, *argv: str) -> None:
    proc = _repro("sweep", *GRID, "--out", str(out), *argv, kill=(point, nth))
    assert proc.returncode == -signal.SIGKILL, (proc.stdout, proc.stderr)


def _resume_matches_fresh(out: Path, fresh: Path, capsys) -> None:
    proc = _repro("sweep", *GRID, "--out", str(out), "--resume")
    assert proc.returncode == 0, proc.stderr
    capsys.readouterr()
    assert main(["diff", str(out / "grid.json"), str(fresh)]) == 0
    assert "identical: 4 cells" in capsys.readouterr().out


def _hits(out: Path) -> list[bool]:
    cache = CellCache(out / "cells")
    return [cache.get(cell) is not None for cell in _grid_cells()]


def test_kill_mid_cell_then_resume(tmp_path, fresh, capsys):
    # The serial cell allocates 8 times; the 12th call is inside the
    # second (type2) cell.
    _killed(tmp_path, "cell", 12)
    assert _hits(tmp_path) == [True, False, False, False]
    assert not (tmp_path / "grid.json").exists()
    _resume_matches_fresh(tmp_path, fresh, capsys)


def test_kill_between_cache_tmp_write_and_replace_then_resume(
    tmp_path, fresh, capsys,
):
    _killed(tmp_path, "cache-replace", 3)
    cells_dir = tmp_path / "cells"
    [leftover] = cells_dir.glob("*.json.tmp*")  # complete, never moved in
    entries = sorted(cells_dir.glob("*.json"), key=os.path.getmtime)
    assert len(entries) == 2
    # The third cell's writer died holding its flock: the lock file stays.
    stale = cells_dir / ".locks" / f"{leftover.name.split('.json.tmp')[0]}.lock"
    assert stale.exists()
    # Tear the second entry, as a writer without atomic replace would.
    text = entries[1].read_text()
    entries[1].write_text(text[: len(text) // 2])
    assert _hits(tmp_path) == [True, False, False, False]

    _resume_matches_fresh(tmp_path, fresh, capsys)
    assert _hits(tmp_path) == [True] * 4
    for entry in cells_dir.glob("*.json"):
        json.loads(entry.read_text())  # the torn entry was rewritten
    # The resumed write of the same key removed the leftover under the
    # flock; the lock file is inert and stays.
    assert not leftover.exists() and stale.exists()


def test_kill_mid_artifact_write_then_resume(tmp_path, fresh, capsys):
    _killed(tmp_path, "artifact", 1)
    assert not (tmp_path / "grid.json").exists()
    [torn] = tmp_path.glob("grid.json.tmp*")
    with pytest.raises(ValueError):
        json.loads(torn.read_text())
    assert _hits(tmp_path) == [True] * 4  # every cell finished first
    _resume_matches_fresh(tmp_path, fresh, capsys)
    assert not torn.exists()  # the resumed save removed it


def test_kill_pooled_sweep_after_second_put_then_resume(
    tmp_path, fresh, capsys,
):
    # One worker runs the cells in order, one task each: the two filed
    # cells survive, and only the running cell is lost.
    _killed(tmp_path, "put", 2, "--workers", "1")
    assert len(CellCache(tmp_path / "cells")) == 2
    assert _hits(tmp_path) == [True, True, False, False]
    _resume_matches_fresh(tmp_path, fresh, capsys)


# ---------------------------------------------------------------------------
# Pool workers die with the driver
# ---------------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def _running(pid: int) -> bool:
    """True unless ``pid`` is gone or a zombie."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def test_pool_workers_exit_when_the_driver_is_killed(tmp_path):
    driver = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "sweep", "--smoke", "--workers",
         "2", "--no-cache", "--out", str(tmp_path)],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and time.monotonic() < deadline:
            assert driver.poll() is None, "the sweep ended before the kill"
            workers = _children(driver.pid)
            time.sleep(0.05)
        assert len(workers) >= 2, f"pool workers never started: {workers}"
        time.sleep(0.5)  # let the workers get into their first cells
        driver.kill()
        driver.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        alive = [pid for pid in workers if _running(pid)]
        assert not alive, f"pool workers outlived the driver: {alive}"
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
