"""``--changed-only`` support: which files differ from HEAD?

Used by ``repro lint`` (the pre-commit hook in the README) to skip the
run entirely when no file under the given paths changed.  Any change
triggers a full run: the project rules (K3xx, P50x) cross-reference
files, so a per-file run would miss what the change broke elsewhere.
Purely advisory: when git is unavailable or the tree is not a
repository, callers fall back to a full run.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

__all__ = ["changed_paths"]


def _git(args: list[str], cwd: Path) -> list[str] | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return [line for line in proc.stdout.splitlines() if line.strip()]


def changed_paths(cwd: str | Path = ".") -> set[Path] | None:
    """Resolved paths of files changed vs HEAD (staged, unstaged and
    untracked-but-not-ignored).  ``None`` when git cannot answer —
    callers must then treat every file as changed.
    """
    cwd = Path(cwd)
    top = _git(["rev-parse", "--show-toplevel"], cwd)
    if not top:
        return None
    root = Path(top[0])
    diff = _git(["diff", "--name-only", "HEAD"], root)
    untracked = _git(["ls-files", "--others", "--exclude-standard"], root)
    if diff is None or untracked is None:
        return None
    out: set[Path] = set()
    for rel in diff + untracked:
        p = root / rel
        try:
            out.add(p.resolve())
        except OSError:
            out.add(p)
    return out
