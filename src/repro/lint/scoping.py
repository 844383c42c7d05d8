"""Per-directory rule scoping.

Not every invariant applies everywhere: determinism rules bind only the
result-affecting packages (a wall-clock backend may read the clock; the
cost engine may not), comm-protocol rules bind ``parallel/`` minus the
two modules that *implement* the framing, and the typed-island rule
binds exactly the islands.  Scopes are substring matches against the
POSIX form of each file's path, so they work for both installed-layout
(``src/repro/…``) and test-fixture paths.
"""

from __future__ import annotations

from pathlib import Path, PurePosixPath

__all__ = ["RuleScope", "DEFAULT_EXCLUDES"]

#: Paths never linted by default: deliberately-violating golden fixtures
#: (the single-rule fixtures and the protocol fixtures).
DEFAULT_EXCLUDES = ("tests/lint/fixtures/", "tests/check/fixtures/")


class RuleScope:
    """Where a rule applies.

    ``include``: the file path must contain one of these fragments (empty
    means everywhere).  ``exclude``: …and none of these.
    """

    def __init__(
        self,
        include: tuple[str, ...] = (),
        exclude: tuple[str, ...] = (),
    ):
        self.include = include
        self.exclude = exclude

    def matches(self, path: str | Path) -> bool:
        text = str(PurePosixPath(Path(path).as_posix()))
        if any(frag in text for frag in self.exclude):
            return False
        if not self.include:
            return True
        return any(frag in text for frag in self.include)


#: The result-affecting packages: code here feeds cost values, placements
#: or trajectories, so determinism rules are binding.
RESULT_AFFECTING = (
    "repro/sime/",
    "repro/cost/",
    "repro/parallel/",
    "repro/layout/",
    "repro/netlist/",
)

#: The comm layer; framing/transport implementation modules are carved
#: out of the raw-send/raw-recv rules because they *are* the one place
#: raw socket and pipe operations belong.
COMM_LAYER = ("repro/parallel/",)
COMM_IMPL = (
    "repro/parallel/mpi/message.py",
    "repro/parallel/mpi/commbase.py",
)

#: The typed islands (satellite: first mypy --strict targets).
TYPED_ISLANDS = (
    "repro/utils/",
    "repro/parallel/mpi/message.py",
)
