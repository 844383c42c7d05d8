"""Violates K302 once per half: a per-knob override that re-implements
the table, and a cell_key exclusion by string literal."""

NON_IDENTITY_PARAMS = ("deadline",)


def override_gamma(cells, value):
    out = []
    for cell in cells:
        cell.extras["gamma"] = value
        out.append(cell)
    return out


def cell_key(cell):
    params = {k: v for k, v in cell.params if k != "timeout"}
    return repr((cell.strategy, params))
