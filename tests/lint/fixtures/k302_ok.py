"""Clean for K302: aliases delegate to override(); cell_key filters by
the NON_IDENTITY_PARAMS manifest."""

NON_IDENTITY_PARAMS = ("deadline",)


def override(cells, **knobs):
    return list(cells)


def override_gamma(cells, value):
    return override(cells, gamma=value)


def cell_key(cell):
    params = {k: v for k, v in cell.params if k not in NON_IDENTITY_PARAMS}
    return repr((cell.strategy, params))
