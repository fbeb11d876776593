"""The one float rendering every artifact uses.  Numpy-free, so that the
command-line front end can render metadata without loading an engine."""


def _fmt(x: float) -> str:
    """17 significant digits: enough to read back the same float."""
    return format(float(x), ".17g")
