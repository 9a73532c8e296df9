"""The one CSV writer behind every table the package saves."""

from __future__ import annotations

import numpy as np


def write_csv(path, header, rows) -> None:
    """Write a header line, then one line per row of a 2-D float array.

    Numbers carry 17 significant digits, which round-trips every float
    exactly. Each row fills one ``"%.17g,...\\n"`` template from its plain
    Python floats, which is much cheaper than formatting numpy scalars one
    by one. Rows are converted one at a time: a whole flight log as Python
    floats would take several times the memory of its array.
    """
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(line % tuple(row.tolist()) for row in rows)
