"""Write unit-square path-grid instances the CLI cannot generate.

Usage: python3 write_layouts.py OUTDIR NAME...   (with ringsync importable)

Squares are 1x1 with a 0.4 gap and range 0.5, so grid neighbours link and
nothing else does.  A staggered grid shifts row r by 0.1*r in x and column c
by 0.1*c in y, so that no two links of one square coincide; an aligned grid
puts a square's links to its right and lower neighbours at the same corner.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from ringsync.cli import instance_to_json
from ringsync.geometry import ClosedPath
from ringsync.instance import Instance

from workloads import PATH_GRIDS, PATH_PERIOD


def path_grid(rows: int, cols: int, staggered: bool, label: str) -> Instance:
    paths = []
    for r in range(rows):
        for c in range(cols):
            x0 = 1.4 * c + (0.1 * r if staggered else 0.0)
            y0 = -1.4 * r + (0.1 * c if staggered else 0.0)
            paths.append(ClosedPath(np.array(
                [[x0, y0], [x0 + 1.0, y0], [x0 + 1.0, y0 + 1.0], [x0, y0 + 1.0]])))
    return Instance(mode="path", paths=paths, ranges=[0.5] * len(paths),
                    label=label, meta={"period": PATH_PERIOD})


def main(outdir: str, names: list) -> int:
    for name in names:
        rows, cols, staggered = PATH_GRIDS[name]
        doc = instance_to_json(path_grid(rows, cols, staggered, name))
        with open(os.path.join(outdir, f"{name}.json"), "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
