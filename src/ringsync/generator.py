"""Benchmark instance generation: grids, random connected layouts, presets."""

from __future__ import annotations

import math

from .commgraph import CommGraph
from .errors import GenerationFailureError, InvalidInstanceError
from .geometry import Circle, ClosedPath, Point2
from .instance import Instance

_PLACEMENT_RETRY_CAP = 1000


def grid(rows: int, cols: int, spacing: float = 2.4, r: float = 0.5) -> Instance:
    """rows x cols unit circles on a lattice; the comm graph is the grid graph.

    Node ids are row-major with row 0 at the top ((0,0) is the top-left node).
    """
    if rows < 1 or cols < 1:
        raise InvalidInstanceError("grid needs at least one row and column")
    if not math.isfinite(r):
        raise InvalidInstanceError(f"range {r} must be finite and non-negative")
    if not (spacing > 2.0):
        raise InvalidInstanceError(f"spacing {spacing} does not keep circles disjoint")
    if not (spacing <= 2.0 + r):
        raise InvalidInstanceError(f"spacing {spacing} exceeds connection distance {2 + r}")
    circles = [Circle(Point2(c * spacing, -row * spacing))
               for row in range(rows) for c in range(cols)]
    return Instance(mode="circle", circles=circles, comm_range=r,
                    label=f"grid-{rows}x{cols}",
                    meta={"rows": rows, "cols": cols, "spacing": spacing})


# Placement cells: side 2 with relative slack, so two centers at most 2
# apart always have cell keys at most one apart (Hockney & Eastwood,
# "Computer Simulation Using Particles", 1988).  Within _CELL_LIMIT of the
# origin the rounding of x / side moves a key by under 1e-7, inside the
# slack; a center farther out, or not finite, is kept in a list of far
# centers that every candidate is tested against, and a candidate that far
# out is tested against every center.
_CELL_SIDE = 2.0 * (1.0 + 1e-6)
_CELL_LIMIT = 2.0**30
# math.hypot and np.hypot differ in the last bit on about 0.6% of inputs, so
# a distance within this of 2.0 is decided by np.hypot: every placement is
# then the one numpy's vectorized test made, and instance files keep their
# bytes with or without numpy loaded.
_HYPOT_TIE = 1e-12


def _clear(x: float, y: float, xs: list, ys: list, block) -> bool:
    """Whether np.hypot puts (x, y) more than 2.0 from every center of block."""
    for j in block:
        dx, dy = x - xs[j], y - ys[j]
        d = math.hypot(dx, dy)
        if d > 2.0 + _HYPOT_TIE:
            continue
        if not d >= 2.0 - _HYPOT_TIE:        # overlapping, or NaN
            return False
        import numpy as np
        if not float(np.hypot(dx, dy)) > 2.0:
            return False
    return True


def random_connected(n: int, r: float = 0.5, seed: int = 0) -> Instance:
    """Incrementally grown random layout of n disjoint, connected unit circles.

    Each new circle sits on a uniformly random ray from a uniformly random
    existing circle, at a center distance drawn uniformly from (2, 2+r], and
    is redrawn while it overlaps a third circle (retry cap 1000 per circle),
    so r must be positive once a second circle is placed.  The layout is
    therefore connected by construction and no graph is built here;
    `validate_instance` is the check, for the rare rounding of a drawn
    distance or a candidate's coordinates past 2 + r.
    The draws are those of `numpy.random.default_rng(seed)`, made by
    `ringsync.rng.Rng` in the same order.  Each placed center is listed under
    every cell of the 3x3 block around its own cell of side about 2, so an
    attempt is tested, by `_clear`, only against the one list of its own
    cell: a layout costs O(attempts) work, not O(n^2), and loads no numpy
    unless a distance ties 2.0 to within `_HYPOT_TIE`.
    """
    if n < 1:
        raise InvalidInstanceError("need n >= 1")
    if not 0 <= r < math.inf:
        raise InvalidInstanceError(f"range {r} must be finite and non-negative")
    if r == 0 and n > 1:
        raise GenerationFailureError(
            "range 0 leaves no center distance in (2, 2]: cannot place circle 1")
    from itertools import chain

    from .rng import Rng
    rng = Rng(seed)
    xs, ys = [0.0], [0.0]
    blocks = {(cx, cy): [0] for cx in (-1, 0, 1) for cy in (-1, 0, 1)}
    far = []
    for k in range(1, n):
        for _attempt in range(_PLACEMENT_RETRY_CAP):
            anchor = rng.integers(k)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            d = rng.uniform(2.0, 2.0 + r)
            if d <= 2.0:
                continue
            x = xs[anchor] + d * math.cos(theta)
            y = ys[anchor] + d * math.sin(theta)
            near = abs(x) <= _CELL_LIMIT and abs(y) <= _CELL_LIMIT
            if near:
                cx, cy = math.floor(x / _CELL_SIDE), math.floor(y / _CELL_SIDE)
                block = chain(far, blocks.get((cx, cy), ()))
            else:
                block = range(k)
            if _clear(x, y, xs, ys, block):
                break
        else:
            raise GenerationFailureError(
                f"could not place circle {k} after {_PLACEMENT_RETRY_CAP} tries")
        xs.append(x)
        ys.append(y)
        if not near:
            far.append(k)
            continue
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                blocks.setdefault((cx + dx, cy + dy), []).append(k)
    circles = [Circle(Point2(x, y)) for x, y in zip(xs, ys)]
    return Instance(mode="circle", circles=circles, comm_range=r,
                    label=f"random-{n}-seed{seed}", meta={"seed": seed})


def _star(leaf_angles_deg, dist=2.4):
    circles = [Circle(Point2(0.0, 0.0))]
    for a in leaf_angles_deg:
        t = math.radians(a)
        circles.append(Circle(Point2(dist * math.cos(t), dist * math.sin(t))))
    return circles


def preset(name: str) -> Instance:
    """Hard-coded benchmark layouts.

    The starvation presets are trees whose survivors, after the marked white
    agents fail, chase each other around the tree forever under the
    always-switch strategy.  meta carries the period, the white agent list,
    and suggested simulation settings.
    """
    if name == "surveillance-3x3":
        inst = grid(3, 3)
        inst.label = "surveillance-3x3"
        inst.meta.update({"period": 300.0, "horizon": 15000.0})
        return inst

    if name == "fig9a":
        # 4-node star; center 0, leaves 1..3.  Leaf angular order 1 < 3 < 2
        # makes the two surviving leaf agents rotate around the hub without
        # ever being simultaneously adjacent at a firing link epoch.
        circles = _star([30.0, 270.0, 150.0])
        return Instance(mode="circle", circles=circles, comm_range=0.5,
                        label="fig9a",
                        meta={"period": 80.0, "horizon": 4000.0,
                              "whites": [0, 3], "survivors": [1, 2]})

    if name == "fig9b":
        # 5-node star: hub 0 with leaves 1..4.  The leaf link epochs are
        # ordered so that the three survivors circulate through the hub
        # without any pair coinciding at a firing link epoch.
        centers = [(0.0, 0.0),
                   (1.2517206419, -2.0477293363),
                   (-2.3807807607, -0.3031220376),
                   (2.1953637069, 0.9697309908),
                   (-0.9239009331, 2.2150410980)]
        circles = [Circle(Point2(x, y)) for x, y in centers]
        return Instance(mode="circle", circles=circles, comm_range=0.5,
                        label="fig9b",
                        meta={"period": 80.0, "horizon": 4000.0,
                              "whites": [2, 3], "survivors": [0, 1, 4]})

    if name == "fig11":
        # 6-node caterpillar with spine 5-0-1-2-4 and pendant 3 on node 1.
        # With the four marked whites failed, the two remaining agents chase
        # each other along the spine forever under always-switch.
        centers = [(0.0, 0.0),
                   (-2.2270832128, 0.6241758654),
                   (-3.4724765357, -1.4065807486),
                   (-1.7590626781, 2.7215557429),
                   (-3.4333109547, -3.6878664018),
                   (1.4293685605, 1.5429528357)]
        circles = [Circle(Point2(x, y)) for x, y in centers]
        return Instance(mode="circle", circles=circles, comm_range=0.5,
                        label="fig11",
                        meta={"period": 80.0, "horizon": 4000.0,
                              "whites": [0, 1, 4, 5], "survivors": [2, 3]})

    if name == "fig7-starve":
        # 2x3 ladder of axis-aligned feasible 4-cycles.  After the four
        # marked white agents fail at once, the two survivor agents a
        # (trajectory 0) and b (trajectory 5) switch toward each other's
        # last known position forever under always-switch and complete no
        # tours; trajectories P1..P3 go unvisited once a and b also fail.
        s = 2.4
        cells = [(0, 0), (1, 0), (1, -1), (0, -1), (0, -2), (1, -2)]
        circles = [Circle(Point2(x * s, y * s)) for x, y in cells]
        return Instance(mode="circle", circles=circles, comm_range=0.5,
                        label="fig7-starve",
                        meta={"period": 80.0, "horizon": 4000.0,
                              "whites": [1, 2, 3, 4],
                              "survivors": [0, 5], "agents_ab": [0, 5],
                              "p_trajs": [1, 2, 3]})

    if name == "case-study":
        # Seven rectangular closed paths whose communication graph has two
        # even cycles sharing a chord: a 4-cycle through trajectories
        # 0-5-6-3 and a 6-cycle through 0-3-6-4-2-1.  Adjacent rectangles
        # are 0.4 apart (within every range of 0.5); all other pairs are
        # farther than 0.5 apart.
        def rect(x0, x1, y0, y1):
            return ClosedPath([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

        paths = [
            rect(0.0, 1.0, 0.0, 4.0),      # 0: left column
            rect(0.0, 1.0, -3.0, -0.4),    # 1: below 0
            rect(1.4, 3.0, -3.0, -2.0),    # 2: bottom middle
            rect(1.4, 6.6, 0.0, 1.0),      # 3: lower crossbar
            rect(3.4, 8.0, -3.0, -0.6),    # 4: bottom right
            rect(1.4, 6.6, 3.0, 4.0),      # 5: upper crossbar
            rect(7.0, 8.0, -0.2, 4.0),     # 6: right column
        ]
        return Instance(mode="path", paths=paths, ranges=[0.5] * 7,
                        label="case-study",
                        meta={"period": 100.0, "horizon": 5000.0,
                              "cycles": [[0, 5, 6, 3], [0, 3, 6, 4, 2, 1]]})

    if name == "fig10a":
        # Random layout whose feasible opposite-direction subgraph is a tree:
        # chords with generic line angles never satisfy the cycle condition.
        for seed in range(100):
            inst = random_connected(10, r=0.5, seed=seed)
            g = inst.graph()
            if len(g.edges) > g.n - 1:
                inst.label = "fig10a"
                inst.meta.update({"period": 80.0})
                return inst
        raise GenerationFailureError("no cyclic random layout found")  # unreachable

    raise InvalidInstanceError(f"unknown preset {name!r}")


def validate_instance(inst: Instance) -> CommGraph:
    """Disjointness and connectivity validation; returns the graph it built.

    Raises on overlapping trajectories or a disconnected communication graph.
    """
    g = inst.graph()  # construction raises on overlap
    if len(g.components()) > 1:
        raise InvalidInstanceError("communication graph is disconnected")
    return g
