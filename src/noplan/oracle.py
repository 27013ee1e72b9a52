"""The reference the tests check the fast paths against: exhaustive
bitmaps, BFS connectivity, and the fine-versus-coarse equivalence check.
``noplan render`` also uses ``brute_force_bitmap`` for the exact bitmap of
a 2-D scenario.

Everything here is deliberately independent of the fast paths it verifies:
labeling is a hand-rolled breadth-first flood fill, not the production
labeler, so the two can disagree when one is wrong.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .bitmap import CSpaceBitmap, GridSpec, cell_to_config, config_to_cell, lin_to_multi, multi_to_lin
from .errors import IncompatibleGrids, StartOrGoalInObstacle, TooLarge

BRUTE_FORCE_CELL_LIMIT = 10**7


def brute_force_bitmap(scenario) -> CSpaceBitmap:
    """Collision-check every cell center; exact ground truth for the grid."""
    spec: GridSpec = scenario.grid
    if spec.size > BRUTE_FORCE_CELL_LIMIT:
        raise TooLarge(f"{spec.size} cells exceeds the brute-force limit {BRUTE_FORCE_CELL_LIMIT}")
    robot = scenario.robot
    obstacles = scenario.prepared()
    bm = CSpaceBitmap(spec)
    hits = []
    for lin in range(spec.size):
        q = cell_to_config(spec, lin_to_multi(spec, lin))
        if robot.collision_check(q, obstacles).colliding:
            hits.append(lin)
    if hits:
        bm.set_obstacle_bulk(np.asarray(hits, dtype=np.int64))
    return bm


_OFFSETS: dict = {}


def _adjacency_offsets(n: int, connectivity: str):
    key = (n, connectivity)
    if key not in _OFFSETS:
        if connectivity == "faces":
            offs = []
            for axis in range(n):
                for delta in (-1, 1):
                    off = [0] * n
                    off[axis] = delta
                    offs.append(tuple(off))
        else:
            offs = [
                tuple(o - 1 for o in off)
                for off in np.ndindex(*([3] * n))
                if any(o != 1 for o in off)
            ]
        _OFFSETS[key] = offs
    return _OFFSETS[key]


def _free_neighbors(spec: GridSpec, dense, multi, connectivity: str):
    """Free neighboring cells under face or moore adjacency with wrap."""
    n = spec.ndim
    out = []
    for off in _adjacency_offsets(n, connectivity):
        cell = []
        ok = True
        for axis in range(n):
            m = multi[axis] + off[axis]
            if spec.wrap[axis]:
                m %= spec.dims[axis]
            elif not 0 <= m < spec.dims[axis]:
                ok = False
                break
            cell.append(m)
        if ok and dense[tuple(cell)]:
            out.append(tuple(cell))
    return out


def flood_fill_labels(bm: CSpaceBitmap, connectivity: str = "faces"):
    """Label free components by repeated BFS; returns (flat labels, count).

    Labels are assigned in first-occurrence order along the linear raster,
    the same canonical order the production labeler uses, so equal bitmaps
    yield identical label arrays, not merely permuted ones.
    """
    spec = bm.spec
    dense = bm.to_dense()
    labels = np.zeros(spec.size, dtype=np.int32)
    count = 0
    for lin in range(spec.size):
        if labels[lin] != 0 or not dense[lin_to_multi(spec, lin)]:
            continue
        count += 1
        queue = deque([lin_to_multi(spec, lin)])
        labels[lin] = count
        while queue:
            cell = queue.popleft()
            for nb in _free_neighbors(spec, dense, cell, connectivity):
                nb_lin = multi_to_lin(spec, nb)
                if labels[nb_lin] == 0:
                    labels[nb_lin] = count
                    queue.append(nb)
    return labels, count


def bfs_connected(bm: CSpaceBitmap, start_cell, goal_cell, connectivity: str = "faces") -> bool:
    """True iff a free path joins the two cells; cells are multi-indices."""
    spec = bm.spec
    dense = bm.to_dense()
    start = tuple(start_cell)
    goal = tuple(goal_cell)
    if not dense[start] or not dense[goal]:
        raise StartOrGoalInObstacle("start or goal cell is an obstacle cell")
    if start == goal:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for nb in _free_neighbors(spec, dense, cell, connectivity):
            if nb == goal:
                return True
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return False


@dataclass(frozen=True)
class Equivalence:
    """Outcome of the fine/coarse comparison; ``violated`` is 1..4 or None."""

    ok: bool
    violated: int = None

    def __str__(self):
        return "Equivalent" if self.ok else f"Violation({self.violated})"


EQUIVALENT = Equivalence(True, None)


def check_equivalence(
    fine: CSpaceBitmap,
    coarse: CSpaceBitmap,
    start,
    goal,
    connectivity: str = "faces",
) -> Equivalence:
    """Compare a coarse bitmap against a much finer stand-in for the
    continuous space.

    Checked in order: (1) equal free-component counts, (2) the coarse
    components map one-to-one onto fine components by containment of their
    upsampled blocks, (3) the start cell is free in the coarse bitmap,
    (4) the goal cell is free in the coarse bitmap. The first failure wins.
    """
    fs, cs = fine.spec, coarse.spec
    if fs.ndim != cs.ndim:
        raise IncompatibleGrids("fine and coarse grids differ in dimension")
    factors = []
    for axis in range(fs.ndim):
        if fs.dims[axis] % cs.dims[axis] != 0:
            raise IncompatibleGrids(
                f"axis {axis}: fine {fs.dims[axis]} is not a multiple of coarse {cs.dims[axis]}"
            )
        if fs.lo[axis] != cs.lo[axis] or fs.hi[axis] != cs.hi[axis] or fs.wrap[axis] != cs.wrap[axis]:
            raise IncompatibleGrids(f"axis {axis}: fine and coarse bounds or wrap differ")
        factors.append(fs.dims[axis] // cs.dims[axis])

    fine_labels, fine_count = flood_fill_labels(fine, connectivity)
    coarse_labels, coarse_count = flood_fill_labels(coarse, connectivity)
    if fine_count != coarse_count:
        return Equivalence(False, 1)

    fine_dense = fine_labels.reshape(fs.dims, order="F")
    coarse_to_fine = {cl: set() for cl in range(1, coarse_count + 1)}
    fine_to_coarse = {fl: set() for fl in range(1, fine_count + 1)}
    for lin in range(cs.size):
        cl = int(coarse_labels[lin])
        if cl == 0:
            continue
        multi = lin_to_multi(cs, lin)
        block = tuple(
            slice(multi[a] * factors[a], (multi[a] + 1) * factors[a]) for a in range(cs.ndim)
        )
        inside = fine_dense[block]
        for fl in np.unique(inside[inside > 0]):
            coarse_to_fine[cl].add(int(fl))
            fine_to_coarse[int(fl)].add(cl)
    bijective = all(len(v) == 1 for v in coarse_to_fine.values()) and all(
        len(v) == 1 for v in fine_to_coarse.values()
    )
    if not bijective:
        return Equivalence(False, 2)

    start_cell = config_to_cell(cs, start)
    if not coarse.is_free(multi_to_lin(cs, start_cell)):
        return Equivalence(False, 3)
    goal_cell = config_to_cell(cs, goal)
    if not coarse.is_free(multi_to_lin(cs, goal_cell)):
        return Equivalence(False, 4)
    return EQUIVALENT
