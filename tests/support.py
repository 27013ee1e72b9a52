"""Shared scene builders and oracle confirmation helpers for the tests."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from noplan import (
    GridSpec,
    PreparedObstacles,
    Polygon2,
    RigidSE2,
    Scenario,
    SerialChain,
    cell_to_config,
    lin_to_multi,
    chain_grid,
    config_to_cell,
    se2_grid,
)
from noplan.oracle import bfs_connected, brute_force_bitmap

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@st.composite
def grid_and_cell(draw):
    """A grid of 1-5 axes with 2-6 cells each and random wrap flags, and
    the linear index of one of its cells."""
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=5)))
    wrap = tuple(draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims))))
    spec = GridSpec(dims, wrap, (0.0,) * len(dims), (1.0,) * len(dims))
    return spec, draw(st.integers(0, spec.size - 1))


def square(cx: float, cy: float, h: float) -> Polygon2:
    return Polygon2([(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)])


def regular_polygon(cx: float, cy: float, radius: float, sides: int, phase: float = 0.0) -> Polygon2:
    pts = []
    for i in range(sides):
        a = phase + 2 * math.pi * i / sides
        pts.append((cx + radius * math.cos(a), cy + radius * math.sin(a)))
    return Polygon2(pts)


def _base_blocks(angles=(90, 270)):
    r = 0.14
    return [
        square(r * math.cos(math.radians(a)), r * math.sin(math.radians(a)), 0.018)
        for a in angles
    ]


def three_band_scene(cells_per_axis: int = 36) -> Scenario:
    """Two-link arm, three base blocks, three free bands on the torus."""
    chain = SerialChain((0, 0), [(1.0, 0.02), (0.55, 0.02)])
    obstacles = [
        square(0.35 * math.cos(math.radians(a)), 0.35 * math.sin(math.radians(a)), 0.015)
        for a in (7, 55, 113)
    ]
    return Scenario(
        robot=chain,
        obstacles=obstacles,
        start=(math.radians(200), 0.0),
        goal=(math.radians(15), 0.0),
        grid=chain_grid(chain, [cells_per_axis, cells_per_axis]),
        name="three-band",
    )


def four_link_scene(cells_per_axis: int = 36, block_angles=(90, 270)) -> Scenario:
    """Four-link arm and base blocks at the given angles (degrees).

    With both blocks at 36^4 it settles as Infeasible in one iteration. With
    only the 90-degree block start and goal stay connected, so a proof must
    visit every cell and ends FeasibleAtResolution.
    """
    chain = SerialChain((0, 0), [(0.4, 0.02), (0.3, 0.015), (0.2, 0.01), (0.1, 0.005)])
    return Scenario(
        robot=chain,
        obstacles=_base_blocks(block_angles),
        start=(0.0, 0.0, 0.0, 0.0),
        goal=(math.pi, 0.0, 0.0, 0.0),
        grid=chain_grid(chain, [cells_per_axis] * 4),
        name="four-link-bands",
    )


def five_link_scene() -> Scenario:
    """Five-link arm whose first three links are walled off; for truncation."""
    chain = SerialChain(
        (0, 0), [(0.4, 0.02), (0.3, 0.015), (0.2, 0.01), (0.1, 0.005), (0.1, 0.005)]
    )
    return Scenario(
        robot=chain,
        obstacles=_base_blocks(),
        start=(0.0,) * 5,
        goal=(math.pi, 0.0, 0.0, 0.0, 0.0),
        grid=chain_grid(chain, [36] * 5),
        name="five-link-walled",
    )


def rigid_wall_scene() -> Scenario:
    """Rectangle in SE(2) against a full-height wall, 67 x 39 x 72 grid."""
    body = Polygon2([(-0.25, -0.15), (0.25, -0.15), (0.25, 0.15), (-0.25, 0.15)])
    wall = Polygon2([(3.3, 0.0), (3.5, 0.0), (3.5, 3.9), (3.3, 3.9)])
    return Scenario(
        robot=RigidSE2(body, (0.0, 0.0)),
        obstacles=[wall],
        start=(1.0, 1.0, 0.0),
        goal=(5.5, 2.5, 0.0),
        grid=se2_grid(((0.0, 6.7), (0.0, 3.9)), [67, 39, 72]),
        name="rigid-wall",
    )


def empty_scene(dims=(8, 8)) -> Scenario:
    chain = SerialChain((0, 0), [(0.5, 0.02), (0.5, 0.02)])
    return Scenario(
        robot=chain,
        obstacles=[],
        start=(0.1, 0.1),
        goal=(3.0, 1.0),
        grid=chain_grid(chain, list(dims)),
        name="empty",
    )


def random_chain_scene(
    rng: np.random.Generator,
    max_cells: int = 4096,
    dof: int = None,
    max_dim: int = 16,
    crowded: bool = False,
) -> Scenario:
    """Random small scene: random arm, random convex obstacles, random grid.

    ``crowded`` packs in more and larger obstacles so that disconnected
    C-spaces show up often instead of almost never.
    """
    if dof is None:
        dof = int(rng.integers(2, 4))
    lengths = rng.uniform(0.25, 0.8, dof)
    lengths *= rng.uniform(0.8, 1.4) / lengths.sum()
    widths = lengths * rng.uniform(0.03, 0.08, dof)
    limits = []
    for _ in range(dof):
        if rng.random() < 0.6:
            limits.append(None)
        else:
            lo = rng.uniform(-math.pi, 0.5)
            limits.append((lo, lo + rng.uniform(1.0, 5.0)))
    chain = SerialChain((0, 0), list(zip(lengths, widths)), limits)
    reach = chain.reach()
    obstacles = []
    count = rng.integers(3, 8) if crowded else rng.integers(1, 5)
    radius_range = (0.1, 0.45) if crowded else (0.05, 0.3)
    for _ in range(int(count)):
        radius = rng.uniform(*radius_range) * reach
        dist = rng.uniform(radius + 0.1 * reach, 1.05 * reach)
        ang = rng.uniform(0, 2 * math.pi)
        obstacles.append(
            regular_polygon(
                dist * math.cos(ang),
                dist * math.sin(ang),
                radius,
                int(rng.integers(3, 8)),
                phase=rng.uniform(0, 2 * math.pi),
            )
        )
    while True:
        dims = [int(v) for v in rng.integers(5, max_dim + 1, dof)]
        if math.prod(dims) <= max_cells:
            break
    grid = chain_grid(chain, dims)
    obs = PreparedObstacles(obstacles)

    def pick():
        # cell centers, so a free endpoint also passes the engine's eager
        # cell-center probe and the run produces a real verdict
        q = None
        for _ in range(60):
            cell = lin_to_multi(grid, int(rng.integers(grid.size)))
            q = cell_to_config(grid, cell)
            if not chain.collision_check(q, obs).colliding:
                return q
        return q

    return Scenario(
        robot=chain, obstacles=obstacles, start=pick(), goal=pick(), grid=grid,
        name="random-chain",
    )


def confirm_with_oracle(sc: Scenario, verdict, connectivity: str = "faces"):
    """Assert a verdict against exhaustive ground truth for its scenario."""
    obs = sc.prepared()
    if verdict.kind == "StartOrGoalInObstacle":
        def collides_somewhere(q):
            center = cell_to_config(sc.grid, config_to_cell(sc.grid, q))
            return (
                sc.robot.collision_check(q, obs).colliding
                or sc.robot.collision_check(center, obs).colliding
            )

        assert collides_somewhere(sc.start) or collides_somewhere(sc.goal)
        return

    truth = brute_force_bitmap(sc)
    start_cell = config_to_cell(sc.grid, sc.start)
    goal_cell = config_to_cell(sc.grid, sc.goal)
    connected = bfs_connected(truth, start_cell, goal_cell, connectivity)
    if verdict.kind == "Infeasible":
        assert not connected, "engine claimed infeasible but the oracle finds a path"
        unsound = (verdict.bitmap.to_dense() == 0) & (truth.to_dense() == 1)
        assert not unsound.any(), "engine marked a truly free cell as obstacle"
    elif verdict.kind == "FeasibleAtResolution":
        assert connected, "engine claimed feasible but the oracle finds no path"
        assert verdict.bitmap.digest() == truth.digest(), (
            "bitmap should be complete and exact after exhaustion"
        )
    else:
        raise AssertionError(f"unexpected verdict kind {verdict.kind}")
