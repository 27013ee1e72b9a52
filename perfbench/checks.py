"""Correctness gate for the benchmark's proofs, run outside the timed span.

- A proof must return the workload's expected verdict kind.
- An exhausted grid must equal ``oracle.brute_force_bitmap`` bit for bit.
- An ``Infeasible`` verdict must put start and goal in different free
  components, and a seeded sample of its obstacle cells must collide under
  the scalar ``collision_check`` at their cell centres.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from noplan import oracle
from noplan.bitmap import cell_to_config, config_to_cell, lin_to_multi, multi_to_lin
from noplan.engine import FEASIBLE_AT_RESOLUTION, INFEASIBLE

RECHECK_CELLS = 200


def oracle_digest(scenario, scenario_file: Path, src_dir: Path, cache_dir: Path) -> str:
    """Digest of the brute-force bitmap, cached under a hash of the
    scenario file and the program's sources."""
    h = hashlib.sha256(scenario_file.read_bytes())
    for path in sorted(src_dir.rglob("*.py")):
        h.update(str(path.relative_to(src_dir)).encode())
        h.update(path.read_bytes())
    cached = cache_dir / f"oracle-{h.hexdigest()[:32]}.sha256"
    if cached.is_file():
        return cached.read_text().strip()
    digest = oracle.brute_force_bitmap(scenario).digest()
    tmp = cached.with_suffix(".tmp")
    tmp.write_text(digest + "\n")
    tmp.replace(cached)
    return digest


def verdict_problems(verdict, scenario, expected: str, rng: np.random.Generator) -> list[str]:
    """What is wrong with one proof's verdict, short of the exhaustion
    check, which needs the oracle digest."""
    if verdict.kind != expected:
        return [f"verdict {verdict.kind}, expected {expected}"]
    if verdict.kind != INFEASIBLE:
        return []
    problems = []
    spec = scenario.grid
    start = multi_to_lin(spec, config_to_cell(spec, scenario.start))
    goal = multi_to_lin(spec, config_to_cell(spec, scenario.goal))
    ls, lg = verdict.labels.label_of(start), verdict.labels.label_of(goal)
    if ls == 0 or lg == 0 or ls == lg:
        problems.append(f"start label {ls} and goal label {lg} do not separate")
    flat = verdict.bitmap.to_dense().reshape(-1, order="F")
    obstacle = np.flatnonzero(flat == 0)
    picks = rng.choice(obstacle, size=min(RECHECK_CELLS, obstacle.size), replace=False)
    prepared = scenario.prepared()
    free = [
        int(lin) for lin in picks
        if not scenario.robot.collision_check(
            cell_to_config(spec, lin_to_multi(spec, int(lin))), prepared
        ).colliding
    ]
    if free:
        problems.append(
            f"{len(free)} of {picks.size} sampled obstacle cells are free, e.g. {free[:3]}"
        )
    return problems


def exhaustion_problems(kind: str, digest: str, expected_digest: str) -> list[str]:
    if kind == FEASIBLE_AT_RESOLUTION and digest != expected_digest:
        return [f"exhausted bitmap {digest[:12]} differs from brute force {expected_digest[:12]}"]
    return []
