"""The outer proof loop: sample obstacle cells, segment, test disconnection.

The loop alternates sampling iterations with free-space segmentation until
either start and goal fall into different components (infeasibility proven
at this resolution) or every cell has been visited, at which point the
bitmap is exact and the verdict is final either way.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .bitmap import CSpaceBitmap, cell_to_config, config_to_cell, integer, multi_to_lin
from .errors import EngineTimeout, TooLarge, ValidationError
from .sampler import (
    CheckPool,
    SamplerParams,
    SampleSet,
    sample_obstacle_cells,
    sample_obstacle_cells_parallel,
)
from .segmentation import CONNECTIVITIES, LabelField, project, segment, segment_check

# Bits a proof holds per cell at its peak. Peak RSS of four_link_bands
# chain proofs grows by at most 45.6 bits per cell between two grid sizes
# at 4-7 DOF under either connectivity (7 DOF, 14^7 to 15^7 cells). The
# bitmap, the visited bit, the dense grid and the int32 labels take 42; the
# rest is the arrays of one wrap seam plane, a larger share on coarser grids.
BITS_PER_CELL = 46
# Most check workers, one process each, a proof forks: far above any host's cores.
MAX_THREADS = 64
# Cells scipy labels in the time of one collision check (a check takes
# 10-17 us, labelling 20-45 ns a cell). The whole grid is labelled once the
# checks since its last labelling, times this, reach its cell count: so that
# labelling never costs more than the checking it waits for, and a verdict
# only the whole grid shows comes at most one labelling's worth of checks late.
CELLS_PER_CHECK = 256

INFEASIBLE = "Infeasible"
FEASIBLE_AT_RESOLUTION = "FeasibleAtResolution"
START_OR_GOAL_IN_OBSTACLE = "StartOrGoalInObstacle"


@dataclass
class Verdict:
    """Outcome of a proof run plus enough evidence to re-verify it."""

    kind: str
    stats: list = field(default_factory=list)
    labels: LabelField = None
    digest: str = None
    bitmap: CSpaceBitmap = None
    elapsed: float = 0.0
    segmentation_time: float = 0.0
    detail: str = ""

    @property
    def iterations(self) -> int:
        """Sampling iterations run: each appends its ``IterationStats``."""
        return len(self.stats)

    @property
    def component_count(self) -> int:
        """Free components of ``labels``; None without labels."""
        return None if self.labels is None else self.labels.component_count

    def to_dict(self) -> dict:
        spec = self.bitmap.spec if self.bitmap is not None else None
        return {
            "kind": self.kind,
            "iterations": self.iterations,
            "elapsed_seconds": round(self.elapsed, 6),
            "segmentation_seconds": round(self.segmentation_time, 6),
            "component_count": self.component_count,
            "separating_axes": None if self.labels is None else self.labels.spec.ndim,
            "bitmap_sha256": self.digest,
            "detail": self.detail,
            "grid": None
            if spec is None
            else {
                "dims": list(spec.dims),
                "wrap": list(spec.wrap),
                "lo": list(spec.lo),
                "hi": list(spec.hi),
            },
            "per_iteration": [
                {
                    "iteration": s.iteration,
                    "hits": s.hits,
                    "checks": s.checks,
                    "propagated": s.propagated,
                    "freed": s.freed,
                    "labelled_axes": s.labelled_axes,
                    "elapsed_seconds": round(s.elapsed, 6),
                }
                for s in self.stats
            ],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _check_footprint(spec, bits_per_cell: int = BITS_PER_CELL):
    """Raise TooLarge when per-cell structures of ``bits_per_cell`` bits,
    a proof's by default, on this grid would exceed the host's physical
    memory. From 2**31 - 2 cells on, ``scipy.ndimage.label`` returns 64-bit
    labels (``need_64bits``), 32 bits per cell more than the int32 labels
    the count assumes."""
    bits = bits_per_cell + (32 if spec.size >= 2**31 - 2 else 0)
    need = spec.size * bits // 8
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise TooLarge(
            f"grid {spec.dims} has {spec.size} cells and needs {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


def prove_infeasibility(
    scenario,
    params: SamplerParams = None,
    seed=None,
    connectivity: str = "faces",
    threads: int = 1,
    timeout: float = None,
) -> Verdict:
    """Run the proof loop on a scenario and return a Verdict.

    Each iteration labels the projections onto the leading axes; the whole
    grid is labelled on exhaustion, and before that once the checks since
    its last labelling pay for it (see ``CELLS_PER_CHECK``). ``threads``
    check workers, at most ``MAX_THREADS``, share the collision checks; one
    checks in this process. ``timeout`` (seconds, checked at iteration
    boundaries) raises EngineTimeout; it exists for benchmark harnesses, an
    untimed run always terminates on its own.
    """
    if params is None:
        params = SamplerParams()
    if not 1 <= integer("threads", threads) <= MAX_THREADS:
        raise ValidationError(f"threads must be between 1 and {MAX_THREADS}, got {threads}")
    if connectivity not in CONNECTIVITIES:
        raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}, got {connectivity!r}")
    moore = 3**scenario.grid.ndim - 1
    if params.neighbor_checks > moore:
        raise ValidationError(
            f"neighbor_checks {params.neighbor_checks} exceeds Moore neighborhood size {moore}"
        )
    if timeout is not None and not 0 <= timeout < math.inf:
        raise ValidationError(f"timeout must be finite and at least 0, got {timeout}")
    try:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid seed {seed!r}: {exc}") from exc
    t0 = time.perf_counter()

    robot = scenario.robot
    spec = scenario.grid
    _check_footprint(spec)
    obstacles = scenario.prepared()
    cells = {}  # linear index of the start and the goal cell
    for label, q in (("start", scenario.start), ("goal", scenario.goal)):
        cell = config_to_cell(spec, q)
        for probe in (tuple(q), cell_to_config(spec, cell)):
            if robot.collision_check(probe, obstacles).colliding:
                return Verdict(
                    kind=START_OR_GOAL_IN_OBSTACLE,
                    elapsed=time.perf_counter() - t0,
                    detail=f"{label} configuration or its cell center collides",
                )
        cells[label] = multi_to_lin(spec, cell)

    bm = CSpaceBitmap(spec)
    ss = SampleSet(spec.size)
    stats_list = []
    seg_time = 0.0

    def verdict(kind, detail, labels=None):
        return Verdict(
            kind=kind,
            stats=stats_list,
            labels=labels,
            digest=bm.digest(),
            bitmap=bm,
            elapsed=time.perf_counter() - t0,
            segmentation_time=seg_time,
            detail=detail,
        )

    pool = CheckPool(threads, robot, obstacles, spec)
    try:
        sample = sample_obstacle_cells_parallel if threads > 1 else sample_obstacle_cells
        iteration = 0
        unlabelled = 0  # checks since the whole grid was last labelled
        while True:
            iteration += 1
            it_t0 = time.perf_counter()
            st = sample(bm, ss, robot, pool, params, rng)
            st.iteration, st.elapsed = iteration, time.perf_counter() - it_t0
            stats_list.append(st)
            exhausted = ss.size == 0

            for label, lin in cells.items():
                if not bm.is_free(lin):
                    return verdict(
                        START_OR_GOAL_IN_OBSTACLE,
                        f"{label} cell was proven to collide during sampling",
                    )

            unlabelled += st.checks
            whole = exhausted or unlabelled * CELLS_PER_CHECK >= spec.size
            seg_t0 = time.perf_counter()
            apart = False
            # The projections k < n, then the whole grid k = n if due. Apart
            # on the leading axes is apart in the whole grid.
            for k in range(1, spec.ndim + whole):
                labels = segment(bm if k == spec.ndim else project(bm, k), connectivity)
                st.labelled_axes = k
                apart = segment_check(labels, cells["start"], cells["goal"])
                if apart:
                    break
            seg_time += time.perf_counter() - seg_t0
            if apart:
                return verdict(
                    INFEASIBLE, "start and goal lie in different free components", labels
                )
            if exhausted:
                return verdict(
                    FEASIBLE_AT_RESOLUTION,
                    "grid exhausted; start and goal share a free component",
                    labels,
                )
            if whole:
                unlabelled = 0

            if timeout is not None and time.perf_counter() - t0 > timeout:
                raise EngineTimeout(
                    f"no verdict after {iteration} iterations within {timeout} s"
                )
    finally:
        pool.close()  # the kernel's memo ends with the proof, also one that raised
