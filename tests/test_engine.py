import dataclasses
import gc
import json
import math
import multiprocessing
import weakref

import numpy as np
import pytest

from noplan import engine, sampler
from noplan.bitmap import GridSpec, config_to_cell, multi_to_lin
from noplan.engine import (
    FEASIBLE_AT_RESOLUTION,
    INFEASIBLE,
    START_OR_GOAL_IN_OBSTACLE,
    Verdict,
    prove_infeasibility,
)
from noplan.errors import EngineTimeout, InvalidConfiguration, TooLarge, ValidationError
from noplan.oracle import brute_force_bitmap
from noplan.sampler import CheckPool, IterationStats, SampleSet, SamplerParams
from noplan.scenario_io import Scenario, chain_grid, load_scenario
from noplan.kinematics import FREE_ROW, FreeRow, SerialChain
from noplan.segmentation import segment, segment_check

from support import (
    SCENARIO_DIR,
    confirm_with_oracle,
    empty_scene,
    four_link_scene,
    random_chain_scene,
    rigid_wall_scene,
    square,
    three_band_scene,
)


def one_axis_scene() -> Scenario:
    """One link between two blocks on a circle of 4,096 cells."""
    chain = SerialChain((0, 0), [(1.0, 0.02)])
    return Scenario(
        robot=chain,
        obstacles=[square(0.6, 0.0, 0.1), square(-0.6, 0.0, 0.1)],
        start=(math.radians(90),),
        goal=(math.radians(270),),
        grid=chain_grid(chain, [4096]),
    )


class TestVerdicts:
    def test_empty_scene_feasible(self):
        verdict = prove_infeasibility(empty_scene(), SamplerParams(10, 3), seed=0)
        assert verdict.kind == FEASIBLE_AT_RESOLUTION
        assert verdict.component_count == 1
        assert verdict.bitmap.free_count() == verdict.bitmap.spec.size
        assert verdict.iterations >= 1

    def test_three_band_scene_infeasible(self):
        sc = three_band_scene(36)
        verdict = prove_infeasibility(sc, SamplerParams(40, 5), seed=1)
        assert verdict.kind == INFEASIBLE
        assert verdict.component_count >= 2
        confirm_with_oracle(sc, verdict)

    def test_infeasible_bitmap_is_sound(self):
        sc = three_band_scene(36)
        verdict = prove_infeasibility(sc, SamplerParams(40, 5), seed=2)
        exact = brute_force_bitmap(sc)
        marked = np.flatnonzero(verdict.bitmap.to_dense().reshape(-1, order="F") == 0)
        assert marked.size > 0
        assert not exact.to_dense().reshape(-1, order="F")[marked].any()

    def test_start_in_obstacle_detected_eagerly(self):
        sc = three_band_scene(36)
        bad = Scenario(
            robot=sc.robot,
            obstacles=sc.obstacles,
            start=(math.radians(7), 0.0),
            goal=sc.goal,
            grid=sc.grid,
        )
        verdict = prove_infeasibility(bad, SamplerParams(5, 2), seed=0)
        assert verdict.kind == START_OR_GOAL_IN_OBSTACLE
        assert verdict.iterations == 0
        assert "start" in verdict.detail

    def test_goal_cell_center_collision_detected(self):
        # the goal configuration itself is free but its cell center is not
        sc = three_band_scene(36)
        goal_center_hit = Scenario(
            robot=sc.robot,
            obstacles=sc.obstacles,
            start=sc.start,
            goal=(math.radians(1.0), 0.0),
            grid=sc.grid,
        )
        verdict = prove_infeasibility(goal_center_hit, SamplerParams(5, 2), seed=0)
        assert verdict.kind == START_OR_GOAL_IN_OBSTACLE
        assert "goal" in verdict.detail

    def test_goal_cell_marked_during_sampling(self, monkeypatch):
        # Only an unsound propagation rule could mark the goal cell, whose
        # centre was checked free; the loop must still stop with a verdict.
        sc = three_band_scene(36)
        goal = multi_to_lin(sc.grid, config_to_cell(sc.grid, sc.goal))

        def mark_goal(bm, ss, robot, pool, params, rng):
            bm.set_obstacle(goal)
            return IterationStats(hits=1, checks=1, propagated=0)

        monkeypatch.setattr(engine, "sample_obstacle_cells", mark_goal)
        verdict = prove_infeasibility(sc, SamplerParams(5, 2), seed=0)
        assert verdict.kind == START_OR_GOAL_IN_OBSTACLE
        assert verdict.iterations == 1
        assert verdict.detail == "goal cell was proven to collide during sampling"
        assert verdict.digest == verdict.bitmap.digest()
        assert verdict.labels is None and verdict.component_count is None

    def test_feasible_when_obstacles_leave_gap(self):
        # a single band does not disconnect the torus
        sc = three_band_scene(36)
        gap = Scenario(
            robot=sc.robot,
            obstacles=sc.obstacles[:1],
            start=sc.start,
            goal=sc.goal,
            grid=sc.grid,
        )
        verdict = prove_infeasibility(gap, SamplerParams(30, 4), seed=3)
        assert verdict.kind == FEASIBLE_AT_RESOLUTION
        confirm_with_oracle(gap, verdict)


# The bundled scenes small enough to label whole; five_link_walled runs
# truncated to 3 links, as it is meant to.
SMALL_SCENES = [
    ("two_link_three_bands.yaml", None),
    ("two_link_single_block.yaml", None),
    ("four_link_bands.yaml", None),
    ("rigid_body_wall.yaml", None),
    ("five_link_walled.yaml", 3),
]


@pytest.mark.parametrize("connectivity", ["faces", "moore"])
@pytest.mark.parametrize("name, links", SMALL_SCENES)
def test_whole_grid_confirms_each_separation(name, links, connectivity):
    # A verdict may carry the labels of a projection onto the leading
    # axes; labelling its whole bitmap must separate start and goal too.
    sc = load_scenario(SCENARIO_DIR / name)
    if links is not None:
        sc = sc.truncate(links)
    spec = sc.grid
    start, goal = (multi_to_lin(spec, config_to_cell(spec, q)) for q in (sc.start, sc.goal))
    for seed in range(3):
        verdict = prove_infeasibility(sc, seed=seed, connectivity=connectivity)
        axes = verdict.to_dict()["separating_axes"]
        assert axes == verdict.labels.spec.ndim
        assert verdict.labels.spec.dims == spec.dims[:axes]
        if verdict.kind == INFEASIBLE:
            assert segment_check(segment(verdict.bitmap, connectivity), start, goal)
        else:
            assert axes == spec.ndim


def exhausting_scene() -> Scenario:
    """The benchmark's ``exhaust-4dof`` scene: ``four_link_bands`` without
    its lower block at 16^4, where a proof visits every cell."""
    sc = load_scenario(SCENARIO_DIR / "four_link_bands.yaml")
    keep = [i for i, name in enumerate(sc.obstacle_ids) if name != "block-down"]
    return dataclasses.replace(
        sc,
        obstacles=[sc.obstacles[i] for i in keep],
        obstacle_ids=tuple(sc.obstacle_ids[i] for i in keep),
        grid=dataclasses.replace(sc.grid, dims=(16,) * 4),
    )


class TestLoopBehavior:
    def test_deterministic_across_runs(self):
        sc = three_band_scene(36)
        a = prove_infeasibility(sc, SamplerParams(20, 4), seed=7)
        b = prove_infeasibility(sc, SamplerParams(20, 4), seed=7)
        assert (a.kind, a.iterations, a.digest) == (b.kind, b.iterations, b.digest)
        assert [s.checks for s in a.stats] == [s.checks for s in b.stats]

    def test_generator_seed_accepted(self):
        sc = three_band_scene(36)
        a = prove_infeasibility(sc, SamplerParams(20, 4), seed=np.random.default_rng(7))
        b = prove_infeasibility(sc, SamplerParams(20, 4), seed=7)
        assert (a.kind, a.digest) == (b.kind, b.digest)

    @pytest.mark.parametrize("scene, params, seed", [
        pytest.param(three_band_scene, SamplerParams(3, 2), 5, id="three_bands"),
        pytest.param(rigid_wall_scene, SamplerParams(), 1, id="rigid_wall"),
        pytest.param(empty_scene, SamplerParams(10, 3), 0, id="empty"),
        pytest.param(lambda: four_link_scene(8, block_angles=(90,)), SamplerParams(), 0,
                     id="four_link_exhausted"),
        pytest.param(one_axis_scene, SamplerParams(1, 2), 4, id="one_axis"),
    ])
    def test_whole_grid_waits_for_its_checks(self, scene, params, seed):
        # Each labelling of the whole grid but an exhausted proof's last is
        # paid for by CELLS_PER_CHECK cells per check made since the one
        # before, and each iteration whose checks have paid labels it. The
        # one-axis grid's unpaid iterations label nothing at all.
        sc = scene()
        verdict = prove_infeasibility(sc, params, seed=seed)
        n, size = sc.grid.ndim, sc.grid.size
        exhausted = verdict.kind == FEASIBLE_AT_RESOLUTION
        checks = sum(s.checks for s in verdict.stats)
        axes = [entry["labelled_axes"] for entry in verdict.to_dict()["per_iteration"]]
        assert axes.count(n) <= exhausted + checks * engine.CELLS_PER_CHECK // size
        unlabelled = 0
        for st in verdict.stats[:-1]:
            unlabelled += st.checks
            due = unlabelled * engine.CELLS_PER_CHECK >= size
            assert st.labelled_axes == (n if due else n - 1)
            if due:
                unlabelled = 0
        assert axes[-1] == verdict.labels.spec.ndim
        if exhausted:
            assert axes[-1] == n

    def test_verdict_on_the_whole_grid_only(self):
        # Criterion 1's crowded random scenes: the first that separates only
        # on its whole grid still proves Infeasible there.
        rng = np.random.default_rng(0)
        for seed in range(40):
            sc = random_chain_scene(rng, max_cells=16**3, crowded=True)
            verdict = prove_infeasibility(sc, SamplerParams(25, 3), seed=seed)
            if verdict.kind == INFEASIBLE and verdict.labels.spec.ndim == sc.grid.ndim:
                break
        else:
            pytest.fail("no scene separates only on its whole grid")
        assert verdict.to_dict()["separating_axes"] == sc.grid.ndim
        assert verdict.stats[-1].labelled_axes == sc.grid.ndim
        confirm_with_oracle(sc, verdict)

    @pytest.mark.parametrize("seed, digest, iterations", [
        (0, "a63108f8d48819deeb3b21eff8af0b779f32e9e0cb48c6363ae84ad510e3d7e4", 1),
        (1, "9cf4220f4c69fa923672445913dd737d679e3d5f5e497324751df6a0b20e666d", 2),
        (2, "ea972731487e1d54982aea972ccacd4a9cff4ab1058679d36265391b96c384bd", 1),
    ])
    def test_rigid_wall_digests_pinned(self, seed, digest, iterations):
        # Recorded when every iteration labelled the whole grid: the rule
        # changes which grids are labelled, not what the proof marks.
        verdict = prove_infeasibility(rigid_wall_scene(), seed=seed)
        assert (verdict.kind, verdict.digest, verdict.iterations) == (
            INFEASIBLE, digest, iterations
        )

    @pytest.mark.parametrize("seed, checks, digest", [
        (0, 5340, "2424b8498bad49a100ed2d42e016886e31a0a662e991d9a15560b4b0464f6485"),
        (1, 4854, "5d58ba3c2a991063b5cb40b199d34dd283fa9d82dd8f29afd1051c99607c39ef"),
        (2, 5335, "56b5259209998ebb86fb4f7952c9bac41b168cb9e162c8ea39b942e0456220ca"),
    ])
    def test_rigid_wall_at_134_78_144_pinned(self, seed, checks, digest):
        # The benchmark's grid, where a buried reference point marks a
        # heading column of 144 cells in 2 bit phases. Recorded when every
        # column was marked through strided byte views, one per phase.
        sc = load_scenario(SCENARIO_DIR / "rigid_body_wall.yaml")
        sc = dataclasses.replace(sc, grid=dataclasses.replace(sc.grid, dims=[134, 78, 144]))
        verdict = prove_infeasibility(sc, seed=seed)
        assert (verdict.kind, verdict.digest, verdict.iterations) == (INFEASIBLE, digest, 3)
        assert sum(s.checks for s in verdict.stats) == checks

    @pytest.mark.parametrize("seed, iterations, checks", [(1, 13, 13506), (2, 12, 13503), (3, 12, 13507)])
    def test_exhausting_scene_pinned(self, seed, iterations, checks):
        # Recorded when a free row was marked on its second visit, and a
        # nearby triangle's own edges could clear it. Before free rows the
        # same proofs took 50,214, 50,211 and 50,215 checks; with rows
        # cleared by the reach square alone, 21,850, 21,847 and 21,851.
        verdict = prove_infeasibility(exhausting_scene(), seed=seed)
        assert (verdict.kind, verdict.digest, verdict.iterations) == (
            FEASIBLE_AT_RESOLUTION,
            "5cba02583f97e098154512ac35cb6c9f13e7a1a2817bcdeee4080810a2a45de2",
            iterations,
        )
        assert sum(s.checks for s in verdict.stats) == checks

    @pytest.mark.parametrize("scene", ["exhausting", "two_link_single_block", "empty"])
    def test_exhausted_proof_accounts_for_every_cell(self, scene):
        """Each cell of an exhausted grid is checked, propagated from a hit
        or freed by a free row, exactly once."""
        sc = {
            "exhausting": exhausting_scene,
            "two_link_single_block": lambda: load_scenario(SCENARIO_DIR / "two_link_single_block.yaml"),
            "empty": lambda: empty_scene((24, 24)),
        }[scene]()
        verdict = prove_infeasibility(sc, seed=1)
        assert verdict.kind == FEASIBLE_AT_RESOLUTION
        totals = [sum(getattr(s, f) for s in verdict.stats) for f in ("checks", "propagated", "freed")]
        assert sum(totals) == sc.grid.size
        assert totals[2] > 0
        assert [it["freed"] for it in verdict.to_dict()["per_iteration"]] == [s.freed for s in verdict.stats]

    def test_stats_accumulate_per_iteration(self):
        verdict = prove_infeasibility(empty_scene(), SamplerParams(10, 3), seed=0)
        assert len(verdict.stats) == verdict.iterations
        assert all(s.iteration == i + 1 for i, s in enumerate(verdict.stats))
        assert verdict.stats[-1].checks > 0

    def test_quota_met_by_last_cell_ends_the_proof(self):
        # One link and one obstacle on a 24-cell circle: every hit marks
        # only its own cell, and with no neighbour checks the first
        # iteration draws in the sample set's walk order until it has hit
        # every obstacle cell. The seed is the first whose walk ends on an
        # obstacle cell, so that iteration empties the grid as it meets
        # its quota, and its verdict must not wait for an empty iteration.
        chain = SerialChain((0, 0), [(1.0, 0.02)])
        sc = Scenario(
            robot=chain,
            obstacles=[square(0.6, 0.0, 0.1)],
            start=(math.radians(180),),
            goal=(math.radians(120),),
            grid=chain_grid(chain, [24]),
        )
        spec = sc.grid
        obstacle = brute_force_bitmap(sc).to_dense() == 0
        hits = int(obstacle.sum())
        assert 1 < hits < spec.size

        def last_drawn(seed):
            ss, rng = SampleSet(spec.size), np.random.default_rng(seed)
            return [ss.draw(rng) for _ in range(spec.size)][-1]

        seed = next(s for s in range(100) if obstacle[last_drawn(s)])
        verdict = prove_infeasibility(sc, SamplerParams(hits, 0), seed=seed)
        assert verdict.kind == FEASIBLE_AT_RESOLUTION
        assert verdict.iterations == 1
        assert [(s.hits, s.checks) for s in verdict.stats] == [(hits, spec.size)]
        assert all(entry["checks"] > 0 for entry in verdict.to_dict()["per_iteration"])

    def test_timeout_raises(self):
        sc = three_band_scene(48)
        with pytest.raises(EngineTimeout):
            prove_infeasibility(sc, SamplerParams(1, 0), seed=0, timeout=0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            prove_infeasibility(empty_scene(), threads=0)

    @pytest.fixture
    def no_proof(self, monkeypatch):
        """Make the proof's first allocation raise: a parameter check that
        runs later than the entry fails the test."""
        def started(spec):
            raise AssertionError("the proof started")

        monkeypatch.setattr(engine, "CSpaceBitmap", started)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_connectivity_checked_at_entry(self, no_proof, threads):
        with pytest.raises(ValidationError, match="connectivity"):
            prove_infeasibility(empty_scene(), seed=0, connectivity="diagonal", threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_neighbor_budget_checked_at_entry(self, no_proof, threads):
        # a 2-D cell has 8 Moore neighbors
        with pytest.raises(ValidationError, match="neighbor_checks 9 exceeds"):
            prove_infeasibility(empty_scene(), SamplerParams(1, 9), seed=0, threads=threads)

    @pytest.mark.parametrize("name, value", [
        ("threads", 2.5), ("threads", "2"),
    ])
    def test_counts_are_integers(self, no_proof, name, value):
        with pytest.raises(ValidationError, match=name):
            prove_infeasibility(empty_scene(), seed=0, **{name: value})

    @pytest.mark.parametrize("min_hits, neighbor_checks", [(3, 2.5), (math.nan, 2), (3.0, 2)])
    def test_sampler_params_are_integers(self, min_hits, neighbor_checks):
        with pytest.raises(ValidationError):
            SamplerParams(min_hits, neighbor_checks)


class TestFootprint:
    def fake_memory(self, monkeypatch, nbytes):
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
        monkeypatch.setattr(engine.os, "sysconf", sizes.__getitem__)

    def verdicts(self, monkeypatch, spec, have) -> list:
        """Whether the check admits the grid with each memory size in
        ``have``; a fake size allocates nothing."""
        out = []
        for nbytes in have:
            self.fake_memory(monkeypatch, nbytes)
            try:
                engine._check_footprint(spec)
                out.append(True)
            except TooLarge:
                out.append(False)
        return out

    def test_64_bit_labels_are_counted(self, monkeypatch):
        # scipy labels grids of 2**31 - 2 cells or more with 64-bit ints
        spec = GridSpec((2**16, 2**15), (True, True), (0.0, 0.0), (1.0, 1.0))
        int32 = spec.size * engine.BITS_PER_CELL // 8
        int64 = spec.size * (engine.BITS_PER_CELL + 32) // 8
        have = [int32, (int32 + int64) // 2, int64 - 1, int64]
        assert self.verdicts(monkeypatch, spec, have) == [False, False, False, True]

    def test_int32_labels_below_the_threshold(self, monkeypatch):
        for size in (2**31 - 3, 36**4):
            spec = GridSpec((size,), (False,), (0.0,), (1.0,))
            need = size * engine.BITS_PER_CELL // 8
            assert self.verdicts(monkeypatch, spec, [need - 1, need]) == [False, True]


class TestParallel:
    def test_two_workers_match_verdict_kind(self):
        sc = three_band_scene(36)
        serial = prove_infeasibility(sc, SamplerParams(30, 4), seed=9)
        parallel = prove_infeasibility(sc, SamplerParams(30, 4), seed=9, threads=2)
        assert parallel.kind == serial.kind == INFEASIBLE
        confirm_with_oracle(sc, parallel)

    def test_two_workers_deterministic_for_a_seed(self):
        # Hits and neighbor probes span several pooled batches here.
        sc = load_scenario(SCENARIO_DIR / "four_link_bands.yaml")

        def run():
            verdict = prove_infeasibility(sc, seed=0, threads=2)
            data = verdict.to_dict()
            del data["elapsed_seconds"], data["segmentation_seconds"]
            for it in data["per_iteration"]:
                del it["elapsed_seconds"]
            return data

        assert run() == run()

    def test_pool_counts_every_workers_cpu(self, monkeypatch):
        """The first worker forks the others and reaps them, so once the
        pool is closed the CPU time of all four counts as this process's
        children's."""
        import resource
        import time

        def burning(robot, spec, obs):
            def check(lin):
                end = time.thread_time() + 0.05
                while time.thread_time() < end:
                    pass

            return check

        def children():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        monkeypatch.setattr(SerialChain, "cell_kernel", burning)
        sc = empty_scene()
        before = children()
        pool = CheckPool(4, sc.robot, sc.prepared(), sc.grid)
        try:  # cells 0-3 go to the four workers, one each
            assert pool.check([0, 1, 2, 3]) == [None] * 4
        finally:
            pool.close()
        assert children() - before >= 4 * 0.05

    def test_two_workers_feasible_scene(self):
        verdict = prove_infeasibility(
            empty_scene(), SamplerParams(10, 3), seed=4, threads=2
        )
        assert verdict.kind == FEASIBLE_AT_RESOLUTION

    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("scene", ["two_link_single_block", "criterion_7"])
    def test_pooled_free_rows_exhaust_to_the_exact_bitmap(self, scene, threads):
        """Free rows come back from the workers pickled; each still marks
        its row visited, and the exhausted bitmap is the brute-force one."""
        if scene == "criterion_7":
            sc = four_link_scene(12, block_angles=(90,))
        else:
            sc = load_scenario(SCENARIO_DIR / "two_link_single_block.yaml")
        verdict = prove_infeasibility(sc, seed=0, threads=threads)
        assert verdict.kind == FEASIBLE_AT_RESOLUTION
        assert verdict.digest == brute_force_bitmap(sc).digest()
        assert sum(s.freed for s in verdict.stats) > 0

    def test_causes_come_back_in_order(self):
        """Each cell's cause comes back at its place, but for a free row
        reported again in one batch: its later cells come back free."""
        sc = four_link_scene(6, block_angles=(90,))
        obs = sc.prepared()
        kernel = sc.robot.cell_kernel(sc.grid, obs)
        stride = sc.grid.strides[-2]

        def expect(lins):
            rows, out = set(), []
            for lin in lins:
                cause = kernel(lin)
                if type(cause) is FreeRow:
                    cause = None if lin % stride in rows else cause
                    rows.add(lin % stride)
                out.append(cause)
            return out

        lins = np.random.default_rng(0).permutation(sc.grid.size)[:500].tolist()
        pool = CheckPool(3, sc.robot, obs, sc.grid)
        try:
            assert pool.check(lins) == expect(lins)
            assert pool.check(lins[:2]) == expect(lins[:2])
        finally:
            pool.close()
        assert multiprocessing.active_children() == []

    def test_a_row_is_reported_once_a_batch(self):
        """Three cells of one clear row in one batch: the first is free on
        its first visit, the second reports the row, and the third, which
        the kernel also reports as ``FreeRow``, comes back free."""
        sc = load_scenario(SCENARIO_DIR / "two_link_single_block.yaml")
        obs = sc.prepared()
        kernel = sc.robot.cell_kernel(sc.grid, obs)
        stride = sc.grid.strides[-2]
        row = next(lin for lin in range(stride) if kernel(lin) is None and type(kernel(lin)) is FreeRow)
        lins = [row, row + stride, row + 2 * stride]
        pool = CheckPool(2, sc.robot, obs, sc.grid)
        try:
            assert pool.check(lins) == [None, FREE_ROW, None]
        finally:
            pool.close()
        fresh = sc.robot.cell_kernel(sc.grid, obs)
        assert [fresh(lin) for lin in lins] == [None, FREE_ROW, FREE_ROW]

    def test_one_worker_checks_in_process(self):
        sc = four_link_scene(6, block_angles=(90,))
        obs = sc.prepared()
        kernel = sc.robot.cell_kernel(sc.grid, obs)
        lins = np.random.default_rng(0).permutation(sc.grid.size)[:500].tolist()
        pool = CheckPool(1, sc.robot, obs, sc.grid)
        try:
            assert pool.batch_size == 1
            assert multiprocessing.active_children() == []
            assert pool.check(lins) == [kernel(lin) for lin in lins]
            assert multiprocessing.active_children() == []
        finally:
            pool.close()

    def test_close_drops_the_kernel(self):
        sc = four_link_scene(6, block_angles=(90,))
        pool = CheckPool(1, sc.robot, sc.prepared(), sc.grid)
        pool.check(range(50))
        ref = weakref.ref(pool._kernel)
        gc.disable()
        try:
            pool.close()
            assert ref() is None
        finally:
            gc.enable()

    def test_thread_count_is_bounded_before_any_fork(self, monkeypatch):
        def no_fork(method=None):
            raise AssertionError("a process was about to start")

        monkeypatch.setattr(sampler.multiprocessing, "get_context", no_fork)
        with pytest.raises(ValidationError, match="threads"):
            prove_infeasibility(empty_scene(), seed=0, threads=10**6)
        assert engine.MAX_THREADS >= 4
        # The bound itself is allowed: the proof gets as far as the fork.
        with pytest.raises(AssertionError, match="about to start"):
            prove_infeasibility(empty_scene(), seed=0, threads=engine.MAX_THREADS)

    def test_worker_error_is_raised_in_the_caller(self, monkeypatch):
        # No cell of the empty scene collides, so every cell gets checked.
        build = SerialChain.cell_kernel

        def failing(robot, spec, obs):
            kernel = build(robot, spec, obs)

            def check(lin):
                if lin == 17:
                    raise ValidationError("cell 17")
                return kernel(lin)

            return check

        monkeypatch.setattr(SerialChain, "cell_kernel", failing)
        with pytest.raises(ValidationError, match="cell 17"):
            prove_infeasibility(empty_scene(), SamplerParams(10, 3), seed=4, threads=2)
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        verdict = prove_infeasibility(empty_scene(), SamplerParams(10, 3), seed=4, threads=2)
        assert verdict.kind == FEASIBLE_AT_RESOLUTION
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_grid_past_the_joint_limits_fails_in_the_caller(self, threads, capfd):
        """The kernel is built in this process at every worker count, so a
        grid the chain refuses raises here, before any worker starts. The
        start and goal cells lie within the limits; the grid's corners do
        not."""
        chain = SerialChain((0, 0), [(0.5, 0.02)] * 2, [(-1.0, 1.0)] * 2)
        sc = Scenario(
            robot=chain,
            obstacles=[],
            start=(0.1, 0.1),
            goal=(0.6, -0.6),
            grid=GridSpec((8, 8), (False, False), (-2.0, -2.0), (2.0, 2.0)),
        )
        with pytest.raises(InvalidConfiguration, match="outside limits"):
            prove_infeasibility(sc, seed=0, threads=threads)
        assert capfd.readouterr().err == ""
        assert multiprocessing.active_children() == []


class TestKernelMemo:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_memo_outlives_its_proof(self, monkeypatch, threads):
        """Reference counting alone frees each proof's kernel: the memo
        holds no reference cycle, and a proof that raised drops it even
        while its traceback is kept. A pooled proof builds its one kernel
        in this process too, and closing the pool frees it."""
        kernels = []
        build = SerialChain.cell_kernel

        def tracked(robot, spec, obs):
            kernel = build(robot, spec, obs)
            kernels.append(weakref.ref(kernel))
            return kernel

        monkeypatch.setattr(SerialChain, "cell_kernel", tracked)
        sc = four_link_scene(8, block_angles=(90,))
        gc.disable()
        try:
            assert prove_infeasibility(sc, seed=0, threads=threads).kind == FEASIBLE_AT_RESOLUTION
            with pytest.raises(EngineTimeout) as raised:
                prove_infeasibility(sc, SamplerParams(1, 0), seed=0, threads=threads, timeout=0.0)
            assert raised.tb is not None
            assert len(kernels) == 2
            assert [ref() for ref in kernels] == [None, None]
        finally:
            gc.enable()


class TestVerdictSerialization:
    def test_json_round_trip_fields(self):
        sc = three_band_scene(36)
        verdict = prove_infeasibility(sc, SamplerParams(20, 4), seed=1)
        data = json.loads(verdict.to_json())
        assert data["kind"] == INFEASIBLE
        assert data["component_count"] == verdict.component_count
        assert data["bitmap_sha256"] == verdict.digest
        assert data["grid"]["dims"] == [36, 36]
        assert data["grid"]["wrap"] == [True, True]
        assert len(data["per_iteration"]) == verdict.iterations
        assert data["per_iteration"][0]["hits"] >= 0

    def test_obstacle_verdict_serializes_without_grid(self):
        verdict = Verdict(kind=START_OR_GOAL_IN_OBSTACLE)
        data = json.loads(verdict.to_json())
        assert data["grid"] is None
        assert data["component_count"] is None
        assert data["separating_axes"] is None
