import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from noplan import sampler
from noplan.bitmap import CSpaceBitmap, GridSpec, TWO_PI, cell_to_config, lin_to_multi, multi_to_lin, neighbors
from noplan.errors import Exhausted, OutOfRange, ValidationError
from noplan.kinematics import (
    BaseInObstacle,
    ObstacleHit,
    PreparedObstacles,
    RigidSE2,
    SelfHit,
    SerialChain,
)
from noplan.sampler import (
    CheckPool,
    SamplerParams,
    SampleSet,
    _slice,
    _slice_indices,
    cells_implied_by,
    free_rows,
    moore_picks,
    propagate,
    sample_obstacle_cells,
)
from noplan.scenario_io import load_scenario

from support import SCENARIO_DIR, grid_and_cell, square, three_band_scene


def torus(dims):
    n = len(dims)
    return GridSpec(tuple(dims), (True,) * n, (0.0,) * n, (TWO_PI,) * n)


class TestSampleSet:
    def test_draws_cover_everything_once(self):
        rng = np.random.default_rng(0)
        ss = SampleSet(100)
        drawn = [ss.draw(rng) for _ in range(100)]
        assert sorted(drawn) == list(range(100))
        with pytest.raises(Exhausted):
            ss.draw(rng)

    def test_remove_once(self):
        ss = SampleSet(10)
        assert ss.remove(4)
        assert not ss.remove(4)
        assert len(ss) == 9
        assert 4 not in ss

    def test_removed_never_drawn(self):
        rng = np.random.default_rng(1)
        ss = SampleSet(30)
        for i in range(0, 30, 3):
            ss.remove(i)
        drawn = [ss.draw(rng) for _ in range(len(ss))]
        assert sorted(drawn) == [i for i in range(30) if i % 3 != 0]

    def test_memory_is_one_bit_per_cell(self):
        n = 48**4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ss = SampleSet(n)
            ss.draw(np.random.default_rng(0))
            ss.remove_bulk(np.arange(0, n, 7))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ss) < n
        assert held <= n // 8 + 64 * 1024

    def test_indices_outside_the_set_are_rejected(self):
        ss = SampleSet(10)
        for bad in (-1, 10):
            with pytest.raises(OutOfRange):
                ss.remove(bad)
            with pytest.raises(OutOfRange):
                bad in ss
            with pytest.raises(OutOfRange):
                ss.remove_bulk([3, bad])
        assert len(ss) == 10
        assert all(cell in ss for cell in range(10))

    def test_remove_bulk_matches_loop(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(5, 200))
            a = SampleSet(n)
            b = SampleSet(n)
            pre = rng.integers(0, n, size=n // 4)
            for x in pre:
                a.remove(int(x))
                b.remove(int(x))
            req = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
            got = a.remove_bulk(req)
            expect = sorted({int(x) for x in req if b.remove(int(x))})
            assert sorted(got.tolist()) == expect
            assert len(a) == len(b)
            assert [x in a for x in range(n)] == [x in b for x in range(n)]
            drained = sorted(a.draw(rng) for _ in range(len(a)))
            assert drained == [x for x in range(n) if x in b]

    def test_remove_bulk_with_duplicates(self):
        ss = SampleSet(10)
        got = ss.remove_bulk(np.array([3, 3, 3, 7]))
        assert sorted(got.tolist()) == [3, 7]
        assert len(ss) == 8

    def test_pool_consistent_after_bulk(self):
        rng = np.random.default_rng(3)
        ss = SampleSet(64)
        ss.remove_bulk(rng.integers(0, 64, 40))
        drawn = [ss.draw(rng) for _ in range(len(ss))]
        assert len(set(drawn)) == len(drawn)

    def test_first_draw_is_uniform(self):
        rng = np.random.default_rng(4)
        n, trials = 10, 4000
        counts = np.zeros(n)
        for _ in range(trials):
            counts[SampleSet(n).draw(rng)] += 1
        assert sstats.chisquare(counts).pvalue > 1e-3

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SampleSet(0)


# Small sizes, both sides of powers of two (the Feistel domain is the
# square above the size), and a prime.
MODEL_SIZES = [1, 2, 3, 4, 5, 15, 16, 17, 255, 256, 257, 1023, 1024, 1025, 10007]


@st.composite
def set_operations(draw):
    """A size and a random interleaving of draws, batched draws and
    removals."""
    n = draw(st.sampled_from(MODEL_SIZES))
    cell = st.integers(0, n - 1)
    op = st.one_of(
        st.just(("draw",)),
        st.tuples(st.just("many"), st.integers(1, 40)),
        st.tuples(st.just("remove"), cell),
        st.tuples(st.just("bulk"), st.lists(cell, max_size=40)),
        st.tuples(st.just("bulk"), st.lists(cell, max_size=40, unique=True).map(sorted)),
    )
    return n, draw(st.integers(0, 2**32 - 1)), draw(st.lists(op, max_size=60))


@settings(max_examples=150, deadline=None)
@given(set_operations())
def test_sample_set_matches_a_set_model(case):
    """A batched draw returns the cells as many single draws return from
    a twin set, one that takes the same removals."""
    n, seed, ops = case
    rng = np.random.default_rng(seed)
    ss = SampleSet(n)
    twin, twin_rng = SampleSet(n), np.random.default_rng(seed)
    model = set(range(n))
    drawn = []
    for op in ops:
        if op[0] in ("draw", "many"):
            count = 1 if op[0] == "draw" else op[1]
            if not model:
                with pytest.raises(Exhausted):
                    ss.draw(rng) if op[0] == "draw" else ss.draw_many(rng, count)
                continue
            cells = [ss.draw(rng)] if op[0] == "draw" else ss.draw_many(rng, count)
            assert cells == [twin.draw(twin_rng) for _ in range(min(count, len(model)))]
            assert model.issuperset(cells)
            model.difference_update(cells)
            drawn += cells
        elif op[0] == "remove":
            assert ss.remove(op[1]) == (op[1] in model)
            twin.remove(op[1])
            model.discard(op[1])
        else:
            got = ss.remove_bulk(np.asarray(op[1], dtype=np.int64))
            twin.remove_bulk(np.asarray(op[1], dtype=np.int64))
            assert got.tolist() == sorted(model.intersection(op[1]))
            model.difference_update(op[1])
        assert len(ss) == len(model)
    assert [c in ss for c in range(n)] == [c in model for c in range(n)]
    while model:
        cell = ss.draw(rng)
        assert cell in model
        model.discard(cell)
        drawn.append(cell)
    assert len(ss) == 0
    assert len(set(drawn)) == len(drawn)
    with pytest.raises(Exhausted):
        ss.draw(rng)


def slice_indices(spec, linear, lo, hi):
    """Linear indices of the cells agreeing with ``linear`` on axes lo..hi."""
    inner, outer, fixed = _slice(spec, linear, lo, hi)
    return _slice_indices(inner, outer, fixed, spec.size // outer)


def agreement_oracle(spec, multi, lo, hi):
    """All linear indices whose multi-index agrees with ``multi`` on axes
    lo..hi inclusive, by brute enumeration."""
    out = []
    for lin in range(spec.size):
        m = lin_to_multi(spec, lin)
        if all(m[a] == multi[a] for a in range(lo, hi + 1)):
            out.append(lin)
    return out


class TestCausePropagation:
    chain4 = SerialChain((0, 0), [0.4, 0.3, 0.2, 0.1])

    def test_first_link_hit_frees_all_later_axes(self):
        spec = torus([36, 36, 36, 36])
        got = cells_implied_by(
            self.chain4, spec, multi_to_lin(spec, (5, 7, 11, 13)), ObstacleHit(1, 0)
        )
        assert got.size == 46656
        sample = [lin_to_multi(spec, int(x)) for x in got[:: 4000]]
        assert all(m[0] == 5 for m in sample)

    def test_obstacle_hit_matches_enumeration(self):
        spec = torus([5, 4, 3, 2])
        multi = (2, 1, 0, 1)
        lin = multi_to_lin(spec, multi)
        for link in (1, 2, 3, 4):
            got = cells_implied_by(self.chain4, spec, lin, ObstacleHit(link, 0))
            assert sorted(got.tolist()) == agreement_oracle(spec, multi, 0, link - 1)

    def test_self_hit_matches_enumeration(self):
        spec = torus([5, 4, 3, 2])
        multi = (3, 2, 1, 0)
        for a, b in [(1, 3), (1, 4), (2, 4)]:
            got = cells_implied_by(self.chain4, spec, multi_to_lin(spec, multi), SelfHit(a, b))
            assert sorted(got.tolist()) == agreement_oracle(spec, multi, a - 1, b - 1)

    def test_slices_come_out_strictly_increasing(self):
        spec = torus([5, 4, 3, 2])
        for lo, hi in [(0, 0), (0, 3), (1, 2), (1, 3), (2, 2), (3, 3)]:
            got = slice_indices(spec, multi_to_lin(spec, (3, 2, 1, 0)), lo, hi)
            assert (np.diff(got) > 0).all()
            assert got.tolist() == agreement_oracle(spec, (3, 2, 1, 0), lo, hi)

    def test_last_link_hit_implies_only_the_cell(self):
        spec = torus([5, 4, 3, 2])
        lin = multi_to_lin(spec, (1, 2, 2, 1))
        got = cells_implied_by(self.chain4, spec, lin, ObstacleHit(4, 0))
        assert got.tolist() == [lin]

    def test_rigid_contact_implies_only_the_cell(self):
        robot = RigidSE2(square(0, 0, 0.5), (0, 0))
        spec = GridSpec(
            (6, 5, 8), (False, False, True), (0.0, 0.0, 0.0), (6.0, 5.0, TWO_PI)
        )
        got = cells_implied_by(robot, spec, multi_to_lin(spec, (2, 3, 4)), ObstacleHit(1, 0))
        assert got.tolist() == [multi_to_lin(spec, (2, 3, 4))]

    def test_buried_reference_sweeps_rotation(self):
        robot = RigidSE2(square(0, 0, 0.5), (0, 0))
        spec = GridSpec(
            (6, 5, 8), (False, False, True), (0.0, 0.0, 0.0), (6.0, 5.0, TWO_PI)
        )
        got = cells_implied_by(robot, spec, multi_to_lin(spec, (2, 3, 4)), BaseInObstacle(0))
        assert sorted(got.tolist()) == agreement_oracle(spec, (2, 3, 4), 0, 1)
        assert got.size == 8

    def test_propagate_marks_and_depletes(self):
        spec = torus([6, 6, 6])
        chain = SerialChain((0, 0), [0.5, 0.3, 0.2])
        bm = CSpaceBitmap(spec)
        ss = SampleSet(spec.size)
        count = propagate(bm, ss, chain, multi_to_lin(spec, (2, 3, 4)), ObstacleHit(2, 0))
        assert count == 6
        assert bm.free_count() == spec.size - 6
        assert len(ss) == spec.size - 6
        assert propagate(bm, ss, chain, multi_to_lin(spec, (2, 3, 4)), ObstacleHit(2, 0)) == 0

    def test_propagate_skips_already_visited(self):
        spec = torus([6, 6, 6])
        chain = SerialChain((0, 0), [0.5, 0.3, 0.2])
        bm = CSpaceBitmap(spec)
        ss = SampleSet(spec.size)
        stale = multi_to_lin(spec, (2, 3, 0))
        ss.remove(stale)
        count = propagate(bm, ss, chain, multi_to_lin(spec, (2, 3, 4)), ObstacleHit(2, 0))
        assert count == 5
        assert bm.is_free(stale)


@settings(max_examples=100, deadline=None)
@given(grid_and_cell())
def test_slices_match_enumeration_on_random_grids(case):
    spec, lin = case
    multi = lin_to_multi(spec, lin)
    for lo in range(spec.ndim):
        for hi in range(lo, spec.ndim):
            got = slice_indices(spec, lin, lo, hi)
            assert got.tolist() == agreement_oracle(spec, multi, lo, hi)


@st.composite
def propagation_cases(draw):
    """A grid of 1-5 axes with 2-10 cells each and random wrap flags, a
    robot on it, a cell, a cause that robot can report, and a seed for the
    cells visited and marked beforehand."""
    n = draw(st.integers(1, 5))
    dims = tuple(draw(st.lists(st.integers(2, 10), min_size=n, max_size=n)))
    wrap = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    spec = GridSpec(dims, wrap, (0.0,) * n, (1.0,) * n)
    if n == 3 and draw(st.booleans()):
        robot = RigidSE2(square(0, 0, 0.5), (0, 0))
        cause = draw(st.sampled_from([ObstacleHit(1, 0), BaseInObstacle(0)]))
    else:
        robot = SerialChain((0, 0), [1.0] * n)
        link = st.integers(1, n)
        causes = [st.builds(ObstacleHit, link, st.just(0))]
        if n > 1:
            causes.append(st.tuples(link, link).filter(lambda p: p[0] < p[1]).map(lambda p: SelfHit(*p)))
        cause = draw(st.one_of(causes))
    return spec, robot, draw(st.integers(0, spec.size - 1)), cause, draw(st.integers(0, 2**32 - 1))


# Seven runs of 6 cells, 90 apart, in four bit phases; the first, at cell
# 6, spans bits 6-11, across a byte boundary.
STRADDLING = (
    GridSpec((6, 3, 5, 7), (True,) * 4, (0.0,) * 4, (1.0,) * 4),
    SerialChain((0, 0), [1.0] * 4),
    6,
    SelfHit(2, 3),
    0,
)


def column_case(dims):
    """A buried reference point on an SE(2) grid: its heading column."""
    spec = GridSpec(dims, (False, False, True), (0.0,) * 3, (1.0,) * 3)
    robot = RigidSE2(square(0, 0, 0.5), (0, 0))
    return spec, robot, multi_to_lin(spec, (dims[0] // 2, dims[1] // 3, 5)), BaseInObstacle(0), 1


def row_case(cells):
    """A link-1 hit on a 3 x ``cells`` chain grid: ``cells`` cells in 8 bit
    phases."""
    spec = GridSpec((3, cells), (True, True), (0.0, 0.0), (1.0, 1.0))
    return spec, SerialChain((0, 0), [1.0, 1.0]), 1, ObstacleHit(1, 0), 2


@settings(max_examples=300, deadline=None)
@given(propagation_cases())
@example(STRADDLING)
@example(row_case(sampler.PLAN_CELLS))
@example(row_case(sampler.PLAN_CELLS + 1))
@example(column_case((134, 78, 144)))  # outer = 4 mod 8: 2 bit phases
@example(column_case((67, 39, 72)))  # odd outer: 8 bit phases
def test_propagate_matches_the_index_path(case):
    """Marking a slice in place leaves both bit arrays, the count and the
    set's size as listing its cells and removing them would, through a
    byte plan and through strided views alike: each case runs with every
    slice planned, with the module's cutover, and with none planned."""
    spec, robot, lin, cause, seed = case
    rng = np.random.default_rng(seed)
    visited = np.flatnonzero(rng.random(spec.size) < rng.random())
    obstacle = np.flatnonzero(rng.random(spec.size) < rng.random())

    def prior():
        bm, ss = CSpaceBitmap(spec), SampleSet(spec.size)
        ss.remove_bulk(visited)
        bm.set_obstacle_bulk(obstacle)
        return bm, ss

    ref_bm, ref_ss = prior()
    removed = ref_ss.remove_bulk(cells_implied_by(robot, spec, lin, cause))
    ref_bm.set_obstacle_bulk(removed)
    for cutover in (spec.size, sampler.PLAN_CELLS, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "PLAN_CELLS", cutover)
            bm, ss = prior()
            count = propagate(bm, ss, robot, lin, cause)
        assert count == removed.size
        assert len(ss) == len(ref_ss)
        assert ss._visited.tobytes() == ref_ss._visited.tobytes()
        assert bm.bits.tobytes() == ref_bm.bits.tobytes()


@st.composite
def free_row_cases(draw):
    """A grid of 2-5 axes with 2-10 cells each, or of 3 x ``PLAN_CELLS`` +
    1 cells, 1-4 cells and a seed for the cells visited and marked before."""
    if draw(st.booleans()):
        dims = (3, sampler.PLAN_CELLS + 1)
    else:
        dims = tuple(draw(st.lists(st.integers(2, 10), min_size=2, max_size=5)))
    spec = GridSpec(dims, (True,) * len(dims), (0.0,) * len(dims), (1.0,) * len(dims))
    cells = draw(st.lists(st.integers(0, spec.size - 1), min_size=1, max_size=4))
    return spec, cells, draw(st.integers(0, 2**32 - 1))


@st.composite
def moore_cases(draw):
    """A grid of 1-5 axes with 2-6 cells each, wrapping or not, 1-8 hits,
    a neighbor count and a seed."""
    n = draw(st.integers(1, 5))
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=n, max_size=n)))
    wrap = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    spec = GridSpec(dims, wrap, (0.0,) * n, (1.0,) * n)
    hits = draw(st.lists(st.integers(0, spec.size - 1), min_size=1, max_size=8))
    return spec, hits, draw(st.integers(0, 10)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(moore_cases())
def test_moore_picks_are_distinct_neighbors_hit_by_hit(case):
    """Each hit in turn gets ``min(k, n)`` distinct cells of its ``n``
    neighbors."""
    spec, hits, k, seed = case
    picks = moore_picks(spec, hits, np.random.default_rng(seed), k)
    for lin in hits:
        moore = neighbors(spec, lin)
        mine, picks = picks[:min(k, len(moore))], picks[min(k, len(moore)):]
        assert len(set(mine)) == len(mine) == min(k, len(moore))
        assert set(mine) <= set(moore)
    assert picks == []


@pytest.mark.parametrize("dims, wrap, hit", [
    ((3, 3), (False, False), 0),  # a corner: 3 neighbors
    ((2, 5), (True, False), 2),  # a 2-cell wrapping axis and an edge: 3
    ((4, 4, 4), (True, True, True), 21),  # 26 neighbors
])
def test_moore_picks_are_uniform(dims, wrap, hit):
    """Over many draws each neighbor is picked about equally often."""
    spec = GridSpec(dims, wrap, (0.0,) * len(dims), (1.0,) * len(dims))
    moore = neighbors(spec, hit)
    rng = np.random.default_rng(7)
    picks = moore_picks(spec, [hit] * 4000, rng, 2)
    counts = [picks.count(lin) for lin in moore]
    assert sum(counts) == 8000
    assert sstats.chisquare(counts).pvalue > 1e-4


@settings(max_examples=100, deadline=None)
@given(free_row_cases())
def test_free_rows_mark_their_rows_visited_only(case):
    """Free rows' cells, those that share every axis but the last with one
    of the cells, end visited and keep their bitmap bits, through a byte
    plan and strided views alike, a row given twice too; the count is of
    those not visited before."""
    spec, lins, seed = case
    rng = np.random.default_rng(seed)
    visited = np.flatnonzero(rng.random(spec.size) < rng.random())
    obstacle = np.flatnonzero(rng.random(spec.size) < rng.random())
    stride = spec.strides[-2]
    rows = [np.arange(lin % stride, spec.size, stride) for lin in lins]
    ref = SampleSet(spec.size)
    ref.remove_bulk(visited)
    fresh = ref.remove_bulk(np.concatenate(rows))
    for cutover in (spec.size, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "PLAN_CELLS", cutover)
            bm, ss = CSpaceBitmap(spec), SampleSet(spec.size)
            ss.remove_bulk(visited)
            bm.set_obstacle_bulk(obstacle)
            bits = bm.bits.tobytes()
            assert free_rows(ss, spec, lins + lins[-1:]) == fresh.size
        assert len(ss) == len(ref)
        assert ss._visited.tobytes() == ref._visited.tobytes()
        assert bm.bits.tobytes() == bits


def test_slice_over_the_cutover_caches_no_plan():
    sampler._plan.cache_clear()
    for cells, cached in ((sampler.PLAN_CELLS + 1, 0), (sampler.PLAN_CELLS, 1)):
        spec, robot, lin, cause, _ = row_case(cells)
        bm, ss = CSpaceBitmap(spec), SampleSet(spec.size)
        assert propagate(bm, ss, robot, lin, cause) == cells
        assert sampler._plan.cache_info().currsize == cached


def test_plan_cache_holds_under_two_megabytes():
    """A cache full of the largest plans, each cell of them in its own
    byte, stays under 2 MB."""
    sampler._plan.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for outer in range(9, 9 + 2 * sampler.PLAN_CACHE):
            at, mask, keep = sampler._plan(1, outer, sampler.PLAN_CELLS, 7)
            assert at.size == sampler.PLAN_CELLS
        del at, mask, keep
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sampler._plan.cache_info().currsize == sampler.PLAN_CACHE
    sampler._plan.cache_clear()
    assert held <= 2 * 2**20


def test_propagation_holds_no_per_cell_array():
    """A link-1 hit on the bundled 20^6 chain marks 20^5 cells with a
    transient peak of a few bits per cell, not an index per cell."""
    sc = load_scenario(SCENARIO_DIR / "six_link_bands.yaml")
    spec = sc.grid
    lin = multi_to_lin(spec, (5, 0, 0, 0, 0, 0))  # link 1 pointing up, into block-up
    cause = sc.robot.collision_check(cell_to_config(spec, lin_to_multi(spec, lin)), sc.prepared()).cause
    assert cause == ObstacleHit(1, 0)
    bm, ss = CSpaceBitmap(spec), SampleSet(spec.size)
    tracemalloc.start()
    try:
        count = propagate(bm, ss, sc.robot, lin, cause)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 20**5
    assert peak <= 4 * count


def all_hit_scene():
    """One-link arm inside a ring of obstacles: every configuration collides."""
    chain = SerialChain((0, 0), [(1.0, 0.05)])
    obstacles = [square(0.0, 0.0, 1.2)]
    return chain, PreparedObstacles(obstacles), torus([64])


class TestSamplingIteration:
    def test_quota_counts_direct_hits_exactly(self):
        chain, obs, spec = all_hit_scene()
        bm = CSpaceBitmap(spec)
        ss = SampleSet(spec.size)
        stats = sample_obstacle_cells(
            bm, ss, chain, CheckPool(1, chain, obs, spec), SamplerParams(7, 2),
            np.random.default_rng(0),
        )
        assert stats.hits == 7
        assert stats.checks >= stats.hits
        assert bm.free_count() < spec.size

    def test_marked_cells_really_collide(self):
        # first-link hits wipe whole columns, so only one direct hit per
        # obstacle band is possible; the quota must stay at three
        sc = three_band_scene(36)
        bm = CSpaceBitmap(sc.grid)
        ss = SampleSet(sc.grid.size)
        rng = np.random.default_rng(5)
        stats = sample_obstacle_cells(
            bm, ss, sc.robot, CheckPool(1, sc.robot, sc.prepared(), sc.grid), SamplerParams(3, 4),
            rng,
        )
        assert stats.propagated > 0
        marked = [lin for lin in range(sc.grid.size) if not bm.is_free(lin)]
        assert len(marked) >= 3 * 36
        for lin in marked:
            q = cell_to_config(sc.grid, lin_to_multi(sc.grid, lin))
            assert sc.robot.collision_check(q, sc.prepared()).colliding

    def test_deterministic_for_a_seed(self):
        # obstacle reachable only by the second link: every hit pins a
        # single cell, so different seeds mark different subsets
        chain = SerialChain((0, 0), [(1.0, 0.02), (0.55, 0.02)])
        obs = PreparedObstacles([square(1.2, 0.0, 0.06)])
        spec = torus([36, 36])

        def run(seed):
            bm = CSpaceBitmap(spec)
            ss = SampleSet(spec.size)
            stats = sample_obstacle_cells(
                bm, ss, chain, CheckPool(1, chain, obs, spec), SamplerParams(4, 2),
                np.random.default_rng(seed),
            )
            return bm.digest(), stats.hits, stats.checks, stats.propagated

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_exhaustion_carries_partial_stats(self):
        chain = SerialChain((0, 0), [(1.0, 0.05)])
        spec = torus([16])
        bm = CSpaceBitmap(spec)
        ss = SampleSet(spec.size)
        stats = sample_obstacle_cells(
            bm, ss, chain, CheckPool(1, chain, PreparedObstacles([]), spec), SamplerParams(1, 2),
            np.random.default_rng(0),
        )
        assert stats.hits == 0
        assert stats.checks == 16
        assert len(ss) == 0
        assert bm.free_count() == 16

    def test_a_batch_applies_every_hit(self, monkeypatch):
        # Every cell of the 8x8 grid hits with link 1, whose slice is the
        # column of cells sharing axis 0. Only column 0 is left to draw, so
        # a two-cell batch takes two hits in one slice, as a pool's can.
        _, obs, _ = all_hit_scene()
        chain = SerialChain((0, 0), [(1.0, 0.05), (0.5, 0.05)])
        spec = torus([8, 8])
        bm, ss = CSpaceBitmap(spec), SampleSet(spec.size)
        ss.remove_bulk([lin for lin in range(spec.size) if lin % 8])
        pool = CheckPool(1, chain, obs, spec)
        pool.batch_size = 2
        marks = []

        def recorded(*args):
            marks.append(propagate(*args))
            return marks[-1]

        monkeypatch.setattr(sampler, "propagate", recorded)
        stats = sample_obstacle_cells(bm, ss, chain, pool, SamplerParams(2, 0),
                                      np.random.default_rng(0))
        assert (stats.hits, stats.checks, stats.propagated) == (2, 2, 6)
        assert marks == [6, 0]
        assert bm.free_count() == spec.size - 8

    def test_zero_neighbor_checks_allowed(self):
        chain, obs, spec = all_hit_scene()
        bm = CSpaceBitmap(spec)
        ss = SampleSet(spec.size)
        stats = sample_obstacle_cells(
            bm, ss, chain, CheckPool(1, chain, obs, spec), SamplerParams(3, 0),
            np.random.default_rng(0),
        )
        assert stats.hits == 3

    def test_params_validated(self):
        with pytest.raises(ValidationError):
            SamplerParams(0, 5)
        with pytest.raises(ValidationError):
            SamplerParams(10, -1)
