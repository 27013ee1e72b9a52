import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from noplan import kinematics
from noplan.bitmap import (
    CSpaceBitmap,
    GridSpec,
    TWO_PI,
    cell_to_config,
    config_to_cell,
    lin_to_multi,
    multi_to_lin,
    neighbors,
)
from noplan.errors import IncompatibleGrids, OutOfBounds, OutOfRange, ValidationError
from noplan.geometry import Point2, Polygon2
from noplan.kinematics import PreparedObstacles, RigidSE2, SerialChain
from noplan.scenario_io import se2_grid

from support import grid_and_cell, square


def grid(dims, wrap=None, lo=None, hi=None):
    n = len(dims)
    wrap = wrap if wrap is not None else [False] * n
    lo = lo if lo is not None else [0.0] * n
    hi = hi if hi is not None else [1.0] * n
    return GridSpec(tuple(dims), tuple(wrap), tuple(lo), tuple(hi))


class TestGridSpec:
    def test_rejects_single_cell_axis(self):
        with pytest.raises(ValidationError):
            grid([1, 3])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            GridSpec((3,), (False,), (1.0,), (0.0,))

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValidationError):
            GridSpec((3,), (False,), (lo,), (hi,))

    @pytest.mark.parametrize("dims", [(36.7, 36), (36.0, 36), ("36", 36)])
    def test_rejects_sizes_that_are_not_integers(self, dims):
        with pytest.raises(ValidationError, match="axis 0 size must be an integer"):
            grid(dims)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            GridSpec((3, 3), (False,), (0.0, 0.0), (1.0, 1.0))

    def test_size_and_strides(self):
        g = grid([5, 4, 3])
        assert g.size == 60
        assert g.strides == (1, 5, 20, 60)


class TestIndexing:
    def test_linear_examples(self):
        g = grid([3, 3])
        assert lin_to_multi(g, 0) == (0, 0)
        assert lin_to_multi(g, 4) == (1, 1)
        assert multi_to_lin(g, (1, 1)) == 4

    def test_first_axis_fastest(self):
        g = grid([3, 3])
        assert multi_to_lin(g, (1, 0)) == 1
        assert multi_to_lin(g, (0, 1)) == 3

    def test_round_trip_exhaustive(self):
        g = grid([5, 4, 3])
        for lin in range(g.size):
            assert multi_to_lin(g, lin_to_multi(g, lin)) == lin

    def test_out_of_range(self):
        g = grid([3, 3])
        with pytest.raises(OutOfRange):
            lin_to_multi(g, 9)
        with pytest.raises(OutOfRange):
            multi_to_lin(g, (3, 0))


class TestCellConfigMapping:
    def test_cell_center_formula(self):
        g = GridSpec((36,), (True,), (0.0,), (TWO_PI,))
        assert cell_to_config(g, (0,))[0] == pytest.approx(math.pi / 36)
        assert cell_to_config(g, (35,))[0] == pytest.approx(TWO_PI - math.pi / 36)

    def test_round_trip_on_centers(self):
        g = grid([7, 9], wrap=[True, False], lo=[0, -1], hi=[TWO_PI, 2])
        for lin in range(g.size):
            multi = lin_to_multi(g, lin)
            assert config_to_cell(g, cell_to_config(g, multi)) == multi

    def test_center_maps_to_its_cell(self):
        g = grid([5, 5])
        assert config_to_cell(g, cell_to_config(g, (2, 3))) == (2, 3)

    def test_upper_bound_clamps(self):
        g = grid([10], lo=[0.0], hi=[1.0])
        assert config_to_cell(g, (1.0,)) == (9,)

    def test_wrap_reduces_modulo(self):
        g = GridSpec((36,), (True,), (0.0,), (TWO_PI,))
        assert config_to_cell(g, (TWO_PI + 0.1,)) == config_to_cell(g, (0.1,))
        assert config_to_cell(g, (-0.1,)) == config_to_cell(g, (TWO_PI - 0.1,))

    def test_out_of_bounds_on_clamped_axis(self):
        g = grid([10])
        with pytest.raises(OutOfBounds):
            config_to_cell(g, (1.5,))

    @pytest.mark.parametrize("g", [
        pytest.param(grid([7], [True], [-math.pi], [math.pi]), id="pi-7"),
        pytest.param(grid([13, 7], [True, True], [-math.pi] * 2, [math.pi] * 2), id="pi-13x7"),
        pytest.param(se2_grid([[0.0, 6.7], [0.0, 3.9]], [67, 39, 72]), id="se2"),
        pytest.param(se2_grid([[0.0, 6.7], [0.0, 3.9]], [134, 78, 144]), id="se2-2x"),
        pytest.param(grid([11, 3], lo=[-0.3, 1e-3], hi=[0.7, 0.1]), id="awkward"),
    ])
    def test_centres_are_the_cell_centre_floats(self, g, monkeypatch):
        # The cell kernels compute each cell's coordinates, the reference
        # check reads cell_to_config(): the two must pass the same floats,
        # not merely close ones, to RigidSE2.collision_check, or as a
        # chain's running angle sums to _link_body. Every sweep along an
        # axis, with the other axes at their first or last cell.
        seen = []
        if g.ndim == 3:
            robot = RigidSE2(square(0.0, 0.0, 0.1), Point2(0.0, 0.0))
            check = RigidSE2.collision_check
            monkeypatch.setattr(RigidSE2, "collision_check", lambda self, q, obs:
                                seen.append(q) or check(self, q, obs))
            # Within reach of every cell, so that the kernel checks each one.
            obs = PreparedObstacles([square(3.35, 1.95, 5.0)])
        else:
            robot = SerialChain((0.0, 0.0), [1.0] * g.ndim)
            link_body = kinematics._link_body
            monkeypatch.setattr(kinematics, "_link_body", lambda x, y, angle, link:
                                seen.append(angle) or link_body(x, y, angle, link))
            # So that the kernel poses and tests every link of each cell, and
            # clears no row: a ring, cut open on one side, beyond the reach
            # of links 1..n-1 and within the last link's reach from every
            # place of joint n-1 (on the unit circle, for two links).
            turn = np.linspace(0.05 - math.pi, math.pi - 0.05, 32)
            ring = [(r * math.cos(a), r * math.sin(a))
                    for r, arc in ((g.ndim + 0.5, turn), (g.ndim - 0.9, turn[::-1])) for a in arc]
            obs = PreparedObstacles([Polygon2(ring)])
        for axis in range(g.ndim):
            for rest in ([0] * g.ndim, [n - 1 for n in g.dims]):
                for m in range(g.dims[axis]):
                    multi = (*rest[:axis], m, *rest[axis + 1:])
                    robot.cell_kernel(g, obs)(multi_to_lin(g, multi))
                    got = seen[:]
                    seen.clear()
                    robot.collision_check(cell_to_config(g, multi), obs)
                    assert got and got == seen
                    seen.clear()


def moore(spec, multi) -> list:
    """Grid indices of the Moore neighbors of the cell at ``multi``."""
    return [lin_to_multi(spec, n) for n in neighbors(spec, multi_to_lin(spec, multi))]


class TestNeighbors:
    def test_interior_cell(self):
        g = grid([10, 10])
        assert len(moore(g, (5, 5))) == 8

    def test_corner_no_wrap(self):
        g = grid([10, 10])
        assert len(moore(g, (0, 0))) == 3

    def test_corner_torus(self):
        g = grid([10, 10], wrap=[True, True])
        nbrs = moore(g, (0, 0))
        assert len(nbrs) == 8
        assert (9, 9) in nbrs

    def test_mixed_wrap(self):
        g = grid([10, 10], wrap=[True, False])
        nbrs = moore(g, (0, 0))
        assert len(nbrs) == 5
        assert (9, 1) in nbrs

    def test_3d_interior_count(self):
        g = grid([5, 5, 5])
        assert len(moore(g, (2, 2, 2))) == 26

    def test_listed_in_offset_order(self):
        # The sampler picks neighbors by position in this list, so the order
        # is part of a seed's reproducibility.
        g = grid([4, 4], wrap=[True, False])
        assert moore(g, (0, 3)) == [(3, 2), (3, 3), (0, 2), (1, 2), (1, 3)]

    def test_two_cell_torus_lists_each_cell_once(self):
        g = grid([2, 2], wrap=[True, True])
        assert neighbors(g, 0) == [3, 1, 2]


def tuple_neighbors(spec, multi) -> list:
    """Moore neighbors as grid tuples, in offset order, by direct
    construction; a cell two offsets reach is listed at the first."""
    choices = []
    for m, d, wrap in zip(multi, spec.dims, spec.wrap):
        if wrap:
            choices.append(tuple(dict.fromkeys(((m - 1) % d, m, (m + 1) % d))))
        else:
            choices.append(tuple(v for v in (m - 1, m, m + 1) if 0 <= v < d))
    return [cell for cell in itertools.product(*choices) if cell != tuple(multi)]


@settings(max_examples=300, deadline=None)
@given(grid_and_cell())
def test_neighbors_match_tuple_construction(case):
    spec, lin = case
    want = [multi_to_lin(spec, cell) for cell in tuple_neighbors(spec, lin_to_multi(spec, lin))]
    assert neighbors(spec, lin) == want


@settings(max_examples=300, deadline=None)
@given(grid_and_cell())
def test_neighbors_never_repeat_a_cell(case):
    spec, lin = case
    nbrs = neighbors(spec, lin)
    assert len(set(nbrs)) == len(nbrs)
    assert lin not in nbrs


class TestBitmap:
    def test_starts_all_free(self):
        bm = CSpaceBitmap(grid([5, 4, 3]))
        assert bm.free_count() == 60
        assert all(bm.is_free(i) for i in range(60))

    def test_set_and_idempotence(self):
        bm = CSpaceBitmap(grid([3, 3]))
        bm.set_obstacle(4)
        assert not bm.is_free(4)
        assert bm.free_count() == 8
        bm.set_obstacle(4)
        assert bm.free_count() == 8

    def test_bulk_matches_loop(self):
        rng = np.random.default_rng(2)
        g = grid([16, 16, 8])
        a = CSpaceBitmap(g)
        b = CSpaceBitmap(g)
        idx = rng.integers(0, g.size, 500)
        a.set_obstacle_bulk(idx)
        for i in idx:
            b.set_obstacle(int(i))
        assert np.array_equal(a.bits, b.bits)
        assert a.digest() == b.digest()

    def test_bulk_range_check(self):
        bm = CSpaceBitmap(grid([3, 3]))
        with pytest.raises(OutOfRange):
            bm.set_obstacle_bulk(np.array([0, 9]))

    def test_is_free_bulk(self):
        bm = CSpaceBitmap(grid([4, 4]))
        bm.set_obstacle_bulk(np.array([1, 5, 9]))
        got = bm.to_dense().reshape(-1, order="F").astype(bool)
        expect = np.ones(16, bool)
        expect[[1, 5, 9]] = False
        assert np.array_equal(got, expect)

    def test_dense_round_trip(self):
        rng = np.random.default_rng(4)
        g = grid([7, 5, 3], wrap=[True, False, True])
        dense = (rng.random(g.dims) > 0.4).astype(np.uint8)
        bm = CSpaceBitmap.from_dense(g, dense)
        assert np.array_equal(bm.to_dense(), dense)
        assert bm.free_count() == int(dense.sum())

    def test_dense_linearization_is_first_axis_fastest(self):
        g = grid([3, 2])
        bm = CSpaceBitmap(g)
        bm.set_obstacle(multi_to_lin(g, (2, 0)))
        dense = bm.to_dense()
        assert dense[2, 0] == 0
        assert dense.sum() == 5

    def test_digest_changes_with_content(self):
        bm = CSpaceBitmap(grid([4, 4]))
        d0 = bm.digest()
        bm.set_obstacle(3)
        assert bm.digest() != d0

    def test_dump_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        g = grid([9, 6], wrap=[True, False], lo=[0, -2], hi=[TWO_PI, 3])
        bm = CSpaceBitmap(g)
        bm.set_obstacle_bulk(rng.integers(0, g.size, 20))
        path = tmp_path / "grid.bin"
        bm.dump(path)
        loaded = CSpaceBitmap.load(path)
        assert loaded.spec == g
        assert np.array_equal(loaded.bits, bm.bits)
        assert loaded.digest() == bm.digest()

    def test_pgm_export(self, tmp_path):
        bm = CSpaceBitmap(grid([4, 3]))
        bm.set_obstacle(multi_to_lin(bm.spec, (1, 2)))
        path = tmp_path / "out.pgm"
        bm.to_pgm(path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8).reshape(3, 4)
        assert pixels[0, 1] == 0  # top row is the highest second-axis index
        assert pixels.sum() == 255 * 11

    def test_pgm_needs_2d(self, tmp_path):
        bm = CSpaceBitmap(grid([3, 3, 3]))
        with pytest.raises(IncompatibleGrids):
            bm.to_pgm(tmp_path / "x.pgm")

    def test_tail_bits_masked(self):
        bm = CSpaceBitmap(grid([3, 3]))
        assert bm.free_count() == 9
        assert np.bitwise_count(bm.bits).sum() == 9
