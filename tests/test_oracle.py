import numpy as np
import pytest

from noplan.bitmap import CSpaceBitmap, GridSpec
from noplan.errors import IncompatibleGrids, StartOrGoalInObstacle, TooLarge
from noplan.oracle import (
    EQUIVALENT,
    Equivalence,
    bfs_connected,
    brute_force_bitmap,
    check_equivalence,
    flood_fill_labels,
)
from noplan.scenario_io import Scenario, chain_grid
from noplan.kinematics import SerialChain

from support import three_band_scene


def unit_bitmap(dense, wrap=None):
    """Bitmap over [0,1]^n so differently sized grids stay comparable."""
    dense = np.asarray(dense, dtype=np.uint8)
    n = dense.ndim
    wrap = wrap if wrap is not None else (False,) * n
    spec = GridSpec(dense.shape, tuple(wrap), (0.0,) * n, (1.0,) * n)
    return CSpaceBitmap.from_dense(spec, dense)


class TestBruteForce:
    def test_empty_scene_all_free(self):
        chain = SerialChain((0, 0), [0.5, 0.3])
        sc = Scenario(
            robot=chain,
            obstacles=[],
            start=(0.0, 0.0),
            goal=(1.0, 1.0),
            grid=chain_grid(chain, [8, 8]),
        )
        assert brute_force_bitmap(sc).free_count() == 64

    def test_three_band_scene_structure(self):
        sc = three_band_scene(36)
        bm = brute_force_bitmap(sc)
        assert bm.free_count() == 36 * 36 - 3 * 36
        dense = bm.to_dense()
        blocked_columns = {m0 for m0 in range(36) if not dense[m0].any()}
        assert blocked_columns == {0, 5, 11}

    def test_refuses_oversized_grids(self):
        chain = SerialChain((0, 0), [0.5, 0.3, 0.2])
        sc = Scenario(
            robot=chain,
            obstacles=[],
            start=(0.0, 0.0, 0.0),
            goal=(1.0, 1.0, 1.0),
            grid=chain_grid(chain, [216, 216, 216]),
        )
        with pytest.raises(TooLarge):
            brute_force_bitmap(sc)


class TestFloodFill:
    def test_first_occurrence_labels(self):
        dense = np.ones((5, 2))
        dense[2, :] = 0
        labels, count = flood_fill_labels(unit_bitmap(dense))
        assert count == 2
        assert labels.tolist() == [1, 1, 0, 2, 2, 1, 1, 0, 2, 2]

    def test_all_obstacle(self):
        labels, count = flood_fill_labels(unit_bitmap(np.zeros((3, 3))))
        assert count == 0
        assert not labels.any()


class TestBfsConnected:
    def test_corridor(self):
        dense = np.ones((5, 5))
        dense[2, 1:] = 0
        bm = unit_bitmap(dense)
        assert bfs_connected(bm, (0, 4), (4, 4))
        dense[2, 0] = 0
        assert not bfs_connected(unit_bitmap(dense), (0, 4), (4, 4))

    def test_wrap_seam_path(self):
        dense = np.ones((6, 4))
        dense[3, :] = 0
        assert not bfs_connected(unit_bitmap(dense), (0, 0), (5, 0))
        assert bfs_connected(unit_bitmap(dense, wrap=(True, False)), (0, 0), (5, 0))

    def test_moore_crosses_diagonal_gap(self):
        dense = np.zeros((4, 4))
        dense[0, 0] = dense[1, 1] = 1
        bm = unit_bitmap(dense)
        assert not bfs_connected(bm, (0, 0), (1, 1), "faces")
        assert bfs_connected(bm, (0, 0), (1, 1), "moore")

    def test_same_cell_is_connected(self):
        bm = unit_bitmap(np.ones((3, 3)))
        assert bfs_connected(bm, (1, 1), (1, 1))

    def test_blocked_endpoint_rejected(self):
        dense = np.ones((3, 3))
        dense[1, 1] = 0
        with pytest.raises(StartOrGoalInObstacle):
            bfs_connected(unit_bitmap(dense), (1, 1), (0, 0))


class TestEquivalence:
    def test_str_forms(self):
        assert str(EQUIVALENT) == "Equivalent"
        assert str(Equivalence(False, 2)) == "Violation(2)"

    def test_identical_grids_equivalent(self):
        dense = np.ones((4, 4))
        dense[2, :] = 0
        fine = unit_bitmap(dense)
        coarse = unit_bitmap(dense)
        got = check_equivalence(fine, coarse, (0.1, 0.1), (0.9, 0.9))
        assert got == EQUIVALENT

    def test_component_count_mismatch(self):
        fine = np.ones((8, 8))
        fine[4, :] = 0
        got = check_equivalence(
            unit_bitmap(fine), unit_bitmap(np.ones((4, 4))), (0.1, 0.1), (0.9, 0.9)
        )
        assert got == Equivalence(False, 1)

    def test_phantom_coarse_components(self):
        # coarse grid shows two free rooms where the fine grid has two
        # different rooms; counts agree but containment does not
        fine = np.zeros((4, 4))
        fine[0:2, 0:2] = 1
        fine[2:4, 2:4] = 1
        coarse = np.zeros((2, 2))
        coarse[0, 1] = 1
        coarse[1, 0] = 1
        got = check_equivalence(
            unit_bitmap(fine), unit_bitmap(coarse), (0.3, 0.3), (0.7, 0.7)
        )
        assert got == Equivalence(False, 2)

    def test_coarse_component_straddles_two_fine_rooms(self):
        fine = np.zeros((8, 2))
        fine[0:3, 0] = 1
        fine[5:8, 0] = 1
        coarse = np.zeros((4, 2))
        coarse[1, 0] = coarse[2, 0] = 1
        coarse[0, 1] = 1
        got = check_equivalence(
            unit_bitmap(fine), unit_bitmap(coarse), (0.1, 0.25), (0.9, 0.25)
        )
        assert got == Equivalence(False, 2)

    def test_start_cell_blocked_in_coarse(self):
        fine = np.ones((4, 4))
        coarse = np.ones((4, 4))
        coarse[0, 0] = 0
        got = check_equivalence(
            unit_bitmap(fine), unit_bitmap(coarse), (0.1, 0.1), (0.9, 0.9)
        )
        assert got == Equivalence(False, 3)

    def test_goal_cell_blocked_in_coarse(self):
        fine = np.ones((4, 4))
        coarse = np.ones((4, 4))
        coarse[3, 3] = 0
        got = check_equivalence(
            unit_bitmap(fine), unit_bitmap(coarse), (0.1, 0.1), (0.9, 0.9)
        )
        assert got == Equivalence(False, 4)

    def test_earlier_condition_wins(self):
        # both the component counts and the start cell are wrong; the
        # count mismatch must be the one reported
        fine = np.ones((8, 8))
        fine[4, :] = 0
        coarse = np.ones((4, 4))
        coarse[0, 0] = 0
        got = check_equivalence(
            unit_bitmap(fine), unit_bitmap(coarse), (0.05, 0.05), (0.9, 0.9)
        )
        assert got == Equivalence(False, 1)

    def test_incompatible_dimension(self):
        with pytest.raises(IncompatibleGrids):
            check_equivalence(
                unit_bitmap(np.ones((4, 4, 4))), unit_bitmap(np.ones((4, 4))),
                (0.1, 0.1), (0.9, 0.9),
            )

    def test_non_multiple_resolution(self):
        with pytest.raises(IncompatibleGrids):
            check_equivalence(
                unit_bitmap(np.ones((6, 6))), unit_bitmap(np.ones((4, 4))),
                (0.1, 0.1), (0.9, 0.9),
            )

    def test_wrap_mismatch(self):
        with pytest.raises(IncompatibleGrids):
            check_equivalence(
                unit_bitmap(np.ones((4, 4)), wrap=(True, False)),
                unit_bitmap(np.ones((2, 2)), wrap=(False, False)),
                (0.1, 0.1), (0.9, 0.9),
            )

    def test_bounds_mismatch(self):
        fine = CSpaceBitmap(GridSpec((4, 4), (False, False), (0.0, 0.0), (2.0, 2.0)))
        coarse = CSpaceBitmap(GridSpec((2, 2), (False, False), (0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(IncompatibleGrids):
            check_equivalence(fine, coarse, (0.1, 0.1), (0.9, 0.9))
