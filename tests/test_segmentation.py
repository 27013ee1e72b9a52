import ast
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noplan import segmentation
from noplan.bitmap import CSpaceBitmap, GridSpec, multi_to_lin
from noplan.errors import StartOrGoalInObstacle, ValidationError
from noplan.oracle import flood_fill_labels
from noplan.segmentation import CONNECTIVITIES, project, segment, segment_check

from support import SCENARIO_DIR


def bitmap_from(dense, wrap=None):
    dense = np.asarray(dense, dtype=np.uint8)
    n = dense.ndim
    wrap = wrap if wrap is not None else (False,) * n
    spec = GridSpec(dense.shape, tuple(wrap), (0.0,) * n, tuple(float(d) for d in dense.shape))
    return CSpaceBitmap.from_dense(spec, dense)


class TestBasicLabeling:
    def test_all_free_is_one_component(self):
        lf = segment(bitmap_from(np.ones((6, 5))))
        assert lf.component_count == 1
        assert set(lf.to_dense().ravel().tolist()) == {1}

    def test_all_obstacle_is_zero_components(self):
        lf = segment(bitmap_from(np.zeros((4, 4))))
        assert lf.component_count == 0
        assert set(lf.to_dense().ravel().tolist()) == {0}

    def test_column_splits_plane(self):
        dense = np.ones((9, 7))
        dense[4, :] = 0
        lf = segment(bitmap_from(dense))
        assert lf.component_count == 2

    def test_labels_canonical_by_first_appearance(self):
        # ids follow first appearance along the linear raster (axis 0
        # fastest): (0, 0) is met before (5, 0). segment takes this order
        # from scipy numbering the reversed-axis view in raster order.
        dense = np.ones((9, 7))
        dense[4, :] = 0
        lf = segment(bitmap_from(dense))
        assert lf.label_of(0) == 1
        assert lf.label_of(multi_to_lin(lf.spec, (5, 0))) == 2

    def test_label_of_matches_dense_view(self):
        # A quarter of the cells free, so that the seams join labels under
        # moore too and the table maps several raw labels to one id.
        rng = np.random.default_rng(0)
        dense = (rng.random((6, 5, 4)) > 0.75).astype(np.uint8)
        bm = bitmap_from(dense, wrap=(True, False, True))
        for connectivity in CONNECTIVITIES:
            lf = segment(bm, connectivity)
            unwrapped = segment(bitmap_from(dense), connectivity)
            assert lf.component_count < unwrapped.component_count, connectivity
            dl = lf.to_dense()
            for lin in range(bm.spec.size):
                multi = np.unravel_index(lin, bm.spec.dims, order="F")
                assert lf.label_of(lin) == dl[multi]

    def test_obstacle_cells_labeled_zero(self):
        dense = np.ones((5, 5))
        dense[2, 2] = 0
        lf = segment(bitmap_from(dense))
        assert lf.label_of(multi_to_lin(lf.spec, (2, 2))) == 0

    def test_rejects_unknown_connectivity(self):
        with pytest.raises(ValidationError):
            segment(bitmap_from(np.ones((3, 3))), connectivity="knight")


class TestWrapSeams:
    def test_wrap_joins_across_seam(self):
        dense = np.ones((8, 8))
        dense[3, :] = 0
        assert segment(bitmap_from(dense, wrap=(False, False))).component_count == 2
        assert segment(bitmap_from(dense, wrap=(True, False))).component_count == 1

    def test_wrap_on_other_axis_does_not_join(self):
        dense = np.ones((8, 8))
        dense[3, :] = 0
        assert segment(bitmap_from(dense, wrap=(False, True))).component_count == 2

    def test_two_bands_on_torus(self):
        dense = np.ones((8, 8))
        dense[2, :] = 0
        dense[6, :] = 0
        assert segment(bitmap_from(dense, wrap=(True, True))).component_count == 2

    def test_3d_wrap_seam(self):
        dense = np.ones((6, 5, 4))
        dense[:, :, 1] = 0
        assert segment(bitmap_from(dense, wrap=(False, False, False))).component_count == 2
        assert segment(bitmap_from(dense, wrap=(False, False, True))).component_count == 1


class TestMooreConnectivity:
    def test_diagonal_contact(self):
        dense = np.zeros((4, 4))
        dense[0, 0] = 1
        dense[1, 1] = 1
        bm = bitmap_from(dense)
        assert segment(bm, "faces").component_count == 2
        assert segment(bm, "moore").component_count == 1

    def test_diagonal_across_torus_corner(self):
        dense = np.zeros((6, 6))
        dense[0, 0] = 1
        dense[5, 5] = 1
        assert segment(bitmap_from(dense, wrap=(True, True)), "moore").component_count == 1
        assert segment(bitmap_from(dense, wrap=(True, True)), "faces").component_count == 2
        assert segment(bitmap_from(dense), "moore").component_count == 2
        # (0, ..., 0) and (2, ..., 2) touch only through a seam offset that
        # is diagonal in every transverse axis
        for ndim in (3, 4, 5):
            corners = np.zeros((3,) * ndim)
            corners[(0,) * ndim] = corners[(2,) * ndim] = 1
            assert segment(bitmap_from(corners, wrap=(True,) * ndim), "moore").component_count == 1

    def test_diagonal_seam_needs_transverse_wrap(self):
        # seam contact with a diagonal offset on a clamped transverse axis
        # must not wrap that transverse axis
        dense = np.zeros((6, 6))
        dense[0, 0] = 1
        dense[5, 5] = 1
        assert segment(bitmap_from(dense, wrap=(True, False)), "moore").component_count == 2
        dense2 = np.zeros((6, 6))
        dense2[0, 1] = 1
        dense2[5, 0] = 1
        assert segment(bitmap_from(dense2, wrap=(True, False)), "moore").component_count == 1

    def test_checkerboard(self):
        dense = np.indices((6, 6)).sum(axis=0) % 2
        bm = bitmap_from(dense)
        assert segment(bm, "faces").component_count == 18
        assert segment(bm, "moore").component_count == 1

    def test_moore_never_splits_finer_than_faces(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            dense = (rng.random((7, 6)) > 0.5).astype(np.uint8)
            wrap = tuple(bool(b) for b in rng.integers(0, 2, 2))
            bm = bitmap_from(dense, wrap=wrap)
            assert segment(bm, "moore").component_count <= segment(bm, "faces").component_count


class TestAgainstFloodFill:
    def test_random_bitmaps_match_exactly(self):
        # The last 100 grids have 4-6 axes of 2-3 cells and few free cells,
        # so that components meet only through moore seam offsets that run
        # diagonally across several wrapped axes at once.
        rng = np.random.default_rng(2)
        for trial in range(160):
            if trial < 60:
                shape = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 4))))
                cut = 0.45
            else:
                shape = tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(4, 7))))
                cut = rng.uniform(0.7, 0.99)
            dense = (rng.random(shape) > cut).astype(np.uint8)
            wrap = tuple(bool(b) for b in rng.integers(0, 2, len(shape)))
            conn = "moore" if trial % 2 else "faces"
            bm = bitmap_from(dense, wrap=wrap)
            lf = segment(bm, conn)
            ff_labels, ff_count = flood_fill_labels(bm, conn)
            assert lf.component_count == ff_count
            assert np.array_equal(lf.to_dense().reshape(-1, order="F"), ff_labels)

    def test_sliced_renumbering_keeps_labels(self):
        # Seams that join labels leave the cells' raw labels and point the
        # joined raw labels at one component id; at least 20 grids here
        # have seams that join.
        rng = np.random.default_rng(12)
        joined = 0
        for trial in range(200):
            shape = tuple(int(rng.integers(2, 8)) for _ in range(int(rng.integers(1, 5))))
            dense = (rng.random(shape) > 0.4).astype(np.uint8)
            wrap = tuple(bool(b) for b in rng.integers(0, 2, len(shape)))
            conn = "moore" if trial % 2 else "faces"
            bm = bitmap_from(dense, wrap=wrap)
            lf = segment(bm, conn)
            ff_labels, ff_count = flood_fill_labels(bm, conn)
            assert lf.component_count == ff_count
            assert np.array_equal(lf.to_dense().reshape(-1, order="F"), ff_labels)
            joined += ff_count < segment(bitmap_from(dense), conn).component_count
        assert joined >= 20


def random_lines(seed, count):
    """``count`` one-axis bitmaps of 2-64 cells, wrapped or not, with a
    random share of free cells."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 65))
        wrap = (bool(rng.integers(0, 2)),)
        yield bitmap_from(rng.random(n) < rng.uniform(0.0, 1.0), wrap=wrap)


class TestOneAxis:
    """A grid of one axis is labeled in numpy, without scipy."""

    def test_matches_flood_fill(self):
        for bm in random_lines(20, 500):
            for connectivity in CONNECTIVITIES:
                lf = segment(bm, connectivity)
                ff_labels, ff_count = flood_fill_labels(bm, connectivity)
                assert lf.component_count == ff_count
                assert np.array_equal(lf.to_dense(), ff_labels)

    def test_matches_scipy_labels_joined_at_the_seam(self):
        # The raw labels, table and count that scipy's labeler gives on a
        # line, with the last run joined to the first across a wrap seam.
        from scipy import ndimage

        for bm in random_lines(21, 500):
            dense = bm.to_dense()
            raw, count = ndimage.label(dense)
            table = np.arange(count + 1, dtype=raw.dtype)
            if bm.spec.wrap[0] and dense[0] and dense[-1] and count > 1:
                table[count] = 1
                count -= 1
            for connectivity in CONNECTIVITIES:
                lf = segment(bm, connectivity)
                assert lf.raw.dtype == raw.dtype and np.array_equal(lf.raw, raw)
                assert lf.table.dtype == table.dtype and np.array_equal(lf.table, table)
                assert lf.component_count == count

    def test_rejects_unknown_connectivity(self):
        with pytest.raises(ValidationError):
            segment(bitmap_from(np.ones(3)), connectivity="knight")


def _segment_peak(bm, connectivity):
    tracemalloc.start()
    try:
        lf = segment(bm, connectivity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return lf, peak / bm.spec.size


def test_seam_merge_holds_one_label_array():
    # A proof's per-cell budget (engine.BITS_PER_CELL) counts the dense
    # grid and one int32 label per cell. Renumbering across the 2-D grid's
    # seams, which join labels, must not add a second; nor may the label
    # pairs of the 5-D grid's seams, 81 offsets per seam under moore.
    rng = np.random.default_rng(4)
    dense = (rng.random((2048, 1250)) > 0.5).astype(np.uint8)
    bm = bitmap_from(dense, wrap=(True, True))
    del dense
    lf, per_cell = _segment_peak(bm, "faces")
    assert lf.component_count < segment(bitmap_from(bm.to_dense())).component_count
    assert per_cell < 8.0
    bm = bitmap_from(rng.random((10,) * 5) < 0.85, wrap=(True,) * 5)
    for connectivity in CONNECTIVITIES:
        assert _segment_peak(bm, connectivity)[1] < 8.0, connectivity


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_batched_joins_match_union_find(data):
    # segment joins each seam offset's pairs before cutting the next
    # offset; any split of the pairs into batches must give the partition
    # of one union-find over all of them, each label at its group's least.
    count = data.draw(st.integers(1, 30))
    label = st.integers(0, count)
    pairs = data.draw(st.lists(st.tuples(label, label), max_size=60))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)), max_size=6)))
    root = np.arange(count + 1, dtype=np.int32)
    for lo, hi in zip([0] + cuts, cuts + [len(pairs)]):
        batch = np.array(pairs[lo:hi], dtype=np.int32).reshape(-1, 2)
        root = segmentation._join(root, batch[:, 0], batch[:, 1])

    parent = list(range(count + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    assert root.tolist() == [find(x) for x in range(count + 1)]


@st.composite
def random_bitmap(draw):
    """A bitmap of 1-5 axes with 2-6 cells each, random wrap flags and a
    random share of free cells."""
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=5)))
    wrap = tuple(draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return bitmap_from(rng.random(dims) < draw(st.floats(0.05, 1.0)), wrap=wrap)


@settings(max_examples=300, deadline=None)
@given(random_bitmap(), st.sampled_from(CONNECTIVITIES))
def test_projection_separates_only_what_the_grid_separates(bm, connectivity):
    # Each free cell's prefix is free in every projection, and all cells of
    # one full-grid component share one projection label, read through
    # label_of at the cells' full linear indices.
    spec = bm.spec
    dense = bm.to_dense()
    full = segment(bm, connectivity).to_dense().reshape(-1, order="F")
    free = np.flatnonzero(full)
    for k in range(1, spec.ndim + 1):
        proj = project(bm, k)
        assert proj.spec.dims == spec.dims[:k] and proj.spec.wrap == spec.wrap[:k]
        assert proj.spec.lo == spec.lo[:k] and proj.spec.hi == spec.hi[:k]
        want = dense.reshape(*spec.dims[:k], -1, order="F").any(axis=-1)
        assert np.array_equal(proj.to_dense(), want)
        labels = segment(proj, connectivity)
        prefix = np.array([labels.label_of(int(lin)) for lin in free], dtype=np.int64)
        assert prefix.all()
        pairs = np.unique(np.stack([full[free], prefix]), axis=1)
        assert pairs.shape[1] == np.unique(full[free]).size


class TestSegmentCheck:
    def split_field(self):
        dense = np.ones((9, 7))
        dense[4, :] = 0
        return segment(bitmap_from(dense))

    def test_same_component_is_not_disconnection(self):
        lf = self.split_field()
        a = multi_to_lin(lf.spec, (0, 0))
        b = multi_to_lin(lf.spec, (3, 6))
        assert not segment_check(lf, a, b)

    def test_different_components_prove_disconnection(self):
        lf = self.split_field()
        a = multi_to_lin(lf.spec, (0, 0))
        b = multi_to_lin(lf.spec, (8, 6))
        assert segment_check(lf, a, b)

    def test_endpoint_in_obstacle_rejected(self):
        lf = self.split_field()
        blocked = multi_to_lin(lf.spec, (4, 3))
        free = multi_to_lin(lf.spec, (0, 0))
        with pytest.raises(StartOrGoalInObstacle):
            segment_check(lf, blocked, free)
        with pytest.raises(StartOrGoalInObstacle):
            segment_check(lf, free, blocked)


def _scipy_loaded_after(code):
    """Run ``code`` in a fresh interpreter; return the lines it printed
    and the names of the scipy modules it left loaded."""
    listing = "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{listing}"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    *printed, loaded = proc.stdout.splitlines()
    return printed, ast.literal_eval(loaded)


def _prove_in_subprocess(scenario):
    path = str(SCENARIO_DIR / scenario)
    printed, loaded = _scipy_loaded_after(
        f"from noplan.cli import main\nmain(['prove', {path!r}, '--seed', '0'])"
    )
    return json.loads("\n".join(printed)), loaded


def test_import_leaves_scipy_unloaded():
    # Importing scipy.ndimage takes longer than most proofs, and
    # scipy.sparse adds about 11 MB of peak RSS.
    assert _scipy_loaded_after("import noplan, noplan.cli")[1] == []


def test_proof_on_one_axis_leaves_scipy_unloaded():
    verdict, loaded = _prove_in_subprocess("four_link_bands.yaml")
    assert verdict["kind"] == "Infeasible" and verdict["separating_axes"] == 1
    assert loaded == []


def test_proof_on_two_axes_loads_scipy_ndimage():
    verdict, loaded = _prove_in_subprocess("rigid_body_wall.yaml")
    assert verdict["kind"] == "Infeasible" and verdict["separating_axes"] == 2
    assert "scipy.ndimage" in loaded
