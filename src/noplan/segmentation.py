"""Connected-component labeling of the free cells, wrap-aware.

A grid of one axis is labeled in numpy: its free runs, numbered 1..k along
the line. ``scipy.ndimage`` labels every grid of two or more axes, and is
imported only then, since its import takes longer than most proofs that a
projection onto one axis settles. scipy labels the grid in its
reversed-axis view: that view of the first-axis-fastest dense array is
C-contiguous, so the raster scipy's labeler walks is the linear order, and
scipy numbers components by first appearance along it. Either way the raw
labels are already canonical (1..k in order of first appearance), so
identical bitmaps give identical label fields. Criterion 5 and
``TestAgainstFloodFill`` compare labels exactly and so guard this reliance
on scipy's numbering.

Wrapping axes join the labels that touch across their seam, one seam offset
(3^(n-1) per seam under ``moore``) at a time, so that no offset's label
pairs outlive it. Each joined group keeps its least raw label. The cells
keep their raw labels and are read through a table from raw label to
component id, so no second scan rewrites them as in two-scan labelling
(He, Chao & Suzuki, IEEE TIP 17(5), 2008). The join is not
``scipy.sparse.csgraph``'s: importing it adds about 11 MB of peak RSS and
0.08 s of setup to every run.

``project`` keeps the prefixes on the first k axes that some free cell
has. A face or Moore step projects to a step of the same kind or to none,
so start and goal apart in a projection are apart in the whole grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bitmap import CSpaceBitmap, GridSpec
from .errors import StartOrGoalInObstacle, ValidationError

CONNECTIVITIES = ("faces", "moore")


@dataclass
class LabelField:
    """Per-cell component ids, 0 marking obstacle cells: ``raw`` holds the
    raw label of each cell, linear-indexed, and ``table`` maps a raw label
    to its component id (``table[0] == 0``). As linear indices run
    first-axis-fastest, ``label_of`` reads a cell of a grid ``project``ed
    onto this field's axes at its prefix, the index modulo the cell count."""

    spec: GridSpec
    raw: np.ndarray
    table: np.ndarray
    component_count: int

    def label_of(self, linear: int) -> int:
        return int(self.table[self.raw[linear % self.raw.size]])

    def to_dense(self) -> np.ndarray:
        return self.table[self.raw].reshape(self.spec.dims, order="F")


def _cut(arr: np.ndarray, axis: int, sl: slice) -> np.ndarray:
    return arr[(slice(None),) * axis + (sl,)]


def _seam_pairs(raw: np.ndarray, spec: GridSpec, axis: int, connectivity: str):
    """Label pairs adjacent across the wrap seam of one axis.

    Pairs the last slice against the first slice under every transverse
    offset the connectivity allows; transverse offsets respect the other
    axes' own wrap flags. Pairs may repeat and may join a label to itself.
    """
    others = [a for a in range(spec.ndim) if a != axis]
    deltas = (0,) if connectivity == "faces" else (-1, 0, 1)
    for offset in itertools.product(deltas, repeat=len(others)):
        last = _cut(raw, axis, slice(-1, None))
        first = _cut(raw, axis, slice(0, 1))
        for other, delta in zip(others, offset):
            if delta and spec.wrap[other]:
                first = np.roll(first, delta, axis=other)
            elif delta:
                ahead, behind = slice(1, None), slice(None, -1)
                last = _cut(last, other, ahead if delta == 1 else behind)
                first = _cut(first, other, behind if delta == 1 else ahead)
        both = (last > 0) & (first > 0)
        yield last[both], first[both]


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the groups of labels ``a[i]`` and ``b[i]``; ``root`` maps every
    label straight to its group's least label, before and after. The fixed
    point of min-label propagation with pointer jumping leaves every label
    at its root, so a later join re-points only roots, never older links.
    """
    while True:
        ra, rb = root[a], root[b]
        new = root.copy()
        np.minimum.at(new, ra, rb)
        np.minimum.at(new, rb, ra)
        new = new[new]
        if np.array_equal(new, root):
            return root
        root = new


def project(bm: CSpaceBitmap, k: int) -> CSpaceBitmap:
    """The free prefixes of ``bm`` on its first ``k`` axes: an OR over
    rows of packed bits, whole bytes holding whole prefixes, so only one
    row is unpacked. Rows of 4096 bits or more keep numpy's loop long. Like
    the tail bits past the grid, the zero bytes padding the last row mark
    no prefix free."""
    sub = bm.spec.prefix(k)
    row = math.lcm(sub.size, 8)
    row *= max(1, 4096 // row)
    rows = -(-bm.bits.size * 8 // row)
    bits = np.pad(bm.bits, (0, rows * row // 8 - bm.bits.size))
    folded = np.bitwise_or.reduce(bits.reshape(rows, -1), axis=0)
    free = np.unpackbits(folded, bitorder="little").reshape(-1, sub.size).any(axis=0)
    return CSpaceBitmap(sub, np.packbits(free, bitorder="little"))


def segment(bm: CSpaceBitmap, connectivity: str = "faces") -> LabelField:
    """Label the free components of a bitmap.

    Connectivity is face adjacency (2n neighbors) by default, or the full
    Moore neighborhood; wrapping axes join their two boundary slices.
    """
    if connectivity not in CONNECTIVITIES:
        raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}")
    spec = bm.spec
    free = bm.to_dense()
    if spec.ndim == 1:
        # A run starts at a free cell after an obstacle or at the line's
        # start. The label width is scipy's: 64 bits from 2**31 - 2 cells.
        starts = free.astype(bool)
        starts[1:] &= free[:-1] == 0
        raw = np.cumsum(starts, dtype=np.int32 if spec.size < 2**31 - 2 else np.int64)
        raw_count = int(raw[-1])
        raw *= free
    else:
        from scipy import ndimage

        rank = 1 if connectivity == "faces" else spec.ndim
        structure = ndimage.generate_binary_structure(spec.ndim, rank)
        raw, raw_count = ndimage.label(free.T, structure=structure)
    root = ids = np.arange(raw_count + 1, dtype=raw.dtype)
    for axis in itertools.compress(range(spec.ndim), spec.wrap):
        for a, b in _seam_pairs(raw.T, spec, axis, connectivity):
            root = _join(root, a, b)
    is_root = root == ids
    table = (np.cumsum(is_root, dtype=raw.dtype) - 1)[root]
    return LabelField(spec, raw.reshape(-1), table, int(is_root.sum()) - 1)


def segment_check(labels: LabelField, start_linear: int, goal_linear: int) -> bool:
    """True when start and goal lie in different free components."""
    ls = labels.label_of(start_linear)
    lg = labels.label_of(goal_linear)
    if ls == 0 or lg == 0:
        raise StartOrGoalInObstacle(
            "start cell is marked obstacle" if ls == 0 else "goal cell is marked obstacle"
        )
    return ls != lg
