"""Dense n-dimensional configuration-space bitmap with packed bit storage.

Cells hold 1 for free and 0 for obstacle; grids start all-free and bits are
only ever cleared. Linear indices run first-axis-fastest:

    linear = m1 + N1*(m2 + N2*(m3 + ...))

which is Fortran order for shape (N1, ..., Nn). The same convention governs
the binary dump format, so independently written readers agree bit-exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompatibleGrids, OutOfBounds, OutOfRange, ValidationError

TWO_PI = 2.0 * math.pi


def integer(name: str, value) -> int:
    """``value`` as an int; anything else, a float included, is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Shape, bounds and wrap metadata of a discretized configuration space.

    ``strides`` holds the linear-index stride of each axis, the first axis's
    1, followed by the cell count.
    """

    dims: tuple
    wrap: tuple
    lo: tuple
    hi: tuple
    strides: tuple = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(integer(f"axis {i} size", d) for i, d in enumerate(self.dims))
        wrap = tuple(bool(w) for w in self.wrap)
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if not (len(dims) == len(wrap) == len(lo) == len(hi)):
            raise ValidationError("grid spec fields must have equal length")
        if len(dims) == 0:
            raise ValidationError("grid spec needs at least one axis")
        for i, d in enumerate(dims):
            if d < 2:
                raise ValidationError(f"axis {i}: need at least 2 cells, got {d}")
            if not (math.isfinite(lo[i]) and math.isfinite(hi[i])):
                raise ValidationError(f"axis {i}: bounds must be finite, got [{lo[i]}, {hi[i]}]")
            if not lo[i] < hi[i]:
                raise ValidationError(f"axis {i}: lo must be < hi")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "wrap", wrap)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        strides = tuple(itertools.accumulate(dims, operator.mul, initial=1))
        object.__setattr__(self, "strides", strides)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.strides[-1]

    def step(self, axis: int) -> float:
        return (self.hi[axis] - self.lo[axis]) / self.dims[axis]

    def centre(self, axis: int, m: int) -> float:
        """Coordinate of the centre of cell ``m`` on one axis."""
        return self.lo[axis] + (m + 0.5) * self.step(axis)

    def prefix(self, k: int) -> "GridSpec":
        """The grid on the first ``k`` axes."""
        return GridSpec(self.dims[:k], self.wrap[:k], self.lo[:k], self.hi[:k])


def multi_to_lin(spec: GridSpec, multi) -> int:
    lin = 0
    for axis in reversed(range(spec.ndim)):
        m = multi[axis]
        if not 0 <= m < spec.dims[axis]:
            raise OutOfRange(f"axis {axis}: index {m} outside [0, {spec.dims[axis]})")
        lin = lin * spec.dims[axis] + m
    return lin


def lin_to_multi(spec: GridSpec, linear: int) -> tuple:
    if not 0 <= linear < spec.size:
        raise OutOfRange(f"linear index {linear} outside [0, {spec.size})")
    out = []
    for d in spec.dims:
        out.append(linear % d)
        linear //= d
    return tuple(out)


def cell_to_config(spec: GridSpec, multi) -> tuple:
    """Configuration at the center of a cell."""
    q = []
    for axis in range(spec.ndim):
        m = multi[axis]
        if not 0 <= m < spec.dims[axis]:
            raise OutOfRange(f"axis {axis}: index {m} outside [0, {spec.dims[axis]})")
        q.append(spec.centre(axis, m))
    return tuple(q)


def config_to_cell(spec: GridSpec, q) -> tuple:
    """Cell containing a configuration; wrapping axes reduce mod their period."""
    if len(q) != spec.ndim:
        raise OutOfBounds(f"configuration has {len(q)} coordinates, grid has {spec.ndim}")
    multi = []
    for axis in range(spec.ndim):
        v = float(q[axis])
        lo, hi = spec.lo[axis], spec.hi[axis]
        if not math.isfinite(v):
            raise OutOfBounds(f"axis {axis}: coordinate {v} is not finite")
        if spec.wrap[axis]:
            period = hi - lo
            v = lo + (v - lo) % period
        elif not lo <= v <= hi:
            raise OutOfBounds(f"axis {axis}: coordinate {v} outside [{lo}, {hi}]")
        m = int(math.floor((v - lo) / spec.step(axis)))
        m = min(max(m, 0), spec.dims[axis] - 1)
        multi.append(m)
    return tuple(multi)


def neighbors(spec: GridSpec, linear: int) -> list:
    """Moore neighborhood of a cell, as linear indices.

    All offsets in {-1,0,+1}^n except all-zero, listed in lexicographic
    order of the offsets; wrapping axes apply modular arithmetic, offsets
    leaving a non-wrapping axis are dropped. On a wrapping axis of 2 cells
    the offsets -1 and +1 reach one cell, listed once, at -1.
    """
    multi = lin_to_multi(spec, linear)
    offsets = [0]
    for m, d, wrap, stride in zip(multi, spec.dims, spec.wrap, spec.strides):
        if wrap:
            coords = ((m - 1) % d, m) if d == 2 else ((m - 1) % d, m, (m + 1) % d)
        else:
            coords = [v for v in (m - 1, m, m + 1) if 0 <= v < d]
        offsets = [o + (v - m) * stride for o in offsets for v in coords]
    # Only the all-zero offset lands on the cell itself, as every axis has
    # at least two cells, and no other cell shares its index.
    return [linear + o for o in offsets if o]


@dataclass
class CSpaceBitmap:
    """Packed free/obstacle bitmap over a grid (bit 1 = free)."""

    spec: GridSpec
    bits: np.ndarray = field(default=None)

    def __post_init__(self):
        nbytes = (self.spec.size + 7) // 8
        if self.bits is None:
            self.bits = np.full(nbytes, 0xFF, dtype=np.uint8)
            self._mask_tail()
        else:
            self.bits = np.asarray(self.bits, dtype=np.uint8)
            if self.bits.size != nbytes:
                raise IncompatibleGrids(
                    f"bit buffer has {self.bits.size} bytes, grid needs {nbytes}"
                )

    def _mask_tail(self):
        rem = self.spec.size % 8
        if rem:
            self.bits[-1] &= np.uint8((1 << rem) - 1)

    def is_free(self, linear: int) -> bool:
        if not 0 <= linear < self.spec.size:
            raise OutOfRange(f"linear index {linear} outside [0, {self.spec.size})")
        return bool((self.bits[linear >> 3] >> (linear & 7)) & 1)

    def set_obstacle(self, linear: int):
        if not 0 <= linear < self.spec.size:
            raise OutOfRange(f"linear index {linear} outside [0, {self.spec.size})")
        self.bits[linear >> 3] &= np.uint8(~(1 << (linear & 7)) & 0xFF)

    def set_obstacle_bulk(self, linear: np.ndarray):
        """Clear many bits at once; duplicate indices are harmless."""
        idx = np.asarray(linear, dtype=np.int64)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.spec.size:
            raise OutOfRange("bulk obstacle indices outside grid")
        masks = np.uint8(0xFF) ^ (np.uint8(1) << (idx & 7).astype(np.uint8))
        np.bitwise_and.at(self.bits, idx >> 3, masks)

    def free_count(self) -> int:
        return int(np.bitwise_count(self.bits).sum())

    def to_dense(self) -> np.ndarray:
        flat = np.unpackbits(self.bits, count=self.spec.size, bitorder="little")
        return flat.reshape(self.spec.dims, order="F")

    @classmethod
    def from_dense(cls, spec: GridSpec, dense: np.ndarray) -> "CSpaceBitmap":
        dense = np.asarray(dense)
        if dense.shape != tuple(spec.dims):
            raise IncompatibleGrids(f"dense shape {dense.shape} != grid {spec.dims}")
        flat = (dense != 0).reshape(-1, order="F").astype(np.uint8)
        return cls(spec, np.packbits(flat, bitorder="little"))

    def digest(self) -> str:
        """SHA-256 over the packed bit buffer."""
        return hashlib.sha256(self.bits.tobytes()).hexdigest()

    def dump(self, path):
        """Binary dump: u64 header (ndim, dims, wrap flags), f64 bounds, bits.

        All header words are little-endian 64-bit; the payload is the packed
        bit array, axis 0 fastest.
        """
        with open(path, "wb") as f:
            head = [self.spec.ndim, *self.spec.dims, *(int(w) for w in self.spec.wrap)]
            f.write(np.asarray(head, dtype="<u8").tobytes())
            f.write(np.asarray(self.spec.lo, dtype="<f8").tobytes())
            f.write(np.asarray(self.spec.hi, dtype="<f8").tobytes())
            f.write(self.bits.tobytes())

    @classmethod
    def load(cls, path) -> "CSpaceBitmap":
        """Read a dump; a truncated or forged file raises before allocating."""
        with open(path, "rb") as f:
            raw = f.read()
        n = int.from_bytes(raw[:8], "little")
        head = 8 + 32 * n
        if len(raw) < 8 or n < 1 or head > len(raw):
            raise IncompatibleGrids(
                f"bitmap dump of {len(raw)} bytes cannot hold a header for {n} axes"
            )
        words = np.frombuffer(raw, dtype="<u8", count=2 * n, offset=8)
        bounds = np.frombuffer(raw, dtype="<f8", count=2 * n, offset=8 + 16 * n)
        spec = GridSpec(
            tuple(int(d) for d in words[:n]), tuple(words[n:] != 0),
            tuple(bounds[:n]), tuple(bounds[n:]),
        )
        nbytes = (spec.size + 7) // 8
        if len(raw) - head != nbytes:
            raise IncompatibleGrids(
                f"bitmap dump payload has {len(raw) - head} bytes, grid {spec.dims} needs {nbytes}"
            )
        return cls(spec, np.frombuffer(raw, dtype=np.uint8, offset=head).copy())

    def to_pgm(self, path):
        """Export a 2D bitmap as a binary PGM image (free=white)."""
        write_pgm(path, self.to_dense() * np.uint8(255))


def write_pgm(path, image: np.ndarray):
    """Write a 2D uint8 image indexed [axis 0, axis 1] as a binary PGM, with
    axis 0 rightward and axis 1 upward."""
    if image.ndim != 2:
        raise IncompatibleGrids("PGM export needs a 2D grid")
    w, h = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(image.T[::-1].tobytes())
