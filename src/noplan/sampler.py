"""Without-replacement sampling of obstacle cells with hit amplification.

An iteration is one loop around one check step. The loop draws
not-yet-visited cells until a quota of collision hits is reached; the step
checks a batch of cells and applies its hits. The visited set is one bit per
cell, and draws follow a seeded pseudorandom permutation of the grid that
skips visited cells. Every hit is amplified two ways: the collision cause
lets whole axis-aligned slices of the grid be marked without further checks,
and a few random grid neighbors of the hit are checked directly, since
obstacle cells cluster. A slice is marked in place in the packed visited
bits and the packed bitmap, without listing its cells. A slice of at most
``PLAN_CELLS`` cells takes one gather and one scatter of the bytes it
touches, through a cached plan of them; a larger one takes one strided byte
view per bit phase, which beats the plan only from about 1,500 cells on.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .bitmap import CSpaceBitmap, GridSpec, integer, neighbors
from .errors import Exhausted, OutOfRange, ValidationError
from .kinematics import BaseInObstacle, ObstacleHit, SelfHit


# Rounds of the Feistel network behind the draw order; four rounds with
# independent keys make a pseudorandom permutation (Luby-Rackoff).
FEISTEL_ROUNDS = 4
# Walk positions enciphered at once. Each draw only pops a Python int and
# re-tests its visited bit; a chunk costs a few dozen numpy calls.
WALK_CHUNK = 512

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a bijective 64-bit mixing of each element."""
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


class SampleSet:
    """Draws without replacement over linear cell indices ``[0, size)``.

    The set is one visited bit per cell; ``size`` counts the cells not yet
    visited. Draws walk a seeded pseudorandom permutation of the cells and
    skip those visited, so a cell removed before the walk reaches it is
    never drawn. The permutation is a balanced Feistel network over
    ``Z_m x Z_m``, ``m = ceil(sqrt(size))``, with modular addition and
    cycle walking into ``[0, size)`` (Black & Rogaway, "Ciphers with
    Arbitrary Finite Domains", CT-RSA 2002). Its round keys and the walk's
    starting offset come from the generator of the first draw, so equal
    seeds give equal orders and the first draw from a full set is exactly
    uniform.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValidationError("sample set needs a positive size")
        self._cells = size
        self._visited = np.zeros((size + 7) // 8, dtype=np.uint8)
        self._flags = memoryview(self._visited)  # fast scalar access
        self._m = math.isqrt(size - 1) + 1
        self._keys = None
        self._offset = 0
        self._walked = 0  # walk positions enciphered so far
        self._queue = []  # their unvisited cells, next one last
        self.size = size

    def __len__(self) -> int:
        return self.size

    def _check(self, linear: int):
        if not 0 <= linear < self._cells:
            raise OutOfRange(f"linear index {linear} outside [0, {self._cells})")

    def __contains__(self, linear: int) -> bool:
        self._check(linear)
        return not self._flags[linear >> 3] >> (linear & 7) & 1

    def _encipher(self, x: np.ndarray) -> np.ndarray:
        m = np.uint64(self._m)
        left, right = np.divmod(x, m)
        for key in self._keys:
            left, right = right, (left + _mix(right + key) % m) % m
        return left * m + right

    def _refill(self):
        """Encipher the next chunk of walk positions and queue the cells of
        it not yet visited."""
        n = np.uint64(self._cells)
        start = self._walked
        self._walked = min(start + WALK_CHUNK, self._cells)
        pos = np.arange(start, self._walked, dtype=np.uint64) + np.uint64(self._offset)
        cells = self._encipher(pos % n)
        # Cycle walking: the cycle of a position in [0, size) returns there.
        out = np.flatnonzero(cells >= n)
        while out.size:
            cells[out] = self._encipher(cells[out])
            out = out[cells[out] >= n]
        cells = cells.astype(np.int64)
        fresh = (self._visited[cells >> 3] >> (cells & 7).astype(np.uint8)) & 1 == 0
        self._queue = cells[fresh][::-1].tolist()

    def draw(self, rng: np.random.Generator) -> int:
        """Remove and return the next unvisited cell of the walk."""
        if self.size == 0:
            raise Exhausted("every cell has been visited")
        if self._keys is None:
            self._offset = int(rng.integers(self._cells))
            self._keys = rng.integers(2**64, size=FEISTEL_ROUNDS, dtype=np.uint64)
        while True:
            # Some unvisited cell lies in the queue or ahead of the walk:
            # every cell behind it was drawn, removed, or queued.
            while self._queue:
                cell = self._queue.pop()
                if self._take(cell):
                    return cell
            self._refill()

    def _take(self, linear: int) -> bool:
        """Mark one in-range cell visited; True when it was not before."""
        bit = 1 << (linear & 7)
        if self._flags[linear >> 3] & bit:
            return False
        self._flags[linear >> 3] |= bit
        self.size -= 1
        return True

    def remove(self, linear: int) -> bool:
        """Remove one index if present; True when it was removed."""
        self._check(linear)
        return self._take(linear)

    def remove_bulk(self, linear) -> np.ndarray:
        """Remove many indices at once; returns the ones actually removed,
        ascending."""
        idx = np.unique(np.asarray(linear, dtype=np.int64))
        if idx.size == 0:
            return idx
        self._check(int(idx[0]))
        self._check(int(idx[-1]))
        byte = idx >> 3
        bit = np.uint8(1) << (idx & 7).astype(np.uint8)
        fresh = self._visited[byte] & bit == 0
        np.bitwise_or.at(self._visited, byte[fresh], bit[fresh])
        idx = idx[fresh]
        self.size -= int(idx.size)
        return idx


@dataclass(frozen=True)
class SamplerParams:
    """Quota of direct hits per iteration and neighbors explored per hit."""

    min_hits: int = 100
    neighbor_checks: int = 5

    def __post_init__(self):
        if integer("min_hits", self.min_hits) < 1:
            raise ValidationError("min_hits must be at least 1")
        if integer("neighbor_checks", self.neighbor_checks) < 0:
            raise ValidationError("neighbor_checks must be non-negative")


@dataclass
class IterationStats:
    iteration: int = 0
    hits: int = 0
    checks: int = 0
    propagated: int = 0
    elapsed: float = 0.0
    labelled_axes: int = 0  # the most leading axes labelled; ndim for the whole grid


def _slice(spec: GridSpec, linear: int, fix_lo: int, fix_hi: int) -> tuple:
    """The cells agreeing with cell ``linear`` on axes fix_lo..fix_hi
    (0-based, inclusive), as (inner, outer, fixed).

    First-axis-fastest linearization makes the free prefix axes one
    contiguous range of ``inner`` cells and the free suffix axes one
    arithmetic progression of step ``outer``, so the cells are
    ``fixed + k * outer + j`` for ``j < inner``.
    """
    s = spec.strides
    return s[fix_lo], s[fix_hi + 1], linear % s[fix_hi + 1] - linear % s[fix_lo]


def _slice_indices(inner: int, outer: int, fixed: int, rows: int) -> np.ndarray:
    """Linear indices of the ``rows`` runs of ``inner`` cells at ``fixed +
    k * outer``, as ``_slice`` gives them, strictly increasing: the
    progression is the outer loop."""
    out = np.arange(fixed, fixed + rows * outer, outer, dtype=np.int64)
    if inner > 1:
        out = (out[:, None] + np.arange(inner, dtype=np.int64)[None, :]).ravel()
    return out


def _fixed_axes(robot, cause) -> tuple:
    """First and last axis (0-based, inclusive) on which every cell a
    collision cause implies agrees with the sampled cell.

    A plain body/obstacle contact of a rigid body pins all three
    coordinates, so it implies nothing beyond the sampled cell.
    """
    if isinstance(cause, ObstacleHit):
        return (0, 2) if robot.kind == "rigid_se2" else (0, cause.link - 1)
    if isinstance(cause, SelfHit):
        return (cause.link_a - 1, cause.link_b - 1)
    if isinstance(cause, BaseInObstacle):
        return (0, 1)
    raise ValidationError(f"unknown collision cause: {cause!r}")


def cells_implied_by(robot, spec: GridSpec, linear: int, cause) -> np.ndarray:
    """Linear indices of every cell the collision cause proves colliding.

    Always includes the sampled cell itself. ``propagate`` marks the same
    cells without listing them.
    """
    inner, outer, fixed = _slice(spec, linear, *_fixed_axes(robot, cause))
    return _slice_indices(inner, outer, fixed, spec.size // outer)


# Slices of at most this many cells are marked through a cached byte plan,
# one gather and one scatter of the bytes they touch; larger ones take one
# strided byte view per bit phase. On a 2-core host a plan costs about 6 us
# plus 8 ns per byte touched and a view about 10 us plus 4 ns per byte, so
# the plan is faster up to about 1,500 cells in one bit phase, 4,000 in two
# and 10,000 in eight.
PLAN_CELLS = 1024
# Plans cached. A plan holds an 8-byte offset and two mask bytes per byte
# touched, at most one byte per cell, so the cache holds at most
# PLAN_CACHE * 10 * PLAN_CELLS bytes of arrays, 1.3 MB.
PLAN_CACHE = 128


def _slice_rows(inner: int, outer: int, fixed: int, rows: int):
    """Strided byte rows of a packed bit array that hold a slice.

    The slice is ``rows`` runs of ``inner`` bits at ``fixed + k * outer``,
    as ``_slice`` gives it. The bit offset of run k within its byte repeats
    with period ``P = 8 / gcd(outer, 8)`` in k, and the runs of one phase
    lie ``P * outer = lcm(outer, 8)`` bits apart, a whole number of bytes.
    Yields per phase (first byte, run count, byte stride, mask): run j of
    the phase lies in the bytes from ``first + j * stride`` on, at the bits
    the mask row sets. Rows of one phase never share a byte. Where
    ``outer`` divides 8, each run lies inside one byte. Otherwise a stride
    holds ``lcm(outer, 8) >= 16`` bits, and a mask row at most
    ``7 + inner <= 7 + outer / 2`` of them, as a slice fixes an axis.
    """
    period = 8 // math.gcd(outer, 8)
    stride = period * outer // 8
    for p in range(min(period, rows)):
        start = fixed + p * outer
        off = start & 7
        width = (off + inner + 7) >> 3
        mask = (((1 << inner) - 1) << off).to_bytes(width, "little")
        yield start >> 3, len(range(p, rows, period)), stride, np.frombuffer(mask, np.uint8)


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(inner: int, outer: int, rows: int, off: int) -> tuple:
    """The bytes a slice touches, for a slice whose first cell is bit ``off``
    of byte 0: their offsets, ascending, the bits of the slice each holds,
    and the complement of those bits. Shifted by ``fixed >> 3`` bytes, it
    is the plan of every slice of that shape with ``fixed & 7 == off``.
    """
    cells = _slice_indices(inner, outer, off, rows)
    at = cells >> 3
    first = np.flatnonzero(np.diff(at, prepend=-1))
    mask = np.bitwise_or.reduceat(np.uint8(1) << (cells & 7).astype(np.uint8), first)
    plan = at[first].astype(np.intp), mask, ~mask
    for a in plan:  # every caller shares them
        a.flags.writeable = False
    return plan


def propagate(bm: CSpaceBitmap, ss: SampleSet, robot, linear: int, cause) -> int:
    """Mark every cell implied by a collision cause and not visited before
    as visited and obstacle; returns how many were.

    The slice is marked in place in the visited bits and the bitmap,
    without an array of one entry per implied cell. A slice of at most
    ``PLAN_CELLS`` cells takes one gather and one scatter of the bytes it
    touches, through its cached ``_plan``; a larger one takes one strided
    byte view per bit phase (``_slice_rows``). The plan is faster below the
    crossover, about 1,500 cells in one bit phase and more in several.
    """
    spec = bm.spec
    inner, outer, fixed = _slice(spec, linear, *_fixed_axes(robot, cause))
    rows = spec.size // outer
    if inner * rows == 1:  # one cell costs no vectorised pass
        if not ss._take(fixed):
            return 0
        bm.set_obstacle(fixed)
        return 1
    if inner * rows <= PLAN_CELLS:
        at, mask, outside = _plan(inner, outer, rows, fixed & 7)
        visited, free = ss._visited[fixed >> 3:], bm.bits[fixed >> 3:]
        seen = visited[at]
        now = seen | mask
        visited[at] = now
        marked = int(np.bitwise_count(now ^ seen).sum())
        free[at] &= outside | seen  # clears the bits not seen before
    else:
        marked = 0
        for first, n, stride, mask in _slice_rows(inner, outer, fixed, rows):
            shape, strides = (n, mask.size), (stride, 1)
            seen = np.ndarray(shape, np.uint8, buffer=ss._visited, offset=first, strides=strides)
            free = np.ndarray(shape, np.uint8, buffer=bm.bits, offset=first, strides=strides)
            fresh = ~seen
            fresh &= mask
            marked += int(np.bitwise_count(fresh).sum())
            seen |= mask
            free &= np.invert(fresh, out=fresh)
    ss.size -= marked
    return marked


# Cells each worker checks per round trip. A round trip costs the master
# pickling and a wake-up of every worker; hundreds of cells per worker
# amortise that against a few milliseconds of collision checks.
CELLS_PER_WORKER = 256


def _serve(conn, robot, obstacles, spec: GridSpec):
    """A check worker: answer each list of linear indices with the list of
    their causes, or with the exception checking them raised."""
    kernel = robot.cell_kernel(spec, obstacles)
    while True:
        try:
            lins = conn.recv()
        except EOFError:  # the pool closed its end
            return
        try:
            conn.send([kernel(lin) for lin in lins])
        except Exception as exc:  # the pool re-raises it
            conn.send(exc)


class CheckPool:
    """Collision-checks cells for one proof, with one worker or many.

    One worker checks in this process, a cell at a time, through the
    proof's ``robot.cell_kernel``, and forks nothing. More workers are
    processes with a pipe each. They get the robot, obstacles and grid once,
    when they are forked, and then only lists of linear cell indices. The
    cells that agree on every axis but the last go to one worker, so the
    workers' kernel memos are disjoint. ``close`` drops the kernel, so its
    memo ends with the proof, and ends and reaps the workers.
    """

    def __init__(self, workers: int, robot, obstacles, spec: GridSpec):
        self.workers = workers
        self._kernel = None
        self._conns = []
        self._procs = []
        if workers == 1:
            self.batch_size = 1
            self._kernel = robot.cell_kernel(spec, obstacles)
            return
        self.batch_size = CELLS_PER_WORKER * workers
        # On one axis no memo is shared, so the cells themselves spread.
        self._prefix = spec.strides[-2] if spec.ndim > 1 else spec.size
        # Fork: the workers start without re-importing numpy or pickling
        # the robot, and the prover starts no thread a fork could copy.
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(workers):
                here, there = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(there, robot, obstacles, spec), daemon=True)
                proc.start()
                there.close()
                self._conns.append(here)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def check(self, lins) -> list:
        """Collision cause of each cell, in the order given (None = free)."""
        if self._kernel is not None:
            return [self._kernel(lin) for lin in lins]
        lins = np.asarray(lins, dtype=np.int64)
        owner = lins % self._prefix % self.workers
        sent = []
        for w, conn in enumerate(self._conns):
            idx = np.flatnonzero(owner == w)
            if idx.size:
                conn.send(lins[idx].tolist())
                sent.append((conn, idx))
        causes = [None] * lins.size
        error = None
        for conn, idx in sent:  # every reply is read before any is raised
            reply = conn.recv()
            if isinstance(reply, Exception):
                error = error or reply
            else:
                for i, cause in zip(idx.tolist(), reply):
                    causes[i] = cause
        if error is not None:
            raise error
        return causes

    def close(self):
        self._kernel = None
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join()
        for conn in self._conns:
            conn.close()


def sample_obstacle_cells(
    bm: CSpaceBitmap,
    ss: SampleSet,
    robot,
    pool: CheckPool,
    params: SamplerParams,
    rng: np.random.Generator,
) -> IterationStats:
    """One sampling iteration: draw until ``min_hits`` collision hits.

    One loop around one step, ``check``, which checks a batch of cells and
    marks, propagates and counts each of its hits, in order. The loop
    checks a batch of draws and counts its hits toward the quota; then it
    checks, in batches too, up to ``neighbor_checks`` random Moore
    neighbors of each, drawn without replacement. Free cells stay marked
    free, never re-drawn; a neighbor visited by the time it is taken is
    skipped, not replaced, and neighbor hits do not count toward the quota.

    Batches hold ``pool.batch_size`` cells. With one worker that is one
    cell, so each cell taken sees the propagation of every hit before it.
    A pooled batch is checked whole, then applied hit by hit in the same
    way: a hit inside an earlier hit's slice propagates no new cell. So a
    pooled iteration may end past the quota. The iteration ends short of
    the quota when every cell has been visited.
    """
    spec = bm.spec
    stats = IterationStats()
    batch = pool.batch_size

    def check(lins) -> list:
        """Check a batch, then mark and propagate each hit; returns the hits."""
        stats.checks += len(lins)
        hits = []
        for lin, cause in zip(lins, pool.check(lins)):
            if cause is not None:
                bm.set_obstacle(lin)
                stats.propagated += propagate(bm, ss, robot, lin, cause)
                hits.append(lin)
        return hits

    while stats.hits < params.min_hits and ss.size:
        fresh = check([ss.draw(rng) for _ in range(min(batch, ss.size))])
        if not fresh:  # most one-cell batches miss: skip the probe set-up
            continue
        stats.hits += len(fresh)
        probes = []
        for lin in fresh:
            moore = neighbors(spec, lin)
            take = min(params.neighbor_checks, len(moore))
            if take:
                probes += (moore[int(p)] for p in rng.choice(len(moore), size=take, replace=False))
        probes = (lin for lin in probes if ss.remove(lin))
        while lins := list(itertools.islice(probes, batch)):
            check(lins)
    return stats


# A second name for the same function, so that a profile can tell the
# engine's pooled iterations from its in-process ones.
sample_obstacle_cells_parallel = sample_obstacle_cells
