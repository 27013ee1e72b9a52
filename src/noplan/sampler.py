"""Without-replacement sampling of obstacle cells with hit amplification.

An iteration is one loop around one check step. The loop draws
not-yet-visited cells until a quota of collision hits is reached; the step
checks a batch of cells and applies its hits. The visited set is one bit per
cell, and draws follow a seeded pseudorandom permutation of the grid that
skips visited cells. Every hit is amplified two ways: the collision cause
lets whole axis-aligned slices of the grid be marked without further checks,
and a few random grid neighbors of the hit are checked directly, since
obstacle cells cluster. A chain's kernel may also report a free row
(``FreeRow``): the cell and every cell of its row along the last axis are
free, so the row is marked visited, not obstacle, and none of it is drawn or
probed again. A slice is marked in place in the packed visited bits and the
packed bitmap, without listing its cells. A slice of at most ``PLAN_CELLS``
cells takes one gather and one scatter of the bytes it touches, through a
cached plan of them; a larger one takes one strided byte view per bit
phase, which beats the plan only from about 1,500 cells on.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .bitmap import CSpaceBitmap, GridSpec, integer, neighbors
from .errors import Exhausted, OutOfRange, ValidationError
from .kinematics import FreeRow


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

    def draw_many(self, rng: np.random.Generator, count: int) -> list:
        """Remove and return the next ``count`` unvisited cells of the walk,
        or all that are left: the cells that as many ``draw`` calls return.
        After the first, the queued cells are taken a slice at a time and
        tested and marked at once, as they are distinct."""
        cells = [self.draw(rng)]  # starts the walk, or raises Exhausted
        while len(cells) < count and self.size:
            if not self._queue:
                self._refill()
            take = self._queue[len(cells) - count:]
            del self._queue[len(cells) - count:]
            take = np.array(take[::-1], dtype=np.int64)
            byte, bit = take >> 3, np.uint8(1) << (take & 7).astype(np.uint8)
            fresh = self._visited[byte] & bit == 0
            np.bitwise_or.at(self._visited, byte[fresh], bit[fresh])
            take = take[fresh]
            self.size -= take.size
            cells += take.tolist()
        return cells

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
    freed: int = 0  # cells free rows marked visited
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


def cells_implied_by(robot, spec: GridSpec, linear: int, cause) -> np.ndarray:
    """Linear indices of every cell the collision cause proves colliding.

    Always includes the sampled cell itself. ``propagate`` marks the same
    cells without listing them.
    """
    inner, outer, fixed = _slice(spec, linear, *robot.fixed_axes(cause))
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


def _mark(ss: SampleSet, bm, spec: GridSpec, linear: int, fix_lo: int, fix_hi: int) -> int:
    """Mark the cells that agree with cell ``linear`` on axes
    fix_lo..fix_hi and were not visited before as visited, and as obstacle
    in the bitmap ``bm`` unless it is None; returns how many were.

    The slice is marked in place in the visited bits and the bitmap,
    without an array of one entry per cell. A slice of at most
    ``PLAN_CELLS`` cells takes one gather and one scatter of the bytes it
    touches, through its cached ``_plan``; a larger one takes one strided
    byte view per bit phase (``_slice_rows``). The plan is faster below the
    crossover, about 1,500 cells in one bit phase and more in several.
    """
    inner, outer, fixed = _slice(spec, linear, fix_lo, fix_hi)
    rows = spec.size // outer
    if inner * rows == 1:  # one cell costs no vectorised pass
        if not ss._take(fixed):
            return 0
        if bm is not None:
            bm.set_obstacle(fixed)
        return 1
    if inner * rows <= PLAN_CELLS:
        at, mask, outside = _plan(inner, outer, rows, fixed & 7)
        visited = ss._visited[fixed >> 3:]
        seen = visited[at]
        now = seen | mask
        visited[at] = now
        marked = int.from_bytes((now ^ seen).tobytes(), "little").bit_count()
        if bm is not None:
            bm.bits[fixed >> 3:][at] &= outside | seen  # clears the bits not seen before
    else:
        marked = 0
        for first, n, stride, mask in _slice_rows(inner, outer, fixed, rows):
            shape, strides = (n, mask.size), (stride, 1)
            seen = np.ndarray(shape, np.uint8, buffer=ss._visited, offset=first, strides=strides)
            fresh = ~seen
            fresh &= mask
            marked += int(np.bitwise_count(fresh).sum())
            seen |= mask
            if bm is not None:
                free = np.ndarray(shape, np.uint8, buffer=bm.bits, offset=first, strides=strides)
                free &= np.invert(fresh, out=fresh)
    ss.size -= marked
    return marked


def propagate(bm: CSpaceBitmap, ss: SampleSet, robot, linear: int, cause) -> int:
    """Mark every cell implied by a collision cause and not visited before
    as visited and obstacle; returns how many were (see ``_mark``)."""
    return _mark(ss, bm, bm.spec, linear, *robot.fixed_axes(cause))


def free_rows(ss: SampleSet, spec: GridSpec, lins: list) -> int:
    """Mark every cell of each ``FreeRow``'s row, the cells that agree with
    a cell of ``lins`` on every axis but the last, visited but not
    obstacle; returns how many were not visited before. A row reported
    more than once is marked once."""
    stride = spec.strides[-2]
    return sum(_mark(ss, None, spec, row, 0, spec.ndim - 2) for row in {lin % stride for lin in lins})


# Cells each worker checks per round trip. A round trip costs the master
# pickling and a wake-up of every worker; hundreds of cells per worker
# amortise that against a few milliseconds of collision checks.
CELLS_PER_WORKER = 256


def _serve(conn, kernel, row: int):
    """A check worker: answer each buffer of int64 linear indices with the
    (position, cause) pairs of the cells that are not free, or with the
    exception checking them raised. A row's ``FreeRow`` is sent once a
    buffer, for its first cell that reports it; the row's other cells, free
    too, send nothing. Two cells share a row when they agree modulo
    ``row``."""
    while True:
        try:
            lins = np.frombuffer(conn.recv_bytes(), dtype=np.int64).tolist()
        except EOFError:  # the pool closed its end
            return
        try:
            reply, rows = [], set()
            for i, lin in enumerate(lins):
                cause = kernel(lin)
                if type(cause) is FreeRow:
                    if lin % row in rows:  # reported already
                        continue
                    rows.add(lin % row)
                elif cause is None:
                    continue
                reply.append((i, cause))
            conn.send(reply)
        except Exception as exc:  # the pool re-raises it
            conn.send(exc)


def _lead(pipes, kernel, row: int):
    """The first check worker: fork the others, serve the first pipe, and
    reap them before it ends, so that their CPU time counts as its
    children's and so as the pool's. Each worker keeps only its own end of
    its own pipe, so that closing the pool's end ends it."""
    for here, _ in pipes:
        here.close()
    pids = []
    try:
        for _, there in pipes[1:]:
            pid = os.fork()
            if not pid:  # another worker, which ends here
                code = 1
                try:
                    for _, other in pipes:
                        if other is not there:
                            other.close()
                    _serve(there, kernel, row)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            there.close()
        _serve(pipes[0][1], kernel, row)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)


class CheckPool:
    """Collision-checks cells for one proof, with one worker or many.

    This process builds the proof's one kernel (``robot.cell_kernel``) at
    every worker count. One worker checks in this process, a cell at a
    time, and forks nothing. More workers are processes with a pipe each,
    which get the kernel when they are forked and then only buffers of
    linear cell indices, and answer with the causes of the cells that are
    not free. This process forks one, which forks the others (``_lead``):
    a fork of a large process costs its caller a millisecond or more a
    worker. The cells that agree on every axis but the last go to one
    worker, so the workers' kernel memos are disjoint. ``close`` drops the
    kernel, so its memo ends with the proof, and ends the workers by
    closing their pipes and reaps them.
    """

    def __init__(self, workers: int, robot, obstacles, spec: GridSpec):
        self._kernel = robot.cell_kernel(spec, obstacles)
        self._conns = []
        self._procs = []
        if workers == 1:
            self.batch_size = 1
            return
        self.batch_size = CELLS_PER_WORKER * workers
        # On one axis no memo is shared, so the cells themselves spread.
        self._prefix = spec.strides[-2] if spec.ndim > 1 else spec.size
        # Fork: the workers start without re-importing numpy or pickling
        # the kernel, and the prover starts no thread a fork could copy.
        ctx = multiprocessing.get_context("fork")
        pipes = [ctx.Pipe() for _ in range(workers)]
        self._conns = [here for here, _ in pipes]
        try:
            lead = ctx.Process(target=_lead, args=(pipes, self._kernel, self._prefix), daemon=True)
            lead.start()
            self._procs.append(lead)
        except BaseException:
            self.close()
            raise
        finally:
            for _, there in pipes:
                there.close()

    def check(self, lins) -> list:
        """Collision cause of each cell, in the order given (None = free,
        ``FreeRow`` = free with its row)."""
        if not self._conns:
            return [self._kernel(lin) for lin in lins]
        lins = np.asarray(lins, dtype=np.int64)
        owner = lins % self._prefix % len(self._conns)
        sent = []
        for w, conn in enumerate(self._conns):
            idx = np.flatnonzero(owner == w)
            if idx.size:
                conn.send_bytes(lins[idx].tobytes())
                sent.append((conn, idx))
        causes = [None] * lins.size
        error = None
        for conn, idx in sent:  # every reply is read before any is raised
            reply = conn.recv()
            if isinstance(reply, Exception):
                error = error or reply
            else:
                for i, cause in reply:
                    causes[idx[i]] = cause
        if error is not None:
            raise error
        return causes

    def close(self):
        self._kernel = None
        for conn in self._conns:  # a worker ends when its pipe is closed
            conn.close()
        for proc in self._procs:
            proc.join()


def moore_picks(spec: GridSpec, hits: list, rng: np.random.Generator, k: int) -> list:
    """Up to ``k`` random Moore neighbors of each hit, hit by hit, drawn
    without replacement for all hits at once: each hit's neighbors with
    the ``k`` smallest of one uniform key per neighbor. A neighbor is the
    cell one step or none along each axis, the hit itself and cells off a
    non-wrapping axis aside; on a wrapping axis of two cells both steps
    reach one cell, counted once, as in ``neighbors``."""
    lins = np.asarray(hits, dtype=np.int64)
    cells = np.zeros((lins.size, 1), dtype=np.int64)
    ok = np.ones((lins.size, 1), dtype=bool)
    steps = np.array([-1, 0, 1])
    for d, wrap, stride in zip(spec.dims, spec.wrap, spec.strides):
        m = lins[:, None] // stride % d + steps
        if wrap:
            m %= d
            on = np.broadcast_to(steps < 1 if d == 2 else True, m.shape)
        else:
            on = (m >= 0) & (m < d)
        cells = (cells[:, :, None] + (m * stride)[:, None, :]).reshape(lins.size, -1)
        ok = (ok[:, :, None] & on[:, None, :]).reshape(lins.size, -1)
    ok[:, ok.shape[1] // 2] = False  # every step none: the hit itself
    keys = rng.random(cells.shape)
    keys[~ok] = np.inf
    pick = np.argsort(keys, axis=1)[:, :k]
    return np.take_along_axis(cells, pick, 1)[np.take_along_axis(ok, pick, 1)].tolist()


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
    marks, propagates and counts each of its hits, in order, and marks
    each free row visited (``IterationStats.freed``). A free row is not a
    hit: its cells would each have been checked and found free. The loop
    checks a batch of draws and counts its hits toward the quota; then it
    checks, in batches too, up to ``neighbor_checks`` random Moore
    neighbors of each, drawn without replacement. Free cells stay marked
    free, never re-drawn; a neighbor visited by the time it is taken is
    skipped, not replaced, and neighbor hits do not count toward the quota.

    Batches hold ``pool.batch_size`` cells. With one worker that is one
    cell, so each cell taken sees the propagation of every hit before it.
    A pooled batch is checked whole, then applied hit by hit in the same
    way: a hit inside an earlier hit's slice propagates no new cell. So a
    pooled iteration may end past the quota. Its free rows are marked after
    its hits, all at once: they hold free cells and the hits' slices
    obstacle cells, so the order marks the same cells. A one-cell batch's
    hit draws its neighbors with ``rng.choice``; a pooled batch draws all
    its hits' neighbors at once (``moore_picks``). The iteration ends
    short of the quota when every cell has been visited.
    """
    spec = bm.spec
    stats = IterationStats()
    batch = pool.batch_size

    def check(lins) -> list:
        """Check a batch, then mark and propagate each hit and mark each
        free row; returns the hits."""
        stats.checks += len(lins)
        hits, rows = [], []
        for lin, cause in zip(lins, pool.check(lins)):
            if cause is None:
                continue
            if type(cause) is FreeRow:
                rows.append(lin)
            else:
                bm.set_obstacle(lin)
                stats.propagated += propagate(bm, ss, robot, lin, cause)
                hits.append(lin)
        if rows:
            stats.freed += free_rows(ss, spec, rows)
        return hits

    while stats.hits < params.min_hits and ss.size:
        fresh = check(ss.draw_many(rng, batch))
        if not fresh:  # most one-cell batches miss: skip the probe set-up
            continue
        stats.hits += len(fresh)
        if batch == 1:  # one hit, whose picks rng.choice draws
            moore = neighbors(spec, fresh[0])
            take = min(params.neighbor_checks, len(moore))
            probes = [moore[int(p)] for p in rng.choice(len(moore), size=take, replace=False)] if take else []
        else:
            probes = moore_picks(spec, fresh, rng, params.neighbor_checks)
        probes = (lin for lin in probes if ss.remove(lin))
        while lins := list(itertools.islice(probes, batch)):
            check(lins)
    return stats


# A second name for the same function, so that a profile can tell the
# engine's pooled iterations from its in-process ones.
sample_obstacle_cells_parallel = sample_obstacle_cells
