"""Spans around the public functions of noplan's layer modules.

The tracer patches functions and methods of the ``noplan`` package
from outside it, records one span (name, start, end, parent) per call in
flat arrays, and restores the originals on ``uninstall``. A function the
program no longer has is skipped, so its metrics read 0.

Self time is a span's duration minus the time its child spans cover. The
spans of one proof nest under a single root span, so the self times of all
spans sum to the traced proof wall time.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOT = "bench.proof"

# Causes of a collision, by the short name the per-layer metrics use.
CAUSES = {"ObstacleHit": "obstacle", "SelfHit": "self", "BaseInObstacle": "base"}


def _count_propagate(counts, marked, args):
    counts["sampler.cells_marked"] += marked
    counts["kinematics.hits." + CAUSES.get(type(args[4]).__name__, "other")] += 1


def _count_implied(counts, implied, args):
    counts["sampler.cells_implied"] += len(implied)


def _count_remove(counts, removed, args):
    counts["sampler.neighbor_probes"] += 1
    counts["sampler.neighbor_checks"] += bool(removed)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._patches = []
        # Pool workers are forked from a traced process; they must not
        # record into their copy of the arrays, which is thrown away.
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self.active = False

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """Record a root span and trace every wrapped call inside it."""
        i = self._begin(self._name_id(ROOT))
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._finish(i)

    def wrap(self, owner, attr: str, name: str, after=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(counts, result, args)`` updates counters from a call.
        """
        orig = vars(owner).get(attr)
        if orig is None:
            self.missing.append(name)
            return
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            i = self._begin(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._finish(i)
            if after is not None:
                after(self.counts, result, args)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str):
        """Count calls of ``owner.attr`` without timing them."""
        orig = vars(owner).get(attr)
        if orig is None:
            self.missing.append(name)
            return
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return orig(*args, **kwargs)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, counted)

    def install(self):
        """Wrap the layer functions where their callers look them up."""
        from noplan import bitmap, engine, kinematics, sampler, scenario_io

        w = self.wrap
        w(scenario_io, "load_scenario", "scenario_io.load_scenario")
        w(scenario_io.Scenario, "prepared", "scenario_io.prepared")
        w(engine, "prove_infeasibility", "engine.prove_infeasibility")
        w(engine.Verdict, "to_json", "verdict.to_json")
        w(engine, "sample_obstacle_cells", "sampler.sample_obstacle_cells")
        w(engine, "sample_obstacle_cells_parallel", "sampler.sample_obstacle_cells_parallel")
        w(engine, "segment", "segmentation.segment")
        w(engine, "segment_check", "segmentation.segment_check")
        w(sampler, "propagate", "sampler.propagate", _count_propagate)
        w(sampler, "cells_implied_by", "sampler.cells_implied_by", _count_implied)
        w(sampler, "neighbors", "bitmap.neighbors")
        w(sampler.SampleSet, "draw", "sampler.draw")
        w(sampler.SampleSet, "remove", "sampler.remove", _count_remove)
        w(sampler.SampleSet, "remove_bulk", "sampler.remove_bulk")
        w(bitmap.CSpaceBitmap, "to_dense", "bitmap.to_dense")
        w(bitmap.CSpaceBitmap, "set_obstacle_bulk", "bitmap.set_obstacle_bulk")
        w(bitmap.CSpaceBitmap, "digest", "bitmap.digest")
        w(kinematics.SerialChain, "collision_check", "kinematics.collision_check")
        w(kinematics.RigidSE2, "collision_check", "kinematics.collision_check")
        self.count_calls(kinematics, "raw_tri_intersects", "geometry.sat_tests")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def totals(self) -> dict:
        """Per span name: (calls, total seconds, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], dur[child])
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - covered, minlength=k)
        return {
            n: (int(calls[i]), float(total[i]), float(own[i]))
            for i, n in enumerate(self.names)
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_time_by_layer(totals: dict) -> dict:
    """Self seconds summed per layer, the part of a span name before its
    first dot."""
    out: dict = {}
    for name, (_, _, own) in totals.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


# Per-layer metrics and their units; BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "kinematics.checks": "count",
    "kinematics.busy_s": "s",
    "kinematics.us_per_check": "us",
    "kinematics.hit_ratio": "frac",
    "kinematics.hits.obstacle": "count",
    "kinematics.hits.self": "count",
    "kinematics.hits.base": "count",
    "geometry.sat_tests": "count",
    "geometry.sat_per_check": "count",
    "sampler.iterations": "count",
    "sampler.draws": "count",
    "sampler.draw_s": "s",
    "sampler.neighbor_probes": "count",
    "sampler.neighbor_checks": "count",
    "sampler.neighbor_hit_ratio": "frac",
    "sampler.neighbor_s": "s",
    "sampler.self_s": "s",
    "sampler.propagate_calls": "count",
    "sampler.propagate_s": "s",
    "sampler.remove_bulk_s": "s",
    "sampler.cells_implied": "count",
    "sampler.cells_marked": "count",
    "sampler.propagate_yield": "frac",
    "sampler.parallel_iteration_s": "s",
    "segmentation.calls": "count",
    "segmentation.busy_s": "s",
    "segmentation.ns_per_cell": "ns",
    "bitmap.to_dense_s": "s",
    "bitmap.set_obstacle_bulk_s": "s",
    "engine.self_s": "s",
    "engine.components": "count",
    "verdict.digest_s": "s",
    "verdict.to_json_s": "s",
    "verdict.json_bytes": "bytes",
    "scenario_io.load_s": "s",
    "trace.proof_s": "s",
    "trace.accounted_frac": "frac",
    "trace.overhead_frac": "frac",
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(totals: dict, counts: Counter, proofs: list, cells: int,
                  pooled: bool, untraced_s: float) -> dict:
    """Per-layer metrics, per proof, from one traced run.

    ``proofs`` are the run's traced proofs, in order; ``untraced_s`` is the
    untraced wall time of the first proof's seed. On the pooled path the
    checks run in worker processes: ``kinematics.checks`` then comes from
    ``Verdict.stats``, and the kernel's busy time, per-check time and SAT
    counts cover only the checks the master process makes itself.
    """
    n = len(proofs)

    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    kin_calls, kin_busy, _ = get("kinematics.collision_check")
    checks = sum(p.checks for p in proofs) if pooled else kin_calls
    hits = sum(counts["kinematics.hits." + c] for c in CAUSES.values())
    draw_hits = sum(p.hits for p in proofs)
    sat = counts["geometry.sat_tests"]
    nb_checks = counts["sampler.neighbor_checks"]
    serial, parallel = get("sampler.sample_obstacle_cells"), get("sampler.sample_obstacle_cells_parallel")
    seg_calls, seg_busy, _ = get("segmentation.segment")
    root_calls, root_total, root_self = get(ROOT)
    per_proof = {
        "kinematics.checks": checks,
        "kinematics.busy_s": kin_busy,
        "kinematics.hits.obstacle": counts["kinematics.hits.obstacle"],
        "kinematics.hits.self": counts["kinematics.hits.self"],
        "kinematics.hits.base": counts["kinematics.hits.base"],
        "geometry.sat_tests": sat,
        "sampler.iterations": serial[0] + parallel[0],
        "sampler.draws": get("sampler.draw")[0],
        "sampler.draw_s": get("sampler.draw")[1],
        "sampler.neighbor_probes": counts["sampler.neighbor_probes"],
        "sampler.neighbor_checks": nb_checks,
        "sampler.neighbor_s": get("sampler.remove")[1] + get("bitmap.neighbors")[1],
        "sampler.self_s": serial[2] + parallel[2],
        "sampler.propagate_calls": get("sampler.propagate")[0],
        "sampler.propagate_s": get("sampler.propagate")[1],
        "sampler.remove_bulk_s": get("sampler.remove_bulk")[1],
        "sampler.cells_implied": counts["sampler.cells_implied"],
        "sampler.cells_marked": counts["sampler.cells_marked"],
        "sampler.parallel_iteration_s": parallel[1],
        "segmentation.calls": seg_calls,
        "segmentation.busy_s": seg_busy,
        "bitmap.to_dense_s": get("bitmap.to_dense")[1],
        "bitmap.set_obstacle_bulk_s": get("bitmap.set_obstacle_bulk")[1],
        "engine.self_s": get("engine.prove_infeasibility")[2],
        "engine.components": sum(p.components for p in proofs),
        "verdict.digest_s": get("bitmap.digest")[1],
        "verdict.to_json_s": get("verdict.to_json")[1],
        "verdict.json_bytes": sum(p.json_bytes for p in proofs),
        "scenario_io.load_s": get("scenario_io.load_scenario")[1],
        "trace.proof_s": root_total,
    }
    out = {k: _ratio(v, n) for k, v in per_proof.items()}
    out.update({
        "kinematics.us_per_check": 1e6 * _ratio(kin_busy, kin_calls),
        "kinematics.hit_ratio": _ratio(hits, checks),
        "geometry.sat_per_check": _ratio(sat, kin_calls),
        "sampler.neighbor_hit_ratio": _ratio(hits - draw_hits, nb_checks),
        "sampler.propagate_yield": _ratio(counts["sampler.cells_marked"],
                                          counts["sampler.cells_implied"]),
        "segmentation.ns_per_cell": 1e9 * _ratio(seg_busy, seg_calls * cells),
        "trace.accounted_frac": _ratio(root_total - root_self, root_total),
        "trace.overhead_frac": _ratio(proofs[0].seconds, untraced_s) - 1.0,
    })
    return {k: out[k] for k in PER_LAYER_UNITS}
