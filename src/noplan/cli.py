"""Command line front end: prove, bench, render.

Exit codes: 0 infeasibility proven, 2 feasible at the chosen resolution,
3 timeout (bench mode), 1 usage/validation/IO errors or a colliding
start/goal.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import statistics
import sys

import numpy as np

from . import engine, oracle
from .bitmap import CSpaceBitmap, config_to_cell, write_pgm
from .errors import EngineTimeout, NoplanError, UnsupportedDimension, ValidationError
from .sampler import SamplerParams
from .scenario_io import load_scenario
from .segmentation import CONNECTIVITIES, segment

EXIT_INFEASIBLE = 0
EXIT_ERROR = 1
EXIT_FEASIBLE = 2
EXIT_TIMEOUT = 3
# Bits render holds per cell at its peak, by tracemalloc on 2000x2000 dumps:
# 57 on most, 94 on a checkerboard under face connectivity, whose one-cell
# components each take entries in segment's label tables.
RENDER_BITS_PER_CELL = 94


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("scenario", help="scenario file (YAML)")
    p.add_argument("--ns", type=int, default=SamplerParams.min_hits, metavar="N",
                   help="collision hits per sampling iteration (default %(default)s)")
    p.add_argument("--d", type=int, default=SamplerParams.neighbor_checks, metavar="K",
                   help="random neighbors checked per hit (default %(default)s)")
    p.add_argument("--resolution", type=str, default=None, metavar="N1,N2,...",
                   help="override grid resolution; one value broadcasts to all axes")
    p.add_argument("--connectivity", choices=CONNECTIVITIES, default="faces",
                   help="free-space adjacency used by segmentation (default %(default)s)")
    p.add_argument("--seed", type=int, default=None, help="random seed")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for collision checking (default 1)")
    p.add_argument("--truncate-links", type=int, default=None, metavar="K",
                   help="restrict a chain scenario to its first K links")


def _load(args):
    scenario = load_scenario(args.scenario)
    if args.truncate_links is not None:
        scenario = scenario.truncate(args.truncate_links)
    if args.resolution:
        try:
            dims = [int(v) for v in args.resolution.replace(",", " ").split()]
        except ValueError:
            raise ValidationError(
                "--resolution expects integers, e.g. '36' or '24,18': "
                f"got {args.resolution!r}"
            )
        ndim = scenario.grid.ndim
        if len(dims) == 1:
            dims = dims * ndim
        if len(dims) != ndim:
            raise ValidationError(
                f"--resolution gives {len(dims)} axis sizes, the grid has {ndim} axes"
            )
        grid = dataclasses.replace(scenario.grid, dims=dims)
        scenario = dataclasses.replace(scenario, grid=grid)
    return scenario


def _prove(args, scenario, seed, timeout=None) -> engine.Verdict:
    return engine.prove_infeasibility(
        scenario,
        params=SamplerParams(args.ns, args.d),
        seed=seed,
        connectivity=args.connectivity,
        threads=args.threads,
        timeout=timeout,
    )


def _export(bitmap: CSpaceBitmap, path: str):
    if path.endswith(".pgm"):
        bitmap.to_pgm(path)
    else:
        bitmap.dump(path)


def _exit_code(kind: str) -> int:
    if kind == engine.INFEASIBLE:
        return EXIT_INFEASIBLE
    if kind == engine.FEASIBLE_AT_RESOLUTION:
        return EXIT_FEASIBLE
    return EXIT_ERROR


def cmd_prove(args) -> int:
    scenario = _load(args)
    path = args.export_bitmap
    if path and path.endswith(".pgm") and scenario.grid.ndim != 2:
        raise UnsupportedDimension(
            f"PGM export needs a 2D grid, scenario has {scenario.grid.ndim} axes"
        )
    verdict = _prove(args, scenario, args.seed)
    # Exported first, so that a failed write prints only the error line.
    if path and verdict.bitmap is not None:
        _export(verdict.bitmap, path)
    print(verdict.to_json(indent=2))
    return _exit_code(verdict.kind)


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    scenario = _load(args)
    if scenario.grid.ndim > 1:
        # segment imports scipy.ndimage when it first labels two or more
        # axes; importing it here keeps that out of the first trial's times.
        import scipy.ndimage  # noqa: F401
    writer = csv.writer(sys.stdout)
    base_seed = args.seed if args.seed is not None else 0
    kinds = set()
    iterations, seg_times, totals = [], [], []
    timed_out = 0
    for trial in range(args.trials):
        seed = base_seed + trial
        try:
            verdict = _prove(args, scenario, seed, args.timeout)
        except EngineTimeout:
            verdict = None
        # The header waits for the first trial, which raises on an invalid
        # flag, so that an error is the only line on stdout.
        if trial == 0:
            writer.writerow(["trial", "seed", "verdict", "iterations",
                             "segmentation_time", "total_time"])
        if verdict is None:
            timed_out += 1
            writer.writerow([trial, seed, "Timeout", "", "", ""])
            continue
        kinds.add(verdict.kind)
        iterations.append(verdict.iterations)
        seg_times.append(verdict.segmentation_time)
        totals.append(verdict.elapsed)
        writer.writerow([
            trial, seed, verdict.kind, verdict.iterations,
            f"{verdict.segmentation_time:.4f}", f"{verdict.elapsed:.4f}",
        ])
    if iterations:
        def mean_std(xs):
            m = statistics.fmean(xs)
            s = statistics.pstdev(xs) if len(xs) > 1 else 0.0
            return f"{m:.2f}±{s:.2f}"

        writer.writerow(["summary", "", "", mean_std(iterations),
                         mean_std(seg_times), mean_std(totals)])
    if timed_out:
        return EXIT_TIMEOUT
    if kinds == {engine.INFEASIBLE}:
        return EXIT_INFEASIBLE
    if engine.FEASIBLE_AT_RESOLUTION in kinds:
        return EXIT_FEASIBLE
    return EXIT_ERROR


def cmd_render(args) -> int:
    if args.scenario.endswith((".bin", ".dump", ".cbm")):
        bitmap = CSpaceBitmap.load(args.scenario)
        endpoints = ()
    else:
        scenario = load_scenario(args.scenario)
        if scenario.grid.ndim != 2:
            raise UnsupportedDimension(
                f"rendering needs a 2D grid, scenario has {scenario.grid.ndim} axes"
            )
        bitmap = oracle.brute_force_bitmap(scenario)
        # start white, goal dark gray
        endpoints = ((scenario.start, 255), (scenario.goal, 32))
    if bitmap.spec.ndim != 2:
        raise UnsupportedDimension("rendering needs a 2D bitmap")
    engine._check_footprint(bitmap.spec, RENDER_BITS_PER_CELL)
    labels = segment(bitmap, args.connectivity)
    # obstacles black, each free component its own gray
    k = max(labels.component_count, 1)
    shades = np.zeros(k + 1, dtype=np.uint8)
    shades[1:] = np.linspace(80, 255, k)
    image = shades[labels.table][labels.raw].reshape(bitmap.spec.dims, order="F")
    for q, value in endpoints:
        image[config_to_cell(bitmap.spec, q)] = value
    out = args.out
    bitmap.to_pgm(f"{out}.bitmap.pgm")
    write_pgm(f"{out}.labels.pgm", image)
    print(json.dumps({
        "bitmap": f"{out}.bitmap.pgm",
        "labels": f"{out}.labels.pgm",
        "components": labels.component_count,
        "free_cells": bitmap.free_count(),
    }))
    return 0


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into a ValidationError, so that it exits 1 with
    the JSON error line; argparse would exit 2, the feasible verdict's code."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noplan",
        description="Prove motion-planning infeasibility on a discretized configuration space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prove = sub.add_parser("prove", help="run the prover on one scenario")
    _add_common_flags(p_prove)
    p_prove.add_argument("--export-bitmap", type=str, default=None, metavar="PATH",
                         help="write the final bitmap (binary dump, or PGM for 2D .pgm paths)")
    p_prove.set_defaults(func=cmd_prove)

    p_bench = sub.add_parser("bench", help="repeated seeded trials, CSV output")
    _add_common_flags(p_bench)
    p_bench.add_argument("--trials", type=int, default=30)
    p_bench.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="per-trial wall-clock limit")
    p_bench.set_defaults(func=cmd_bench)

    p_render = sub.add_parser("render", help="export PGM images for a 2D scenario or dump")
    p_render.add_argument("scenario", help="scenario file or bitmap dump")
    p_render.add_argument("--out", default="render", help="output path prefix")
    p_render.add_argument("--connectivity", choices=CONNECTIVITIES, default="faces")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NoplanError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_ERROR
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
