#!/usr/bin/env python3
"""Benchmark of noplan: time to a verdict on generated scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each proof is timed the way ``noplan prove`` runs it: ``load_scenario`` on
the generated scenario file, ``prove_infeasibility``, ``Verdict.to_json``.
Proof seeds come from a list derived from ``--seed``. One untimed warm-up
proof of the first seed comes first; timed proofs then run while the next
one is expected to end within ``--seconds`` of proof time, and at least
three run. Every proof's verdict, the warm-up's too, is checked outside the
timed span (see checks.py).

Each proof is bracketed by timings of a fixed reference work (see
reference.py); the end-to-end proof times are in units of it, so that the
host's own drift in speed cancels out. Set-up time is scaled likewise, by
fresh interpreters that import only noplan's dependencies, to seconds on a
host where those take ``NOMINAL_DEPS_S``. With ``--trace 0`` the run reports
the end-to-end metrics, and prints the raw seconds above them; with
``--trace 1`` it wraps the layer modules' public functions in spans (see
spans.py), reports the per-layer metrics and writes the spans to the work
directory. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Failed proofs,
over attempted ones, are the ``fail_frac`` printed above it.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from reference import reference_s
from workloads import WORK_DIR, WORKLOADS, Workload, write_scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PROOFS = 3
SETUP_SAMPLES = 4
# Seconds a fresh interpreter takes to import numpy, scipy.ndimage and yaml
# at the usual speed of the 2-core host this benchmark was built on.
NOMINAL_DEPS_S = 0.65

END_TO_END_UNITS = {
    "proof_ref_p50": "ref",
    "proof_ref_mean": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import noplan from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "noplan" / "__init__.py").is_file():
        raise ProgramMissing(f"no noplan package under {SRC}")
    sys.path.insert(0, str(SRC))
    import noplan

    if SRC.resolve() not in Path(noplan.__file__).resolve().parents:
        raise ProgramMissing(f"imported noplan from {noplan.__file__}, not from {SRC}")


@dataclass
class Proof:
    seed: int
    seconds: float
    kind: str = "error"
    digest: str = ""
    checks: int = 0
    hits: int = 0
    components: int = 0
    json_bytes: int = 0
    problems: list = field(default_factory=list)
    ref_s: float = 0.0  # mean of the reference timings right before and after


@dataclass
class Run:
    warmup: Proof
    proofs: list
    peak_rss_mb: float

    def checked(self) -> list:
        return [self.warmup, *self.proofs]


def attempt(path: Path, seed: int, w: Workload, rng, tracer=None) -> Proof:
    """One timed proof, then its correctness checks."""
    from checks import verdict_problems
    from noplan import engine, scenario_io

    t0 = time.perf_counter()
    try:
        with tracer.root() if tracer else nullcontext():
            scenario = scenario_io.load_scenario(path)
            verdict = engine.prove_infeasibility(scenario, seed=seed, threads=w.threads)
            text = verdict.to_json(indent=2)
        seconds = time.perf_counter() - t0
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return Proof(seed, time.perf_counter() - t0, problems=[f"raised {exc!r}"])
    proof = Proof(
        seed,
        seconds,
        verdict.kind,
        verdict.digest or "",
        checks=sum(s.checks for s in verdict.stats),
        hits=sum(s.hits for s in verdict.stats),
        components=verdict.component_count or 0,
        json_bytes=len(text),
    )
    try:
        proof.problems = verdict_problems(verdict, scenario, w.expected, rng)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        proof.problems = [f"checking the verdict raised {exc!r}"]
    return proof


def brute_force_digest(path: Path) -> str:
    from checks import oracle_digest
    from noplan import scenario_io

    return oracle_digest(scenario_io.load_scenario(path), path, SRC / "noplan", ROOT / WORK_DIR)


def run_workload(w: Workload, seed: int, seconds: float, tracer=None,
                 oracle=brute_force_digest) -> Run:
    """Time proofs of one workload and check every verdict.

    The warm-up proof is untimed and untraced; the first timed proof re-runs
    its seed. On serial workloads the two must give the same digest (the
    pool path's trace is not deterministic). A traced run uses the warm-up
    as the reference for the tracing overhead.
    """
    import numpy as np
    from checks import exhaustion_problems
    from noplan.engine import FEASIBLE_AT_RESOLUTION

    path = write_scenario(ROOT, w)
    seeds = random.Random(seed)
    rng = np.random.default_rng(seed)
    first_seed = seeds.randrange(2**32)
    warmup = attempt(path, first_seed, w, rng)
    proofs = []
    measured = 0.0
    ref_before = reference_s()
    while len(proofs) < MIN_PROOFS or measured * (1 + 1 / len(proofs)) <= seconds:
        s = seeds.randrange(2**32) if proofs else first_seed
        proofs.append(attempt(path, s, w, rng, tracer))
        ref_after = reference_s()
        proofs[-1].ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        measured += proofs[-1].seconds
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    if w.threads == 1 and proofs[0].digest != warmup.digest:
        proofs[0].problems.append(
            f"re-running the seed gave digest {proofs[0].digest[:12]}, "
            f"warm-up {warmup.digest[:12]}"
        )
    run = Run(warmup, proofs, kib / 1024.0)
    if w.expected == FEASIBLE_AT_RESOLUTION:
        expected_digest = oracle(path)
        for p in run.checked():
            p.problems += exhaustion_problems(p.kind, p.digest, expected_digest)
    return run


def fresh_s(arg: str) -> float:
    """Seconds from starting ``setup_probe.py arg`` until it is ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), arg],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {child.returncode}: {line!r}")
    return elapsed


def measure_setup(w: Workload) -> list[tuple[float, float]]:
    """Seconds from starting a fresh interpreter until a proof could start.

    Each is paired with the mean of the two baselines around it: fresh
    interpreters that only import noplan's dependencies.
    """
    out = []
    base_before = fresh_s("--deps")
    for _ in range(SETUP_SAMPLES):
        elapsed = fresh_s(w.name)
        base_after = fresh_s("--deps")
        out.append((elapsed, (base_before + base_after) / 2))
        base_before = base_after
    return out


def raw_seconds(run: Run, setup: list) -> dict:
    """Unscaled times, printed for reading; they carry the host's drift."""
    times = [p.seconds for p in run.proofs]
    return {
        "proof_s_p50": statistics.median(times),
        "proofs_per_s": len(times) / sum(times),
        "setup_s": statistics.median(s for s, _ in setup),
        "deps_s": statistics.median(b for _, b in setup),
        "reference_s_p50": statistics.median(p.ref_s for p in run.proofs),
    }


def end_to_end_metrics(run: Run, setup: list) -> dict:
    """Proof times in reference units; set-up time scaled to NOMINAL_DEPS_S."""
    in_refs = [p.seconds / p.ref_s for p in run.proofs]
    return {
        "proof_ref_p50": statistics.median(in_refs),
        "proof_ref_mean": statistics.fmean(in_refs),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": statistics.median(s / b for s, b in setup) * NOMINAL_DEPS_S,
    }


def per_layer_metrics(w: Workload, run: Run, tracer) -> dict:
    from spans import layer_metrics, self_time_by_layer

    totals = tracer.totals()
    n = len(run.proofs)
    print(f"self time per proof by layer (spans written to {WORK_DIR}/spans-{w.name}.npz):")
    for layer, own in sorted(self_time_by_layer(totals).items(), key=lambda kv: -kv[1]):
        print(f"  {layer:30s} {own / n:.6g} s")
    if tracer.missing:
        print(f"  not traced, missing from the program: {', '.join(tracer.missing)}")
    return layer_metrics(totals, tracer.counts, run.proofs, math.prod(w.dims),
                         w.threads > 1, run.warmup.seconds)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run = run_workload(w, args.seed, args.seconds, tracer)

    failed = sum(bool(p.problems) for p in run.checked())
    for p in run.checked():
        for problem in p.problems:
            print(f"perfbench: {w.name} seed {p.seed}: {problem}", file=sys.stderr)
    attempted = len(run.checked())
    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} proofs ({len(run.proofs)} timed, 1 warm-up), {failed} failed, "
          f"expected {w.expected}")
    print(f"  {'fail_frac':30s} {failed / attempted:.6g} frac")
    if tracer:
        tracer.uninstall()
        metrics = per_layer_metrics(w, run, tracer)
        tracer.save(ROOT / WORK_DIR / f"spans-{w.name}.npz")
        from spans import PER_LAYER_UNITS as units
    else:
        setup = measure_setup(w)
        metrics = end_to_end_metrics(run, setup)
        units = END_TO_END_UNITS
        print("  raw: " + ", ".join(f"{k} {v:.6g}" for k, v in raw_seconds(run, setup).items()))
    for name, value in metrics.items():
        print(f"  {name:30s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
