"""Self-test of the benchmark's own code, on small grids.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import PER_LAYER_UNITS, ROOT, Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

run.load_program()

SMALL_EXHAUST = Workload("selftest-exhaust", "four_link_bands.yaml", (6, 6, 6, 6),
                         "FeasibleAtResolution", drop=("block-down",))
SMALL_PROOF = Workload("selftest-prove", "two_link_three_bands.yaml", (36, 36), "Infeasible")


def failed(result) -> int:
    return sum(bool(p.problems) for p in result.checked())


def test_correct_verdicts_pass():
    for w in (SMALL_EXHAUST, SMALL_PROOF):
        result = run.run_workload(w, seed=3, seconds=0)
        assert len(result.proofs) == run.MIN_PROOFS
        assert all(p.ref_s > 0 for p in result.proofs)
        assert failed(result) == 0, [p.problems for p in result.proofs]


def test_wrong_expected_verdict_fails_every_proof():
    wrong = Workload("selftest-prove", "two_link_three_bands.yaml", (36, 36),
                     "FeasibleAtResolution")
    result = run.run_workload(wrong, seed=3, seconds=0)
    assert failed(result) == len(result.checked()) == run.MIN_PROOFS + 1


def test_wrong_oracle_digest_fails_every_proof():
    result = run.run_workload(SMALL_EXHAUST, seed=3, seconds=0, oracle=lambda path: "0" * 64)
    assert failed(result) == len(result.checked()) == run.MIN_PROOFS + 1


def test_self_times_add_up_to_traced_wall_time():
    from noplan import engine, segmentation

    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_workload(SMALL_EXHAUST, seed=3, seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert engine.segment is segmentation.segment
    assert tracer.missing == []
    totals = tracer.totals()
    calls, root_total, _ = totals[ROOT]
    assert calls == len(result.proofs)
    self_sum = sum(own for _, _, own in totals.values())
    assert abs(self_sum - root_total) <= 1e-9 * root_total
    assert all(own >= -1e-9 for _, _, own in totals.values())
    # The root spans sit inside the proofs' own timers.
    assert root_total <= sum(p.seconds for p in result.proofs)
    assert totals["kinematics.collision_check"][0] > 0


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
