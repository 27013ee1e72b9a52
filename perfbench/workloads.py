"""The benchmark's workloads: bundled scenarios with a few edits.

Each workload names a YAML file under ``scenarios/``, the obstacles it drops
and the grid it uses. The benchmark writes the edited scenario to its work
directory; the prover only ever sees that generated file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    dims: tuple
    expected: str
    threads: int = 1
    drop: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        # Kernel-bound: the grid has no separating obstacle, so the sampler
        # must visit every cell (~50k scalar checks, 12 segmentations).
        Workload("exhaust-4dof", "four_link_bands.yaml", (16, 16, 16, 16),
                 "FeasibleAtResolution", drop=("block-down",)),
        # Grid-bound: one iteration of ~1k checks, then propagation of a few
        # huge slices into the visited set and one 5.3M-cell segmentation.
        Workload("prove-4dof-48", "four_link_bands.yaml", (48, 48, 48, 48),
                 "Infeasible"),
        # The SE(2) kernel and many small heading-column propagations, with
        # 4-8 re-segmentations of 1.5M cells.
        Workload("rigid-se2-2x", "rigid_body_wall.yaml", (134, 78, 144),
                 "Infeasible"),
        # The exhaust-4dof scene on the multiprocessing.Pool sampler path.
        # Not in BENCHMARK.json: two workers on a two-core host time the
        # scheduler, not the program. Run it by hand to compare with serial.
        Workload("exhaust-4dof-threads2", "four_link_bands.yaml", (16, 16, 16, 16),
                 "FeasibleAtResolution", threads=2, drop=("block-down",)),
    )
}


def scenario_text(root: Path, w: Workload) -> str:
    """The generated scenario file's contents for one workload."""
    with open(root / "scenarios" / w.source) as f:
        doc = yaml.safe_load(f)
    doc["obstacles"] = [o for o in doc["obstacles"] if o.get("id") not in w.drop]
    doc["grid"]["dims"] = list(w.dims)
    doc["name"] = w.name
    return yaml.safe_dump(doc, sort_keys=False)


def write_scenario(root: Path, w: Workload) -> Path:
    """Generate the workload's scenario file in the work directory."""
    path = root / WORK_DIR / f"{w.name}.yaml"
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(scenario_text(root, w))
    tmp.replace(path)
    return path
