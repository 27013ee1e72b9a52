"""Set up one workload in a fresh interpreter, for the setup_s metric.

Imports noplan (and with it numpy and scipy), generates and loads the
workload's scenario, prepares its obstacles, then prints ``ready``. The
parent times the interval from starting this process to that line.

    python3 perfbench/setup_probe.py WORKLOAD
    python3 perfbench/setup_probe.py --deps

With ``--deps`` it only imports noplan's third-party dependencies: the
baseline that set-up times are scaled by.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if sys.argv[1] == "--deps":
        import numpy  # noqa: F401
        import yaml  # noqa: F401
        from scipy import ndimage  # noqa: F401
    else:
        sys.path.insert(0, str(ROOT / "src"))
        import noplan
        from workloads import WORKLOADS, write_scenario

        scenario = noplan.load_scenario(write_scenario(ROOT, WORKLOADS[sys.argv[1]]))
        scenario.prepared()
    print("ready", flush=True)
