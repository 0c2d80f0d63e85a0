"""One benchmark set-up in a fresh interpreter: import obcast and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>
    python3 perfbench/setup_probe.py reference

Prints ``ready`` once the inputs are built; ``run.py`` times the interval
from starting this process to that line.  With ``reference`` it imports
numpy alone, which no change to obcast can slow; ``run.py`` scales
``setup_s`` by that time.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    if sys.argv[1:] == ["reference"]:
        import numpy  # noqa: F401
    else:
        sys.path.insert(0, str(HERE.parent / "src"))
        import workloads  # imports obcast and numpy

        expected = json.loads((HERE / "baseline.json").read_text())["report_sha256"]
        workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), HERE, expected)
    print("ready", flush=True)
