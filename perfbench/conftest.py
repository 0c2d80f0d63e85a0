"""Self-tests of the benchmark import obcast from the checkout's ``src/``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
