import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH, ROOT / "tests"):
    sys.path.insert(0, str(path))
