"""``python3 benchmarks/terpbench`` / ``python -m benchmarks.terpbench``.

Puts the repo root and ``src/`` on ``sys.path`` (so neither an install
nor ``PYTHONPATH`` is needed), drops this directory from it (its module
names must not shadow anything), and hands over to :mod:`.cli`.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"terpbench: {ROOT / 'src' / 'repro'} is missing — the "
             "benchmark measures the program in this checkout and "
             "cannot run without it")
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.terpbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
