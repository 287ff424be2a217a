"""Rewrite the golden trajectories under tests/golden and their version stamp.

A change that moves a trajectory on purpose runs

    python3 tests/golden/regenerate.py

and commits the rewritten files with the change.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import CONFIGS, GOLDEN, VERSIONS, run, versions  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        for name in CONFIGS:
            (GOLDEN / name).mkdir(exist_ok=True)
            for artifact, data in run(name, Path(scratch) / name).items():
                (GOLDEN / name / artifact).write_bytes(data)
                print(GOLDEN / name / artifact)
    VERSIONS.write_text(json.dumps(versions(), indent=2) + "\n")
    print(VERSIONS)


if __name__ == "__main__":
    main()
