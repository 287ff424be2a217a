"""Rewrite the golden trajectories under tests/golden and their version stamp.

A change that moves a trajectory on purpose runs

    python3 tests/golden/regenerate.py

and commits the rewritten files with the change. For each config it prints
the iterations and compliance of the new run, and for each file the first
eight hex digits of its sha256 before and after, for the change's notes.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import CONFIGS, GOLDEN, VERSIONS, run, versions  # noqa: E402


def sha_prefix(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:8] if path.exists() else "(none)"


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        for name in CONFIGS:
            (GOLDEN / name).mkdir(exist_ok=True)
            artifacts = run(name, Path(scratch) / name)
            metrics = dict(line.split(" = ", 1) for line in
                           (Path(scratch) / name / "metrics.txt").read_text().splitlines())
            print(f"{name}: {metrics['iterations']} iterations, compliance {metrics['compliance']}")
            for artifact, data in artifacts.items():
                path = GOLDEN / name / artifact
                old = sha_prefix(path)
                path.write_bytes(data)
                print(f"  {path.relative_to(ROOT)}: sha256 {old} -> {sha_prefix(path)}")
    VERSIONS.write_text(json.dumps(versions(), indent=2) + "\n")
    print(VERSIONS.relative_to(ROOT))


if __name__ == "__main__":
    main()
