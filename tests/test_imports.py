"""Every vtopt module imports cleanly when it is the first one loaded."""

import importlib.util
import subprocess
import sys
from pathlib import Path

# found without running the package, so that a cycle fails the test, not its collection
PACKAGE_DIR = Path(importlib.util.find_spec("vtopt").submodule_search_locations[0])

# Each module is imported into an empty package object, so the package's
# __init__ does not load the others first; a cycle that only shows when one
# given module comes first fails here.
SCRIPT = """
import importlib, sys, types
package_dir, names = sys.argv[1], sys.argv[2:]
for name in names:
    for key in [k for k in sys.modules if k == "vtopt" or k.startswith("vtopt.")]:
        del sys.modules[key]
    package = types.ModuleType("vtopt")
    package.__path__ = [package_dir]
    sys.modules["vtopt"] = package
    try:
        importlib.import_module("vtopt." + name)
    except ImportError as err:
        print(f"vtopt.{name} first: {err}")
"""


def test_each_module_imports_first():
    names = sorted(path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__")
    assert "config" in names and "optimizer" in names
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(PACKAGE_DIR), *names],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stdout == "", run.stdout + run.stderr
