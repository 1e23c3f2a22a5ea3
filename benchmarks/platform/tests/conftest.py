"""Import paths for the harness self-tests.

Run with ``python -m pytest benchmarks/platform/tests -q`` from the repo
root; tier-1 (``testpaths = tests``) does not collect this directory.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[2]
for entry in (str(ROOT), str(ROOT / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
