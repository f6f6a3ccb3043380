"""The results of every benchmark operation stay what they were.

`tools/result_dump.py` runs each operation of the benchmark's instance
pools once and hashes what it returned or raised.  A change that alters any
result changes the hash.  A change meant to alter results updates
RESULT_PIN and lists each changed result in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_PIN = "e1e0313d7735484321104a93f5b485686abf02db19f4a2c184001bf96c2d74d2 1456"


def test_results_match_the_pin():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "result_dump.py")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == RESULT_PIN
