"""The results of every benchmark operation stay what they were.

`tools/result_dump.py` runs each operation of the benchmark's instance
pools once and hashes what it returned or raised.  A change that alters any
result changes the hash.  A change meant to alter results updates
RESULT_PIN and lists each changed result in CHANGES.md.  With `--counts` it
also prints how often the pass called the Groebner and gcd kernels; those
counts depend only on the code, so COUNTS_PIN catches a change of work that
leaves every result alone.  A change meant to alter them updates COUNTS_PIN
and says why in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_PIN = "e1e0313d7735484321104a93f5b485686abf02db19f4a2c184001bf96c2d74d2 1456"
COUNTS_PIN = [
    "polyring.s_poly 5656",
    "polyring.reduce_poly 7096",
    "polyring.buchberger 4183",
    "localring.gcd2 12002",
    "localring.divide_exact_p2 2241",
]


def test_results_match_the_pin():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "result_dump.py"), "--counts"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines() == [RESULT_PIN] + COUNTS_PIN
