"""The results of every benchmark operation stay what they were.

`tools/result_dump.py` runs each operation of the benchmark's instance
pools once and hashes what it returned or raised.  A change that alters any
result changes the hash.  A change meant to alter results updates
RESULT_PIN and lists each changed result in CHANGES.md.  With `--counts` it
also prints how often the pass called the Groebner and gcd kernels and the
element parser; those counts depend only on the code, so COUNTS_PIN catches
a change of work that leaves every result alone.  A change meant to alter
them updates COUNTS_PIN and says why in CHANGES.md.  `--lines` prints each
operation's result line before the hash, so a `diff` of two checkouts'
output names every changed result.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_PIN = "d6d2d8c9c83503aca1784321ac19c51a5d6d0f77d0800d0b53a8bf676f80279b 1456"
COUNTS_PIN = [
    "polyring.s_poly 49",
    "polyring.reduce_poly 77",
    "polyring.buchberger 32",
    "localring.gcd2 4667",
    "localring.divide_exact_p2 1280",
    "localring.parse_element 5018",
]


def test_results_match_the_pin():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "result_dump.py"),
         "--counts", "--lines"],
        capture_output=True,
        text=True,
        check=True,
    )
    out = done.stdout.splitlines()
    ops, tail = out[: -1 - len(COUNTS_PIN)], out[-1 - len(COUNTS_PIN) :]
    assert tail == [RESULT_PIN] + COUNTS_PIN
    # --lines prints exactly the lines the hash covers
    digest = hashlib.sha256("".join(f"{line}\n" for line in ops).encode())
    assert f"{digest.hexdigest()} {len(ops)}" == RESULT_PIN
