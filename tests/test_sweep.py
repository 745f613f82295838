"""The byte pin on CLI output: `tools/sweep.py` prints the digests committed in `tools/sweep.digests`.

The sweep hashes argv, stdout, stderr and exit code of every call in its list.
A deliberate byte change rewrites the digest file from the sweep's output and
names the moved calls that `tools/sweep.py --diff PARENT_TREE` prints.
"""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_sweep_prints_the_committed_digests():
    got = subprocess.run([sys.executable, str(TOOLS / "sweep.py")], capture_output=True, check=True).stdout
    want = (TOOLS / "sweep.digests").read_bytes()
    moved = {line.split()[0] for line in set(got.decode().splitlines()) ^ set(want.decode().splitlines())}
    assert got == want, (
        f"sweep digests moved for {', '.join(sorted(moved))}; "
        "run `python3 tools/sweep.py --diff PARENT_TREE` to name the calls"
    )
