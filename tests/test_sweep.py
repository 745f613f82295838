"""The byte pin on CLI output: `tools/sweep.py` prints the digests committed in `tools/sweep.digests`.

The sweep hashes argv, stdout, stderr and exit code of every call in its list.
A deliberate byte change rewrites the digest file from the sweep's output and
names the moved calls that `tools/sweep.py --diff PARENT_TREE` prints.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _sweep_module():
    spec = importlib.util.spec_from_file_location("sweep", TOOLS / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _sweep_module()


def test_sweep_prints_the_committed_digests():
    got = subprocess.run([sys.executable, str(TOOLS / "sweep.py")], capture_output=True, check=True).stdout
    want = (TOOLS / "sweep.digests").read_bytes()
    moved = {line.split()[0] for line in set(got.decode().splitlines()) ^ set(want.decode().splitlines())}
    assert got == want, (
        f"sweep digests moved for {', '.join(sorted(moved))}; "
        "run `python3 tools/sweep.py --diff PARENT_TREE` to name the calls"
    )


def test_every_call_has_its_own_argv():
    # --diff pairs the two sweeps by argv, so no two calls may share one
    argvs = [tuple(argv) for argv in sweep.calls()]
    assert len(set(argvs)) == len(argvs)


def test_diff_pairs_calls_by_argv():
    a, b, c, d = (["bounds", "--u", str(u)] for u in (1, 2, 3, 4))
    parent = [(a, "0"), (b, "1"), (c, "2")]
    # b deleted from the middle, d inserted before c: neither shifts c, and a's digest moved
    results = [(a, "9"), (d, "3"), (c, "2")]
    assert sweep.compare(results, parent) == {"moved": [a], "added": [d], "removed": [b]}
    assert sweep.compare(parent, parent) == {"moved": [], "added": [], "removed": []}


def test_diff_keeps_the_unmatched_tail():
    # pairing by position would drop the calls past the shorter list
    a, b, c = (["exact", "--u", str(u)] for u in (1, 2, 3))
    assert sweep.compare([(a, "0"), (b, "1"), (c, "2")], [(a, "0")])["added"] == [b, c]
    assert sweep.compare([(a, "0")], [(a, "0"), (b, "1"), (c, "2")])["removed"] == [b, c]
