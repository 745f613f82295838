"""The byte pin on CLI output: `tools/sweep.py` prints the lines committed in `tools/sweep.digests`.

The sweep hashes argv, stdout, stderr and exit code of every call in its list
and prints one line per call.  On a mismatch the test names each call that
moved, was added or was removed, by argv.  A deliberate byte change re-records
the file with `python3 tools/sweep.py > tools/sweep.digests`, and the file's
diff names the same calls.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
DIGESTS = TOOLS / "sweep.digests"


def _sweep_module():
    spec = importlib.util.spec_from_file_location("sweep", TOOLS / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _sweep_module()


def _changed_calls(got: str, want: str) -> str:
    changes = sweep.compare(sweep.parse(got), sweep.parse(want))
    named = [f"{kind}: idealhash {' '.join(argv)}" for kind, changed in changes.items() for argv in changed]
    return "\n".join(["sweep lines differ from tools/sweep.digests", *named])


def test_sweep_prints_the_committed_digests():
    got = subprocess.run([sys.executable, str(TOOLS / "sweep.py")], capture_output=True, check=True, timeout=120).stdout
    want = DIGESTS.read_bytes()
    assert got == want, _changed_calls(got.decode(), want.decode())


def test_committed_lines_are_the_calls_in_order():
    text = DIGESTS.read_text(encoding="utf-8")
    rows = sweep.parse(text)
    assert sweep.render(rows) == text
    assert all(re.fullmatch("[0-9a-f]{16}", digest) for _, digest in rows)
    assert [argv for argv, _ in rows] == sweep.calls()


def test_a_mismatch_names_each_moved_added_and_removed_call():
    want = DIGESTS.read_text(encoding="utf-8")
    rows = sweep.parse(want)
    (moved, digest), (removed, _) = rows[0], rows[1]
    added = ["exact", "--u", "9", "--m", "9", "--n", "9"]
    tampered = [(moved, format(int(digest, 16) ^ 1, "016x")), *rows[2:], (added, "0" * 16)]
    message = _changed_calls(sweep.render(tampered), want).splitlines()
    assert message[1:] == [
        "moved: idealhash " + " ".join(moved),
        "added: idealhash " + " ".join(added),
        "removed: idealhash " + " ".join(removed),
    ]


def test_every_call_has_its_own_argv():
    # argv is the key of tools/sweep.digests, so no two calls may share one
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
