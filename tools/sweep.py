"""Byte sweep: run one fixed list of `idealhash` calls and hash what each prints.

Every call runs in-process through `idealhash.cli.run`.  Its argv, stdout,
stderr and exit code are hashed together with sha256.  The sweep prints one
digest per subcommand and one over every call, so two trees print the same
lines exactly when every call printed the same bytes.

    python3 tools/sweep.py                 # sweep this checkout's src/
    python3 tools/sweep.py --diff PARENT   # also run PARENT's sweep; name the calls that moved, came or went
    python3 tools/sweep.py --tree DIR --calls   # one JSON line per call for DIR/src

--diff runs PARENT/tools/sweep.py over PARENT/src, so each side sweeps its
own call list, and pairs the two by argv: a call both lists hold moved when
its digest differs, and a call in one list only was added or removed.  The
exit code is 1 when any call moved, was added or was removed.  Family files
go to a temporary directory, whose path reads {tmp} in what is hashed, so
sweeps run in different places agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
C_VALUES = ("1", "5/4", "3/2", "2", "7")
SUBCOMMANDS = ("bounds", "report", "exact", "construct", "verify", "simulate", "check-lemmas")


def _bounds_calls():
    for m in (1, 2, 3, 4, 6, 8, 16, 32, 64):
        for n in (m, 2 * m + 1, 4 * m):
            for u in sorted({n, n + 1, 4 * n, 10**3, 10**6, 2**20, 2**40} - set(range(n))):
                for c in C_VALUES:
                    for fmt in ("json", "csv", "table"):
                        yield ["bounds", "--u", str(u), "--m", str(m), "--n", str(n), "--c", c, "--format", fmt]
    for eps in ("1/5", "1/3"):
        yield ["bounds", "--u", "1000", "--m", "4", "--n", "16", "--eps", eps]
        yield ["bounds", "--u", "10", "--m", "2", "--n", "4", "--eps", eps, "--format", "table"]
    yield ["bounds", "--u", "2400", "--m", "1200", "--n", "1200"]  # ceilings past the float range
    yield ["bounds", "--u", "1000000000", "--m", "16", "--n", "20000"]  # counting skipped


def _report_calls():
    grid = ["--u", "2,8,16,256,1000000", "--m", "1,2,4,16", "--n", "1,4,8,33,64", "--c", ",".join(C_VALUES)]
    for fmt in ("csv", "table"):
        yield ["report", *grid, "--format", fmt]
        yield ["report", *grid, "--eps", "1/3", "--format", fmt]
    yield ["report", "--u", "1000000000000", "--m", "16", "--n", "100000000"]


def _exact_calls():
    # at (1000005, 16, 300) fibers 62501 x5 and 62500 x11: two groups meet in the last product
    for u, m, n, c in [(1, 1, 1, "1"), (2, 1, 1, "1"), (8, 2, 4, "1"), (8, 2, 4, "3/2"), (7, 2, 3, "1"),
                       (16, 4, 8, "3/2"), (1000, 3, 7, "5/4"), (1000005, 16, 300, "3/2")]:
        yield ["exact", "--u", str(u), "--m", str(m), "--n", str(n), "--c", c]
    # from (5, 4, 4, "1") on, H = 3, 5, 4, 4, 4, 4, 2: points where pruning or a search budget would change the search
    for u, m, n, c in [(2, 1, 1, "1"), (6, 2, 3, "1"), (7, 2, 3, "1"), (8, 2, 4, "1"), (8, 2, 4, "3/2"), (7, 3, 4, "3/2"),
                       (5, 4, 4, "1"), (6, 4, 4, "1"), (7, 3, 3, "1"), (8, 3, 3, "1"), (9, 3, 3, "1"), (9, 2, 4, "1"),
                       (10, 2, 4, "3/2")]:
        yield ["exact", "--u", str(u), "--m", str(m), "--n", str(n), "--c", c, "--with-hc"]
    yield ["exact", "--u", "8", "--m", "2", "--n", "4", "--with-hc", "--size-limit", "2"]


def _construct_and_verify_calls():
    points = [(8, 2, 4, "1"), (8, 2, 4, "3/2"), (6, 2, 3, "4/3"), (7, 3, 4, "3/2"), (9, 3, 3, "1"),
              (7, 2, 3, "1"), (6, 3, 4, "1")]  # the last two are pigeonhole points: m*floor(c*alpha) < n
    for u, m, n, c in points:
        params = ["--u", str(u), "--m", str(m), "--n", str(n), "--c", c]
        runs = [("random", ["--seed", str(seed)]) for seed in (0, 1)]
        runs += [(method, ["--pool", pool]) for method in ("greedy", "yao") for pool in ("balanced", "all")]
        for method, extra in runs:
            family = "{tmp}/" + "-".join([method, *extra[1:], str(u), str(m), str(n), c.replace("/", "_")]) + ".txt"
            yield ["construct", "--method", method, *params, *extra, "--family-out", family]
            yield ["verify", *params, "--family", family]
    # m*cap = 3 < n: every set exceeds, no key table; pool_size 11550
    yield ["construct", "--method", "greedy", "--u", "11", "--m", "3", "--n", "5"]
    yield ["construct", "--method", "yao", "--u", "10", "--m", "5", "--n", "5", "--t", "1.5"]
    yield ["construct", "--method", "random", "--u", "20", "--m", "4", "--n", "8", "--c", "3/2", "--seed", "3"]
    yield ["construct", "--method", "random", "--u", "7", "--m", "2", "--n", "3", "--max-rounds", "3"]
    yield ["verify", "--u", "8", "--m", "2", "--n", "4", "--family", "{tmp}/bad-cells.txt"]
    yield ["verify", "--u", "8", "--m", "2", "--n", "4", "--family", "{tmp}/no-such-family.txt"]


def _simulate_calls():
    for seed in ("0", "3"):
        yield ["simulate", "--kind", "max-load", "--m", "100", "--n", "1000", "--trials", "200", "--seed", seed]
        yield ["simulate", "--kind", "max-load", "--m", "2", "--n", "1000000", "--trials", "20", "--seed", seed]
        yield ["simulate", "--kind", "ideal-prob", "--u", "1000000", "--m", "16", "--n", "256", "--c", "3/2",
               "--trials", "2000", "--seed", seed]  # the stdlib chain
        yield ["simulate", "--kind", "ideal-prob", "--u", "1000000", "--m", "64", "--n", "1024", "--c", "2",
               "--trials", "5000", "--seed", seed]  # numpy's sampler
        yield ["simulate", "--kind", "ideal-prob", "--u", "16", "--m", "4", "--n", "8", "--c", "3/2",
               "--trials", "2000", "--seed", seed]
    # max-load on either side of the stdlib work bound: m = n = 439 is the largest square it admits
    for m, trials in (("16", "2000"), ("256", "20000"), ("439", "2000"), ("440", "2000")):
        yield ["simulate", "--kind", "max-load", "--m", m, "--n", m, "--trials", trials, "--seed", "3"]


def _check_lemmas_calls():
    for fmt in ("json", "csv", "table"):
        yield ["check-lemmas", "--format", fmt]


def _refusal_calls():
    yield from [
        ["construct", "--method", "greedy", "--pool", "all", "--u", "30000000", "--m", "3", "--n", "3"],
        ["construct", "--method", "random", "--u", "100000000", "--m", "2", "--n", "1000000"],
        ["construct", "--method", "yao", "--u", "8", "--m", "2", "--n", "4", "--t", "1"],
        ["verify", "--u", "100000000", "--m", "2", "--n", "1000000", "--family", "{tmp}/no-such-family.txt"],
        ["exact", "--u", "100000000", "--m", "2", "--n", "1000000"],
        ["exact", "--u", "10", "--m", "2", "--n", "4", "--with-hc", "--pool-budget", "10"],
        ["simulate", "--kind", "max-load", "--m", "1000000", "--n", "1000000000000000000", "--trials", "1"],
        ["simulate", "--kind", "max-load", "--m", "1000000000000000000000000000000", "--n", "1000000", "--trials", "3"],
        ["simulate", "--kind", "max-load", "--m", "4", "--n", "8", "--c", "3/2"],
        ["simulate", "--kind", "ideal-prob", "--m", "4", "--n", "8"],
        ["simulate", "--kind", "max-load", "--m", "4", "--n", "8", "--seed", "-1"],
        ["bounds", "--u", "8", "--m", "2", "--n", "4", "--eps", "1e400"],
        ["bounds", "--u", "16", "--m", "2", "--n", "4", "--eps", "-1/3"],
        ["bounds", "--u", "8", "--m", "4", "--n", "2"],
        ["bounds", "--u", "3", "--m", "2", "--n", "4"],
        ["bounds", "--u", "8", "--m", "2", "--n", "4", "--c", "1/2"],
        ["report", "--u", "8", "--m", "2", "--n", "4", "--eps", "1"],
    ]


def _usage_calls():
    yield from [
        [],
        ["bogus"],
        ["bounds", "--m", "2", "--n", "4"],
        ["bounds", "--u", "8", "--m", "2", "--n", "4", "--c", "x"],
        ["bounds", "--u", "8", "--m", "2", "--n", "4", "--format", "xml"],
        ["construct", "--method", "bogus", "--u", "8", "--m", "2", "--n", "4"],
        ["report", "--u", "a", "--m", "2", "--n", "4"],
        ["check-lemmas", "--format", "yaml"],
    ]


def _pinned_calls():
    """Single calls, each chosen for the case its comment names."""
    greedy = ["construct", "--method", "greedy", "--u", "8", "--m", "2", "--n", "4"]
    report = ["report", "--u", "8,16,256", "--m", "2,4", "--n", "4,8", "--c", "1,3/2"]
    yield from [
        ["exact", "--u", "8", "--m", "2", "--n", "4"],
        ["bounds", "--u", "64", "--m", "4", "--n", "8", "--c", "3/2"],
        ["bounds", "--u", "16", "--m", "4", "--n", "4", "--format", "table"],
        # lower.fk and upper.fk valid, log2 column printed
        ["bounds", "--u", "1000000", "--m", "30", "--n", "30", "--format", "table"],
        ["bounds", "--u", "10", "--m", "2", "--n", "4", "--eps", "1/3"],  # nonzero epsilon
        # c >= m: every advice field is 0 with the one note, lower.main null
        ["bounds", "--u", "16", "--m", "2", "--n", "4", "--c", "2"],
        # a 6,264-digit M_c, past the exact command's int->str limit
        ["bounds", "--u", "1000000", "--m", "16", "--n", "2000", "--c", "3/2"],
        # m < 2 universe note; the u >= 2 notes of upper.main, upper.naor and upper.prob.loose
        ["bounds", "--u", "1", "--m", "1", "--n", "1"],
        ["bounds", "--u", "4", "--m", "2", "--n", "4", "--c", "2"],  # u <= c*alpha universe note; mehlhorn needs c = 1
        # both cap-below-ceil(alpha) notes; no upper entry or upper advice field applies
        ["bounds", "--u", "6", "--m", "2", "--n", "3"],
        greedy,
        greedy + ["--family-out", "{tmp}/pinned-greedy.txt"],
        ["verify", "--u", "8", "--m", "2", "--n", "4", "--family", "{tmp}/pinned-greedy.txt"],
        ["construct", "--method", "yao", "--u", "8", "--m", "2", "--n", "4", "--t", "2.0"],
        ["construct", "--method", "random", "--u", "10", "--m", "2", "--n", "4", "--c", "3/2", "--seed", "3"],
        ["construct", "--method", "yao", "--u", "9", "--m", "3", "--n", "3", "--t", "8"],  # fallback rounds [1, 2, 3]
        ["construct", "--method", "greedy", "--u", "6", "--m", "2", "--n", "2", "--pool", "all"],
        # cap 1 < ceil(4/3): all 35 sets stay uncovered
        ["construct", "--method", "greedy", "--u", "7", "--m", "3", "--n", "4"],
        ["construct", "--method", "yao", "--u", "7", "--m", "2", "--n", "3"],  # m*cap = 2 < n: one member, verified false, exit 0
        # kernel path over 945 partitions; pool_size 113400
        ["construct", "--method", "yao", "--u", "10", "--m", "5", "--n", "5", "--t", "2.0"],
        ["simulate", "--kind", "max-load", "--m", "64", "--n", "64", "--trials", "500", "--seed", "7"],
        ["simulate", "--kind", "ideal-prob", "--u", "16", "--m", "4", "--n", "8", "--c", "3/2", "--trials", "2000", "--seed", "5"],
        ["check-lemmas"],
        report + ["--format", "csv"],
        report,  # no --format: the same stdout as the csv call
        report + ["--format", "table"],
    ]


def calls() -> list[list[str]]:
    groups = (_bounds_calls, _report_calls, _exact_calls, _construct_and_verify_calls, _simulate_calls,
              _check_lemmas_calls, _refusal_calls, _usage_calls, _pinned_calls)
    return [argv for group in groups for argv in group()]


def sweep(tree: Path) -> list[tuple[list[str], str]]:
    """(argv, sha256 over argv, stdout, stderr and exit code) for each call, run against tree/src."""
    sys.path.insert(0, str(tree / "src"))
    from idealhash.cli import run

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "bad-cells.txt").write_text("1 2 3 1 2 1 2 1\n", encoding="utf-8")
        for argv in calls():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run([a.replace("{tmp}", tmp) for a in argv])
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
            record = [argv, out.getvalue().replace(tmp, "{tmp}"), err.getvalue().replace(tmp, "{tmp}"), code]
            results.append((argv, hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()))
    return results


def _digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def compare(results, parent) -> dict[str, list[list[str]]]:
    """The calls that moved, were added or were removed going from parent to results.

    Both are lists of (argv, digest) and are paired by argv, so a call
    inserted or deleted in the middle of the list moves no other call.
    Moved and added calls keep the order of results, removed ones that of
    parent.
    """
    old = {tuple(argv): digest for argv, digest in parent}
    new = {tuple(argv) for argv, _ in results}
    return {
        "moved": [argv for argv, digest in results if old.get(tuple(argv), digest) != digest],
        "added": [argv for argv, _ in results if tuple(argv) not in old],
        "removed": [argv for argv, _ in parent if tuple(argv) not in new],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--tree", type=Path, default=HERE, help="checkout whose src/ is swept (default: this one)")
    ap.add_argument("--calls", action="store_true", help="print one JSON line per call instead of the digests")
    ap.add_argument("--diff", type=Path, metavar="PARENT_TREE", help="also run PARENT_TREE's own sweep; name moved, added and removed calls")
    args = ap.parse_args()
    results = sweep(args.tree)
    if args.calls:
        for argv, digest in results:
            print(json.dumps({"argv": argv, "digest": digest}))
        return 0
    groups: dict[str, list[str]] = {}
    for argv, digest in results:
        groups.setdefault(argv[0] if argv and argv[0] in SUBCOMMANDS else "(usage)", []).append(digest)
    for name, digests in groups.items():
        print(f"{name:<13} {len(digests):>5} calls  {_digest(digests)}")
    print(f"{'all':<13} {len(results):>5} calls  {_digest(d for _, d in results)}")
    if args.diff is None:
        return 0
    argv = [sys.executable, str(args.diff / "tools" / "sweep.py"), "--tree", str(args.diff), "--calls"]
    child = subprocess.run(argv, capture_output=True, text=True, check=True)
    parent = [(row["argv"], row["digest"]) for row in map(json.loads, child.stdout.splitlines())]
    changes = compare(results, parent)
    for kind, changed in changes.items():
        for call in changed:
            print(f"{kind}: idealhash " + " ".join(call))
    counts = ", ".join(f"{len(changed)} {kind}" for kind, changed in changes.items())
    print(f"{counts} of {len(results)} calls against {len(parent)} in {args.diff}")
    return 1 if any(changes.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
