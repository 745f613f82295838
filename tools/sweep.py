"""Byte sweep: run one fixed list of `idealhash` calls and print a digest of each.

Every call runs in-process through `idealhash.cli.run`.  Its argv, stdout,
stderr and exit code are hashed together with sha256.  The sweep prints one
line per call, in list order: the first 16 hex digits of that digest, then
`idealhash` and the argv.  No argv word is empty or holds whitespace, so each
line splits back into its call.  `tools/sweep.digests` holds the lines this
checkout's `src/` prints, and `tests/test_sweep.py` fails, naming each call
that moved, was added or was removed, when the sweep prints anything else.

    python3 tools/sweep.py | diff tools/sweep.digests -   # name the calls whose bytes moved
    python3 tools/sweep.py > tools/sweep.digests          # re-record after a deliberate byte change

Family files go to a temporary directory, whose path reads {tmp} in what is
hashed, so sweeps run in different places agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
C_VALUES = ("1", "5/4", "3/2", "2", "7")


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
    # ceilings past the float range: upper.main and upper.prob.* ceilings are null
    yield ["bounds", "--u", "2400", "--m", "1200", "--n", "1200"]
    yield ["bounds", "--u", "1000000000", "--m", "16", "--n", "20000"]  # counting skipped: n * log2(u) beyond desk scale


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
        # the stdlib inversion sampler: m = n = 64 is below its work bound
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


def sweep() -> list[tuple[list[str], str]]:
    """(argv, the first 16 hex digits of sha256 over argv, stdout, stderr and exit code) for each call."""
    sys.path.insert(0, str(HERE / "src"))
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
            results.append((argv, hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()[:16]))
    return results


def render(results) -> str:
    """The sweep's lines for a list of (argv, digest): `<digest> idealhash <argv...>`."""
    return "".join(" ".join([digest, "idealhash", *argv]) + "\n" for argv, digest in results)


def parse(text: str) -> list[tuple[list[str], str]]:
    """The (argv, digest) list that render turned into text."""
    return [(argv, digest) for digest, _, *argv in (line.split(" ") for line in text.splitlines())]


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


if __name__ == "__main__":
    sys.stdout.write(render(sweep()))
