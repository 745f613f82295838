"""The benchmark's workloads: fixed lists of `idealhash` CLI calls.

Each call names the subcommand group whose time it adds to and the output
check its stdout must pass (see `outputs.py`).  A call may carry
`known_defect`: the reason it fails at the commit that introduced the
benchmark.  Such a call still runs and is still checked; its failure is
counted in `fail_frac`/`ok_frac` but not as an unexpected failure.

`small=True` gives reduced-size variants of the same lists for the
benchmark's self-tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("families", "counting", "montecarlo")

# subcommand groups; a call's wall time adds to `<group>_s`
GROUPS = (
    "construct",
    "verify",
    "exact",
    "bounds",
    "report",
    "check_lemmas",
    "ideal_prob",
    "max_load",
)

ROADMAP_ITEM_3 = "ROADMAP item 3: ln(1-p) cancels catastrophically in upper.prob.tight"


@dataclass(frozen=True)
class Call:
    """One CLI invocation and how to judge its stdout."""

    name: str
    argv: tuple[str, ...]
    group: str
    check: tuple  # (kind, *details), interpreted by outputs.check_call
    known_defect: str | None = None


def write_unbalanced_family(path: Path, seed: int, u: int, m: int, size: int, block: int) -> None:
    """A seeded family of `size` unbalanced functions that is not ideal.

    Every member sends the same `block` keys (drawn from the seed) into one
    cell, so any key set holding all of them overflows a load cap of
    `block - 1` under every member.  The other keys land uniformly at random.
    """
    rng = random.Random(seed)
    shared = rng.sample(range(u), block)
    lines = []
    for _ in range(size):
        cells = [rng.randrange(1, m + 1) for _ in range(u)]
        heavy = rng.randrange(1, m + 1)
        for key in shared:
            cells[key] = heavy
        lines.append(" ".join(str(c) for c in cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _families(seed: int, work: Path, small: bool) -> list[Call]:
    s = str(seed)
    greedy_fam = str(work / "greedy.txt")
    random_fam = str(work / "random.txt")
    unbalanced_fam = work / "unbalanced.txt"
    if small:
        greedy_u, rand, unb, exact_u = (8, 2, 4), (10, 2, 4), (10, 2, 4, 3, 4), (6, 2, 4)
    else:
        greedy_u, rand, unb, exact_u = (13, 2, 6), (20, 4, 8), (20, 4, 8, 6, 4), (9, 2, 4)
    u, m, n, size, block = unb
    write_unbalanced_family(unbalanced_fam, seed, u, m, size, block)
    gu, gm, gn = (str(x) for x in greedy_u)
    ru, rm, rn = (str(x) for x in rand)
    calls = []
    if not small:
        calls.append(Call("construct-greedy-u11", ("construct", "--method", "greedy", "--u", "11", "--m", "3", "--n", "5"), "construct", ("digest",)))
    calls += [
        Call(f"construct-greedy-u{gu}", ("construct", "--method", "greedy", "--u", gu, "--m", gm, "--n", gn, "--family-out", greedy_fam), "construct", ("digest",)),
        Call(f"construct-yao-u{gu}", ("construct", "--method", "yao", "--u", gu, "--m", gm, "--n", gn, "--t", "2.0"), "construct", ("digest",)),
        Call("construct-greedy-pool-all", ("construct", "--method", "greedy", "--u", "10" if not small else "6", "--m", "2", "--n", "4" if not small else "2", "--pool", "all"), "construct", ("digest",)),
        Call(f"construct-random-u{ru}", ("construct", "--method", "random", "--u", ru, "--m", rm, "--n", rn, "--c", "3/2", "--seed", s, "--family-out", random_fam), "construct", ("random_construct",)),
        Call(f"exact-u{exact_u[0]}-hc", ("exact", "--u", str(exact_u[0]), "--m", str(exact_u[1]), "--n", str(exact_u[2]), "--with-hc"), "exact", ("digest",)),
        Call(f"verify-greedy-u{gu}", ("verify", "--u", gu, "--m", gm, "--n", gn, "--family", greedy_fam), "verify", ("digest",)),
        Call(f"verify-random-u{ru}", ("verify", "--u", ru, "--m", rm, "--n", rn, "--c", "3/2", "--family", random_fam), "verify", ("ideal_family",)),
        Call(f"verify-unbalanced-u{u}", ("verify", "--u", str(u), "--m", str(m), "--n", str(n), "--c", "3/2", "--family", str(unbalanced_fam)), "verify", ("not_ideal_family", str(unbalanced_fam))),
    ]
    return calls


def _counting(small: bool) -> list[Call]:
    big = ("--u", "1000000", "--m", "16")
    exact_n = "1000" if not small else "300"
    report_u = "64,256,4096,1048576" if not small else "64,4096"
    return [
        Call(f"exact-n{exact_n}", ("exact", *big, "--n", exact_n, "--c", "3/2"), "exact", ("digest",)),
        Call("bounds-n600", ("bounds", *big, "--n", "600", "--c", "3/2"), "bounds", ("bounds", "n600")),
        Call("bounds-n128-c1", ("bounds", *big, "--n", "128", "--c", "1"), "bounds", ("bounds", "n128"),
             known_defect=ROADMAP_ITEM_3 + " (13.5% low, no warning)"),
        Call("bounds-n256-c1", ("bounds", *big, "--n", "256", "--c", "1"), "bounds", ("bounds", "n256"),
             known_defect=ROADMAP_ITEM_3 + " (ln rounds to 0.0: ZeroDivisionError traceback)"),
        Call("report-grid", ("report", "--u", report_u, "--m", "4,8,16", "--n", "16,64", "--c", "1,3/2,2"), "report", ("report",)),
        Call("check-lemmas", ("check-lemmas",), "check_lemmas", ("digest",)),
    ]


def _montecarlo(seed: int, small: bool) -> list[Call]:
    s = str(seed)
    div = 10 if small else 1

    def sim(name, kind, args, trials, ref):
        group = "ideal_prob" if kind == "ideal-prob" else "max_load"
        argv = ("simulate", "--kind", kind, *args, "--trials", str(trials // div), "--seed", s)
        return Call(name, argv, group, ("estimate", ref))

    return [
        sim("ideal-prob-u1000000", "ideal-prob", ("--u", "1000000", "--m", "16", "--n", "256", "--c", "3/2"), 5000, "ideal_prob_u1000000"),
        sim("ideal-prob-u4096", "ideal-prob", ("--u", "4096", "--m", "8", "--n", "64", "--c", "3/2"), 20000, "ideal_prob_u4096"),
        sim("max-load-m16384", "max-load", ("--m", "16384", "--n", "16384"), 2000, "max_load_m16384"),
        sim("max-load-m256", "max-load", ("--m", "256", "--n", "256"), 20000, "max_load_m256"),
    ]


def build(workload: str, seed: int, work: Path, small: bool = False) -> list[Call]:
    """The call list of `workload`, with any input files written under `work`."""
    if workload == "families":
        return _families(seed, work, small)
    if workload == "counting":
        return _counting(small)
    if workload == "montecarlo":
        return _montecarlo(seed, small)
    raise ValueError(f"unknown workload {workload!r}")
