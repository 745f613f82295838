"""Build verified ideal families: random balanced sampling, greedy covering,
and the iterative low-exceedance (Yao-style) selection.

All constructions track the still-uncovered key sets as a bitset over the
lexicographically ranked n-subsets and are deterministic given (params, seed,
pool order).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .hashspace import (
    DEFAULT_ENUM_BUDGET,
    HashFunction,
    Params,
    function_to_text,
)
from .oracle import check_set_budget, cover_mask, exceed_masks


class ConstructionLog(NamedTuple):
    """Outcome of one construction run, with enough detail to replay it."""

    method: str
    seed: int | None
    rounds: int
    pool_size: int | None
    uncovered_per_round: tuple[int, ...]
    family: tuple[HashFunction, ...]
    verified: bool
    t: float | None = None
    load_target: int | None = None
    fallback_rounds: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "family_size": len(self.family),
            "family": [function_to_text(h) for h in self.family],
            "provenance": self.method,
        }


def _log(method: str, chosen: list[HashFunction], trail: list[int], **rest) -> ConstructionLog:
    """The log of a run that chose `chosen`, one member per round."""
    return ConstructionLog(
        method=method,
        rounds=len(chosen),
        uncovered_per_round=tuple(trail),
        family=tuple(chosen),
        **rest,
    )


def sample_balanced_function(rng: random.Random, u: int, m: int) -> HashFunction:
    """One uniformly random balanced function.

    Uniformity comes from two independent choices: which cells receive the
    larger fibers, and a Fisher-Yates shuffle of the keys dealt into the
    fibers in order.
    """
    q, r = divmod(u, m)
    big_cells = set(rng.sample(range(1, m + 1), r)) if r else set()
    keys = list(range(1, u + 1))
    rng.shuffle(keys)
    cells = [0] * u
    pos = 0
    for cell in range(1, m + 1):
        size = q + 1 if cell in big_cells else q
        for key in keys[pos : pos + size]:
            cells[key - 1] = cell
        pos += size
    return HashFunction(tuple(cells))


def random_balanced_family(
    p: Params,
    seed: int,
    max_rounds: int = 64,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> ConstructionLog:
    """Append uniformly random balanced functions until every key set is covered.

    Stops early on success; returns an unverified log when max_rounds runs out.
    """
    if max_rounds < 1:
        raise ValueError("need max_rounds >= 1")
    check_set_budget(p, budget)
    rng = random.Random(seed)
    uncovered = (1 << p.total_sets) - 1
    chosen: list[HashFunction] = []
    trail: list[int] = []
    for _ in range(max_rounds):
        h = sample_balanced_function(rng, p.u, p.m)
        chosen.append(h)
        uncovered &= ~cover_mask(h, p, budget)
        trail.append(uncovered.bit_count())
        if uncovered == 0:
            break
    return _log("random-seeded", chosen, trail, seed=seed, pool_size=None, verified=uncovered == 0)


def _select(
    p: Params, candidates: tuple[HashFunction, ...], budget: int
) -> tuple[list[HashFunction], list[int], int]:
    """Pick pool members while live key sets remain.

    Every set starts live; a pick keeps live only the sets it hashes with a
    max load above p.load_cap.  Each round takes the member that keeps the
    fewest, the first in candidate order on ties, and the run stops when
    nothing is live or no member shrinks the live set.
    A repeated partition that follows its first member never wins: it never
    strictly improves on it.  Nor does a pick win twice: it keeps every set
    that stays live.
    Returns the picks, the live count after each, and the live bitset; a run
    where no member shrinks the live set picks the first member, so
    candidates must not be empty.
    """
    exceed = exceed_masks(candidates, p, budget)
    live = (1 << p.total_sets) - 1
    picks: list[HashFunction] = []
    trail: list[int] = []
    while live:
        best, kept = None, live.bit_count()
        for i, mask in enumerate(exceed):
            cnt = (mask & live).bit_count()
            if cnt < kept:
                best, kept = i, cnt
        if best is None:
            break
        picks.append(candidates[best])
        live &= exceed[best]
        trail.append(kept)
    if not picks:  # nothing shrinks the live set; a log still holds one member
        picks.append(candidates[0])
        trail.append(live.bit_count())
    return picks, trail, live


def greedy_cover(
    p: Params,
    pool: Iterable[HashFunction],
    budget: int = DEFAULT_ENUM_BUDGET,
) -> ConstructionLog:
    """Pick, each round, the pool function covering the most uncovered sets.

    Ties break on the partition signature: the pool is stably sorted by it, so
    a repeated partition trails its first member.  Stops when covered, or
    when no pool function adds coverage (unverified log).
    """
    candidates = tuple(sorted(pool, key=HashFunction.partition_signature))
    chosen, trail, uncovered = _select(p, candidates, budget)
    return _log("greedy", chosen, trail, seed=None, pool_size=len(candidates), verified=uncovered == 0)


def yao_family(
    p: Params,
    t: float,
    pool: Iterable[HashFunction],
    budget: int = DEFAULT_ENUM_BUDGET,
) -> ConstructionLog:
    """Pick, each round, the pool member leaving the fewest live sets.

    A set is live while every chosen function drives its max load above the
    c-ideal cap floor(c*alpha), which the log records as load_target.  The
    pick is greedy's rule with ties in pool order, so t changes no pick: it
    only records as fallback_rounds the rounds that kept more than a 1/t
    fraction of the live sets.  If no pool member shrinks the live set while
    live sets remain, it returns an unverified log, as greedy does.
    """
    if not 1 < t < math.inf:
        raise ValueError("need 1 < t < inf")
    candidates = tuple(pool)
    chosen, trail, live = _select(p, candidates, budget)
    threshold = Fraction(1) / Fraction(t).limit_denominator(10**9)
    before = [p.total_sets] + trail
    fallbacks = tuple(r for r, after in enumerate(trail, 1) if Fraction(after, before[r - 1]) > threshold)
    return _log(
        "yao",
        chosen,
        trail,
        seed=None,
        pool_size=len(candidates),
        verified=live == 0,
        t=t,
        load_target=p.load_cap,
        fallback_rounds=fallbacks,
    )

