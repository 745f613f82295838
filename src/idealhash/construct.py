"""Build verified ideal families: random balanced sampling, greedy covering,
and the iterative low-exceedance (Yao-style) selection.

All constructions track the still-uncovered key sets as a bitset over the
lexicographically ranked n-subsets and are deterministic given (params, seed,
pool order).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import PoolExhaustedError
from .hashspace import (
    DEFAULT_ENUM_BUDGET,
    Family,
    HashFunction,
    Params,
    function_to_text,
    partition_classes,
)
from .oracle import cell_matrix, cover_mask, exceed_masks, pool_exceed_masks, ranked_key_sets


@dataclass(frozen=True)
class ConstructionLog:
    """Outcome of one construction run, with enough detail to replay it."""

    method: str
    seed: int | None
    rounds: int
    pool_size: int | None
    uncovered_per_round: tuple[int, ...]
    family: Family
    verified: bool
    t: float | None = None
    load_target: int | None = None
    fallback_rounds: tuple[int, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "rounds": self.rounds,
            "pool_size": self.pool_size,
            "uncovered_per_round": list(self.uncovered_per_round),
            "family_size": self.family.size,
            "family": [function_to_text(h) for h in self.family.functions],
            "provenance": self.family.provenance,
            "verified": self.verified,
            "t": self.t,
            "load_target": self.load_target,
            "fallback_rounds": list(self.fallback_rounds),
        }


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
    return HashFunction(tuple(cells), m)


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
    rng = random.Random(seed)
    uncovered = (1 << len(ranked_key_sets(p, budget))) - 1
    chosen: list[HashFunction] = []
    trail: list[int] = []
    for _ in range(max_rounds):
        h = sample_balanced_function(rng, p.u, p.m)
        chosen.append(h)
        uncovered &= ~cover_mask(h, p, budget)
        trail.append(uncovered.bit_count())
        if uncovered == 0:
            break
    return ConstructionLog(
        method="random-seeded",
        seed=seed,
        rounds=len(chosen),
        pool_size=None,
        uncovered_per_round=tuple(trail),
        family=Family(tuple(chosen), provenance="random-seeded"),
        verified=uncovered == 0,
    )


def greedy_cover(
    p: Params,
    pool: Iterable[HashFunction],
    budget: int = DEFAULT_ENUM_BUDGET,
) -> ConstructionLog:
    """Pick, each round, the pool function covering the most uncovered sets.

    Ties break on the lexicographic fiber signature.  Stops when covered, or
    when no pool function adds coverage (unverified log).
    """
    candidates = tuple(pool)
    if not candidates:
        raise ValueError("pool must be non-empty")
    sets = ranked_key_sets(p, budget)
    # A repeat of a partition class has its first member's mask and a later
    # place in the order, so it never wins a round: only first members compete.
    reps, _ = partition_classes(candidates)
    full = (1 << len(sets)) - 1
    masks = [full ^ mk for mk in exceed_masks(cell_matrix(reps, p), sets, p.load_cap)]
    order = sorted(range(len(reps)), key=lambda i: reps[i].partition_signature())
    uncovered = full
    chosen: list[HashFunction] = []
    trail: list[int] = []
    available = set(order)
    while uncovered:
        best_i = None
        best_gain = 0
        for i in order:
            if i not in available:
                continue
            gain = (masks[i] & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        if best_i is None:
            break  # pool exhausted: nothing adds coverage
        available.discard(best_i)
        chosen.append(reps[best_i])
        uncovered &= ~masks[best_i]
        trail.append(uncovered.bit_count())
    if not chosen:
        # nothing helped at all; keep the log shape with the best-signature candidate
        chosen.append(reps[order[0]])
        trail.append(uncovered.bit_count())
    return ConstructionLog(
        method="greedy",
        seed=None,
        rounds=len(chosen),
        pool_size=len(candidates),
        uncovered_per_round=tuple(trail),
        family=Family(tuple(chosen), provenance="greedy"),
        verified=uncovered == 0,
    )


def yao_family(
    p: Params,
    t: float,
    pool: Iterable[HashFunction],
    load_target: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> ConstructionLog:
    """Iteratively pick functions whose exceed-fraction over live sets is <= 1/t.

    A set is live while every chosen function drives its max load above
    load_target.  Each admissible round shrinks the live set by at least the
    factor 1/t; rounds where no pool member meets the threshold fall back to
    the minimum exceed-fraction and are recorded.  Raises PoolExhaustedError
    if the pool empties with live sets remaining.
    """
    if not 1 < t < math.inf:
        raise ValueError("need 1 < t < inf")
    if load_target < math.ceil(p.alpha):
        raise ValueError("load_target below ceil(alpha) is unsatisfiable")
    candidates = list(pool)
    if not candidates:
        raise ValueError("pool must be non-empty")
    exceed = pool_exceed_masks(candidates, p, load_target, budget)
    live = (1 << p.total_sets) - 1
    chosen: list[HashFunction] = []
    trail: list[int] = []
    fallbacks: list[int] = []
    threshold = Fraction(1) / Fraction(t).limit_denominator(10**9)
    while live:
        if not candidates:
            raise PoolExhaustedError(
                f"pool exhausted with {live.bit_count()} live sets remaining"
            )
        live_count = live.bit_count()
        best_i = 0
        best_cnt = (exceed[0] & live).bit_count()
        for i in range(1, len(candidates)):
            cnt = (exceed[i] & live).bit_count()
            if cnt < best_cnt:
                best_cnt = cnt
                best_i = i
        if Fraction(best_cnt, live_count) > threshold:
            fallbacks.append(len(chosen) + 1)
        chosen.append(candidates.pop(best_i))
        live &= exceed.pop(best_i)
        trail.append(live.bit_count())
    return ConstructionLog(
        method="yao",
        seed=None,
        rounds=len(chosen),
        pool_size=len(chosen) + len(candidates),
        uncovered_per_round=tuple(trail),
        family=Family(tuple(chosen), provenance="yao"),
        verified=True,
        t=t,
        load_target=load_target,
        fallback_rounds=tuple(fallbacks),
    )


def yao_effective_params(p: Params, load_target: int) -> Params:
    """Params whose ideality cap equals load_target (c = load_target*m/n)."""
    return Params(p.u, p.m, p.n, Fraction(load_target * p.m, p.n))
