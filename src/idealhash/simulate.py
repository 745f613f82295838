"""Monte Carlo behavior beyond exact enumeration: max-load means and
ideality probability estimates.

RNG contract: each call draws all its trials from one seeded stream, so a
seed fixes the output bytes.  Max-load at or below its work bound
(_TMAX_WORK) and ideal-prob at or below the chain's (_CHAIN_WORK) draw from
random.Random(seed).random(), whose sequence Python keeps across versions.
Above those bounds both draw from one numpy PCG64 stream seeded through
SeedSequence(seed, spawn_key=(0,)); those bytes hold for the numpy version
the sweep digests were recorded with.  Either way a seed must be
non-negative.  A seeded numpy max-load estimate also depends on the fixed
rule that sizes its batches, since each batch is one set of draws.

Max load below the bound (inversion of the exact law, _max_load_counts).
A trial's maximum is one uniform looked up in the table of
F(t) = P(T_max <= t), built by _tmax_cdf from the exact `p_tmax_le` and, in
the far tail, from 1 - m P(one cell > t), which is within one ulp there.
The law is exact up to the float rounding of F, and a call keeps one count
per load, so memory does not grow with the trials.

Max load above the bound (Poissonization with an exact correction,
Mitzenmacher & Upfal, Probability and Computing, ch. 5).  A trial draws
independent Poisson(n/m) loads for the m cells, redrawing them while their total S exceeds n, and then
throws only the n - S missing balls uniformly, about 0.8*sqrt(n) of them.
Given S = s the Poisson loads are multinomial over s throws, so adding n - s
uniform throws makes them multinomial over n: the law of n throws.  The
rejection conditions on S alone and so adds no bias.  Cells are exchangeable,
so the loads are drawn as an occupancy histogram, one multinomial row of how
many cells hold each load j in the window where m times the Poisson mass of j
is at least 2^-64; when that window is wider than m, the m loads are drawn
one per cell instead.  The missing throws land on cells through the
histogram's cumulative counts, one sort finds the cells they share, and the
trial's maximum is the top occupied load or the new load of a hit cell.  The
only departures from the exact law are the float rounding of the class
probabilities and the cut below 2^-64, the precision of numpy's binomial and
hypergeometric samplers.  A trial costs O(min(m, window) + sqrt(n)); a batch
of trials holds about _SLICE/4 histogram cells and missing throws, so scratch
memory does not grow with m.  A trial holds all its missing throws at once,
so n is capped at 2^40, where three trials peak below 100 MiB (tracemalloc).
"""

from __future__ import annotations

import bisect
import math
import random
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .combinatorics import power_steps
from .hashspace import Params, balanced_fiber_sizes

if TYPE_CHECKING:  # numpy is imported where the samplers run, so other commands start without it
    import numpy as np


# Elements per numpy call: load cells of ideal-prob above _CHAIN_WORK, and four
# times a max-load batch's occupancy blocks plus missing throws.  One such
# int64 array is 2 MiB; max-load at m = n = 16384 peaks at about 40 MB RSS
# (x86-64 Linux), 27 MB of it numpy's import.  The chain holds one group's
# uniforms at a time, fewer than _CHAIN_WORK floats.
_SLICE = 2**18

# Ideal-prob runs the stdlib chain where _chain_work is at most this, and numpy
# above it: 2^20 chain steps take about as long as importing numpy.random
# (~0.16 s), which only the numpy path pays.
_CHAIN_WORK = 2**20

# Max-load inverts the exact law of the maximum where _tmax_work is at most
# this, and draws with numpy above it: at 2^23 the exact table takes at most
# about as long as importing numpy (60-90 ms), which only the numpy path pays.
_TMAX_WORK = 2**23

# The chain's tables keep the mass at least this fraction of the mode's: the
# 2^-64 cut the max-load window makes.
_CUT = 2.0**-64


class Estimate(NamedTuple):
    """Sample mean with a 95% interval half-width and replay metadata."""

    mean: float
    ci95_halfwidth: float
    trials: int
    seed: int
    method: str = "normal"


def _stream(seed: int) -> np.random.Generator:
    import numpy as np

    # spawn_key=(0,) is the stream seeded estimates have always drawn from, so their output stays byte-identical
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))


def estimate_max_load(n: int, m: int, trials: int, seed: int) -> Estimate:
    """Mean maximum cell load of n uniform throws into m cells.

    Where _tmax_work(n, m) is at most _TMAX_WORK, each trial's maximum is
    drawn by inverting its exact law in the stdlib (_max_load_counts), so the
    call never imports numpy; above it numpy's Poissonization sampler
    (_max_loads) draws them.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if n > 2**40:  # a numpy trial holds its ~0.8 sqrt(n) missing throws at once
        raise ValueError("max-load sampling needs n <= 2^40")
    if seed < 0:  # numpy's SeedSequence refusal; random.Random(-s) would reuse the stream of s
        raise ValueError("expected non-negative integer")
    if _tmax_work(n, m) <= _TMAX_WORK:
        lo, counts = _max_load_counts(n, m, trials, seed)
        s1 = sum(c * t for t, c in enumerate(counts, lo))
        s2 = sum(c * t * t for t, c in enumerate(counts, lo))
        mean = s1 / trials
        std = math.sqrt((trials * s2 - s1 * s1) / (trials * (trials - 1))) if trials > 1 else 0.0
    elif m >= 2**63:  # numpy draws cell indices and per-cell loads as int64
        raise ValueError("max-load past the work bound needs m < 2^63")
    else:
        values = _max_loads(n, m, trials, seed).astype(float)
        mean = float(values.mean())
        std = float(values.std(ddof=1)) if trials > 1 else 0.0
    return Estimate(mean, 1.96 * std / math.sqrt(trials), trials, seed)


def _tmax_work(n: int, m: int) -> float:
    """An upper estimate of _tmax_cdf's work in word operations, from (n, m) alone.

    Most of it is the `p_tmax_le` calls, one per t from ceil(n/m) while
    C(m, 2) p1^2 >= 2^-54, p1 = P(Bin(n, 1/m) > t).  The Chernoff bound
    p1 <= exp(-n KL((t+1)/n || 1/m)) ends that window no earlier than
    _tmax_cdf does.  A call raises a degree-t polynomial to the m-th power:
    `power_steps` big products (the cheaper order's, in Miller's units), each
    on about 16 + (m lg(t!) + n lg m)/64 words.  The binomial terms, about
    twice as many as the window's end, are products of up to n lg m bits.
    The sum stops once it passes _TMAX_WORK, so a large n costs a few terms.

    Fit (best of 2 or 3 _tmax_cdf builds, 2-core x86-64 VM, Python 3.11): the
    table took 1.5-9 ns per unit of W wherever it took over 10 ms, so
    W <= 2^23 keeps it under about 75 ms.  m = n = 439 is the largest square
    admitted.

        (n, m)          W        ms      (n, m)          W        ms
        (64, 64)        0.13M    1.1     (440, 440)      past     36
        (256, 256)      2.3M     14      (512, 512)      past     47
        (439, 439)      8.4M     38      (400, 16)       past     32
        (256, 16)       4.4M     13      (700, 2)        past     26
        (500, 2)        8.0M     11      (400, 7)        past     39
        (400, 3)        6.0M     28      (1000, 16)      past     147
        (300, 7)        4.5M     22      (1000, 7)       past     363
        (300, 64)       6.6M     33      (1000, 64)      past     716
        (300, 128)      4.8M     22      (1000, 10^4)    past     160
        (450, 10^4)     5.3M     42      (1024, 1024)    past     190
        (1000, 10^9)    1.8M     8
    """
    bits = n * math.log2(m)  # of m^n, every probability's denominator
    work, t = 0.0, -(-n // m)
    while t < n and work <= _TMAX_WORK:
        q = (t + 1) / n
        kl = q * math.log(q * m) + ((1 - q) * math.log((1 - q) * m / (m - 1)) if q < 1 else 0.0)
        if m * (m - 1) / 2 * math.exp(-2 * n * kl) < 2.0**-54:
            break
        miller, chain = power_steps(t, m, n)
        work += min(miller, 2 * chain) * (16 + (m * math.lgamma(t + 1) / math.log(2) + bits) / 64)
        t += 1
    return work + (2 * t + 2) * (bits / 64) ** 2


def _tmax_cdf(n: int, m: int) -> tuple[int, list[float]]:
    """(lo, [F(lo), ..., F(hi)]) for F(t) = P(T_max <= t), lo = ceil(n/m), F(hi) = 1.0.

    With p1 = P(Bin(n, 1/m) > t) for one cell's load, Bonferroni's
    inequalities give 1 - m p1 <= F(t) <= 1 - m p1 + C(m, 2) P(two given
    cells > t), and negative association of multinomial counts (Dubhashi &
    Ranjan, Balls and bins: a study in negative dependence, 1998) bounds that
    last probability by p1^2.  So F(t) is float(p_tmax_le) while
    C(m, 2) p1^2 >= 2^-54, then the float of 1 - m p1, which lies within
    2^-54 of F(t) and so within one ulp of its float; the table ends at the
    first t with m p1 < 2^-54, where both round to 1.0.  p1 is exact: a
    running sum of binomial terms over m^n.
    """
    from .distributions import p_tmax_le  # here, so ideal-prob runs do not load it

    if m == 1:
        return n, [1.0]
    lo = -(-n // m)
    total = m**n
    below = sum(math.comb(n, k) * (m - 1) ** (n - k) for k in range(lo))
    pairs = m * (m - 1) // 2
    cdf = []
    for t in range(lo, n + 1):
        below += math.comb(n, t) * (m - 1) ** (n - t)
        tail = total - below  # p1 = tail / total
        if (m * tail) << 54 < total:
            break
        if (pairs * tail * tail) << 54 >= total * total:
            cdf.append(float(p_tmax_le(n, m, t)))
        else:
            cdf.append((total - m * tail) / total)
    cdf.append(1.0)
    return lo, cdf


def _max_load_counts(n: int, m: int, trials: int, seed: int) -> tuple[int, list[int]]:
    """(lo, counts): how many trials have maximum lo, lo + 1, ..., one uniform each.

    Inversion (Devroye, Non-Uniform Random Variate Generation, 1986, ch. II):
    a trial's maximum is lo plus the number of _tmax_cdf entries at or below
    its uniform from random.Random(seed).random().  Only the counts are kept.
    """
    lo, cdf = _tmax_cdf(n, m)
    draw = random.Random(seed).random
    counts = [0] * len(cdf)
    for _ in range(trials):
        counts[bisect.bisect_right(cdf, draw())] += 1
    return lo, counts


def _max_loads(n: int, m: int, trials: int, seed: int) -> np.ndarray:
    """Each trial's maximum cell load, drawn as the module docstring describes."""
    import numpy as np

    lam = n / m
    lo, hi = _poisson_window(lam, m)
    per_cell = hi - lo + 1 > m
    if not per_cell:
        classes = np.arange(lo, hi + 1)
        ln_pmf = np.array([j * math.log(lam) - math.lgamma(j + 1) for j in range(lo, hi + 1)])
        pmf = np.exp(ln_pmf - ln_pmf.max())
        pmf /= pmf.sum()
    # rows of histogram cells or per-cell loads, plus missing throws, near _SLICE/4;
    # and trial * m + cell stays below 2^63
    batch = max(1, min((_SLICE // 4) // (min(m, hi - lo + 1) + math.isqrt(n)), (2**63 - 1) // m))
    rng = _stream(seed)
    maxima, done = [], 0
    while done < trials:  # over half the rows have S <= n, so the last pass rarely repeats
        rows = min(batch, 2 * (trials - done) + 8)
        if per_cell:
            occ = rng.poisson(lam, size=(rows, m))
            balls = occ.sum(axis=1)
        else:
            occ = rng.multinomial(m, pmf, size=rows)
            balls = occ @ classes
            occ = occ[:, : np.flatnonzero(occ.any(axis=0))[-1] + 1]  # up to the top occupied load
        kept = np.flatnonzero(balls <= n)[: trials - done]
        occ, b = occ[kept], len(kept)
        key = np.repeat(np.arange(b) * m, n - balls[kept])  # trial * m + cell
        key += rng.integers(0, m, size=len(key))
        key.sort()
        if per_cell:
            top, base = occ.max(axis=1), occ.ravel()[key]
        else:
            ends = occ.cumsum(axis=1)
            top = lo + (ends < m).sum(axis=1)
            ends += (np.arange(b) * m)[:, None]
            base = lo + np.searchsorted(ends.ravel(), key, side="right") % occ.shape[1]
        step = np.arange(len(key))
        first = np.maximum.accumulate(np.where(np.diff(key, prepend=-1) != 0, step, 0))
        np.maximum.at(top, key // m, base + step - first + 1)  # a hit cell's new load
        maxima.append(top)
        done += b
    return np.concatenate(maxima)


def _poisson_window(lam: float, m: int) -> tuple[int, int]:
    """The loads j whose Poisson(lam) mass times m is at least 2^-64, as (lo, hi).

    The mass is unimodal with its mode at floor(lam) inside the window, so
    each end is a bisection in log space.  Both ends lie within
    sqrt(2 lam L) + L of lam, L = ln(2^64 m): Poisson tails are sub-gamma
    (Boucheron, Lugosi & Massart, Concentration Inequalities, 2.2), so
    P(|X - lam| >= sqrt(2 lam L) + L/3) <= 2 e^-L.
    """
    ln_floor = -64 * math.log(2) - math.log(m)
    ln_lam = math.log(lam)

    def inside(j: int) -> bool:
        return j * ln_lam - lam - math.lgamma(j + 1) >= ln_floor

    mode = int(lam)
    reach = int(math.sqrt(-2 * lam * ln_floor) - ln_floor) + 2
    lo = bisect.bisect_left(range(max(0, mode - reach), mode + 1), True, key=inside)
    hi = bisect.bisect_left(range(mode, mode + reach), True, key=lambda j: not inside(j))
    return max(0, mode - reach) + lo, mode + hi - 1


def estimate_ideal_probability(p: Params, trials: int, seed: int) -> Estimate:
    """Fraction of uniform n-subsets a balanced function hashes within cap.

    Under a fixed function with fiber sizes beta, the cell loads of a uniform
    n-subset follow the multivariate hypergeometric law.  Small runs walk
    its chain of hypergeometric conditionals in the stdlib (_chain_successes);
    runs whose chain work exceeds _CHAIN_WORK draw one load vector per trial
    with numpy's sampler, so they never pay for the chain and small runs never
    import numpy.  Either way u < 10^9 (numpy's sampler needs it).

    Interval: normal approximation, switching to Wilson when successes < 10
    (estimates near zero are exactly the ones compared against tail bounds).
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if p.u >= 10**9:
        raise ValueError("ideal-prob sampling needs u < 10^9")
    if seed < 0:  # numpy's SeedSequence refusal; random.Random(-s) would reuse the stream of s
        raise ValueError("expected non-negative integer")
    betas = balanced_fiber_sizes(p.u, p.m)
    if _chain_work(p.m, p.n, trials) <= _CHAIN_WORK:
        successes = _chain_successes(betas, p.n, p.load_cap, trials, seed)
    else:
        successes = _numpy_successes(betas, p.n, p.load_cap, trials, seed)
    p_hat = successes / trials
    if successes < 10:
        halfwidth, method = _wilson_halfwidth(successes, trials), "wilson"
    else:
        halfwidth = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
        method = "normal"
    return Estimate(p_hat, halfwidth, trials, seed, method)


def _chain_work(m: int, n: int, trials: int) -> int:
    """An upper estimate of the chain's steps, from the input size alone.

    Each of the m - 1 drawn cells takes at most one uniform per trial and
    builds one table per distinct count of keys still to place: at most
    min(trials, 10 sqrt(n) + 1) of them, since that count spreads with
    standard deviation at most sqrt(n)/2.  A table spans the 2^-64 window of
    a hypergeometric law with variance at most about n/m, about 19 standard
    deviations.
    """
    tables = min(trials, 10 * math.isqrt(n) + 1) * (19 * math.isqrt(n // m) + 1)
    return (m - 1) * (trials + tables)


def _chain_successes(betas: tuple[int, ...], n: int, cap: int, trials: int, seed: int) -> int:
    """Trials whose hypergeometric load vector stays within cap, by the chain.

    Given the r keys not placed in earlier cells, a cell's load is
    HG(keys of this and later cells, its fiber, r), and the last cell takes
    what is left: the conditional-distribution method (Devroye, Non-Uniform
    Random Variate Generation, 1986, ch. XI), which numpy's `marginals`
    method also uses.  Trials are exchangeable, so they are kept only as a
    count per r.  For each (cell, r), one inversion table serves the group's
    uniforms, sorted and counted per CDF bin.  A trial fails once its load
    exceeds cap or r exceeds cap times the cells left, and passes once
    r <= cap.
    """
    draw = random.Random(seed).random
    groups = {n: trials}  # keys still to place -> trials
    keys_left = sum(betas)
    successes = 0
    for cell, beta in enumerate(betas[:-1]):
        moved: dict[int, int] = {}
        for r, t in sorted(groups.items()):
            if r <= cap:
                successes += t
                continue
            if r > cap * (len(betas) - cell):
                continue
            lo, cdf = _hypergeometric_cdf(keys_left, beta, r, cap)
            us = sorted([draw() for _ in range(t)])
            below = 0
            for x, edge in enumerate(cdf, lo):
                within = bisect.bisect_left(us, edge, below)
                if within > below:
                    moved[r - x] = moved.get(r - x, 0) + within - below
                below = within
        keys_left -= beta
        groups = moved
    return successes + sum(t for r, t in groups.items() if r <= cap)


def _hypergeometric_cdf(total: int, good: int, draws: int, cap: int) -> tuple[int, list[float]]:
    """(lo, [F(lo), ..., F(min(hi, cap))]) for X ~ HG(total, good, draws).

    The mass is built outward from the mode, each step one ratio of
    neighbouring terms in int/int true division, over the window [lo, hi]
    where it is at least _CUT of the mode's, and normalised there, so
    F(hi) = 1.0 exactly.  The terms are summed from lo up; the walk above cap
    only feeds that sum, so no partial sum past cap is kept.
    """
    spare = total - good - draws  # X = x leaves spare + x of the other keys undrawn
    mode = (draws + 1) * (good + 1) // (total + 2)
    down, w, x, bottom = [], 1.0, mode, max(0, -spare)
    while x > bottom:
        w *= x * (spare + x) / ((good - x + 1) * (draws - x + 1))
        if w < _CUT:
            break
        down.append(w)
        x -= 1
    lo = mode - len(down)
    sums = list(accumulate(reversed(down)))
    mass = sums[-1] if sums else 0.0
    del sums[max(0, cap - lo + 1) :]
    w, x = 1.0, mode
    while w >= _CUT:  # past min(good, draws) the factor (good - x) * (draws - x) makes w 0
        mass += w
        if x <= cap:
            sums.append(mass)
        w *= (good - x) * (draws - x) / ((x + 1) * (spare + x + 1))
        x += 1
    return lo, [v / mass for v in sums]


def _numpy_successes(betas: tuple[int, ...], n: int, cap: int, trials: int, seed: int) -> int:
    """Trials whose load vector, one numpy multivariate hypergeometric draw each, stays within cap."""
    batch = 1 + _SLICE // len(betas)  # b*m load cells stay near _SLICE
    rng = _stream(seed)
    successes = 0
    for done in range(0, trials, batch):
        loads = rng.multivariate_hypergeometric(betas, n, size=min(batch, trials - done))
        successes += int((loads.max(axis=1) <= cap).sum())
    return successes


def _wilson_halfwidth(successes: int, trials: int) -> float:
    z = 1.96
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    spread = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return spread

