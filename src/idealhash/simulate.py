"""Monte Carlo behavior beyond exact enumeration: max-load means and
ideality probability estimates.

RNG contract: each call draws all its trials from one seeded stream, so a
seed fixes the output bytes.  Max-load on the float table (below) and
ideal-prob at or below the chain's work bound (_CHAIN_WORK) draw from
random.Random(seed).random(), whose sequence Python keeps across versions.
Otherwise both draw from one numpy PCG64 stream seeded through
SeedSequence(seed, spawn_key=(0,)); those bytes hold for the numpy version
the sweep digests were recorded with.  Either way a seed must be
non-negative.  A seeded numpy max-load estimate also depends on the fixed
rule that sizes its batches, since each batch is one set of draws.

Max load picks one of two samplers from (n, m) alone (_stdlib_table).

The float table, where n/m <= _FLOAT_LOAD, and at m = 1.  A trial's maximum
is one uniform looked up in a table of F(t) = P(T_max <= t)
(_max_load_counts), and a call keeps one count per load, so memory does not
grow with the trials; it never imports numpy.  _tmax_float_cdf builds the
table in floats from the Poisson identity (Mitzenmacher & Upfal,
Probability and Computing, ch. 5) and, in the far tail, from 1 - m P(one
cell > t), which is within one ulp there.  Each entry is within 2^-46 of
float(p_tmax_le): its three cuts move it by at most 2^-50 each, and the
tests check the bound on a grid over that region wherever `p_tmax_le` is
affordable.

Poissonization with an exact correction (_max_loads, numpy) where n/m is
past _FLOAT_LOAD, so m < 2^32 there.  A trial draws independent Poisson(n/m)
loads for the m cells, redrawing them while their total S exceeds n, and
then throws only the n - S missing balls uniformly, about 0.8*sqrt(n) of
them.  Given S = s the Poisson loads are multinomial over s throws, so
adding n - s uniform throws makes them multinomial over n: the law of n
throws.  The rejection conditions on S alone and so adds no
bias.  Cells are exchangeable, so the loads are drawn as an occupancy
histogram, one multinomial row of how many cells hold each load j in the
window where m times the Poisson mass of j is at least 2^-64; when that
window is wider than m, the m loads are drawn one per cell instead.  The
missing throws land on cells through the histogram's cumulative counts, one
sort finds the cells they share, and the trial's maximum is the top occupied
load or the new load of a hit cell.  The only departures from the exact law
are the float rounding of the class probabilities and the cut below 2^-64,
the precision of numpy's binomial and hypergeometric samplers.  A trial costs
O(min(m, window) + sqrt(n)); a batch of trials holds about _SLICE/4
histogram cells and missing throws, so scratch memory does not grow with m.
A trial holds all its missing throws at once, so n is capped at 2^40, where
three trials peak below 100 MiB (tracemalloc).
"""

from __future__ import annotations

import bisect
import math
import random
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .hashspace import Params, balanced_fiber_sizes

if TYPE_CHECKING:  # numpy is imported where the samplers run, so other commands start without it
    import numpy as np


# Elements per numpy call: load cells of ideal-prob above _CHAIN_WORK, and four
# times a max-load batch's occupancy blocks plus missing throws.  One such
# int64 array is 2 MiB; numpy max-load at m = 2, n = 10^6 peaks at about 38 MB
# RSS (x86-64 Linux), 33 MB of it the interpreter and numpy.random's import,
# while m = n = 16384 on the float table peaks at about 16 MB.  The chain holds
# one group's uniforms at a time, fewer than _CHAIN_WORK floats.
_SLICE = 2**18

# Ideal-prob runs the stdlib chain where _chain_work is at most this, and numpy
# above it: 2^20 chain steps take about as long as importing numpy.random
# (~0.16 s), which only the numpy path pays.
_CHAIN_WORK = 2**20

# Max-load inverts the float table where n/m is at most this, and at m = 1.
# The tests reach no larger n/m: p_tmax_le takes 1.7 s per entry at (n, m) =
# (2^14, 64) and 25 s at (2^16, 64).  Across that region the table builds in
# at most 36-54 ms, at m = 10 and n = 2560 where every frequency is summed
# (best of 5, 2-core x86-64 VM, Python 3.11), below numpy's import (60-90 ms).
_FLOAT_LOAD = 2**8

# Each of the float table's three cuts moves an entry by at most this.
_FLOAT_CUT = 2.0**-50

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

    Where _stdlib_table(n, m) holds, each trial's maximum is drawn by
    inverting the float table in the stdlib (_max_load_counts), so the call
    never imports numpy; elsewhere numpy's Poissonization sampler
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
    if _stdlib_table(n, m):
        lo, counts = _max_load_counts(n, m, trials, seed)
        s1 = sum(c * t for t, c in enumerate(counts, lo))
        s2 = sum(c * t * t for t, c in enumerate(counts, lo))
        mean = s1 / trials
        std = math.sqrt((trials * s2 - s1 * s1) / (trials * (trials - 1))) if trials > 1 else 0.0
    else:
        values = _max_loads(n, m, trials, seed).astype(float)
        mean = float(values.mean())
        std = float(values.std(ddof=1)) if trials > 1 else 0.0
    return Estimate(mean, 1.96 * std / math.sqrt(trials), trials, seed)


def _stdlib_table(n: int, m: int) -> bool:
    """Whether max-load inverts the float table of P(T_max <= t) at (n, m)
    rather than draw by numpy's sampler: the one decision between the two."""
    return m == 1 or n <= _FLOAT_LOAD * m


def _tmax_float_cdf(n: int, m: int) -> tuple[int, list[float]]:
    """(lo, [F(lo), ..., F(hi)]) for F(t) = P(T_max <= t) in floats, F(hi) = 1.0.

    Poissonization: with independent Poisson(lam) loads, lam = n/m, F(t) =
    P(every load <= t | their sum = n) = C pi_t^m P(S_t = n), where C =
    n! e^n / n^n = 1/P(Poisson(n) = n), pi_t = P(Poisson(lam) <= t) and S_t
    sums m loads each conditioned to be <= t.  ln C is Stirling's series and
    pi_t^m is exp(m log1p(-q_t)), q_t = P(Poisson(lam) > t) summed from the
    top of the window where m times a mass is at least 2^-64 (Loader's
    masses, _poisson_pmf), so no rounding error is multiplied by m.
    _poissonized_cdf gives P(S_t = n); lo is the first t with C pi_t^m at
    least _FLOAT_CUT, since F(t) <= C pi_t^m.

    The far tail is 1 - m p1 with p1 = P(Bin(n, 1/m) > t) for one cell's
    load.  Bonferroni's inequalities give 1 - m p1 <= F(t) <= 1 - m p1 +
    C(m, 2) P(two given cells > t), and negative association of multinomial
    counts (Dubhashi & Ranjan, Balls and bins: a study in negative
    dependence, 1998) bounds that last probability by p1^2.  So where
    C(m, 2) p1^2 < 2^-54, 1 - m p1 is within one ulp of F(t)'s float, and
    the table ends at the first t with m p1 < 2^-54, where both round to
    1.0.  p1 sums Loader's binomial masses from the top, P(Bin = n) = m^-n
    included.  Each entry lies within 3 _FLOAT_CUT of F(t) up to rounding,
    and the table is made monotone.

    One cell holds every ball, and past m = n^2 2^53 F(1) >= 1 - C(n, 2)/m
    rounds to 1.0, so those two tables are written down.
    """
    if m == 1:
        return n, [1.0]
    if m >= n * n << 53:  # also where m is past the float range
        return 1, [1.0]
    lam = n / m
    ln_c = 0.5 * math.log(2 * math.pi * n) + _stirlerr(n)
    lo = -(-n // m)
    top = max(lo, _poisson_window(lam, m)[1])
    mass = [_poisson_pmf(j, n, m) for j in range(lo + 1, top + 1)]
    q = [0.0, *accumulate(reversed(mass))][::-1]  # q[t - lo] = P(Poisson(lam) > t)
    first = lo
    while first < top and -m * math.log1p(-q[first - lo]) > ln_c - math.log(_FLOAT_CUT):
        first += 1
    binom = []  # P(Bin(n, 1/m) = k) for k > first, until past the mean m times it is below 2^-64
    for k in range(first + 1, n + 1):
        binom.append(_binomial_pmf(k, n, m) if k < n else math.exp(-n * math.log(m)))
        if k > lam and m * binom[-1] < _CUT:
            break
    p1 = [0.0, *accumulate(reversed(binom))][::-1]  # p1[t - first] = P(Bin(n, 1/m) > t)
    mid = first + sum(m * (m - 1) / 2 * p * p >= 2.0**-54 for p in p1)
    end = first + sum(m * p >= 2.0**-54 for p in p1)
    cdf = _poissonized_cdf(n, m, ln_c, first, mass[first - lo :], q[first - lo :], mid - first)
    cdf += [1 - m * p for p in p1[mid - first : end - first]] + [1.0]
    for i in range(1, len(cdf)):  # F rises with t, and rounding must not reverse that
        cdf[i] = max(cdf[i - 1], cdf[i])
    return first, [min(1.0, max(0.0, f)) for f in cdf]


def _poissonized_cdf(
    n: int, m: int, ln_c: float, first: int, mass: list[float], q: list[float], count: int
) -> list[float]:
    """[F(first), ..., F(first + count - 1)] as C pi_t^m P(S_t = n), for
    _tmax_float_cdf: ln_c = ln C, mass[i] = P(Poisson(n/m) = first + 1 + i)
    and q[i] = P(Poisson(n/m) > first + i).

    P(S_t = n) is the trapezoid sum (1/N) sum_k psi_t(w_k)^m, w_k = 2 pi k/N,
    psi_t(w) = E[e^{iw(X - lam)} | X <= t], which converges exponentially
    (Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
    SIAM Review 2014).  psi_t - 1 is formed directly: the full Poisson sum
    is expm1(lam (e^{iw} - 1 - iw)), less the loads above t, added from the
    top one per t at each frequency, over pi_t; one tilt lam serves every t.
    Then psi_t^m = exp(m log1p(psi_t - 1)), the complex log1p taken through
    its modulus and argument, so its error does not grow with m; where
    |psi_t|^2 < 1/2 the modulus is |psi_t| itself, as log1p would take an
    argument near or below -1 there.  Two cuts each move an entry by at most
    _FLOAT_CUT:
      * the sum counts P(S_t = n + jN) for every integer j, and
        C pi_t^m P(S_t = s) <= C P(Poisson(n) = s), so N >= sqrt(2nL) + L/3,
        L = ln(2C/_FLOAT_CUT), bounds the aliases by 2C e^-L (Poisson tails
        are sub-gamma: Boucheron, Lugosi & Massart, Concentration
        Inequalities, 2.2);
      * |pi_t psi_t(w)| = |sum over j <= t of p_j e^{iwj}| is at most
        e^{-lam(1 - cos w)} + q_t, and, summing by parts over the rising and
        the falling masses, at most p_mode / sin(w/2), where p_mode <=
        1/sqrt(2 pi floor(lam)) by Stirling.  Both fall with |w| up to pi, so
        the frequencies past w0, where C min(e^{-lam(1 - cos w0)} + q_first,
        p_mode / sin(w0/2))^m = _FLOAT_CUT, are left out: a band of a few
        dozen with many cells, and of a few hundred at most with few.
    """
    if count <= 0:
        return []
    lam = n / m
    span = ln_c - math.log(_FLOAT_CUT)  # ln(C / _FLOAT_CUT)
    big_l = span + math.log(2)
    grid = math.ceil(math.sqrt(2 * n * big_l) + big_l / 3) | 1  # N, odd so that w and -w pair up
    lift = math.exp(span / m)  # 1/r, r = (_FLOAT_CUT / C)^(1/m)
    peak = 1 / math.sqrt(2 * math.pi * int(lam)) if lam >= 1 else 1.0  # p_mode at most
    edge = peak * lift  # sin(w0/2) where p_mode / sin(w0/2) = r
    if q[0] * lift < 1:  # sin(w0/2) where lam (1 - cos w0) = -ln(r - q_first)
        edge = min(edge, math.sqrt((span / m - math.log1p(-q[0] * lift)) / (2 * lam)))
    band = grid // 2 if edge >= 1 else min(grid // 2, int(math.asin(edge) * grid / math.pi) + 1)
    freqs = [2 * math.pi * k / grid for k in range(1, band + 1)]
    full = [_expm1j(-2 * lam * math.sin(w / 2) ** 2, lam * _sin_minus(w)) for w in freqs]
    above = [0j] * band  # sum over the loads j > t of p_j (e^{iw(j - lam)} - 1)
    added = len(mass)
    out = []
    for i in reversed(range(count)):  # t = first + i
        while added > i:
            added -= 1
            p, d = mass[added], ((first + 1 + added) * m - n) / m  # p_j and j - lam
            for k, w in enumerate(freqs):
                h = math.sin(w * d / 2)
                above[k] += p * complex(-2 * h * h, math.sin(w * d))
        qt = q[i] if i < len(q) else 0.0
        total = 1.0  # w = 0, then each pair w, -w
        for f, a in zip(full, above):
            z = (f - a) / (1 - qt)  # psi_t(w) - 1
            x, y = z.real, z.imag
            v = 2 * x + x * x + y * y  # |psi_t|^2 - 1
            power = math.exp(0.5 * m * math.log1p(v)) if v > -0.5 else abs(complex(1 + x, y)) ** m
            total += 2 * power * math.cos(m * math.atan2(y, 1 + x))
        out.append(math.exp(ln_c + m * math.log1p(-qt)) * total / grid)
    return out[::-1]


def _expm1j(x: float, y: float) -> complex:
    """e^(x + iy) - 1 without cancellation near 0."""
    return complex(math.expm1(x) * math.cos(y) - 2 * math.sin(y / 2) ** 2, math.exp(x) * math.sin(y))


def _sin_minus(w: float) -> float:
    """sin(w) - w, by its Taylor series below |w| = 1, where the difference cancels."""
    if abs(w) >= 1:
        return math.sin(w) - w
    total, term, k = 0.0, w, 1
    while True:
        term *= -w * w / ((2 * k) * (2 * k + 1))
        if total + term == total:
            return total
        total += term
        k += 1


def _stirlerr(k: int) -> float:
    """ln k! - ((k + 1/2) ln k - k + ln sqrt(2 pi)), Stirling's series past k = 15
    (Loader, "Fast and accurate computation of binomial probabilities", 2000)."""
    if k <= 15:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
    kk = 1.0 / (k * k)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - kk / 1188) * kk) * kk) * kk) / k


def _bd0(x: float, mean: float, d: float) -> float:
    """x ln(x/mean) + mean - x, given d = x - mean rounded once, by Loader's
    series where d is small against x + mean."""
    s = x + mean
    if abs(d) >= 0.1 * s:
        return x * math.log(x / mean) - d
    v = d / s
    total, term, j = d * v, 2 * x * v, 1
    while True:
        term *= v * v
        step = total + term / (2 * j + 1)
        if step == total:
            return total
        total, j = step, j + 1


def _poisson_pmf(j: int, n: int, m: int) -> float:
    """P(Poisson(n/m) = j) for j >= 1, to a few ulps (Loader)."""
    return math.exp(-_stirlerr(j) - _bd0(j, n / m, (j * m - n) / m)) / math.sqrt(2 * math.pi * j)


def _binomial_pmf(k: int, n: int, m: int) -> float:
    """P(Bin(n, 1/m) = k) for 0 < k < n, to a few ulps (Loader)."""
    dev = (k * m - n) / m  # k - n/m
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n / m, dev) - _bd0(n - k, n * (m - 1) / m, -dev)
    return math.exp(lc) * math.sqrt(n / (2 * math.pi * k * (n - k)))


def _max_load_counts(n: int, m: int, trials: int, seed: int) -> tuple[int, list[int]]:
    """(lo, counts): how many trials have maximum lo, lo + 1, ..., one uniform each.

    Inversion (Devroye, Non-Uniform Random Variate Generation, 1986, ch. II):
    a trial's maximum is lo plus the number of table entries at or below its
    uniform from random.Random(seed).random(), the table being the one
    _tmax_float_cdf builds.  Only the counts are kept.
    """
    lo, cdf = _tmax_float_cdf(n, m)
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
    # m < 2^32 here, so trial * m + cell stays below 2^48
    batch = max(1, (_SLICE // 4) // (min(m, hi - lo + 1) + math.isqrt(n)))
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

