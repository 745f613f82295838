"""Monte Carlo behavior beyond exact enumeration: max-load means and
ideality probability estimates.

RNG contract: numpy PCG64 seeded through SeedSequence(seed, spawn_key=(worker,)),
so every (seed, workers) pair reproduces bit-identically on any platform.
`workers` is the number of RNG streams the trials are split across; the
streams run one after another in this process, not in parallel.  Results
merge by count-weighted pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .hashspace import Params, balanced_fiber_sizes

if TYPE_CHECKING:  # numpy is imported where the samplers run, so other commands start without it
    import numpy as np


# Elements per numpy call: max-load throws or counters, ideal-prob load
# cells.  One such int64 array is 2 MiB; max-load at m = n = 16384 peaks at
# 42 MB RSS (x86-64 Linux), 27 MB of it numpy's import.  The int64 throw
# stream does not depend on how it is split into calls, so neither does a
# seeded max-load estimate.
_SLICE = 2**18

# A max-load trial with m > _SPARSE * n occupies few of its cells, so its
# throws are sorted and counted in runs instead of counted in m cells: on a
# 2-core x86-64 host the two cost the same near m = 16n to 32n.
_SPARSE = 32


@dataclass(frozen=True)
class Estimate:
    """Sample mean with a 95% interval half-width and replay metadata."""

    mean: float
    ci95_halfwidth: float
    trials: int
    seed: int
    workers: int = 1
    method: str = "normal"


def _worker_rng(seed: int, worker: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(worker,))))


def _split_trials(trials: int, workers: int) -> list[int]:
    """Trials per worker stream, for the first min(workers, trials) streams:
    the others get none.  Validates both counts."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    if workers < 1:
        raise ValueError("need workers >= 1")
    base, extra = divmod(trials, workers)
    return [base + (1 if w < extra else 0) for w in range(min(workers, trials))]


def estimate_max_load(
    n: int, m: int, trials: int, seed: int, workers: int = 1
) -> Estimate:
    """Mean maximum cell load of n uniform throws into m cells."""
    import numpy as np

    shares = _split_trials(trials, workers)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if m == 1:
        return Estimate(float(n), 0.0, trials, seed, workers)
    maxima = []
    sparse = m > _SPARSE * n
    batch = 1 + _SLICE // (n if sparse else max(n, m))  # b*n throws, and b*m counters unless sparse
    for w, share in enumerate(shares):
        rng = _worker_rng(seed, w)
        for done in range(0, share, batch):
            b = min(batch, share - done)
            if sparse:  # b == 1 when n > _SLICE: the trial's throws are drawn a slice at a time
                slices = [rng.integers(0, m, size=(b, min(_SLICE, n - lo))) for lo in range(0, n, _SLICE)]
                maxima.append(_longest_runs(np.sort(np.concatenate(slices, axis=1), axis=1)))
            elif n <= _SLICE:
                flat = rng.integers(0, m, size=(b, n))
                flat += (np.arange(b) * m)[:, None]
                maxima.append(np.bincount(flat.ravel(), minlength=b * m).reshape(b, m).max(axis=1))
            else:  # b == 1: the trial's throws are counted a slice at a time
                counts = np.zeros(m, dtype=np.intp)
                for lo in range(0, n, _SLICE):
                    counts += np.bincount(rng.integers(0, m, size=min(_SLICE, n - lo)), minlength=m)
                maxima.append(counts.max(keepdims=True))
    values = np.concatenate(maxima).astype(np.float64)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if trials > 1 else 0.0
    return Estimate(mean, 1.96 * std / math.sqrt(trials), trials, seed, workers)


def _longest_runs(rows: np.ndarray) -> np.ndarray:
    """The longest run of equal values in each sorted row: each trial's max load.

    A row has a run longer than k exactly when some value equals the one k
    places before it, so each pass over the rows adds one to those that
    do; sparse trials have short runs, so there are few passes.
    """
    import numpy as np

    longest = np.ones(len(rows), dtype=np.intp)
    for k in range(1, rows.shape[1]):
        longer = (rows[:, k:] == rows[:, :-k]).any(axis=1)
        if not longer.any():
            break
        longest += longer
    return longest


def estimate_ideal_probability(
    p: Params, trials: int, seed: int, workers: int = 1
) -> Estimate:
    """Fraction of uniform n-subsets a balanced function hashes within cap.

    Under a fixed function with fiber sizes beta, the cell loads of a uniform
    n-subset follow the multivariate hypergeometric law, so each trial draws
    one load vector (numpy's sampler needs u < 10^9).

    Interval: normal approximation, switching to Wilson when successes < 10
    (estimates near zero are exactly the ones compared against tail bounds).
    """
    shares = _split_trials(trials, workers)
    if p.u >= 10**9:
        raise ValueError("ideal-prob sampling needs u < 10^9")
    betas = balanced_fiber_sizes(p.u, p.m)
    batch = 1 + _SLICE // p.m  # b*m load cells stay near _SLICE
    successes = 0
    for w, share in enumerate(shares):
        rng = _worker_rng(seed, w)
        for done in range(0, share, batch):
            loads = rng.multivariate_hypergeometric(betas, p.n, size=min(batch, share - done))
            successes += int((loads.max(axis=1) <= p.load_cap).sum())
    p_hat = successes / trials
    if successes < 10:
        halfwidth, method = _wilson_halfwidth(successes, trials), "wilson"
    else:
        halfwidth = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
        method = "normal"
    return Estimate(p_hat, halfwidth, trials, seed, workers, method)


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

