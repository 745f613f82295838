import itertools
import json
import math
import re
import statistics
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from idealhash import simulate
from idealhash.cli import run
from idealhash.distributions import binomial_marginal_le, p_tmax_le
from idealhash.hashspace import HashFunction, Params, balanced_fiber_sizes, balanced_functions
from idealhash.oracle import exact_ideal_probability, verify_family
from idealhash.simulate import Estimate, estimate_ideal_probability, estimate_max_load


def assert_follows_the_exact_law(n, m, lo, counts):
    """Chi-square of counts[k], the trials whose maximum was lo + k, against p_tmax_le, at p = 0.001."""
    trials = sum(counts)
    cdf = [float(p_tmax_le(n, m, k)) for k in range(lo - 1, lo + len(counts))]
    expected = [trials * (b - a) for a, b in zip(cdf, cdf[1:])]
    expected[0] += trials * cdf[0]
    expected[-1] += trials * (1 - cdf[-1])
    bins = [[0, 0.0]]  # [observed, expected], each bin expecting at least 5
    for seen, want in zip(counts, expected):
        if bins[-1][1] >= 5:
            bins.append([0, 0.0])
        bins[-1][0] += seen
        bins[-1][1] += want
    if len(bins) > 1 and bins[-1][1] < 5:
        seen, want = bins.pop()
        bins[-1][0] += seen
        bins[-1][1] += want
    stat = sum((seen - want) ** 2 / want for seen, want in bins)
    df = len(bins) - 1
    # Wilson-Hilferty 0.999 quantile of chi-square with df degrees of freedom
    crit = df * (1 - 2 / (9 * df) + 3.0902 * math.sqrt(2 / (9 * df))) ** 3 if df else 0.0
    assert stat <= crit


class TestMaxLoad:
    def test_single_cell_is_exact(self):
        est = estimate_max_load(7, 1, trials=100, seed=0)
        assert est.mean == 7.0
        assert est.ci95_halfwidth == 0.0

    def test_seed_reproducibility(self):
        a = estimate_max_load(64, 64, trials=500, seed=9)
        b = estimate_max_load(64, 64, trials=500, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = estimate_max_load(64, 64, trials=500, seed=1)
        b = estimate_max_load(64, 64, trials=500, seed=2)
        assert a.mean != b.mean

    def test_mean_between_optimal_and_worst(self):
        est = estimate_max_load(128, 16, trials=300, seed=5)
        assert 128 / 16 <= est.mean <= 128


    @pytest.mark.parametrize(
        "n,m",
        [
            (30, 30), (100, 100),  # occupancy histogram
            (1000, 7), (40, 2),  # one Poisson load per cell: the window is wider than m
            (5, 40), (10, 1000),  # m >> n
            (1, 7), (1, 1000),
        ],
    )
    def test_maxima_follow_the_exact_law(self, n, m):
        """Chi-square of 10^5 numpy-sampled maxima against p_tmax_le, at p = 0.001."""
        loads = simulate._max_loads(n, m, 100_000, seed=17)
        lo = int(loads.min())
        assert -(-n // m) <= lo and loads.max() <= n
        assert_follows_the_exact_law(n, m, lo, [int(k) for k in np.bincount(loads - lo)])

    def test_many_cells_keep_scratch_memory_bounded(self):
        tracemalloc.start()
        try:
            loads = simulate._max_loads(10, 10**6, 200, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loads) == 200
        assert peak < 100 * 2**20

    def test_hundred_million_throws_keep_scratch_memory_bounded(self):
        tracemalloc.start()
        try:
            est = estimate_max_load(10**8, 10**8, 5, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 1 <= est.mean <= 10**8
        assert peak < 64 * 2**20

    def test_two_to_the_forty_throws_keep_scratch_memory_bounded(self):
        # a trial holds its ~0.8 sqrt(n) missing throws at once, which 2^40 caps
        tracemalloc.start()
        try:
            est = estimate_max_load(2**40, 2, 3, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2**39 <= est.mean <= 2**40
        assert peak < 128 * 2**20

    @pytest.mark.parametrize(
        "m, n", [(10**6, 10**18), (2, 2**63 - 1), (2, 2**40 + 1)]  # 5 GiB of throws; an int64 overflow
    )
    def test_throws_past_two_to_the_forty_exit_one_before_drawing(self, capsys, m, n):
        argv = ["simulate", "--kind", "max-load", "--m", str(m), "--n", str(n), "--trials", "1"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": "max-load sampling needs n <= 2^40"}

    def test_billion_cells_count_the_throws_not_the_cells(self, capsys):
        start = time.perf_counter()
        rc = run(["simulate", "--kind", "max-load", "--m", "1000000000", "--n", "10", "--trials", "1"])
        assert time.perf_counter() - start < 1.0
        assert rc == 0
        assert 1 <= json.loads(capsys.readouterr().out)["mean"] <= 10


class TestMaxLoadInversion:
    """The stdlib sampler that inverts P(T_max <= t) where _tmax_work is at most _TMAX_WORK."""

    @pytest.mark.parametrize("n,m", [(30, 30), (100, 100), (40, 2), (5, 40), (10, 1000), (1, 7), (1, 1000)])
    def test_maxima_follow_the_exact_law(self, n, m):
        """The points of TestMaxLoad's chi-square that fall below the work bound."""
        assert simulate._tmax_work(n, m) <= simulate._TMAX_WORK
        lo, counts = simulate._max_load_counts(n, m, 100_000, seed=17)
        assert lo == -(-n // m) and lo + len(counts) - 1 <= n
        assert_follows_the_exact_law(n, m, lo, counts)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 30])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 64, 1000])
    def test_table_is_within_one_ulp_of_the_exact_law(self, n, m):
        lo, cdf = simulate._tmax_cdf(n, m)
        assert lo == -(-n // m) and lo + len(cdf) - 1 <= n
        assert p_tmax_le(n, m, lo - 1) == 0 and cdf[-1] == 1.0
        for t, got in enumerate(cdf, lo):
            want = float(p_tmax_le(n, m, t))
            assert math.nextafter(want, 0.0) <= got <= math.nextafter(want, 2.0), (t, got, want)
        assert float(p_tmax_le(n, m, lo + len(cdf) - 1)) == 1.0

    def test_the_grid_reaches_the_tail_cut(self):
        # the ulp test above covers the 1 - m p1 entries: t with C(m, 2) p1^2 < 2^-54 <= m p1
        cut = [
            (n, m, t)
            for n in (1, 2, 3, 5, 8, 13, 30)
            for m in (2, 3, 7, 16, 64, 1000)
            for t in range(-(-n // m), n)
            for p1 in [1 - binomial_marginal_le(n, m, t)]
            if m * (m - 1) // 2 * p1 * p1 < Fraction(1, 2**54) <= m * p1
        ]
        assert len(cut) >= 20

    @pytest.mark.parametrize(
        "n,m,stdlib",
        [(16, 16, True), (256, 256, True), (439, 439, True), (440, 440, False), (1000, 7, False),
         (16384, 16384, False), (10, 10**9, True), (2**40, 2, False), (7, 1, True)],
    )
    def test_sampler_is_chosen_from_the_work_bound(self, monkeypatch, n, m, stdlib):
        def refuse(*args):
            raise AssertionError("the other sampler ran")

        monkeypatch.setattr(simulate, "_max_loads" if stdlib else "_max_load_counts", refuse)
        if stdlib:
            monkeypatch.setattr(simulate, "_max_load_counts", lambda *args: (3, [0, 2]))
        else:
            monkeypatch.setattr(simulate, "_max_loads", lambda *args: np.array([4.0, 4.0]))
        assert (simulate._tmax_work(n, m) <= simulate._TMAX_WORK) is stdlib
        assert estimate_max_load(n, m, 2, seed=1).mean == 4.0

    def test_mean_and_interval_come_from_the_counts(self):
        est = estimate_max_load(64, 64, trials=500, seed=7)
        lo, counts = simulate._max_load_counts(64, 64, 500, seed=7)
        values = [t for t, c in enumerate(counts, lo) for _ in range(c)]
        assert est.mean == statistics.mean(values)
        assert est.ci95_halfwidth == pytest.approx(1.96 * statistics.stdev(values) / math.sqrt(500), rel=1e-12)

    @pytest.mark.parametrize(
        "n,m,trials,seed,message",
        [
            (2**41, 0, 0, -1, "need trials >= 1"),
            (2**41, 0, 1, -1, "need n >= 1 and m >= 1"),
            (2**41, 1, 1, -1, "max-load sampling needs n <= 2^40"),
            (8, 4, 1, -1, "expected non-negative integer"),
        ],
    )
    def test_both_samplers_share_one_check_site(self, n, m, trials, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_max_load(n, m, trials, seed)

    def test_memory_does_not_grow_with_the_trials(self):
        estimate_max_load(16, 16, 10, 1)  # the table's imports
        tracemalloc.start()
        try:
            est = estimate_max_load(16, 16, 200_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.trials == 200_000
        assert peak < 2**16


class TestIdealProbability:
    def test_three_sigma_agreement_with_exact(self):
        p = Params(8, 2, 4, 1)
        exact = float(exact_ideal_probability(p).probability)
        trials = 20_000
        est = estimate_ideal_probability(p, trials=trials, seed=13)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(est.mean - exact) <= 3 * sigma

    def test_certain_at_c_equal_m(self):
        p = Params(8, 2, 4, 2)
        est = estimate_ideal_probability(p, trials=2_000, seed=0)
        assert est.mean == 1.0
        assert est.ci95_halfwidth == 0.0

    def test_wilson_interval_near_zero(self):
        # cap 1 < ceil(3/2): impossible, so zero successes and a Wilson interval
        p = Params(9, 2, 3, 1)
        est = estimate_ideal_probability(p, trials=500, seed=2)
        assert est.mean == 0.0
        assert est.method == "wilson"
        assert est.ci95_halfwidth > 0.0

    def test_seed_reproducibility(self):
        p = Params(8, 2, 4, 1)
        a = estimate_ideal_probability(p, trials=1_000, seed=21)
        b = estimate_ideal_probability(p, trials=1_000, seed=21)
        assert a == b

    @pytest.mark.parametrize(
        "u,m,n,trials",  # trials past the chain's work bound, so numpy draws every load vector
        [
            pytest.param(10**6, 16, 256, 60_000, id="1000000-16-256"),
            pytest.param(4096, 64, 64, 16_000, id="4096-64-64"),
            pytest.param(5000, 2000, 2000, 700, id="5000-2000-2000"),
        ],
    )
    def test_estimate_does_not_depend_on_the_slice(self, monkeypatch, u, m, n, trials):
        assert simulate._chain_work(m, n, trials) > simulate._CHAIN_WORK
        p = Params(u, m, n, Fraction(3, 2))
        seen = []
        for size in (2**10, 2**18, 2**22):
            monkeypatch.setattr(simulate, "_SLICE", size)
            seen.append(estimate_ideal_probability(p, trials=trials, seed=8))
        assert seen[0] == seen[1] == seen[2]

    def test_agreement_on_desk_grid(self):
        trials = 4_000
        for u, m, n, c in ((6, 2, 3, Fraction(3, 2)), (8, 2, 4, 1), (6, 3, 3, 2)):
            p = Params(u, m, n, c)
            exact = float(exact_ideal_probability(p).probability)
            est = estimate_ideal_probability(p, trials=trials, seed=4)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
            assert abs(est.mean - exact) <= max(3 * sigma, 1e-9)


class TestLoadVectorSampling:
    def test_streams_reproduce_with_an_empty_share(self):
        # past the chain's work bound every trial comes from the one stream SeedSequence(seed, spawn_key=(0,))
        p = Params(10**6, 4096, 16384, 3)  # fibers of 245 and 244 keys, cap 12
        assert simulate._chain_work(p.m, p.n, 50) > simulate._CHAIN_WORK
        a = estimate_ideal_probability(p, trials=50, seed=5)
        assert a == estimate_ideal_probability(p, trials=50, seed=5)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5, spawn_key=(0,))))
        loads = rng.multivariate_hypergeometric(balanced_fiber_sizes(p.u, p.m), p.n, size=50)
        hits = int((loads.max(axis=1) <= 12).sum())
        assert 0 < hits < 50
        assert (a.mean, a.trials) == (hits / 50, 50)

    def test_four_sigma_agreement_at_large_universe(self):
        p = Params(10**6, 16, 256, Fraction(3, 2))
        exact = float(exact_ideal_probability(p).probability)
        assert abs(exact - 0.72463) < 1e-5
        trials = 20_000
        est = estimate_ideal_probability(p, trials=trials, seed=11)
        assert abs(est.mean - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)

    def test_universe_past_sampler_range_exits_one(self, capsys):
        argv = ["simulate", "--kind", "ideal-prob", "--u", "1000000000", "--m", "16", "--n", "256", "--trials", "10"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "ValueError"


class TestHypergeometricChain:
    """The stdlib chain that draws load vectors where its work is at most _CHAIN_WORK."""

    @pytest.mark.parametrize(
        "total,good,draws,cap",
        [
            (1000003, 62501, 256, 24),  # a larger fiber of 1000003 keys in 16 cells
            (1000003, 62500, 256, 24),  # a smaller one
            (1000003, 62500, 200, 9),  # cap below the mode, 12
            (1000003, 62501, 256, 256),  # cap = r
            (17, 5, 8, 8),  # cap = r, the whole support
            (17, 5, 0, 3),  # r = 0
            (17, 5, 17, 5),  # r = N: every key of the fiber is drawn
            (17, 5, 17, 4),  # r = N, cap below the one value
            (1000, 999, 500, 600),  # X >= 499: the support starts above 0
            (4096, 512, 64, 12),
            (10**5, 50000, 20000, 10**4),  # a window of about 1,200 terms
        ],
    )
    def test_table_matches_the_exact_cdf(self, total, good, draws, cap):
        lo, cdf = simulate._hypergeometric_cdf(total, good, draws, cap)
        bad = total - good
        bottom, top = max(0, draws - bad), min(good, draws)
        assert bottom <= lo and len(cdf) <= max(0, min(top, cap) - lo + 1)
        # F(x) = sum of C(good, k) C(bad, draws - k) over k <= x, over C(total, draws): integers, divided once
        whole, term, below, gap = math.comb(total, draws), math.comb(good, bottom) * math.comb(bad, draws - bottom), 0, 0.0
        for x in range(bottom, min(top, cap) + 1):
            below += term
            term = term * (good - x) * (draws - x) // ((x + 1) * (bad - draws + x + 1))
            got = cdf[x - lo] if lo <= x < lo + len(cdf) else float(x >= lo)
            gap = max(gap, abs(got - below / whole))
        assert gap <= 1e-12

    @pytest.mark.parametrize(
        "total,good,draws",
        [
            (1000003, 62501, 256),  # the two fiber sizes of 1000003 keys in 16 cells
            (1000003, 62500, 256),
            (1000, 999, 500),  # the support starts above 0
            (4096, 512, 64),
            (17, 5, 0),  # r = 0
            (17, 5, 17),  # r = N
            (17, 5, 8),
        ],
    )
    def test_table_is_bit_identical_to_the_whole_stored_walk(self, total, good, draws):
        def stored_walk(total, good, draws, cap):
            # every term of the window stored, then summed from lo up and divided
            spare = total - good - draws
            mode = (draws + 1) * (good + 1) // (total + 2)
            up, w, x, top = [1.0], 1.0, mode, min(good, draws)
            while x < top:
                w *= (good - x) * (draws - x) / ((x + 1) * (spare + x + 1))
                if w < simulate._CUT:
                    break
                up.append(w)
                x += 1
            down, w, x, bottom = [], 1.0, mode, max(0, -spare)
            while x > bottom:
                w *= x * (spare + x) / ((good - x + 1) * (draws - x + 1))
                if w < simulate._CUT:
                    break
                down.append(w)
                x -= 1
            lo = mode - len(down)
            sums = list(itertools.accumulate(itertools.chain(reversed(down), up)))
            return lo, [s / sums[-1] for s in sums[: max(0, cap - lo + 1)]]

        lo, full = stored_walk(total, good, draws, draws)
        hi = lo + len(full) - 1
        mode = (draws + 1) * (good + 1) // (total + 2)
        # below lo, at lo, at the mode, either side of it, at hi and past it
        caps = {0, max(0, lo - 1), lo, max(0, mode - 1), mode, mode + 1, hi, hi + 1, draws}
        for cap in sorted(caps):
            assert simulate._hypergeometric_cdf(total, good, draws, cap) == stored_walk(total, good, draws, cap), cap

    @pytest.mark.parametrize(
        "u,m,n,c,trials,chain",
        [
            (10**6, 16, 256, Fraction(3, 2), 5000, True),  # the benchmark's ideal-prob calls
            (4096, 8, 64, Fraction(3, 2), 20000, True),
            (10**6, 16, 4096, Fraction(3, 2), 5000, False),
            (10**6, 64, 4096, Fraction(3, 2), 5000, False),
            (10**8, 16, 10**5, Fraction(11, 10), 5000, False),
            (10**6, 16, 256, Fraction(3, 2), 10**6, False),
            (10**6, 64, 1024, 2, 5000, False),
        ],
    )
    def test_sampler_is_chosen_from_the_work_bound(self, monkeypatch, u, m, n, c, trials, chain):
        def refuse(*args):
            raise AssertionError("the other sampler ran")

        monkeypatch.setattr(simulate, "_numpy_successes" if chain else "_chain_successes", refuse)
        monkeypatch.setattr(simulate, "_chain_successes" if chain else "_numpy_successes", lambda *args: 0)
        assert (simulate._chain_work(m, n, trials) <= simulate._CHAIN_WORK) is chain
        assert estimate_ideal_probability(Params(u, m, n, c), trials, seed=1).mean == 0.0

    @pytest.mark.parametrize(
        "u,m,n,c",
        [(1000003, 16, 256, Fraction(3, 2)), (10, 3, 5, Fraction(3, 2)), (13, 4, 8, 1), (100, 7, 30, Fraction(5, 4))],
    )
    def test_four_sigma_agreement_with_exact_at_unequal_fibers(self, u, m, n, c):
        p = Params(u, m, n, c)
        exact = float(exact_ideal_probability(p).probability)
        trials = 20_000
        assert simulate._chain_work(m, n, trials) <= simulate._CHAIN_WORK
        est = estimate_ideal_probability(p, trials=trials, seed=7)
        assert abs(est.mean - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)

    def test_one_cell_draws_nothing(self):
        # every trial passes before a draw, so a trial count numpy could not batch returns at once
        est = estimate_ideal_probability(Params(5, 1, 5), trials=10**15, seed=0)
        assert (est.mean, est.ci95_halfwidth) == (1.0, 0.0)


class TestAdversarialSet:
    """Every function loses some key set whose n keys share one cell."""

    @staticmethod
    def _below_n(u, m, n):
        """Params whose load cap is n - 1."""
        return Params(u, m, n, Fraction((n - 1) * m, n))

    def test_identity_block_universe(self):
        h = HashFunction(tuple([1] * 8 + [2] * 8))
        rep = verify_family((h,), self._below_n(16, 2, 4))
        assert rep.uncovered_witness == (1, 2, 3, 4)

    def test_achieves_cost_n(self):
        for u, m, n in ((16, 2, 4), (12, 3, 4), (9, 3, 3)):
            h = next(balanced_functions(Params(u, m, n)))  # the blocked function
            witness = verify_family((h,), self._below_n(u, m, n)).uncovered_witness
            assert len({h.cells[k - 1] for k in witness}) == 1

    def test_every_function_is_beatable_once_u_covers_nm(self):
        p = self._below_n(6, 2, 2)  # u = 6 >= n*m
        for cells in itertools.product((1, 2), repeat=6):
            assert not verify_family((HashFunction(cells),), p).is_ideal_family


def test_estimate_is_a_plain_record():
    est = Estimate(1.0, 0.0, 10, 0)
    assert est.method == "normal"
