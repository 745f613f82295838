import bisect
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealhash import combinatorics
from idealhash.combinatorics import (
    _binomial_pmf,
    _chain_power,
    _miller_power,
    _poisson_pmf,
    _power_coeffs,
    binom,
    composition_count,
    compositions,
    ln_fraction,
    partitions,
)
from idealhash.distributions import p_tmax_le
from idealhash.oracle import count_ideal_sets
from idealhash.simulate import _poisson_window


class TestBinom:
    def test_small_values(self):
        assert binom(4, 2) == 6
        assert binom(8, 4) == 70

    def test_b_larger_than_a_is_zero(self):
        assert binom(4, 5) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binom(-1, 0)
        with pytest.raises(ValueError):
            binom(3, -2)

    def test_pascal_recurrence_and_symmetry_exhaustive(self):
        for a in range(31):
            for b in range(a + 1):
                assert binom(a, b) == binom(a, a - b)
                if 0 < b:
                    assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


def reference_composition_count(n, m, d):
    """The prefix-sum window that counted before the power-series recurrence."""
    if n < 1 or m < 1:
        raise ValueError("composition_count needs n >= 1 and m >= 1")
    if d < 0:
        raise ValueError("composition_count needs d >= 0")
    if n > m * d:
        return 0
    row = [1] + [0] * n
    for _ in range(m):
        prefix = list(accumulate(row))
        row = [
            prefix[s] - (prefix[s - d - 1] if s - d - 1 >= 0 else 0)
            for s in range(n + 1)
        ]
    return row[n]


class TestCompositionCount:
    def test_three_ways_to_split_two(self):
        # (0,2), (1,1), (2,0)
        assert composition_count(2, 2, 2) == 3

    @pytest.mark.parametrize("n,m", [(3, 2), (5, 3), (7, 4), (4, 1)])
    def test_uncapped_matches_stars_and_bars(self, n, m):
        assert composition_count(n, m, n) == binom(n + m - 1, m - 1)

    @pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (9, 3), (8, 4)])
    def test_tight_cap_forces_all_equal(self, n, m):
        assert composition_count(n, m, n // m) == 1

    def test_impossible_sum_is_zero(self):
        assert composition_count(7, 3, 2) == 0

    @given(
        n=st.integers(min_value=1, max_value=10),
        m=st.integers(min_value=1, max_value=5),
        d=st.integers(min_value=0, max_value=10),
    )
    def test_matches_brute_force_enumeration(self, n, m, d):
        brute = sum(
            1 for tup in product(range(d + 1), repeat=m) if sum(tup) == n
        )
        assert composition_count(n, m, d) == brute

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        m=st.integers(min_value=1, max_value=10),
        d=st.integers(min_value=0, max_value=15),
    )
    @example(n=1, m=1, d=0)  # d = 0 counts nothing at n >= 1
    @example(n=60, m=10, d=0)
    @example(n=31, m=2, d=15)  # n > m*d
    @example(n=30, m=2, d=15)  # n = m*d: the one all-d tuple
    @example(n=60, m=10, d=15)
    def test_matches_prefix_sum_window(self, n, m, d):
        assert composition_count(n, m, d) == reference_composition_count(n, m, d)

    def test_dominates_crude_power_lower_bound(self):
        # d = c*alpha with integer alpha: count >= (alpha+1)^(m*(1-1/c))
        for m in range(2, 7):
            for alpha in range(1, 5):
                for c in (1, 2):
                    n = m * alpha
                    crude = (alpha + 1) ** (m * (1 - 1 / c))
                    assert composition_count(n, m, c * alpha) >= crude


class TestCompositions:
    def test_count_matches_composition_count(self):
        for n, m, d in product(range(1, 9), range(1, 5), range(0, 10)):
            assert sum(1 for _ in compositions(n, m, d)) == composition_count(n, m, d)

    @pytest.mark.parametrize("n,m,d", [(4, 3, 2), (6, 3, 6), (5, 1, 5), (5, 1, 4), (0, 3, 1), (7, 4, 3)])
    def test_matches_brute_force_in_lexicographic_order(self, n, m, d):
        brute = [tup for tup in product(range(d + 1), repeat=m) if sum(tup) == n]
        assert list(compositions(n, m, d)) == brute

    def test_partitions_are_the_non_increasing_compositions_in_order(self):
        for n, m in product(range(15), range(1, 5)):
            want = [c for c in compositions(n, m, n) if all(x >= y for x, y in zip(c, c[1:]))]
            assert list(partitions(n, m)) == want


def truncated_power(p, k, n):
    """Coefficients 0..n of p^k by k truncated convolutions."""
    acc = [1] + [0] * n
    for _ in range(k):
        nxt = [0] * (n + 1)
        for i, a in enumerate(acc):
            for l, w in enumerate(p[: n + 1 - i]):
                nxt[i + l] += a * w
        acc = nxt
    return acc


def hypergeometric_cell(p0, a, b, d):
    """p_0 = p0, (l+1) p_{l+1} = (a + b*l) p_l for l < d, checked to be integers."""
    p = [Fraction(p0)]
    for l in range(d):
        p.append(p[l] * (a + b * l) / (l + 1))
    assert all(c.denominator == 1 for c in p)
    return [int(c) for c in p]


@st.composite
def shaped_cells(draw):
    """(p0, a, b, d) of the three cells the package raises, p0 scaled by s."""
    s = draw(st.integers(-50, 50).filter(bool))
    d = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(["binomial", "exponential", "ones"]))
    if shape == "binomial":
        beta = draw(st.integers(0, 12))
        return s, beta, -1, min(d, beta)
    if shape == "exponential":
        return s * math.factorial(d), 1, 0, d
    return s, 1, 1, d


class TestPowerCoeffs:
    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(0, 7),
        s=st.integers(-50, 50).filter(bool),
        a=st.integers(-12, 12),
        b=st.integers(-3, 3),
        k=st.integers(0, 6),
        n=st.integers(0, 30),
    )
    @example(d=5, s=1, a=9, b=-1, k=4, n=30)  # binomial cell
    @example(d=5, s=1, a=1, b=0, k=4, n=30)  # exponential cell, p0 = d!
    @example(d=5, s=1, a=1, b=1, k=6, n=30)  # all-ones cell, scaled by d!
    def test_matches_repeated_convolution(self, d, s, a, b, k, n):
        p0 = s * math.factorial(d)  # keeps every coefficient an integer
        p = hypergeometric_cell(p0, a, b, d)
        q = _power_coeffs(p0, a, b, d, k, n)
        assert len(q) == min(n, k * (len(p) - 1)) + 1
        assert q + [0] * (n + 1 - len(q)) == truncated_power(p, k, n)

    @settings(max_examples=300, deadline=None)
    @given(cell=shaped_cells(), k=st.integers(0, 12), n=st.integers(0, 60))
    @example(cell=(3, 1, 1, 0), k=5, n=10)  # d = 0
    @example(cell=(1, 4, -1, 4), k=6, n=30)  # cap >= beta: E = 0
    @example(cell=(7 * 120, 1, 0, 5), k=3, n=4)  # n < d
    @example(cell=(2, 9, -1, 3), k=4, n=40)  # n > k*d
    @example(cell=(5, 1, 1, 4), k=0, n=9)
    @example(cell=(-6, 1, 0, 3), k=1, n=9)
    def test_both_orders_match_repeated_convolution(self, cell, k, n):
        p0, a, b, d = cell
        p = hypergeometric_cell(p0, a, b, d)
        top = min(n, k * d)
        want = truncated_power(p, k, n)[: top + 1]
        assert _miller_power(p, k, top) == want
        assert _chain_power(p, a, b, k, top) == want

    @pytest.mark.parametrize(
        "d,k,n,order",
        [
            (93, 16, 1000, "chain"),  # u=10^6 m=16 c=3/2: 5,841 chain steps against 88,722
            (1, 4096, 4096, "miller"),  # m=n=4096 cap=1: 4,096 Miller steps against 4.2M
            (0, 5, 10, "miller"),
        ],
    )
    def test_order_follows_the_step_counts(self, monkeypatch, d, k, n, order):
        taken = []

        def spy(name):
            real = getattr(combinatorics, name)

            def call(*args):
                taken.append(name)
                return real(*args)

            return call

        for name in ("_miller_power", "_chain_power"):
            monkeypatch.setattr(combinatorics, name, spy(name))
        _power_coeffs(1, 62500, -1, d, k, n)
        assert taken == [f"_{order}_power"]


def miller_full_power(p, k, n):
    """Coefficients 0..n of p^k (p_0 != 0), every one by Miller's loop over the full power."""
    d = len(p) - 1
    q = [p[0] ** k]
    for j in range(1, n + 1):
        s = sum(((k + 1) * i - j) * p[i] * q[j - i] for i in range(1, min(j, d) + 1))
        q.append(s // (j * p[0]))
    return q


@st.composite
def counting_points(draw, least=0):
    """(k, d, n, cap): k copies of a cell of degree d, n below, at or above k*d, cap in 0..n+1;
    k and n at least `least`."""
    k = draw(st.integers(least, 9))
    d = draw(st.integers(0, 6))
    n = max(least, k * d + draw(st.integers(-12, 3)))
    return k, d, n, draw(st.integers(0, n + 1))


class TestEvenPowerRead:
    """The coefficient readers that take half of an even power against the full power."""

    @pytest.mark.parametrize(
        "d,k,n,power",
        [
            (93, 16, 1000, 8),  # u=10^6 m=16 c=3/2: 244 pairs, at most 16*1000/38
            (125, 16, 1000, 16),  # c=2: 500 pairs
            (500, 2, 1000, 1),  # c=1: the one square p_500^2
            (750, 2, 1000, 2),  # c=3/2: 250 pairs, above 2*1000/10
            (93, 15, 1000, 15),  # odd k
        ],
    )
    def test_half_power_where_the_pairs_are_few(self, monkeypatch, d, k, n, power):
        powers = []
        real = combinatorics._power_coeffs

        def spy(p0, a, b, d, k, n):
            powers.append(k)
            return real(p0, a, b, d, k, n)

        monkeypatch.setattr(combinatorics, "_power_coeffs", spy)
        got = combinatorics.power_coeff(1, 62500, -1, d, k, n)
        assert powers == [power]
        assert got == real(1, 62500, -1, d, k, n)[n]

    @settings(max_examples=300, deadline=None)
    @given(point=counting_points(), extra=st.integers(1, 4))
    @example(point=(8, 3, 24, 3), extra=1)  # n = k*d: one term
    @example(point=(8, 3, 25, 3), extra=1)  # n > k*d: 0
    @example(point=(6, 4, 13, 14), extra=2)  # cap above n
    @example(point=(0, 2, 0, 0), extra=1)
    def test_count_ideal_sets_matches_the_full_power(self, point, extra):
        k, beta, n, cap = point
        d = min(cap, beta, n)
        one = miller_full_power([binom(beta, l) for l in range(d + 1)], k, n)
        assert count_ideal_sets([beta] * k, n, cap) == one[n]
        # a second group: `extra` fibers one key larger
        d2 = min(cap, beta + 1, n)
        two = miller_full_power([binom(beta + 1, l) for l in range(d2 + 1)], extra, n)
        want = sum(one[i] * two[n - i] for i in range(n + 1))
        assert count_ideal_sets([beta] * k + [beta + 1] * extra, n, cap) == want

    @settings(max_examples=300, deadline=None)
    @given(point=counting_points(least=1))
    @example(point=(4, 2, 9, 2))  # m*cap < n: 0
    @example(point=(4, 2, 8, 2))
    def test_p_tmax_le_matches_the_full_power(self, point):
        m, _, n, cap = point
        d = min(cap, n)
        cell = [math.factorial(d) // math.factorial(l) for l in range(d + 1)]
        sequences = miller_full_power(cell, m, n)[n] * math.factorial(n) // math.factorial(d) ** m
        assert p_tmax_le(n, m, cap) == Fraction(sequences, m**n)

    @settings(max_examples=300, deadline=None)
    @given(point=counting_points(least=1))
    @example(point=(6, 3, 19, 0))  # n > m*d: 0
    @example(point=(6, 3, 18, 0))
    def test_composition_count_matches_the_full_power(self, point):
        m, d, n, _ = point
        assert composition_count(n, m, d) == miller_full_power([1] * (d + 1), m, n)[n]


def test_ln_fraction_handles_huge_terms():
    q = Fraction(math.factorial(300), math.factorial(299))
    assert ln_fraction(q) == pytest.approx(math.log(300))
    with pytest.raises(ValueError):
        ln_fraction(Fraction(0))


# pi and the Bernoulli numbers B_2..B_14 of Stirling's series, for 50-digit references.
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6))

# A float mass e^x carries the rounding of its exponent x, a few ulps of |x|
# (up to about 460 on these grids), and below k = 16 _stirlerr loses a few
# ulps of ln 16! to cancellation; the worst error measured on these grids was
# 3.8e-14 relative, at (n, m) = (1000, 7).
KERNEL_TOL = 5e-14


def decimal_ln_factorial(k: int) -> Decimal:
    """ln k! at 50 digits: exact below k = 1000, and from there Stirling's
    series to B_14, whose next term is below 1e-46."""
    with localcontext() as ctx:
        ctx.prec = 50
        if k < 1000:
            return Decimal(math.factorial(k)).ln()
        d = Decimal(k)
        total = (d + Decimal("0.5")) * d.ln() - d + (2 * PI).ln() / 2
        for i, b in enumerate(BERNOULLI, 1):
            total += Decimal(b.numerator) / (b.denominator * 2 * i * (2 * i - 1)) / d ** (2 * i - 1)
        return total


def decimal_ln_poisson(j: int, n: int, m: int) -> Decimal:
    """ln P(Poisson(n/m) = j) at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        lam = Decimal(n) / m
        return (j * lam.ln() if j else 0) - lam - decimal_ln_factorial(j)


def decimal_ln_binomial(k: int, n: int, m: int) -> Decimal:
    """ln P(Bin(n, 1/m) = k) at 50 digits, m >= 2."""
    with localcontext() as ctx:
        ctx.prec = 50
        ln_choose = decimal_ln_factorial(n) - decimal_ln_factorial(k) - decimal_ln_factorial(n - k)
        return ln_choose - k * Decimal(m).ln() + (n - k) * (Decimal(m - 1) / m).ln()


def decimal_window(ln_mass, m: int, mode: int, top: int) -> tuple[int, int]:
    """The ends (lo, hi) of the j in [0, top] around mode whose reference mass
    times m is at least 2^-64, found by bisection: the mass is unimodal."""
    with localcontext() as ctx:
        ctx.prec = 50
        floor = Decimal(2).ln() * -64 - Decimal(m).ln()

    def inside(j: int) -> bool:
        return ln_mass(j) >= floor

    lo = bisect.bisect_left(range(mode + 1), True, key=inside)
    hi = mode + bisect.bisect_left(range(mode, top + 1), True, key=lambda j: not inside(j)) - 1
    return lo, hi


def assert_within_kernel_tol(got: float, ln_want: Decimal, where) -> None:
    with localcontext() as ctx:
        ctx.prec = 50
        assert abs(Decimal(got) / ln_want.exp() - 1) <= KERNEL_TOL, where


# lam = n/m in {10^-3, 1/2, 1, 10, 256, 10^4, 10^7}
POISSON_POINTS = [(1, 1000), (1, 2), (64, 64), (640, 64), (2**14, 64), (64 * 10**4, 64), (64 * 10**7, 64)]


class TestFloatKernel:
    @pytest.mark.parametrize("n,m", POISSON_POINTS)
    def test_poisson_window_matches_decimal_reference(self, n, m):
        want = decimal_window(lambda j: decimal_ln_poisson(j, n, m), m, n // m, n // m + 10**6)
        assert _poisson_window(n, m) == want

    @pytest.mark.parametrize("n,m", POISSON_POINTS)
    def test_poisson_pmf_matches_decimal_reference(self, n, m):
        lo, hi = _poisson_window(n, m)
        js = {lo, hi, *range(lo, hi + 1, max(1, (hi - lo) // 200))}
        if n <= 256 * m:  # e^-lam is a normal float here
            js.add(0)
        for j in sorted(js):
            assert_within_kernel_tol(_poisson_pmf(j, n, m), decimal_ln_poisson(j, n, m), j)

    @pytest.mark.parametrize("n,m", [(10, 2), (30, 7), (100, 100), (1000, 7), (2**14, 64), (2**40, 2**32)])
    def test_binomial_pmf_matches_decimal_reference(self, n, m):
        lo, hi = decimal_window(lambda k: decimal_ln_binomial(k, n, m), m, (n + 1) // m, n)
        ks = {max(1, lo), hi, *range(max(1, lo), hi + 1, max(1, (hi - lo) // 200))}
        if n <= 100:  # m^-n is a normal float here
            ks.add(n)
        for k in sorted(ks):
            assert_within_kernel_tol(_binomial_pmf(k, n, m), decimal_ln_binomial(k, n, m), k)
