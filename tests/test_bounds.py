import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealhash import bounds
from idealhash.bounds import (
    AdviceReport,
    advice_report,
    bound_report,
    comparison_bounds,
    lower_main,
    lower_universe,
    upper_main,
    upper_main_base_nats,
)
from idealhash.checks import check_upper_base_constant
from idealhash.combinatorics import binom, ln_fraction
from idealhash.errors import BoundNotApplicableError
from idealhash.hashspace import Params, balanced_fiber_sizes
from idealhash.oracle import count_ideal_sets, exact_ideal_probability, min_family_size_exact


def splitter_ln(u: int, n: int, m: int) -> float:
    """ln of the perfect-splitter bound sqrt(2*pi*alpha)^m * e^(m/(12*alpha)) * sqrt(n/(2*pi)) * ln u."""
    alpha = n / m
    per_cell = 0.5 * math.log(2.0 * math.pi * alpha) + 1.0 / (12.0 * alpha)
    return m * per_cell + 0.5 * math.log(n / (2.0 * math.pi)) + math.log(math.log(u))


def decimal_neg_ln1m(q: Fraction) -> Decimal:
    """-ln(1-q) to 50 digits: 1-q is formed at a working precision 50 digits
    beyond q's denominator, so no digit of q is lost to cancellation."""
    with localcontext() as ctx:
        ctx.prec = 50 + len(str(q.denominator))
        return -(Decimal(q.denominator - q.numerator) / Decimal(q.denominator)).ln()


def decimal_ln_tight(u: int, m: int, n: int, c: Fraction) -> Decimal:
    """ln(1 + ln C(u,n) / -ln(1-p)) at 50 digits, p = M_c / C(u,n)."""
    total = binom(u, n)
    m_c = count_ideal_sets(balanced_fiber_sizes(u, m), n, math.floor(c * Fraction(n, m)))
    with localcontext() as ctx:
        ctx.prec = 50
        return (1 + Decimal(total).ln() / decimal_neg_ln1m(Fraction(m_c, total))).ln()


def decimal_loose_ceiling(u: int, m: int, n: int, c: Fraction) -> int:
    """ceil((C(u,n)/M_c) * n * ln u), the value carried to its digit count + 30."""
    total = binom(u, n)
    m_c = count_ideal_sets(balanced_fiber_sizes(u, m), n, math.floor(c * Fraction(n, m)))
    with localcontext() as ctx:
        ctx.prec = len(str(total * n // m_c)) + 30
        v = Decimal(total * n) / Decimal(m_c) * Decimal(u).ln()
    assert v != v.to_integral_value()  # ln u is irrational for u >= 2
    return math.ceil(v)


def decimal_ln_upper_fk(u: int, m: int, n: int) -> Decimal:
    """ln(n ln u / -ln(1-q)) at 50 digits, q = m! / ((m-n)! m^n)."""
    q = Fraction(math.factorial(m), math.factorial(m - n) * m**n)
    with localcontext() as ctx:
        ctx.prec = 50
        return (n * Decimal(u).ln() / decimal_neg_ln1m(q)).ln()


# pi and the Bernoulli numbers B_2..B_14 of Stirling's series, for 50-digit references.
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6))


def decimal_ln_q(m: int) -> Decimal:
    """ln(m!/m^m) at 50 digits: exact at desk scale, and past it Stirling's
    series to B_14, whose next term is below 1e-60 from m = 2^15 on."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(m)
        if m * m.bit_length() <= bounds.DESK_SCALE_BITS:
            return Decimal(math.factorial(m)).ln() - m * d.ln()
        total = d.ln() / 2 - d + (2 * PI).ln() / 2
        for k, b in enumerate(BERNOULLI, 1):
            total += Decimal(b.numerator) / (b.denominator * 2 * k * (2 * k - 1)) / d ** (2 * k - 1)
        return total


# A gap of 1e-9 in ln is a relative error of 1e-9 in the bound.
LN_TOL = 1e-9


class TestLowerMain:
    def test_does_not_apply_at_c_at_least_m(self):
        # one function is c-ideal for every set there; eps is still checked first
        for p in (Params(16, 2, 4, 2), Params(1, 1, 1)):
            e = bound_report(p).entry("lower.main")
            assert e.ln is None and e.validity_note == "c >= m: a single function suffices"
            with pytest.raises(ValueError, match=r"^need eps in \[0, 1\)$"):
                bound_report(p, eps=Fraction(10) ** 400)

    def test_anchor_against_high_precision(self):
        got = lower_main(Params(10, 10, 10), Fraction(0))
        with localcontext() as ctx:
            ctx.prec = 50
            want = (Decimal(10) * Decimal(-1).exp() / 4).exp()  # exp(10 * e^-1 * (1/2)^2)
        assert math.exp(got) == pytest.approx(float(want), rel=1e-12)
        assert math.exp(got) == pytest.approx(2.5086, rel=1e-4)

    def test_strictly_increasing_in_m(self):
        values = [lower_main(Params(2 * m, m, 2 * m), Fraction(0)) for m in range(1, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_eps_shrinks_the_bound(self):
        p = Params(10, 10, 10)
        base = lower_main(p, Fraction(0))
        shrunk = lower_main(p, Fraction(1, 10))
        assert shrunk < base

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            lower_main(Params(4, 4, 4), Fraction(1))

    def test_eps_whose_float_is_one_takes_the_exact_log(self):
        eps = 1 - Fraction(1, 10**20)
        assert float(eps) == 1.0
        assert lower_main(Params(4, 4, 4), eps) == pytest.approx(-20 * math.log(10), rel=1e-12)

    def test_oracle_comparison_logged_not_asserted(self):
        # the asymptotic form may cross 1/p at desk scale; record the gap only
        gaps = []
        for u, m, n in ((8, 2, 4), (12, 3, 6), (10, 2, 4)):
            p = Params(u, m, n, 1)
            inv_p = -ln_fraction(exact_ideal_probability(p).probability)
            gaps.append(inv_p - lower_main(p, Fraction(0)))
        assert len(gaps) == 3  # comparison ran; no hard assertion by design


class TestLowerUniverse:
    def test_matches_exact_minimum_at_anchor(self):
        assert lower_universe(Params(4, 2, 2)) == pytest.approx(2.0)
        assert min_family_size_exact(Params(4, 2, 2, 1)) == 2

    def test_power_of_two_universe(self):
        assert lower_universe(Params(2**16, 16, 16)) == pytest.approx(4.0)

    def test_not_applicable_when_cap_swallows_universe(self):
        with pytest.raises(BoundNotApplicableError):
            lower_universe(Params(4, 2, 4, 2))  # c*alpha = 4 >= u

    def test_not_applicable_at_c_at_least_m(self):
        with pytest.raises(BoundNotApplicableError):
            lower_universe(Params(100, 2, 2, 2))

    def test_ceiling_is_the_least_k_with_m_to_the_k_times_c_alpha_at_least_u(self):
        # u within one of m^k * c*alpha, where ceil of the float log_m(u / (c*alpha)) can be one off
        float_misses = 0
        for m in (2, 3, 4, 8):
            for n in (m, 2 * m, 4 * m):
                for c in (Fraction(1), Fraction(3, 2), Fraction(2)):
                    ca = c * Fraction(n, m)
                    for k in range(1, 7):
                        target = m**k * ca
                        for u in {math.floor(target) - 1, math.floor(target), math.ceil(target), math.ceil(target) + 1}:
                            if c >= m or u < n or u <= ca:
                                continue
                            p = Params(u, m, n, c)
                            want = next(j for j in range(1, u + 1) if m**j * ca >= u)
                            assert bound_report(p).entry("lower.universe").ceiling == want, p
                            float_misses += math.ceil(lower_universe(p)) != want
        assert float_misses > 0  # the grid reaches points where the float ceiling is wrong
        assert bound_report(Params(24, 2, 4, Fraction(3, 2))).entry("lower.universe").ceiling == 3  # 2^3 * 3 = 24


class TestUpperMain:
    def test_anchor_value_and_ceiling(self):
        um = upper_main(Params(16, 2, 2))
        assert math.exp(um) == pytest.approx(11.611, rel=1e-3)
        assert math.ceil(math.exp(um)) == 12

    def test_coincides_with_splitter_form_at_c_one(self):
        for m in range(2, 51):
            for alpha in range(1, 9):
                n = m * alpha
                u = max(n * n, 4)
                p = Params(u, m, n)
                a = upper_main(p)
                b = splitter_ln(u, n, m)
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
                entries = {e.name: e for e in comparison_bounds(p)}
                assert entries["upper.naor"].ln == a

    def test_dominates_lower_main_on_grid(self):
        for m in range(1, 21):
            for alpha in range(1, 5):
                for c in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
                    n = m * alpha
                    u = max(n * n, 4)
                    p = Params(u, m, n, c)
                    assert upper_main(p) >= lower_main(p, Fraction(0))

    def test_ceiling_is_null_on_the_sweep(self):
        # the value is a float formula, so no integer is printed for it
        for p in SWEEP:  # (10^6, 64, 512, 1) among them
            assert bound_report(p).entry("upper.main").ceiling is None, p

    def test_overflow_is_flagged_not_raised(self):
        # ln stays finite and is reported; only the integer ceiling is dropped
        p = Params(2400, 1200, 1200, 1)
        um = upper_main(p)
        assert math.isfinite(um) and um > math.log(sys.float_info.max)
        entry = bound_report(p).entry("upper.main")
        assert entry.ln == um
        assert entry.ceiling is None


class TestProbabilityUpper:
    def test_anchor_tight_equals_exact_minimum(self):
        rep = bound_report(Params(4, 2, 2, 1))
        tight = rep.entry("upper.prob.tight").ceiling
        loose = rep.entry("upper.prob.loose").ceiling
        assert tight == 2
        assert loose == 5
        assert min_family_size_exact(Params(4, 2, 2, 1)) == tight

    def test_loose_dominates_tight_on_grid(self):
        for u in range(3, 9):
            for m in (2, 3):
                for n in range(m, min(u, 5) + 1):
                    rep = bound_report(Params(u, m, n, 1))
                    if not rep.entry("upper.prob.tight").valid:
                        continue  # M_c = 0
                    tight = rep.entry("upper.prob.tight").ceiling
                    loose = rep.entry("upper.prob.loose").ceiling
                    assert tight <= loose

    def test_loose_ceiling_matches_decimal_reference_on_the_sweep(self):
        for p in SWEEP:  # (10^6, 64, 512, 1) among them; every value lies in the float range
            assert bound_report(p).entry("upper.prob.loose").ceiling == decimal_loose_ceiling(p.u, p.m, p.n, p.c), p

    def test_loose_ceiling_is_exact_past_float_precision(self):
        # the float image was 658946529239395271433749959848947289788748496378607435776
        loose = bound_report(Params(10**6, 64, 512)).entry("upper.prob.loose").ceiling
        assert loose == 658946529239395316194894869056341612467523235803465296033
        assert int(float(loose)) != loose

    def test_certain_probability_needs_one_function(self):
        p = Params(4, 2, 2, 2)  # c = m: every one of the C(4,2) sets is ideal
        assert exact_ideal_probability(p).m_c == binom(4, 2)
        tight = bound_report(p).entry("upper.prob.tight").ceiling
        assert tight == 1

    @pytest.mark.parametrize(
        "u,m,n,c",
        [
            (8, 2, 4, 1),
            (64, 4, 8, Fraction(3, 2)),
            (256, 8, 16, 1),
            (10**6, 16, 128, 1),  # p = 5.9e-13
            (10**6, 16, 256, 1),  # p = 1.5e-18
            (10**6, 16, 16, 15),  # p = 1 - 8.7e-19 rounds to 1.0 as a float
            (2400, 1200, 1200, 1),  # p = e^-828, below the float range
        ],
    )
    def test_tight_matches_decimal_reference(self, u, m, n, c):
        want = decimal_ln_tight(u, m, n, Fraction(c))
        tight = bound_report(Params(u, m, n, c)).entry("upper.prob.tight")
        assert tight.valid
        assert abs(tight.ln - float(want)) <= LN_TOL
        r = float(want.exp()) - 1
        if math.isinf(r):
            assert tight.ceiling is None
        else:
            assert tight.ceiling == pytest.approx(1 + math.floor(r), rel=1e-12)

    @pytest.mark.parametrize(
        "u,m,n,want",
        [
            (10**6, 16, 128, 2155691341095195),  # 1 + r = 2155691341095195.730...
            (10**6, 16, 256, 668425885221742476),  # 1 + r = 668425885221742476.931...
            (10**6, 30, 30, 263645592772275),  # 1 + r = 263645592772275.402...
        ],
    )
    def test_tight_ceiling_is_exact_beyond_float_precision(self, u, m, n, want):
        assert bound_report(Params(u, m, n, 1)).entry("upper.prob.tight").ceiling == want

    def test_tight_ceiling_is_one_plus_floor_r_on_grid(self):
        # K = 1 + floor(r) is the integer with K - 1 <= r < K, r = ln T / ln(T/S),
        # T = C(u,n), S = T - M_c; in integers, (T/S)^(K-1) <= T < (T/S)^K
        for u in range(3, 13):
            for m in (2, 3, 4):
                for n in range(m, min(u, 6) + 1):
                    for c in (Fraction(1), Fraction(3, 2)):
                        p = Params(u, m, n, c)
                        ic = exact_ideal_probability(p)
                        if ic.m_c == 0:
                            continue
                        k = bound_report(p).entry("upper.prob.tight").ceiling
                        t, s = ic.total, ic.total - ic.m_c
                        if s == 0:
                            assert k == 1
                        else:
                            assert t ** (k - 1) <= t * s ** (k - 1) and t**k > t * s**k, (u, m, n, c)

    def test_past_float_range_ceilings_are_none(self):
        rep = bound_report(Params(2400, 1200, 1200, 1))
        assert rep.entry("upper.prob.tight").ceiling is None
        assert rep.entry("upper.prob.loose").ceiling is None
        assert rep.entry("upper.main").ceiling is None

    def test_yao_is_tight_at_its_proven_shrink_factor(self):
        # t = 1/(1-p): floor(ln C / ln t) + 1 = 1 + floor(ln C / -ln(1-p)), tight's count
        rep = bound_report(Params(6, 4, 4, 1))
        yao = rep.entry("upper.yao")
        assert yao == rep.entry("upper.prob.tight")._replace(name="upper.yao", validity_note="t = 1/(1-p)")
        assert yao.ceiling == 9  # exact --with-hc gives H = 5

    @pytest.mark.parametrize("u,m,n", [(10**9, 16, 20000), (10**18, 1000, 10**9), (6, 2, 3)])
    def test_yao_is_null_with_tights_note_where_tight_is(self, u, m, n):
        rep = bound_report(Params(u, m, n))
        tight, yao = rep.entry("upper.prob.tight"), rep.entry("upper.yao")
        assert not yao.valid and yao.validity_note == tight.validity_note != ""


class TestComparisonBounds:
    def test_exact_volume_form_anchor(self):
        # the volume bound comes from exact counts in bound_report only
        names = {e.name for e in comparison_bounds(Params(8, 2, 4))}
        assert "lower.volume" not in names
        vol = bound_report(Params(8, 2, 4, 1)).entry("lower.volume")
        assert vol.valid
        assert math.exp(vol.ln) == pytest.approx(70 / 36, rel=1e-12)

    def test_fk_flags_track_the_perfect_hashing_regime(self):
        entries = {e.name: e for e in comparison_bounds(Params(16, 2, 4))}
        assert not entries["lower.fk"].valid  # n > m
        entries = {e.name: e for e in comparison_bounds(Params(16, 4, 4, Fraction(3, 2)))}
        assert not entries["lower.fk"].valid  # c > 1
        entries = {e.name: e for e in comparison_bounds(Params(16, 4, 4))}
        assert entries["lower.fk"].valid
        assert entries["upper.fk"].valid

    def test_fk_needs_two_keys(self):
        # one key cannot collide, so neither bound applies at n = m = 1
        entries = {e.name: e for e in comparison_bounds(Params(16, 1, 1))}
        assert not entries["lower.fk"].valid
        assert not entries["upper.fk"].valid
        assert "m too small" not in entries["upper.fk"].validity_note

    def test_fk_anchor_value(self):
        # m^(n-1) ln(u) (m-n+1)! / (m! ln(m-n+2)) at u=4, m=2, n=2 evaluates to 2
        entries = {e.name: e for e in comparison_bounds(Params(4, 2, 2))}
        assert math.exp(entries["lower.fk"].ln) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("u,m,n", [(16, 4, 4), (10**6, 20, 20), (10**6, 30, 30), (10**6, 40, 40), (10**6, 60, 60)])
    def test_upper_fk_matches_decimal_reference(self, u, m, n):
        entries = {e.name: e for e in comparison_bounds(Params(u, m, n))}
        fk = entries["upper.fk"]
        assert fk.valid
        assert abs(fk.ln - float(decimal_ln_upper_fk(u, m, n))) <= LN_TOL

    @pytest.mark.parametrize("m", [2**15, 2**16])
    def test_upper_fk_past_desk_scale_matches_the_exact_path(self, m):
        # past desk scale ln q comes from Stirling's series, not from m! and m**m
        assert m * m.bit_length() > bounds.DESK_SCALE_BITS
        u = 10**12
        fk = {e.name: e for e in comparison_bounds(Params(u, m, m))}["upper.fk"]
        exact = math.log(m) + math.log(math.log(u)) - bounds._ln_neg_ln1m(math.factorial(m), m**m)
        assert fk.ln == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "m",
        [2, 64, 1200, 2**15, 10**9, 10**30, 10**100, 10**200],
        ids=["2", "64", "1200", "2^15", "10^9", "10^30", "10^100", "10^200"],
    )
    def test_lower_fk_matches_decimal_reference(self, m):
        # ln(ln u / (m q ln 2)); at m = n = 10^30 a difference of lgamma totals printed it above upper.fk
        u = 10 * m
        entries = {e.name: e for e in comparison_bounds(Params(u, m, m))}
        with localcontext() as ctx:
            ctx.prec = 50
            want = Decimal(u).ln().ln() - Decimal(2).ln().ln() - Decimal(m).ln() - decimal_ln_q(m)
        assert entries["lower.fk"].ln == pytest.approx(float(want), rel=1e-15, abs=0)
        assert entries["upper.fk"].valid
        assert entries["lower.fk"].ln <= entries["upper.fk"].ln

    def test_naor_needs_u_at_least_two(self):
        entries = {e.name: e for e in comparison_bounds(Params(1, 1, 1))}
        assert entries["upper.naor"].ln is None
        assert entries["upper.naor"].validity_note == "needs u >= 2 (it carries ln ln u)"

    def test_mehlhorn_requires_c_one(self):
        entries = {e.name: e for e in comparison_bounds(Params(8, 2, 4, Fraction(3, 2)))}
        assert not entries["lower.mehlhorn"].valid

    def test_mehlhorn_value(self):
        entries = {e.name: e for e in comparison_bounds(Params(8, 2, 4))}
        want = math.sqrt(2 * math.pi * 2) ** 1 / math.sqrt(2)
        assert math.exp(entries["lower.mehlhorn"].ln) == pytest.approx(want, rel=1e-12)


def reference_advice(p, eps):
    """The advice evaluator as it was before it read the bound report."""
    u, m, c = p.u, p.m, p.c
    notes: list[str] = []
    if c >= m:
        return AdviceReport(
            lower_easy=0.0,
            lower_easy_bits=0.0,
            lower_main=0.0,
            upper_main=0.0,
            notes=("c >= m: a single function suffices, zero advice bits",),
        )
    ca = c * p.alpha
    inner = math.log(u) - ln_fraction(ca)
    if inner > 0 and m >= 2:
        lower_easy = math.log(lower_universe(p))
    else:
        lower_easy = 0.0
        notes.append("easy lower bound not applicable (u <= c*alpha or m < 2)")
    try:
        lower_easy_bits = max(0.0, math.log2(lower_universe(p)))
    except (BoundNotApplicableError, ValueError):
        lower_easy_bits = 0.0
    lower_main_bits = max(0.0, lower_main(p, eps) / math.log(2.0))
    feasible = m * math.floor(c * p.alpha) >= p.n  # else no n keys fit under the cap
    upper_main_bits = max(0.0, upper_main(p) / math.log(2.0)) if feasible else None
    return AdviceReport(
        lower_easy=max(0.0, lower_easy),
        lower_easy_bits=lower_easy_bits,
        lower_main=lower_main_bits,
        upper_main=upper_main_bits,
        notes=tuple(notes),
    )


@st.composite
def advice_points(draw):
    """A valid Params (m <= 64, n <= 512, u <= 2^40) with eps."""
    m = draw(st.integers(1, 64))
    n = draw(st.integers(m, 512))
    u = draw(st.one_of(st.integers(n, 4 * n), st.integers(n, 2**40)))
    c = draw(st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(m), Fraction(7)]))
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1, 3)]))
    return Params(u, m, n, c), eps


# a 267-point bound sweep over five universes, six table sizes, four loads and three factors
SWEEP = [
    Params(u, m, n, c)
    for u in (8, 16, 64, 10**3, 10**6)
    for m in (2, 3, 4, 8, 16, 64)
    for n in (m, 2 * m, 4 * m, 8 * m)
    for c in (Fraction(1), Fraction(3, 2), Fraction(2))
    if n <= u
]


def crossings(report):
    """The (lower, upper) name pairs of one report where a valid proven lower
    entry lies above a valid upper entry not marked asymptotic, in ln or in
    non-null ceilings."""
    lows = [e for e in map(report.entry, ("lower.volume", "lower.universe")) if e.valid]
    ups = [e for e in report.entries if e.kind == "upper" and e.valid and "asymptotic" not in e.validity_note]
    return [
        (lo.name, up.name)
        for lo in lows
        for up in ups
        if lo.ln > up.ln + LN_TOL * max(1.0, abs(up.ln))
        or (lo.ceiling is not None and up.ceiling is not None and lo.ceiling > up.ceiling)
    ]


def assert_no_upper_without_a_family(report):
    """Where m * floor(c*alpha) < n no c-ideal family exists, so no upper entry
    or the upper advice field has a value."""
    p = report.params
    if p.m * p.load_cap >= p.n:
        return
    assert [e.name for e in report.entries if e.kind == "upper" and e.valid] == [], p
    assert advice_report(report).upper_main is None, p


class TestSelfCheck:
    def test_proven_lower_entries_stay_below_upper_entries_on_the_sweep(self):
        assert len(SWEEP) == 267
        found = {p: crossings(bound_report(p)) for p in SWEEP}
        assert {p: pairs for p, pairs in found.items() if pairs} == {}

    @settings(max_examples=150, deadline=None)
    @given(advice_points())
    @example((Params(2, 1, 1), Fraction(0)))  # upper.prob.loose, .main and .naor below one function before the floor
    def test_proven_lower_entries_stay_below_upper_entries(self, point):
        assert crossings(bound_report(*point)) == []

    @pytest.mark.parametrize("u,m,n", [(6, 2, 3), (9, 2, 3)])
    def test_no_upper_entry_applies_without_a_family(self, u, m, n):
        rep = bound_report(Params(u, m, n))
        assert_no_upper_without_a_family(rep)
        for name in ("upper.main", "upper.naor", "upper.prob.tight", "upper.yao"):
            assert rep.entry(name).validity_note == "cap below ceil(alpha): no ideal family exists"

    @settings(max_examples=150, deadline=None)
    @given(advice_points())
    def test_no_upper_entry_applies_without_a_family_on_a_grid(self, point):
        assert_no_upper_without_a_family(bound_report(*point))


class TestAdviceReport:
    def test_easy_lower_anchor(self):
        adv = advice_report(bound_report(Params(2**256, 2**16, 2**16, 1)))
        want = math.log(256 * math.log(2)) - math.log(16 * math.log(2))
        assert adv.lower_easy == pytest.approx(want)
        assert adv.lower_easy == pytest.approx(2.77, abs=5e-3)

    def test_lower_main_grows_linearly_in_m(self):
        b1 = advice_report(bound_report(Params(2**20, 64, 64, 1))).lower_main
        b2 = advice_report(bound_report(Params(2**20, 128, 128, 1))).lower_main
        b4 = advice_report(bound_report(Params(2**20, 256, 256, 1))).lower_main
        assert b2 / b1 == pytest.approx(2.0, rel=0.05)
        assert b4 / b2 == pytest.approx(2.0, rel=0.05)

    def test_c_at_least_m_collapses_to_zero_bits(self):
        adv = advice_report(bound_report(Params(64, 2, 4, 2)))
        assert adv == AdviceReport(0.0, 0.0, 0.0, 0.0, adv.notes)
        assert adv.notes

    def test_values_are_log2_of_the_bounds(self):
        p = Params(2**20, 16, 64)
        report = bound_report(p)
        adv = advice_report(report)
        assert adv.lower_main == lower_main(p, Fraction(0)) / math.log(2.0)
        assert adv.upper_main == upper_main(p) / math.log(2.0)
        assert adv.lower_easy_bits == math.log2(lower_universe(p))

    def test_lower_bounds_stay_below_upper_bounds(self):
        for m in (4, 16, 64):
            for alpha in (1, 2, 4):
                n = m * alpha
                adv = advice_report(bound_report(Params(max(n * n, 16), m, n, 1)))
                assert adv.lower_main <= adv.upper_main
                assert adv.lower_easy_bits <= adv.upper_main + 1e-9

    @settings(max_examples=150, deadline=None)
    @given(advice_points())
    def test_matches_the_evaluator_it_replaced(self, point):
        p, eps = point
        got = advice_report(bound_report(p, eps))
        assert got == reference_advice(p, eps)

    @settings(max_examples=150, deadline=None)
    @given(advice_points())
    def test_easy_nats_are_the_universe_entry(self, point):
        report = bound_report(*point)
        ln = report.entry("lower.universe").ln  # None when c >= m
        assert advice_report(report).lower_easy == (0.0 if ln is None else max(0.0, ln))


class TestUpperBaseConstant:
    def test_corner_value_reproduces(self):
        assert upper_main_base_nats(Fraction(1), Fraction(1)) == pytest.approx(
            0.5 * math.log(2 * math.pi) + 1 / 12, rel=1e-12
        )
        assert check_upper_base_constant().ok  # the corner lies above the printed floor

    def test_minimality_claim_is_flagged_not_asserted(self):
        # the integer grid holds a smaller coefficient at (alpha=1, c=2);
        # the check's note exposes it instead of hiding the discrepancy
        result = check_upper_base_constant()
        corner = upper_main_base_nats(Fraction(1), Fraction(1))
        grid_min = upper_main_base_nats(Fraction(1), Fraction(2))
        assert result.note == (
            f"corner {corner:.6f} vs printed floor 1.002; grid min {grid_min:.6f} at (alpha=1, c=2)"
            " [smaller than the corner: minimality claim not reproduced]"
        )


class TestBoundReport:
    def test_names_cover_the_public_vocabulary(self):
        rep = bound_report(Params(8, 2, 4, 1))
        names = {e.name for e in rep.entries}
        for want in (
            "lower.volume",
            "lower.main",
            "lower.universe",
            "lower.fk",
            "lower.mehlhorn",
            "upper.prob.tight",
            "upper.prob.loose",
            "upper.main",
            "upper.naor",
            "upper.yao",
        ):
            assert want in names

    def test_volume_entry_uses_exact_counts(self):
        rep = bound_report(Params(8, 2, 4, 1))
        vol = rep.entry("lower.volume")
        assert vol.valid
        assert math.exp(vol.ln) == pytest.approx(70 / 36, rel=1e-12)
        assert vol.ceiling == 2

    def test_volume_entry_appears_once(self):
        for p in (Params(8, 2, 4, 1), Params(16, 4, 8, 1), Params(64, 4, 8, Fraction(3, 2))):
            assert [e.name for e in bound_report(p).entries].count("lower.volume") == 1

    def test_eps_is_refused_before_counting(self, monkeypatch):
        def forbidden(p):
            raise AssertionError("counted before checking eps")

        monkeypatch.setattr(bounds, "exact_ideal_probability", forbidden)
        with pytest.raises(ValueError) as exc:
            bound_report(Params(8, 2, 4, 1), eps=1)
        assert str(exc.value) == "need eps in [0, 1)"

    def test_without_ceilings_every_ceiling_is_null_and_nothing_else_moves(self):
        for p in SWEEP:
            for eps in (Fraction(0), Fraction(1, 3)):
                full = bound_report(p, eps)
                want = full._replace(entries=tuple(e._replace(ceiling=None) for e in full.entries))
                assert bound_report(p, eps, ceilings=False) == want

    def test_infeasible_cap_flags_counting_entries(self):
        rep = bound_report(Params(6, 2, 3, 1))  # cap 1 < ceil(3/2)
        assert not rep.entry("lower.volume").valid
        assert not rep.entry("upper.prob.tight").valid

    def test_astronomical_parameters_stay_total(self):
        rep = bound_report(Params(2**64, 64, 4096, 2))
        assert not rep.entry("lower.volume").valid  # counting skipped
        assert rep.entry("upper.main").valid
        assert rep.entry("lower.main").valid
