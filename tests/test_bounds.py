import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest

from idealhash.bounds import (
    AdviceReport,
    advice_report,
    bound_report,
    comparison_bounds,
    ln_binom,
    lower_main,
    lower_universe,
    probability_upper,
    upper_base_constant_check,
    upper_main,
    upper_main_base_nats,
    upper_yao,
    _naor_form,
)
from idealhash.combinatorics import binom, ln_fraction
from idealhash.errors import BoundNotApplicableError
from idealhash.hashspace import Params, balanced_fiber_sizes
from idealhash.oracle import count_ideal_sets, exact_ideal_probability, min_family_size_exact


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


def decimal_ln_upper_fk(u: int, m: int, n: int) -> Decimal:
    """ln(n ln u / -ln(1-q)) at 50 digits, q = m! / ((m-n)! m^n)."""
    q = Fraction(math.factorial(m), math.factorial(m - n) * m**n)
    with localcontext() as ctx:
        ctx.prec = 50
        return (n * Decimal(u).ln() / decimal_neg_ln1m(q)).ln()


# A gap of 1e-9 in ln is a relative error of 1e-9 in the bound.
LN_TOL = 1e-9


class TestLowerMain:
    def test_anchor_against_high_precision(self):
        got = lower_main(10, Fraction(1), Fraction(1), 0)
        with mpmath.workdps(50):
            want = mpmath.exp(10 * mpmath.e**-1 * mpmath.mpf(1) / 4)
        assert got.to_float() == pytest.approx(float(want), rel=1e-12)
        assert got.to_float() == pytest.approx(2.5086, rel=1e-4)

    def test_strictly_increasing_in_m(self):
        values = [lower_main(m, Fraction(2), Fraction(1), 0).log_value for m in range(1, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_eps_shrinks_the_bound(self):
        base = lower_main(10, Fraction(1), Fraction(1), 0)
        shrunk = lower_main(10, Fraction(1), Fraction(1), Fraction(1, 10))
        assert shrunk.log_value < base.log_value

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            lower_main(4, Fraction(1), Fraction(1), 1)

    def test_oracle_comparison_logged_not_asserted(self):
        # the asymptotic form may cross 1/p at desk scale; record the gap only
        gaps = []
        for u, m, n in ((8, 2, 4), (12, 3, 6), (10, 2, 4)):
            p = Params(u, m, n, 1)
            inv_p = -ln_fraction(exact_ideal_probability(p).probability)
            gaps.append(inv_p - lower_main(m, p.alpha, p.c, 0).log_value)
        assert len(gaps) == 3  # comparison ran; no hard assertion by design


class TestLowerUniverse:
    def test_matches_exact_minimum_at_anchor(self):
        assert lower_universe(4, 2, 2, 1) == pytest.approx(2.0)
        assert min_family_size_exact(Params(4, 2, 2, 1)) == 2

    def test_power_of_two_universe(self):
        assert lower_universe(2**16, 16, 16, 1) == pytest.approx(4.0)

    def test_not_applicable_when_cap_swallows_universe(self):
        with pytest.raises(BoundNotApplicableError):
            lower_universe(4, 2, 4, 2)  # c*alpha = 4 >= u

    def test_not_applicable_at_c_at_least_m(self):
        with pytest.raises(BoundNotApplicableError):
            lower_universe(100, 2, 2, 2)


class TestUpperMain:
    def test_anchor_value_and_ceiling(self):
        um = upper_main(16, 2, 2, 1)
        assert um.to_float() == pytest.approx(11.611, rel=1e-3)
        assert um.ceil_int() == 12

    def test_coincides_with_splitter_form_at_c_one(self):
        for m in range(2, 51):
            for alpha in range(1, 9):
                n = m * alpha
                u = max(n * n, 4)
                a = upper_main(u, n, m, 1).log_value
                b = _naor_form(u, n, m).log_value
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    def test_dominates_lower_main_on_grid(self):
        for m in range(1, 21):
            for alpha in range(1, 5):
                for c in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
                    n = m * alpha
                    u = max(n * n, 4)
                    assert (
                        upper_main(u, n, m, c).log_value
                        >= lower_main(m, Fraction(alpha), c, 0).log_value
                    )

    def test_rejects_sublinear_load(self):
        with pytest.raises(BoundNotApplicableError):
            upper_main(16, 2, 4, 1)


class TestUpperYao:
    def test_anchor(self):
        assert upper_yao(8, 4, 2.0) == 7  # floor(ln 70 / ln 2) + 1

    def test_t_equal_to_set_count_gives_two(self):
        total = binom(8, 4)
        assert upper_yao(8, 4, float(total)) == 2

    def test_residual_semantics(self):
        # C(u,n) * t^-r < 1 exactly when r exceeds ln C / ln t
        total = binom(8, 4)
        t = 2.0
        r = upper_yao(8, 4, t)
        assert total * t**-r < 1
        assert total * t ** -(r - 1) >= 1

    def test_rejects_t_at_most_one(self):
        with pytest.raises(ValueError):
            upper_yao(8, 4, 1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_t(self, t):
        with pytest.raises(ValueError):
            upper_yao(8, 4, t)

    def test_ln_binom_huge_universe(self):
        # term-sum path agrees with the exact path where both run
        exact = math.log(binom(10**4, 12))
        assert ln_binom(10**4, 12) == pytest.approx(exact, rel=1e-12)
        # u >> n: every numerator term is ln u up to O(n/u)
        huge = ln_binom(2**256, 2**16)
        want = 2**16 * 256 * math.log(2) - math.lgamma(2**16 + 1)
        assert huge == pytest.approx(want, rel=1e-12)


class TestProbabilityUpper:
    def test_anchor_tight_equals_exact_minimum(self):
        ic = exact_ideal_probability(Params(4, 2, 2, 1))
        tight, loose = probability_upper(4, 2, ic.m_c)
        assert tight == 2
        assert loose == 5
        assert min_family_size_exact(Params(4, 2, 2, 1)) == tight

    def test_loose_dominates_tight_on_grid(self):
        for u in range(3, 9):
            for m in (2, 3):
                for n in range(m, min(u, 5) + 1):
                    ic = exact_ideal_probability(Params(u, m, n, 1))
                    if ic.m_c == 0:
                        continue
                    tight, loose = probability_upper(u, n, ic.m_c)
                    assert tight <= loose

    def test_certain_probability_needs_one_function(self):
        tight, _ = probability_upper(4, 2, binom(4, 2))
        assert tight == 1

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            probability_upper(4, 2, 0)

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
        assert abs(tight.value.log_value - float(want)) <= LN_TOL
        r = float(want.exp()) - 1
        if math.isinf(r):
            assert tight.ceiling is None
        else:
            assert tight.ceiling == pytest.approx(1 + math.floor(r), rel=1e-12)

    def test_past_float_range_ceilings_are_none(self):
        rep = bound_report(Params(2400, 1200, 1200, 1))
        assert rep.entry("upper.prob.tight").ceiling is None
        assert rep.entry("upper.prob.loose").ceiling is None
        with pytest.raises(ValueError):
            probability_upper(2400, 1200, 1)


class TestComparisonBounds:
    def test_exact_volume_form_anchor(self):
        # the volume bound comes from exact counts in bound_report only
        names = {e.name for e in comparison_bounds(8, 4, 2, 1)}
        assert "lower.volume" not in names
        vol = bound_report(Params(8, 2, 4, 1)).entry("lower.volume")
        assert vol.valid
        assert vol.value.to_float() == pytest.approx(70 / 36, rel=1e-12)

    def test_fk_flags_track_the_perfect_hashing_regime(self):
        entries = {e.name: e for e in comparison_bounds(16, 4, 2, 1)}
        assert not entries["lower.fk"].valid  # n > m
        entries = {e.name: e for e in comparison_bounds(16, 2, 4, 1)}
        assert entries["lower.fk"].valid
        assert entries["upper.fk"].valid

    def test_fk_anchor_value(self):
        # m^(n-1) ln(u) (m-n+1)! / (m! ln(m-n+2)) at u=4, m=2, n=2 evaluates to 2
        entries = {e.name: e for e in comparison_bounds(4, 2, 2, 1)}
        assert entries["lower.fk"].value.to_float() == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("u,m,n", [(16, 4, 2), (10**6, 20, 20), (10**6, 30, 30), (10**6, 40, 40), (10**6, 60, 60)])
    def test_upper_fk_matches_decimal_reference(self, u, m, n):
        entries = {e.name: e for e in comparison_bounds(u, n, m, 1)}
        fk = entries["upper.fk"]
        assert fk.valid
        assert abs(fk.value.log_value - float(decimal_ln_upper_fk(u, m, n))) <= LN_TOL

    def test_mehlhorn_requires_c_one(self):
        entries = {e.name: e for e in comparison_bounds(8, 4, 2, Fraction(3, 2))}
        assert not entries["lower.mehlhorn"].valid

    def test_mehlhorn_value(self):
        entries = {e.name: e for e in comparison_bounds(8, 4, 2, 1)}
        want = math.sqrt(2 * math.pi * 2) ** 1 / math.sqrt(2)
        assert entries["lower.mehlhorn"].value.to_float() == pytest.approx(want, rel=1e-12)


class TestAdviceReport:
    def test_easy_lower_anchor(self):
        adv = advice_report(2**256, 2**16, 2**16, 1)
        want = math.log(256 * math.log(2)) - math.log(16 * math.log(2))
        assert adv.lower_easy == pytest.approx(want)
        assert adv.lower_easy == pytest.approx(2.77, abs=5e-3)

    def test_lower_main_grows_linearly_in_m(self):
        b1 = advice_report(2**20, 64, 64, 1).lower_main
        b2 = advice_report(2**20, 128, 128, 1).lower_main
        b4 = advice_report(2**20, 256, 256, 1).lower_main
        assert b2 / b1 == pytest.approx(2.0, rel=0.05)
        assert b4 / b2 == pytest.approx(2.0, rel=0.05)

    def test_c_at_least_m_collapses_to_zero_bits(self):
        adv = advice_report(64, 4, 2, 2)
        assert adv == AdviceReport(0.0, 0.0, 0.0, 0.0, 0.0, adv.notes)
        assert adv.notes

    def test_values_are_log2_of_the_bounds(self):
        u, n, m, c, t = 2**20, 64, 16, Fraction(1), 2.0
        adv = advice_report(u, n, m, c, t=t)
        assert adv.lower_main == lower_main(m, Fraction(n, m), c, 0).log2()
        assert adv.upper_main == upper_main(u, n, m, c).log2()
        assert adv.upper_yao == math.log2(upper_yao(u, n, t))
        assert adv.lower_easy_bits == math.log2(lower_universe(u, m, n, c))

    def test_lower_bounds_stay_below_upper_bounds(self):
        for m in (4, 16, 64):
            for alpha in (1, 2, 4):
                n = m * alpha
                adv = advice_report(max(n * n, 16), n, m, 1)
                assert adv.lower_main <= adv.upper_main
                assert adv.lower_easy_bits <= adv.upper_main + 1e-9


class TestUpperBaseConstant:
    def test_corner_value_reproduces(self):
        info = upper_base_constant_check()
        assert info["corner_value_nats"] == pytest.approx(
            0.5 * math.log(2 * math.pi) + 1 / 12, rel=1e-12
        )
        assert info["corner_above_floor"]

    def test_minimality_claim_is_flagged_not_asserted(self):
        # the integer grid holds a smaller coefficient at (alpha=1, c=2);
        # the report exposes it instead of hiding the discrepancy
        info = upper_base_constant_check()
        assert not info["grid_min_matches_corner"]
        assert info["grid_min_at"] == ("1", "2")
        assert info["grid_min_nats"] == pytest.approx(
            upper_main_base_nats(Fraction(1), Fraction(2)), rel=1e-12
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
        assert vol.value.to_float() == pytest.approx(70 / 36, rel=1e-12)
        assert vol.ceiling == 2

    def test_volume_entry_appears_once(self):
        for p in (Params(8, 2, 4, 1), Params(16, 4, 8, 1), Params(64, 4, 8, Fraction(3, 2))):
            assert [e.name for e in bound_report(p).entries].count("lower.volume") == 1

    def test_infeasible_cap_flags_counting_entries(self):
        rep = bound_report(Params(6, 2, 3, 1))  # cap 1 < ceil(3/2)
        assert not rep.entry("lower.volume").valid
        assert not rep.entry("upper.prob.tight").valid

    def test_astronomical_parameters_stay_total(self):
        rep = bound_report(Params(2**64, 64, 4096, 2))
        assert not rep.entry("lower.volume").valid  # counting skipped
        assert rep.entry("upper.main").valid
        assert rep.entry("lower.main").valid

    def test_prob_entries_match_probability_upper(self):
        p = Params(8, 2, 4, 1)
        rep = bound_report(p)
        ic = exact_ideal_probability(p)
        tight, loose = probability_upper(p.u, p.n, ic.m_c)
        assert rep.entry("upper.prob.tight").ceiling == tight
        assert rep.entry("upper.prob.loose").ceiling == loose
