import json
import math
from fractions import Fraction

import pytest

from idealhash.combinatorics import binom
from idealhash.bounds import bound_report, lower_universe
from idealhash.construct import (
    greedy_cover,
    random_balanced_family,
    sample_balanced_function,
    yao_family,
)
from idealhash.errors import BoundNotApplicableError, BudgetExceededError
from idealhash.hashspace import HashFunction, Params, balanced_functions
from idealhash.oracle import (
    exact_ideal_probability,
    min_family_size_exact,
    verify_family,
)

P422 = Params(4, 2, 2, 1)


def oracle_grid():
    for u in range(2, 7):
        for m in (2, 3):
            for n in range(m, min(u, 4) + 1):
                for c in (Fraction(1), Fraction(3, 2), Fraction(2)):
                    p = Params(u, m, n, c)
                    if exact_ideal_probability(p).m_c == 0:
                        continue
                    yield p


class TestRandomBalanced:
    def test_verifies_within_loose_bound_on_twenty_seeds(self):
        loose = bound_report(P422).entry("upper.prob.loose").ceiling
        assert loose == 5
        verified = 0
        for seed in range(20):
            log = random_balanced_family(P422, seed=seed, max_rounds=loose)
            if log.verified:
                verified += 1
                assert verify_family(log.family, P422).is_ideal_family
        assert verified >= 19

    def test_c_at_least_m_takes_one_round(self):
        log = random_balanced_family(Params(6, 2, 3, 2), seed=3, max_rounds=4)
        assert log.verified
        assert log.rounds == 1
        assert len(log.family) == 1

    def test_seeded_runs_are_byte_identical(self):
        a = random_balanced_family(P422, seed=11, max_rounds=8)
        b = random_balanced_family(P422, seed=11, max_rounds=8)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_different_seeds_differ(self):
        a = random_balanced_family(P422, seed=0, max_rounds=8)
        b = random_balanced_family(P422, seed=1, max_rounds=8)
        assert a.to_json_dict() != b.to_json_dict()

    def test_unverified_log_when_rounds_run_out(self):
        # cap 1 < ceil(alpha): nothing can ever cover
        p = Params(6, 2, 3, 1)
        log = random_balanced_family(p, seed=5, max_rounds=3)
        assert not log.verified
        assert log.rounds == 3
        assert log.uncovered_per_round[-1] == binom(6, 3)

    def test_samples_are_balanced_and_uniform_sizes(self):
        import random as _random

        rng = _random.Random(42)
        for _ in range(50):
            h = sample_balanced_function(rng, 7, 3)
            assert sorted(h.cells.count(c) for c in range(1, 4)) == [2, 2, 3]


class TestGreedy:
    def test_matches_exact_minimum_at_anchor(self):
        log = greedy_cover(P422, balanced_functions(P422))
        assert log.verified
        assert len(log.family) == 2
        assert verify_family(log.family, P422).is_ideal_family

    def test_matches_exact_minimum_on_grid(self):
        for p in oracle_grid():
            h_exact = min_family_size_exact(p, size_limit=8)
            log = greedy_cover(p, balanced_functions(p))
            assert log.verified, p
            assert len(log.family) == h_exact, p

    def test_uncovered_contracts_at_least_by_average(self):
        # with the full balanced pool, every set is covered by the same pool
        # fraction p, so the best pick removes at least p of what is left
        for p in (P422, Params(6, 2, 2, 1), Params(6, 3, 3, 1)):
            prob = exact_ideal_probability(p).probability
            log = greedy_cover(p, balanced_functions(p))
            total = binom(p.u, p.n)
            prev = total
            for unc in log.uncovered_per_round:
                assert Fraction(unc) <= (1 - prob) * prev
                prev = unc

    def test_hopeless_pool_returns_unverified_log(self):
        log = greedy_cover(P422, [HashFunction((1, 1, 1, 1))])
        assert not log.verified
        assert verify_family(log.family, P422).uncovered_witness is not None

    def test_balanced_pool_past_budget_raises_before_enumerating(self):
        # C(40,20) ~ 1.4e11 balanced functions: refused at the first draw, not after building them
        p = Params(40, 2, 20)
        with pytest.raises(BudgetExceededError, match=r"^u!/prod\(beta_i!\) balanced functions exceed budget 100$"):
            greedy_cover(p, balanced_functions(p, budget=100))

    def test_deterministic(self):
        a = greedy_cover(P422, balanced_functions(P422))
        b = greedy_cover(P422, balanced_functions(P422))
        assert a.to_json_dict() == b.to_json_dict()


class TestYao:
    def test_anchor_run_respects_round_and_residual_bounds(self):
        p = Params(8, 2, 4, Fraction(3, 2))
        total = binom(8, 4)
        t = 2.0
        log = yao_family(p, t=t, pool=balanced_functions(p))
        assert log.verified
        assert log.rounds <= math.floor(math.log(total) / math.log(t)) + 1
        for r, residual in enumerate(log.uncovered_per_round, start=1):
            assert residual <= total / t**r

    def test_verifies_at_effective_ideality_factor(self):
        p = Params(8, 2, 4, Fraction(3, 2))
        log = yao_family(p, t=2.0, pool=balanced_functions(p))
        assert p.load_cap == log.load_target == 3
        assert verify_family(log.family, p).is_ideal_family

    def test_second_instance(self):
        p = Params(6, 2, 3, Fraction(4, 3))
        total = binom(6, 3)
        log = yao_family(p, t=1.5, pool=balanced_functions(p))
        assert log.verified
        assert log.rounds <= math.floor(math.log(total) / math.log(1.5)) + 1

    @pytest.mark.parametrize("t", [1.0, math.inf, math.nan])
    def test_rejects_t_outside_one_to_infinity(self, t):
        p = Params(6, 2, 2, 1)
        with pytest.raises(ValueError):
            yao_family(p, t=t, pool=balanced_functions(p))

    def test_pool_exhaustion_returns_an_unverified_log(self):
        # as greedy and random do: one member, and the sets it leaves live
        p = Params(4, 2, 2, 1)
        h = HashFunction((1, 1, 2, 2))
        log = yao_family(p, t=2.0, pool=[h])
        assert log.verified is False
        assert log.family == (h,) and log.uncovered_per_round == (2,)

    def test_deterministic(self):
        p = Params(8, 2, 4, Fraction(3, 2))
        a = yao_family(p, t=2.0, pool=balanced_functions(p))
        b = yao_family(p, t=2.0, pool=balanced_functions(p))
        assert a.to_json_dict() == b.to_json_dict()


class TestSoundness:
    def test_verified_sizes_never_undercut_proven_lower_bounds(self):
        for p in oracle_grid():
            ic = exact_ideal_probability(p)
            volume = -(-ic.total // ic.m_c)
            try:
                universe = lower_universe(p)
            except BoundNotApplicableError:
                universe = 0.0
            log = greedy_cover(p, balanced_functions(p))
            if not log.verified:
                continue
            assert len(log.family) >= volume
            assert len(log.family) + 1e-9 >= universe

    def test_random_families_recheck_against_oracle(self):
        for seed in (0, 1, 2):
            log = random_balanced_family(P422, seed=seed, max_rounds=10)
            assert log.verified == verify_family(log.family, P422).is_ideal_family

    def test_every_method_certifies_only_what_verify_accepts(self):
        # includes pigeonhole points m*floor(c*alpha) < n, e.g. (7,2,3,1) and (10,3,4,1),
        # where no function is c-ideal and no method may certify
        grid = [
            Params(u, m, n, c)
            for u in range(2, 9)
            for m in (2, 3)
            for n in range(m, u + 1)
            for c in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2))
        ] + [Params(10, 3, 4, 1)]
        assert any(p.m * p.load_cap < p.n for p in grid)
        for p in grid:
            logs = [
                random_balanced_family(p, seed=0),
                greedy_cover(p, balanced_functions(p)),
                yao_family(p, t=2.0, pool=balanced_functions(p)),
            ]
            for log in logs:
                assert log.verified == verify_family(log.family, p).is_ideal_family, (p, log.method)
