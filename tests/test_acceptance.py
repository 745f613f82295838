"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with `pytest -s tests/test_acceptance.py` to see them).

Everything exact is compared with zero tolerance; log-scale comparisons carry
an explicit 1e-9 tolerance.  Monte Carlo checks run on pinned seeds.
"""

import json
import math
import time
from fractions import Fraction

from idealhash.bounds import (
    advice_report,
    bound_report,
    comparison_bounds,
    lower_main,
    lower_universe,
    upper_main,
)
from idealhash.checks import (
    check_balance_extremality,
    check_negdep_binomial,
    check_negdep_hypergeometric,
    check_poissonization_identity,
    check_replacement_direction,
    check_tmax_sandwich,
)
from idealhash.cli import run as cli_run
from idealhash.combinatorics import binom, ln_fraction
from idealhash.construct import (
    greedy_cover,
    random_balanced_family,
    yao_family,
)
from idealhash.distributions import p_tmax_le, tmax_lower_bound
from idealhash.errors import BoundNotApplicableError
from idealhash.hashspace import Params, balanced_functions
from idealhash.oracle import (
    exact_ideal_probability,
    min_family_size_exact,
    verify_family,
)
from idealhash.simulate import estimate_ideal_probability, estimate_max_load

LOG_TOL = 1e-9


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def oracle_grid():
    """Every desk-scale instance the exact search handles in milliseconds."""
    for u in range(2, 7):
        for m in (2, 3):
            for n in range(m, min(u, 4) + 1):
                for c in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
                    p = Params(u, m, n, c)
                    if exact_ideal_probability(p).m_c == 0:
                        continue
                    yield p


def test_criterion_01_poissonization_identity_exact():
    t0 = time.time()
    result = check_poissonization_identity()
    elapsed = time.time() - t0
    report(
        "1. sum-conditioned Poisson mass == multinomial mass, n<=12, m<=4, exact",
        result.ok and elapsed < 10,
        f"{result.instances} compositions, {elapsed:.1f}s",
    )


def test_criterion_02_balance_extremality():
    t0 = time.time()
    result = check_balance_extremality()
    elapsed = time.time() - t0
    report(
        "2. balanced decompositions are exactly the ideal-count argmax where the cap binds",
        result.ok and elapsed < 60,
        f"{result.instances} instances, {elapsed:.1f}s",
    )


def test_criterion_03_negative_dependence_and_replacement():
    t0 = time.time()
    results = [
        check_negdep_hypergeometric(),
        check_negdep_binomial(),
        check_replacement_direction(),
        check_tmax_sandwich(),
    ]
    elapsed = time.time() - t0
    ok = all(r.ok for r in results) and elapsed < 60
    report(
        "3. negative-dependence and replacement inequalities, exact rationals",
        ok,
        "; ".join(f"{r.name}:{r.instances}" for r in results) + f", {elapsed:.1f}s",
    )


def test_criterion_04_non_excess_lower_bound():
    t0 = time.time()
    worst_gap = -math.inf
    instances = 0
    for m in range(2, 6):
        for alpha in range(1, 4):
            for c in (Fraction(1), Fraction(2)):
                n = m * alpha
                d = math.floor(c * Fraction(n, m))
                instances += 1
                lower = tmax_lower_bound(n, m, c)
                exact = ln_fraction(p_tmax_le(n, m, d))
                worst_gap = max(worst_gap, lower - exact)
    elapsed = time.time() - t0
    report(
        "4. closed-form non-excess lower bound <= exact throw probability",
        worst_gap <= LOG_TOL and elapsed < 10,
        f"{instances} points, worst log gap {worst_gap:.3e}, {elapsed:.1f}s",
    )


def test_criterion_05_exact_minimum_anchor():
    t0 = time.time()
    p = Params(4, 2, 2, 1)
    h_exact = min_family_size_exact(p)
    universe = lower_universe(p)
    tight = bound_report(p).entry("upper.prob.tight").ceiling
    anchor_ok = h_exact == 2 and universe == 2.0 and tight == 2
    singleton_ok = True
    for u in range(2, 7):
        for m in (2, 3):
            for n in range(m, min(u, 4) + 1):
                if min_family_size_exact(Params(u, m, n, m)) != 1:
                    singleton_ok = False
    elapsed = time.time() - t0
    report(
        "5. exact minimum anchor: H(4,2,2,c=1) = 2 = universe bound = tight bound; c>=m gives 1",
        anchor_ok and singleton_ok and elapsed < 30,
        f"{elapsed:.1f}s",
    )


def test_criterion_06_sandwich_audit():
    t0 = time.time()
    instances = 0
    violations = []
    for p in (*oracle_grid(), Params(6, 4, 4, 1)):  # H = 5 at (6,4,4,1), where a shrink factor of 2 gave 4
        ic = exact_ideal_probability(p)
        h = min_family_size_exact(p, size_limit=8)
        if h is None:
            violations.append((p, "unsolved"))
            continue
        instances += 1
        volume = -(-ic.total // ic.m_c)
        rep = bound_report(p)
        tight = rep.entry("upper.prob.tight").ceiling
        loose = rep.entry("upper.prob.loose").ceiling
        if not (volume <= h <= tight <= loose):
            violations.append((p, (volume, h, tight, loose)))
        yao = rep.entry("upper.yao")
        if not (h <= yao.ceiling and math.log2(h) <= yao.ln / math.log(2.0) + LOG_TOL):
            violations.append((p, "yao"))
        try:
            if lower_universe(p) > h + 1e-12:
                violations.append((p, "universe"))
        except BoundNotApplicableError:
            pass
        if Fraction(1) / ic.probability > loose:
            violations.append((p, "reciprocal vs loose"))
    elapsed = time.time() - t0
    report(
        "6. sandwich audit: volume and universe lower bounds <= exact H <= tight <= loose; "
        "H <= yao ceiling and log2 H <= yao advice bits",
        not violations and elapsed < 120,
        f"{instances} instances, {elapsed:.1f}s",
    )


def test_criterion_07_constructors():
    t0 = time.time()
    greedy_ok = True
    for p in oracle_grid():
        h_exact = min_family_size_exact(p, size_limit=8)
        log = greedy_cover(p, balanced_functions(p))
        if not (log.verified and len(log.family) == h_exact):
            greedy_ok = False
        if log.verified and not verify_family(log.family, p).is_ideal_family:
            greedy_ok = False

    yao_ok = True
    for (p, t) in (
        (Params(8, 2, 4, Fraction(3, 2)), 2.0),  # load cap 3
        (Params(6, 2, 3, Fraction(4, 3)), 1.5),  # load cap 2
        (Params(6, 3, 3, 2), 2.0),  # load cap 2
    ):
        total = binom(p.u, p.n)
        log = yao_family(p, t=t, pool=balanced_functions(p))
        if not log.verified:
            yao_ok = False
        if log.rounds > math.floor(math.log(total) / math.log(t)) + 1:
            yao_ok = False
        for r, residual in enumerate(log.uncovered_per_round, start=1):
            if residual > total / t**r:
                yao_ok = False
        if not verify_family(log.family, p).is_ideal_family:
            yao_ok = False

    # instances chosen so the union bound itself promises <= 2.5% failure
    # per seed at the loose size; the 19-of-20 bar then reflects the bound
    random_ok = True
    for p in (Params(4, 2, 2, 1), Params(6, 3, 3, 1), Params(6, 2, 4, 1)):
        loose = bound_report(p).entry("upper.prob.loose").ceiling
        verified = sum(
            random_balanced_family(p, seed=seed, max_rounds=loose).verified
            for seed in range(20)
        )
        if verified < 19:
            random_ok = False

    elapsed = time.time() - t0
    report(
        "7. constructors: greedy matches exact H; yao respects round/residual bounds; "
        "random verifies within the loose bound on >=19/20 seeds",
        greedy_ok and yao_ok and random_ok and elapsed < 120,
        f"{elapsed:.1f}s",
    )


def test_criterion_08_monte_carlo_consistency():
    t0 = time.time()
    p = Params(8, 2, 4, 1)
    exact = float(exact_ideal_probability(p).probability)
    trials = 100_000
    est = estimate_ideal_probability(p, trials=trials, seed=7)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    prob_ok = abs(est.mean - exact) <= 3 * sigma

    band_ok = True
    ratios = []
    for k in range(6, 15):
        m = 2**k
        e = estimate_max_load(m, m, trials=2000, seed=11)
        ratio = e.mean / (math.log(m) / math.log(math.log(m)))
        ratios.append(round(ratio, 2))
        if not 0.5 <= ratio <= 3.0:
            band_ok = False
    elapsed = time.time() - t0
    report(
        "8. Monte Carlo: ideality estimate within 3 sigma of 36/70; max-load growth in band [0.5, 3]",
        prob_ok and band_ok and elapsed < 120,
        f"dev {abs(est.mean - exact) / sigma:.2f} sigma, ratios {ratios}, {elapsed:.1f}s",
    )


def test_criterion_09_bound_evaluators():
    t0 = time.time()
    naor_ok = True
    for m in range(2, 51):
        for alpha in range(1, 9):
            n = m * alpha
            u = max(n * n, 4)
            p = Params(u, m, n)
            a = upper_main(p)
            # the perfect-splitter form sqrt(2*pi*alpha)^m * e^(m/(12*alpha)) * sqrt(n/(2*pi)) * ln u
            alpha = n / m
            b = (
                m * (0.5 * math.log(2.0 * math.pi * alpha) + 1.0 / (12.0 * alpha))
                + 0.5 * math.log(n / (2.0 * math.pi))
                + math.log(math.log(u))
            )
            naor = next(e for e in comparison_bounds(p) if e.name == "upper.naor")
            if abs(a - b) > 1e-9 * max(1.0, abs(a), abs(b)) or naor.ln != a:
                naor_ok = False

    u, n, m, c = 2**20, 64, 16, Fraction(1)
    p = Params(u, m, n, c)
    rep = bound_report(p)
    adv = advice_report(rep)
    advice_ok = (
        adv.lower_main == lower_main(p, Fraction(0)) / math.log(2.0)
        and adv.upper_main == upper_main(p) / math.log(2.0)
        and adv.lower_easy_bits == math.log2(lower_universe(p))
    )
    elapsed = time.time() - t0
    report(
        "9. evaluators: main upper == splitter form at c=1 (1e-9 log-relative); "
        "advice bits are log2 of the bounds",
        naor_ok and advice_ok and elapsed < 5,
        f"{elapsed:.1f}s",
    )


def test_criterion_10_seeded_byte_reproducibility(capsys):
    outputs = []
    for _ in range(2):
        rc = cli_run(
            ["construct", "--method", "random", "--u", "6", "--m", "2", "--n", "3",
             "--c", "3/2", "--seed", "42"]
        )
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    construct_same = outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        rc = cli_run(
            ["simulate", "--kind", "max-load", "--m", "64", "--n", "64",
             "--trials", "300", "--seed", "5"]
        )
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    simulate_same = outputs[0] == outputs[1]

    json.loads(outputs[0])  # output is well-formed JSON
    with capsys.disabled():
        report(
            "10. seeded commands are byte-reproducible across runs",
            construct_same and simulate_same,
        )
