"""Every lemma check can fail.

Each counting check is run once as shipped and once with one name it reads
replaced so that the relation it tests breaks.  The broken run must count
at least one failure over the same instances, so a check whose failure
branch could never fire would show up here.
"""

import json
import math
from fractions import Fraction

import pytest

from idealhash import checks
from idealhash.cli import run

ALWAYS = lambda value: lambda *args: value  # noqa: E731

BREAKS = [
    (checks.check_poissonization_identity, {"multinomial_pmf": ALWAYS(Fraction(2))}),
    (checks.check_conditioned_indicator, {"p_tmax_le": ALWAYS(Fraction(2))}),
    (checks.check_negdep_hypergeometric, {"hypergeometric_marginal_le": ALWAYS(Fraction(0))}),
    (checks.check_negdep_binomial, {"binomial_marginal_le": ALWAYS(Fraction(0))}),
    (checks.check_replacement_direction, {"p_tmax_le": ALWAYS(Fraction(2))}),
    (checks.check_tmax_sandwich, {"tmax_lower_bound": ALWAYS(math.inf)}),
    (checks.check_tmax_sandwich, {"binomial_marginal_le": ALWAYS(Fraction(0))}),
    (checks.check_tail_lower_bound, {"binomial_tail_lb": ALWAYS(math.inf)}),
    (checks.check_balance_extremality, {"balance_extremality_check": ALWAYS(False)}),
    (checks.check_composition_crude_lower, {"composition_count": ALWAYS(0)}),
    (checks.check_min_product_factorials, {"min_product_factorials_check": ALWAYS(False)}),
    (checks.check_upper_base_constant, {"UPPER_BASE_CLAIMED_FLOOR": 2.0}),
]


@pytest.mark.parametrize(
    "check,patches", BREAKS, ids=[f"{fn.__name__}-{next(iter(p))}" for fn, p in BREAKS]
)
def test_check_counts_a_broken_relation(check, patches, monkeypatch):
    shipped = check()
    assert shipped.ok
    for name, value in patches.items():
        monkeypatch.setattr(checks, name, value)
    broken = check()
    assert broken.name == shipped.name
    assert broken.instances == shipped.instances
    assert broken.failures >= 1


def test_sandwich_counts_an_instance_once_when_both_sides_break(monkeypatch):
    # a failed lower side skips the upper side, so failures cannot pass instances
    monkeypatch.setattr(checks, "tmax_lower_bound", ALWAYS(math.inf))
    monkeypatch.setattr(checks, "binomial_marginal_le", ALWAYS(Fraction(0)))
    result = checks.check_tmax_sandwich()
    assert result.failures == result.instances > 0


def test_check_lemmas_exits_three_through_the_real_battery(capsys, monkeypatch):
    monkeypatch.setattr(checks, "p_tmax_le", ALWAYS(Fraction(2)))
    rc = run(["check-lemmas", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert payload["all_ok"] is False
    failed = {r["name"] for r in payload["checks"] if r["failures"]}
    assert {"conditioned-indicator", "replacement-direction"} <= failed


def test_balance_extremality_runs_once_per_distinct_point(monkeypatch):
    # the verdict reads (u, m, n, load cap) alone: 117 distinct keys among the 148 binding points
    seen = []
    monkeypatch.setattr(checks, "balance_extremality_check", lambda p: seen.append((p.u, p.m, p.n, p.load_cap)) or True)
    result = checks.check_balance_extremality()
    assert (result.instances, result.failures) == (148, 0)
    assert len(seen) == len(set(seen)) == 117
