"""Every budget guard refuses exactly the counts past its budget, without
building the count in full.

The guards on C(u,n), on the u!/prod(beta_i!) balanced functions, on the m**u
functions that bound the set partitions and on `exact`'s printable count all
multiply exact steps through `combinatorics.exceeds`, which stops at the first
partial product past the bound.
"""

import contextlib
import io
import json
import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealhash import combinatorics, hashspace, oracle
from idealhash.cli import run
from idealhash.errors import BudgetExceededError
from idealhash.hashspace import Params, balanced_fiber_sizes, balanced_functions, set_partitions

# 1 <= m <= n <= u <= 40
SHAPES = st.integers(1, 40).flatmap(
    lambda u: st.integers(1, u).flatmap(lambda n: st.tuples(st.just(u), st.integers(1, n), st.just(n)))
)

SITES = {
    "C(u,n)": (lambda p: math.comb(p.u, p.n), oracle.check_set_budget),
    "u!/prod(beta_i!)": (
        lambda p: math.factorial(p.u) // math.prod(map(math.factorial, balanced_fiber_sizes(p.u, p.m))),
        lambda p, budget: next(balanced_functions(p, budget)),
    ),
    "m**u": (lambda p: p.m**p.u, lambda p, budget: next(set_partitions(p.u, p.m, budget))),
}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("site", SITES)
@settings(max_examples=150, deadline=None)
@given(shape=SHAPES)
def test_guard_passes_at_its_count_and_refuses_one_below(site, shape):
    count, guard = SITES[site]
    p = Params(*shape)
    guard(p, count(p))
    with pytest.raises(BudgetExceededError):
        guard(p, count(p) - 1)


@settings(max_examples=60, deadline=None)
@given(shape=SHAPES)
def test_exact_refuses_a_count_of_more_than_the_digit_limit(shape):
    digits = len(str(math.comb(shape[0], shape[2])))
    argv = ["exact", "--u", str(shape[0]), "--m", str(shape[1]), "--n", str(shape[2])]
    for limit in (digits, digits - 1):  # a limit of 0 means no limit
        with mock.patch.object(sys, "get_int_max_str_digits", lambda: limit):
            rc, out, err = _cli(argv)
        if limit < digits and limit:
            assert (rc, out, json.loads(err)["error"]) == (1, "", "ValueError")
        else:
            assert (rc, err) == (0, "")


class _NoPower(int):
    """An exponent that fails any `m**u` taken with it."""

    def __rpow__(self, base):
        raise AssertionError("m**u built in full")


def test_no_guard_builds_its_count(monkeypatch, tmp_path):
    def counted(*args):
        raise AssertionError("count built in full")

    for module in (combinatorics, hashspace, oracle):
        monkeypatch.setattr(module, "binom", counted)
    monkeypatch.setattr(math, "comb", counted)
    monkeypatch.setattr(math, "factorial", counted)
    family = tmp_path / "family.txt"
    family.write_text("1 2\n")
    big = ["--u", "100000000", "--m", "2", "--n", "1000000"]
    for argv, error in (
        (["verify", *big, "--family", str(family)], "BudgetExceededError"),
        (["construct", "--method", "random", *big], "BudgetExceededError"),
        (["construct", "--method", "greedy", *big], "BudgetExceededError"),
        (["exact", *big], "ValueError"),
    ):
        rc, out, err = _cli(argv)
        assert (rc, out, json.loads(err)["error"]) == (1, "", error), argv
    with pytest.raises(BudgetExceededError):
        oracle.min_family_size_exact(Params(1000, 2, 500))
    with pytest.raises(BudgetExceededError):
        next(set_partitions(_NoPower(30_000_000), 3))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--u", "1000000", "--m", "2", "--n", "10000"],
        ["construct", "--method", "random", "--u", "1000000", "--m", "2", "--n", "10000"],
        ["construct", "--method", "greedy", "--pool", "all", "--u", "9013", "--m", "3", "--n", "3"],
    ],
)
def test_refusal_past_the_digit_limit_is_a_budget_error(argv, tmp_path):
    # these counts have more digits than Python converts to a string by default
    family = tmp_path / "family.txt"
    family.write_text("1 2\n")
    rc, out, err = _cli(argv + (["--family", str(family)] if argv[0] == "verify" else []))
    assert (rc, out) == (1, "")
    assert json.loads(err) == {
        "error": "BudgetExceededError",
        "message": (
            "m**u = 3**9013 exceeds budget 1000000"
            if "--pool" in argv
            else "C(1000000,10000) exceeds enumeration budget 1000000"
        ),
    }
