"""The CLI over fuzzed argv: every input ends in a documented exit code.

`run(argv)` either returns or raises `SystemExit` (argparse) with a code in
{0, 1, 2, 3}; a code of 1 comes with exactly one JSON record on stderr; a
JSON report on stdout is strict JSON (no NaN or Infinity); no other exception
escapes.  Sizes stay small so each call is quick.  `verify` also reads fuzzed
family files, and `simulate --kind max-load` also runs without `--u`/`--c`.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idealhash.cli import run

MALFORMED = ["", "x", "1.5", "1e3", "0x10", "--", "-", "nan", "1/0"]


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _mostly(valid: range):
    """Integers of `valid` as tokens, each three times as likely as a malformed one."""
    return st.sampled_from([str(i) for i in valid] * 3 + MALFORMED)


SIZE = _mostly(range(-1, 8))
SIZES = st.lists(SIZE, min_size=1, max_size=3).map(",".join)
FACTOR = st.sampled_from(["1", "3/2", "2", "5/4", "7", "1", "3/2", "0", "-1", "-1/3", "-3/2", "1/0", "nan", "inf", "abc", "1.5", "1e400"])
SHRINK = st.sampled_from(["2", "1.5", "8", "2", "1.5", "1", "0.5", "-3", "inf", "nan", "1e400", "x"])
COUNT = _mostly(range(-1, 41))
BUDGET = st.sampled_from(["5000", "5000", "100", "0", "-1", "x"])
EXTRA = st.one_of(st.just([]), st.just([]), st.just([]), st.lists(st.sampled_from(["--bogus", "--u", "3", "--format", "table", "xml", "--help"]), max_size=2))


def _flags(required=None, **optional):
    """`--name value` pairs: every `required` flag, and any of the `optional` ones."""
    return st.fixed_dictionaries(required or {}, optional=optional).map(
        lambda d: [tok for name, value in d.items() for tok in (f"--{name.replace('_', '-')}", value)]
    )


def _shape_flags(umn):
    return ["--u", str(umn[0]), "--m", str(umn[1]), "--n", str(umn[2])]


# u, m, n: half the time 1 <= m <= n <= u <= 7, else fuzzed one by one
VALID_SHAPE = st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)).map(lambda t: (sum(t), t[0], t[0] + t[1]))
SHAPE = st.one_of(VALID_SHAPE, st.tuples(SIZE, SIZE, SIZE))
PARAMS = st.tuples(SHAPE.map(_shape_flags), _flags(c=FACTOR)).map(lambda parts: parts[0] + parts[1])

FAMILY = "family:"  # a --family value "family:TEXT" stands for a file holding TEXT


def _family_flags(umn):
    """(u, m, n) and a family file: up to three lines, each u cells in 1..m or fuzzed
    cells (out of range, malformed, too few or too many), or blank."""
    u, m, _ = umn
    cells = st.integers(1, m).map(str)
    fuzzed = st.one_of(cells, st.sampled_from(["0", "-1", str(m + 1), "x", "1.5", "1e3"]))
    line = st.one_of(st.lists(cells, min_size=u, max_size=u), st.lists(fuzzed, max_size=u + 1))
    text = st.lists(line.map(" ".join), max_size=3).map("\n".join)
    return text.map(lambda t: _shape_flags(umn) + ["--family", FAMILY + t])


# max-load without --u and --c reaches its guards and body; its one large n is past 2^40, refused before sampling
LOAD = st.integers(-1, 7).map(str)
MAX_LOAD = _flags({"m": LOAD, "n": st.one_of(LOAD, st.just(str(2**40 + 1)))}, trials=st.integers(-1, 3).map(str), seed=COUNT)

ARGV = st.one_of(
    st.tuples(st.just(["bounds"]), PARAMS, _flags(eps=FACTOR, format=st.sampled_from(["json", "table", "csv"]))),
    st.tuples(st.just(["exact"]), PARAMS, _flags(budget=BUDGET, size_limit=COUNT), st.sampled_from([[], ["--with-hc"]])),
    st.tuples(
        st.sampled_from([["construct", "--method", m] for m in ("random", "greedy", "yao", "bogus")]),
        PARAMS,
        _flags(budget=BUDGET, t=SHRINK, seed=COUNT, max_rounds=COUNT, pool=st.sampled_from(["balanced", "all", "x"])),
    ),
    st.tuples(st.just(["verify"]), PARAMS, _flags({"family": st.sampled_from(["no-such-family.txt", "."])}, budget=BUDGET)),
    st.tuples(st.just(["verify"]), VALID_SHAPE.flatmap(_family_flags), _flags(c=FACTOR, budget=BUDGET)),
    st.tuples(
        st.sampled_from([["simulate", "--kind", k] for k in ("max-load", "ideal-prob", "bogus")]),
        PARAMS,
        _flags(trials=COUNT, seed=COUNT),
    ),
    st.tuples(st.just(["simulate", "--kind", "max-load"]), MAX_LOAD),
    st.tuples(st.just(["report"]), _flags({"u": SIZES, "m": SIZES, "n": SIZES}, c=st.sampled_from(["1,3/2", "2", "1/0", "x,1"]))),
).map(lambda parts: [tok for part in parts for tok in part])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV, extra=EXTRA)
def test_every_argv_ends_in_a_documented_exit(argv, extra, tmp_path_factory):
    family = tmp_path_factory.getbasetemp() / "family.txt"
    for tok in argv:
        if tok.startswith(FAMILY):
            family.write_text(tok[len(FAMILY):])
    argv = [str(family) if tok.startswith(FAMILY) else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(argv + extra)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3), (argv + extra, rc)
    if rc == 0 and out.getvalue().startswith("{"):  # a JSON report: strict, no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    if rc == 1:
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "message"}

