import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import idealhash
from idealhash import oracle
from idealhash.cli import run
from idealhash.construct import yao_family
from idealhash.hashspace import Params, balanced_fiber_sizes, balanced_functions


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_capture(capsys, argv):
    rc = run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExact:
    def test_probability_prints_unreduced_counts(self, capsys):
        rc, out, _ = run_capture(capsys, ["exact", "--u", "8", "--m", "2", "--n", "4", "--c", "1"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["probability"] == "36/70"
        assert payload["m_c"] == 36
        assert payload["total"] == 70
        assert payload["schema_version"] == 1

    def test_optional_exact_minimum(self, capsys):
        rc, out, _ = run_capture(
            capsys, ["exact", "--u", "4", "--m", "2", "--n", "2", "--c", "1", "--with-hc"]
        )
        assert rc == 0
        assert json.loads(out)["h_c_exact"] == 2

    def test_no_family_within_the_size_limit_prints_null(self, capsys):
        # H = 3 at (8, 2, 4, 1), so no family of size <= 2 covers every set
        rc, out, _ = run_capture(
            capsys, ["exact", "--u", "8", "--m", "2", "--n", "4", "--with-hc", "--size-limit", "2"]
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["h_c_exact"] is None
        assert payload["size_limit"] == 2

    def test_pool_budget_caps_the_candidate_classes(self, capsys):
        argv = ["exact", "--u", "6", "--m", "2", "--n", "2", "--with-hc", "--pool-budget"]
        rc, out, err = run_capture(capsys, argv + ["5"])
        assert (rc, out) == (1, "")
        assert json.loads(err) == {"error": "BudgetExceededError", "message": "candidate pool exceeds budget 5"}
        rc, out, _ = run_capture(capsys, argv + ["32"])
        assert rc == 0
        assert json.loads(out)["h_c_exact"] == 3

    def test_fraction_flag_parses_both_notations(self, capsys):
        rc1, out1, _ = run_capture(capsys, ["exact", "--u", "8", "--m", "2", "--n", "4", "--c", "3/2"])
        rc2, out2, _ = run_capture(capsys, ["exact", "--u", "8", "--m", "2", "--n", "4", "--c", "1.5"])
        assert rc1 == rc2 == 0
        assert json.loads(out1)["m_c"] == json.loads(out2)["m_c"]


    def test_refuses_an_unprintable_count_before_counting(self, capsys, monkeypatch):
        # C(10^6, 1500) has more decimal digits than Python prints by default
        def fail(*args):
            raise AssertionError("counted")

        monkeypatch.setattr(oracle, "count_ideal_sets", fail)
        rc, out, err = run_capture(capsys, ["exact", "--u", "1000000", "--m", "16", "--n", "1500", "--c", "3/2"])
        assert rc == 1
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "u,n,limit,rc",
        [(2000, 1000, 640, 0), (2200, 1100, 640, 1), (2200, 1100, 0, 0)],
        ids=["601-digits", "661-digits", "no-limit"],
    )
    def test_size_guard_follows_the_int_str_limit(self, capsys, monkeypatch, u, n, limit, rc):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
        monkeypatch.setattr(oracle, "count_ideal_sets", lambda *args: 0)
        got, out, _ = run_capture(capsys, ["exact", "--u", str(u), "--m", "2", "--n", str(n)])
        assert got == rc
        if rc == 0:
            assert json.loads(out)["m_c"] == 0


class TestBounds:
    def test_json_round_trips_and_carries_vocabulary(self, capsys):
        rc, out, _ = run_capture(
            capsys,
            ["bounds", "--u", "256", "--m", "8", "--n", "16", "--c", "3/2", "--format", "json"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload
        names = {e["name"] for e in payload["bounds"]}
        assert {"lower.volume", "lower.main", "upper.main", "upper.yao"} <= names
        assert payload["params"]["c"] == "3/2"
        assert set(payload["advice"]) == {"lower_easy_nats", "lower_easy_bits", "lower_main_bits", "upper_main_bits", "notes"}

    def test_rationals_never_serialize_as_floats(self, capsys):
        rc, out, _ = run_capture(
            capsys, ["bounds", "--u", "8", "--m", "2", "--n", "4", "--c", "3/2"]
        )
        payload = json.loads(out)
        assert payload["params"]["c"] == "3/2"
        assert payload["params"]["alpha"] == "2"
        for e in payload["bounds"]:
            assert isinstance(e["epsilon"], str)

    def test_table_format(self, capsys):
        rc, out, _ = run_capture(
            capsys, ["bounds", "--u", "8", "--m", "2", "--n", "4", "--format", "table"]
        )
        assert rc == 0
        assert "lower.volume" in out


    @pytest.mark.parametrize(
        "argv",
        [
            ["--u", "1000000", "--m", "16", "--n", "256", "--c", "1"],
            ["--u", "2400", "--m", "1200", "--n", "1200"],
        ],
    )
    def test_tiny_ideal_probability_stays_total(self, capsys, argv):
        rc, out, err = run_capture(capsys, ["bounds"] + argv)
        assert rc == 0
        assert "Traceback" not in err
        tight = {e["name"]: e for e in json.loads(out)["bounds"]}["upper.prob.tight"]
        assert tight["valid"] and tight["ln"] > 0


    def test_single_key_universe_marks_ln_ln_u_bounds_invalid(self, capsys):
        rc, out, err = run_capture(capsys, ["bounds", "--u", "1", "--m", "1", "--n", "1"])
        assert (rc, err) == (0, "")
        entries = {e["name"]: e for e in json.loads(out)["bounds"]}
        for name in ("upper.main", "upper.naor", "upper.prob.loose"):
            assert not entries[name]["valid"]
            assert "u >= 2" in entries[name]["note"]
        assert entries["lower.volume"]["ceiling"] == 1

    def test_universe_bound_rounding_to_zero_prints_zero_advice(self, capsys):
        # c*alpha sits within an ulp of u, so ln u - ln(c*alpha) rounds to 0 at
        # (4,2,4) and to -2.7e-15 at (4,4,4): the bound is not applicable
        for u, m, n, c in (
            ("4", "2", "4", "199999999999999999999/100000000000000000000"),
            ("4", "4", "4", "1999999999999999999/500000000000000000"),
        ):
            rc, out, err = run_capture(capsys, ["bounds", "--u", u, "--m", m, "--n", n, "--c", c])
            assert (rc, err) == (0, "")
            payload = json.loads(out, parse_constant=_refuse_constant)
            universe = {e["name"]: e for e in payload["bounds"]}["lower.universe"]
            assert not universe["valid"] and universe["ceiling"] is None
            assert "float rounding" in universe["note"]
            advice = payload["advice"]
            assert advice["lower_easy_nats"] == advice["lower_easy_bits"] == 0.0
            rc, out, err = run_capture(capsys, ["report", "--u", u, "--m", m, "--n", n, "--c", c])
            assert (rc, err) == (0, "")
            header, row = csv.reader(io.StringIO(out))
            assert dict(zip(header, row))["lower.universe"] == ""
            assert dict(zip(header, row))["advice.lower_easy"] == "0"

    def test_no_upper_advice_where_no_family_exists(self, capsys):
        # cap floor(3/2) = 1 at m = 2: no 3 keys fit, so no upper entry or upper advice field applies
        argv = ["--u", "9", "--m", "2", "--n", "3"]
        rc, out, err = run_capture(capsys, ["bounds", *argv])
        assert (rc, err) == (0, "")
        advice = json.loads(out)["advice"]
        assert advice["upper_main_bits"] is None
        rc, out, err = run_capture(capsys, ["bounds", *argv, "--format", "csv"])
        rows = {row[0]: row for row in csv.reader(io.StringIO(out))}
        assert rows["advice.upper_main"][3:6] == ["", "", "False"] and "advice.upper_yao" not in rows
        rc, out, err = run_capture(capsys, ["report", *argv])
        header, row = csv.reader(io.StringIO(out))
        assert dict(zip(header, row))["advice.upper_main"] == "" and "advice.upper_yao" not in header

    @pytest.mark.parametrize("command", ["bounds", "report"])
    def test_eps_past_the_float_range_is_refused(self, capsys, command):
        rc, out, err = run_capture(capsys, [command, "--u", "8", "--m", "2", "--n", "4", "--eps", "1e400"])
        assert (rc, out) == (1, "")
        assert json.loads(err) == {"error": "ValueError", "message": "need eps in [0, 1)"}

    @pytest.mark.parametrize(
        "command, flag, value",
        [("bounds", "--eps", "-1/3"), ("bounds", "--eps", "-1e400"), ("bounds", "--c", "-3/2"), ("report", "--c", "-3/2,2")],
    )
    def test_negative_rational_as_its_own_word_is_a_value(self, capsys, command, flag, value):
        # "-1/3" after a flag is its value, as in "--eps=-1/3": the range check refuses it, not argparse
        argv = [command, "--u", "16", "--m", "2", "--n", "4"]
        apart = run_capture(capsys, argv + [flag, value])
        assert apart == run_capture(capsys, argv + [f"{flag}={value}"])
        assert apart[:2] == (1, "")
        assert json.loads(apart[2])["error"] == "ValueError"

    def test_eps_whose_float_rounds_to_one_is_served(self, capsys):
        argv = ["--u", "8", "--m", "2", "--n", "4", "--eps", "0.99999999999999999999"]
        rc, out, err = run_capture(capsys, ["bounds", *argv])
        assert (rc, err) == (0, "")
        main = {e["name"]: e for e in json.loads(out, parse_constant=pytest.fail)["bounds"]}["lower.main"]
        assert main["ln"] == pytest.approx(-20 * math.log(10), rel=1e-12)
        rc, out, err = run_capture(capsys, ["report", *argv])
        assert (rc, err) == (0, "")
        header, row = csv.reader(io.StringIO(out))
        assert float(dict(zip(header, row))["lower.main"]) == pytest.approx(-20 * math.log(10), rel=1e-8)


class TestConstructAndVerify:
    def test_greedy_anchor(self, capsys):
        rc, out, _ = run_capture(
            capsys,
            ["construct", "--method", "greedy", "--u", "4", "--m", "2", "--n", "2", "--c", "1"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["family_size"] == 2
        assert payload["advice_bits"] == 1

    def test_family_file_round_trip(self, capsys, tmp_path):
        fam_path = tmp_path / "family.txt"
        rc, out, _ = run_capture(
            capsys,
            [
                "construct", "--method", "greedy",
                "--u", "4", "--m", "2", "--n", "2", "--c", "1",
                "--family-out", str(fam_path),
            ],
        )
        assert rc == 0
        rc, out, _ = run_capture(
            capsys,
            ["verify", "--u", "4", "--m", "2", "--n", "2", "--c", "1", "--family", str(fam_path)],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["is_ideal_family"] is True
        assert payload["covered"] == 6
        assert payload["uncovered_witness"] is None

    def test_unwritable_family_file_prints_no_report(self, capsys, tmp_path):
        argv = ["construct", "--method", "greedy", "--u", "4", "--m", "2", "--n", "2"]
        rc, out, err = run_capture(capsys, argv + ["--family-out", str(tmp_path / "no-such-dir" / "x.txt")])
        assert rc == 1
        assert out == ""
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_verify_reports_witness(self, capsys, tmp_path):
        fam_path = tmp_path / "one.txt"
        fam_path.write_text("1 1 2 2\n")
        rc, out, _ = run_capture(
            capsys,
            ["verify", "--u", "4", "--m", "2", "--n", "2", "--c", "1", "--family", str(fam_path)],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["is_ideal_family"] is False
        assert payload["uncovered_witness"] == [1, 2]

    @pytest.mark.parametrize("u, m, n", [(7, 3, 4), (11, 3, 5), (9, 4, 5)])
    def test_verify_below_the_pigeonhole_cap_covers_nothing(self, capsys, tmp_path, u, m, n):
        # m * floor(n/m) < n: every n-set puts more than the cap in some cell, under any function
        fam_path = tmp_path / "fam.txt"
        fam_path.write_text("".join(" ".join(str(k % m + 1) for k in range(s, s + u)) + "\n" for s in range(3)))
        rc, out, _ = run_capture(
            capsys, ["verify", "--u", str(u), "--m", str(m), "--n", str(n), "--family", str(fam_path)]
        )
        assert rc == 0
        payload = json.loads(out)
        assert (payload["covered"], payload["total"]) == (0, math.comb(u, n))
        assert payload["is_ideal_family"] is False
        assert payload["uncovered_witness"] == list(range(1, n + 1))

    @pytest.mark.parametrize(
        "text",
        [
            "1 1 2\n",  # short line: key 4 has no cell
            "1 1 2 2 1\n",  # long line: key 5 is outside the universe
            "1 1 2 3\n",  # cell 3 with m = 2
            "1 1 2 0\n",
            "1 1 2 2\n1 1 2\n",  # members of two universe sizes
        ],
    )
    def test_verify_rejects_family_not_matching_params(self, capsys, tmp_path, text):
        fam_path = tmp_path / "bad.txt"
        fam_path.write_text(text)
        rc, out, err = run_capture(
            capsys,
            ["verify", "--u", "4", "--m", "2", "--n", "2", "--c", "1", "--family", str(fam_path)],
        )
        assert rc == 1
        assert out == ""
        assert json.loads(err)["error"] == "DimensionMismatchError"

    def test_verify_refuses_an_empty_family(self, capsys, tmp_path):
        fam_path = tmp_path / "empty.txt"
        fam_path.write_text("\n")
        argv = ["verify", "--u", "4", "--m", "2", "--n", "2", "--family", str(fam_path)]
        assert run_capture(capsys, argv) == (1, "", '{"error": "ValueError", "message": "a family holds at least one function"}\n')

    def test_malformed_family_is_refused_before_the_key_table(self, capsys, tmp_path, monkeypatch):
        def forbidden(u, n):
            raise AssertionError("key table built for a refused family")

        monkeypatch.setattr(oracle, "_key_table", forbidden)
        fam_path = tmp_path / "bad.txt"
        fam_path.write_text("1 2 1 2\n\n2 1 3 1\n")
        rc, out, err = run_capture(capsys, ["verify", "--u", "4", "--m", "2", "--n", "2", "--family", str(fam_path)])
        assert (rc, out) == (1, "")
        assert json.loads(err) == {
            "error": "DimensionMismatchError",
            "message": "every function must map keys 1..4 into cells 1..2",
        }

    def test_over_budget_verify_refuses_before_opening_the_family(self, capsys, tmp_path):
        missing = str(tmp_path / "no-such-family.txt")
        argv = ["verify", "--u", "100000000", "--m", "2", "--n", "1000000", "--family", missing]
        rc, out, err = run_capture(capsys, argv)
        assert (rc, out, json.loads(err)["error"]) == (1, "", "BudgetExceededError")

    def test_random_construct_seeded(self, capsys):
        argv = [
            "construct", "--method", "random",
            "--u", "4", "--m", "2", "--n", "2", "--c", "1", "--seed", "7",
        ]
        rc1, out1, _ = run_capture(capsys, argv)
        rc2, out2, _ = run_capture(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_yao_construct(self, capsys):
        rc, out, _ = run_capture(
            capsys,
            [
                "construct", "--method", "yao",
                "--u", "8", "--m", "2", "--n", "4", "--c", "3/2",
                "--t", "2.0",
            ],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["load_target"] == 3


    @pytest.mark.parametrize("u, m, n, c", [(8, 2, 4, "1"), (7, 2, 3, "1"), (7, 3, 4, "3/2"), (6, 2, 4, "2")])
    def test_yao_default_load_target_is_the_cli_default(self, capsys, u, m, n, c):
        p = Params(u, m, n, Fraction(c))
        rc, out, err = run_capture(
            capsys, ["construct", "--method", "yao", "--u", str(u), "--m", str(m), "--n", str(n), "--c", c]
        )
        log = yao_family(p, t=2.0, pool=balanced_functions(p))
        assert rc == 0 and err == ""
        # pigeonhole: where m*floor(c*alpha) < n no function is c-ideal, and the log says so
        assert log.verified is (p.m * p.load_cap >= p.n)
        payload = json.loads(out)
        for key in ("schema_version", "command", "params", "advice_bits"):
            del payload[key]
        # the pool holds one function per partition; pool_size counts every balanced function
        labelled = math.factorial(u) // math.prod(math.factorial(b) for b in balanced_fiber_sizes(u, m))
        assert log.pool_size == labelled // (math.factorial(u % m) * math.factorial(m - u % m))
        assert payload == json.loads(json.dumps({**log.to_json_dict(), "pool_size": labelled}))
        assert log.load_target == p.load_cap


class TestSimulate:
    def test_max_load_seeded_bytes(self, capsys):
        argv = ["simulate", "--kind", "max-load", "--m", "16", "--n", "16", "--trials", "200", "--seed", "3"]
        rc1, out1, _ = run_capture(capsys, argv)
        rc2, out2, _ = run_capture(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_ideal_prob_requires_u(self, capsys):
        rc, out, err = run_capture(
            capsys, ["simulate", "--kind", "ideal-prob", "--m", "2", "--n", "4", "--trials", "10"]
        )
        assert rc == 1
        assert out == ""
        assert json.loads(err) == {"error": "ValueError", "message": "ideal-prob needs --u"}

    @pytest.mark.parametrize("flags", [["--u", "1"], ["--c", "0"], ["--c", "3/2"], ["--u", "8", "--c", "1"]])
    def test_max_load_refuses_u_and_c(self, capsys, flags):
        # max-load reads neither; ideal-prob's --c still defaults to 1
        argv = ["simulate", "--kind", "max-load", "--m", "4", "--n", "8", "--trials", "3", *flags]
        assert run_capture(capsys, argv) == (1, "", '{"error": "ValueError", "message": "max-load takes no --u or --c"}\n')
        ideal_prob = ["simulate", "--kind", "ideal-prob", "--u", "8", "--m", "2", "--n", "4", "--trials", "50"]
        assert run_capture(capsys, ideal_prob) == run_capture(capsys, ideal_prob + ["--c", "1"])

    @pytest.mark.parametrize("kind", [["--kind", "max-load"], ["--kind", "ideal-prob", "--u", "8"]])
    def test_zero_trials_exits_one(self, capsys, kind):
        rc, out, err = run_capture(capsys, ["simulate", *kind, "--m", "2", "--n", "4", "--trials", "0"])
        assert rc == 1
        assert out == ""
        assert json.loads(err) == {"error": "ValueError", "message": "need trials >= 1"}


    @pytest.mark.parametrize(
        "kind",
        [
            ["--kind", "max-load", "--m", "4", "--n", "8"],
            ["--kind", "ideal-prob", "--u", "8", "--m", "2", "--n", "4"],  # the stdlib chain
            ["--kind", "ideal-prob", "--u", "1000000", "--m", "64", "--n", "1024", "--c", "2"],  # numpy
        ],
    )
    def test_negative_seed_exits_one(self, capsys, kind):
        # one refusal on both samplers: random.Random(-s) would reuse the stream of s
        argv = ["simulate", *kind, "--trials", "5000", "--seed", "-1"]
        assert run_capture(capsys, argv) == (1, "", '{"error": "ValueError", "message": "expected non-negative integer"}\n')

    @pytest.mark.parametrize("workers", ["2", "0", "-2"])
    def test_workers_flag_is_a_usage_error(self, capsys, workers):
        # each call draws from one seeded stream; there is no stream count to set
        for kind in (["--kind", "max-load"], ["--kind", "ideal-prob", "--u", "8"]):
            with pytest.raises(SystemExit) as exc:
                run(["simulate", *kind, "--m", "2", "--n", "4", "--trials", "10", "--workers", workers])
            assert exc.value.code == 2
            assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["--kind", "max-load"], ["--kind", "ideal-prob", "--u", "8"]])
    def test_record_keys(self, capsys, kind):
        rc, out, _ = run_capture(capsys, ["simulate", *kind, "--m", "2", "--n", "4", "--trials", "3"])
        assert rc == 0
        assert sorted(json.loads(out)) == [
            "ci95_halfwidth", "command", "kind", "mean", "method", "schema_version", "seed", "trials",
        ]


OUT_CASES = {
    "bounds-json": ["bounds", "--u", "64", "--m", "4", "--n", "8", "--c", "3/2", "--format", "json"],
    "bounds-csv": ["bounds", "--u", "64", "--m", "4", "--n", "8", "--c", "3/2", "--format", "csv"],
    "bounds-table": ["bounds", "--u", "64", "--m", "4", "--n", "8", "--c", "3/2", "--format", "table"],
    "exact": ["exact", "--u", "8", "--m", "2", "--n", "4", "--c", "3/2", "--with-hc"],
    "verify": ["verify", "--u", "4", "--m", "2", "--n", "2", "--family", "{family}"],
    "construct": ["construct", "--method", "yao", "--u", "8", "--m", "2", "--n", "4"],
    "simulate-max-load": ["simulate", "--kind", "max-load", "--m", "4", "--n", "8", "--trials", "20", "--seed", "1"],
    "simulate-ideal-prob": ["simulate", "--kind", "ideal-prob", "--u", "16", "--m", "4", "--n", "8", "--trials", "20"],
    "check-lemmas-json": ["check-lemmas", "--format", "json"],
    "check-lemmas-csv": ["check-lemmas", "--format", "csv"],
    "check-lemmas-table": ["check-lemmas", "--format", "table"],
    "report-csv": ["report", "--u", "8,16", "--m", "2,4", "--n", "4", "--c", "1,3/2", "--format", "csv"],
    "report-table": ["report", "--u", "8,16", "--m", "2,4", "--n", "4", "--c", "1,3/2", "--format", "table"],
}


@pytest.mark.parametrize("name", sorted(OUT_CASES))
def test_out_file_carries_the_stdout_bytes(name, capsys, tmp_path):
    # every report goes to stdout; --out is a usage error that writes no file
    family = tmp_path / "family.txt"
    family.write_text("1 1 2 2\n1 2 1 2\n", encoding="utf-8")
    argv = [str(family) if a == "{family}" else a for a in OUT_CASES[name]]
    rc, out, _ = run_capture(capsys, argv)
    assert rc == 0 and out
    path = tmp_path / "report.out"
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", str(path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not path.exists()


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    # the README's CLI block, line by line, in one directory (its construct line writes fam.txt)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [line.partition("#")[0].split() for line in readme.splitlines() if line.startswith("idealhash ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert run_capture(capsys, argv[1:])[0] == 0, argv


class TestErrorsAndExitCodes:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "--u", "8"])  # missing required flags
        assert exc.value.code == 2

    def test_budget_error_exits_one_with_structured_record(self, capsys):
        rc, out, err = run_capture(
            capsys,
            [
                "exact", "--u", "40", "--m", "2", "--n", "20", "--c", "1",
                "--with-hc", "--budget", "1000",
            ],
        )
        assert rc == 1
        record = json.loads(err)
        assert record["error"] == "BudgetExceededError"

    @pytest.mark.parametrize("method", ["greedy", "yao"])
    def test_balanced_pool_past_budget_exits_one_before_enumerating(self, capsys, method):
        # C(40,20) ~ 1.4e11 balanced functions: enumerating them runs out of memory
        rc, out, err = run_capture(
            capsys,
            ["construct", "--method", method, "--u", "40", "--m", "2", "--n", "20", "--budget", "100"],
        )
        assert (rc, out) == (1, "")
        assert json.loads(err) == {
            "error": "BudgetExceededError",
            "message": "u!/prod(beta_i!) balanced functions exceed budget 100",
        }

    def test_balanced_pool_at_budget_is_enumerated(self, capsys):
        argv = ["construct", "--method", "greedy", "--u", "6", "--m", "2", "--n", "2", "--budget"]
        assert run_capture(capsys, argv + ["20"])[0] == 0  # 6!/(3!3!) = 20 functions, C(6,2) = 15 sets
        assert run_capture(capsys, argv + ["19"])[0] == 1

    def test_domain_error_exits_one(self, capsys):
        rc, _, err = run_capture(
            capsys, ["exact", "--u", "2", "--m", "2", "--n", "4", "--c", "1"]
        )
        assert rc == 1
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "--method", "random", "--u", "4", "--m", "2", "--n", "2", "--max-rounds", "0"],
             "need max_rounds >= 1"),
            (["simulate", "--kind", "max-load", "--m", "2", "--n", "0"], "need n >= 1 and m >= 1"),
            (["exact", "--u", "8", "--m", "2", "--n", "4", "--c", "2", "--with-hc", "--size-limit", "0"],
             "need size_limit >= 1"),
            (["exact", "--u", "8", "--m", "2", "--n", "4", "--with-hc", "--size-limit", "-1"],
             "need size_limit >= 1"),
        ],
        ids=["construct-max-rounds-zero", "max-load-n-zero", "exact-size-limit-zero", "exact-size-limit-negative"],
    )
    def test_count_below_one_exits_one_with_record(self, capsys, argv, message):
        rc, out, err = run_capture(capsys, argv)
        assert (rc, out) == (1, "")
        assert json.loads(err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--u", "10", "--m", "2", "--n", "4"], ["report", "--u", "10", "--m", "2", "--n", "4"]],
        ids=["bounds", "report"],
    )
    def test_factor_past_the_float_range_exits_one_with_record(self, capsys, argv):
        rc, out, err = run_capture(capsys, [*argv, "--c", "1e400"])
        assert (rc, out) == (1, "")
        (line,) = err.splitlines()
        assert set(json.loads(line)) == {"error", "message"}

    @pytest.mark.parametrize("t", ["inf", "nan"])
    @pytest.mark.parametrize(
        "argv", [["construct", "--method", "yao", "--u", "6", "--m", "2", "--n", "2"]], ids=["construct-yao"]
    )
    def test_non_finite_t_exits_one_with_record(self, capsys, argv, t):
        rc, out, err = run_capture(capsys, [*argv, "--t", t])
        assert rc == 1
        assert out == ""
        assert json.loads(err) == {"error": "ValueError", "message": "need 1 < t < inf"}

    @pytest.mark.parametrize("command", ["bounds", "report"])
    def test_t_is_a_usage_error_off_construct(self, capsys, command):
        # upper.yao reads its shrink factor off the exact count; only construct --method yao takes --t
        with pytest.raises(SystemExit) as exc:
            run([command, "--u", "8", "--m", "2", "--n", "4", "--t", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --t 2" in capsys.readouterr().err

    def test_check_lemmas_passes(self, capsys):
        rc, out, _ = run_capture(capsys, ["check-lemmas", "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True

    def test_check_lemmas_failure_exits_three(self, capsys, monkeypatch):
        from idealhash import checks
        from idealhash.checks import CheckResult

        monkeypatch.setattr(
            checks, "run_all_checks", lambda: [CheckResult("broken", 1, 1, "forced")]
        )
        rc, out, _ = run_capture(capsys, ["check-lemmas", "--format", "json"])
        assert rc == 3
        assert json.loads(out)["all_ok"] is False


def test_idealhash_variables_change_no_output(capsys, monkeypatch):
    # every setting comes from its flag: IDEALHASH_* variables are not read
    calls = (
        ["exact", "--u", "6", "--m", "2", "--n", "2", "--with-hc"],  # a budget of 10 < C(6,2) would refuse it
        ["bounds", "--u", "8", "--m", "2", "--n", "4"],
    )
    clean = [run_capture(capsys, argv) for argv in calls]
    monkeypatch.setenv("IDEALHASH_BUDGET", "10")
    monkeypatch.setenv("IDEALHASH_FORMAT", "xml")
    assert [run_capture(capsys, argv) for argv in calls] == clean
    assert [rc for rc, _, _ in clean] == [0, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--u", "8", "--m", "2", "--n", "4", "--format", "xml"],
        ["report", "--u", "8", "--m", "2", "--n", "4", "--format", "json"],
        ["construct", "--method", "greedy", "--u", "4", "--m", "2", "--n", "2", "--pool", "foo"],
    ],
    ids=["bounds-format", "report-format", "construct-pool"],
)
def test_choice_outside_the_flag_choices_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"error: argument {argv[-2]}: invalid choice: '{argv[-1]}'" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["idealhash", "idealhash.cli"])
def test_python_dash_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=str(Path(idealhash.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", module, "exact", "--u", "8", "--m", "2", "--n", "4"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["probability"] == "36/70"
    assert b"Traceback" not in done.stderr


def test_commands_off_the_kernel_do_not_load_numpy(tmp_path):
    # numpy costs most of the CLI's import time and only the samplers need it:
    # counting, bounds, the coverage kernel (construct, verify, exact
    # --with-hc), ideal-prob within the chain's work bound (the benchmark's
    # two calls) and max-load within its own (the benchmark's m = 256 call)
    # must not load it, while max-load and ideal-prob past their bounds do;
    # the record types are NamedTuples, so no call loads dataclasses, nor
    # inspect before numpy
    family = tmp_path / "family.txt"
    family.write_text("1 1 2 2\n1 2 1 2\n", encoding="utf-8")
    script = f"""
import contextlib, io, sys
from idealhash.cli import run
last = sys.argv[1:]
calls = [
    ["bounds", "--u", "64", "--m", "4", "--n", "8", "--c", "3/2"],
    ["exact", "--u", "8", "--m", "2", "--n", "4"],
    ["exact", "--u", "6", "--m", "2", "--n", "2", "--with-hc"],
    ["report", "--u", "8,16", "--m", "2", "--n", "4", "--format", "csv"],
    ["check-lemmas"],
    ["construct", "--method", "greedy", "--u", "6", "--m", "2", "--n", "2"],
    ["construct", "--method", "greedy", "--u", "6", "--m", "2", "--n", "2", "--pool", "all"],
    ["construct", "--method", "yao", "--u", "6", "--m", "2", "--n", "2", "--t", "2.0"],
    ["construct", "--method", "random", "--u", "6", "--m", "2", "--n", "2", "--seed", "1"],
    ["verify", "--u", "4", "--m", "2", "--n", "2", "--family", {str(family)!r}],
    ["simulate", "--kind", "ideal-prob", "--u", "1000000", "--m", "16", "--n", "256", "--c", "3/2", "--trials", "5000", "--seed", "3"],
    ["simulate", "--kind", "ideal-prob", "--u", "4096", "--m", "8", "--n", "64", "--c", "3/2", "--trials", "20000", "--seed", "3"],
    ["simulate", "--kind", "max-load", "--m", "4", "--n", "4", "--trials", "10", "--seed", "1"],
    ["simulate", "--kind", "max-load", "--m", "256", "--n", "256", "--trials", "20000", "--seed", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv) for argv in calls]
    assert codes == [0] * len(calls), codes
    assert "numpy" not in sys.modules
    assert "dataclasses" not in sys.modules and "inspect" not in sys.modules, "startup imports grew"
    assert run(last) == 0
assert "numpy" in sys.modules
assert "dataclasses" not in sys.modules  # numpy loads inspect, not dataclasses
"""
    env = dict(os.environ, PYTHONPATH=str(Path(idealhash.__file__).resolve().parents[1]))
    for last in (
        ["simulate", "--kind", "max-load", "--m", "16384", "--n", "16384", "--trials", "10", "--seed", "1"],
        ["simulate", "--kind", "ideal-prob", "--u", "1000000", "--m", "64", "--n", "1024", "--c", "2", "--trials", "5000"],
    ):
        done = subprocess.run([sys.executable, "-c", script, *last], capture_output=True, env=env, timeout=120)
        assert done.returncode == 0, (last, done.stderr.decode())


def test_cli_import_loads_no_command_module():
    # each handler imports the module it runs, so startup pays for none of them
    script = """
import sys
import idealhash.cli
loaded = [m for m in ("bounds", "checks", "construct", "simulate", "distributions", "oracle") if "idealhash." + m in sys.modules]
assert loaded == [], loaded
"""
    env = dict(os.environ, PYTHONPATH=str(Path(idealhash.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()


def test_simulate_loads_no_oracle():
    # the samplers need neither counting nor coverage, so a simulate run never imports the oracle
    script = """
import contextlib, io, sys
from idealhash.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["simulate", "--kind", "max-load", "--m", "4", "--n", "4", "--trials", "10"]) == 0
    assert run(["simulate", "--kind", "ideal-prob", "--u", "8", "--m", "2", "--n", "4", "--trials", "10"]) == 0
assert "idealhash.oracle" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(Path(idealhash.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()


class TestReport:
    def test_csv_sweep_has_vocabulary_columns(self, capsys):
        rc, out, _ = run_capture(
            capsys,
            ["report", "--u", "8,12", "--m", "2", "--n", "4,6", "--c", "1,3/2", "--format", "csv"],
        )
        assert rc == 0
        header = out.splitlines()[0].split(",")
        for name in ("lower.volume", "lower.main", "upper.prob.tight", "upper.yao", "advice.upper_main"):
            assert name in header
        # 2 u-values x 2 n-values x 2 c-values
        assert len(out.strip().splitlines()) == 1 + 8

    def test_roadmap_sweep_has_one_row_per_grid_point(self, capsys):
        rc, out, err = run_capture(
            capsys,
            ["report", "--u", "64,256,4096,1048576", "--m", "4,8,16", "--n", "16,64,256", "--c", "1,3/2,2"],
        )
        assert rc == 0
        assert "Traceback" not in err
        header, *rows = csv.reader(io.StringIO(out))
        # n >= m always holds; u >= n drops n = 256 at u = 64
        assert len(rows) == 4 * 3 * 3 * 3 - 3 * 3
        assert all(len(row) == len(header) for row in rows)

    def test_single_key_universe_keeps_its_row(self, capsys):
        rc, out, err = run_capture(capsys, ["report", "--u", "1,8", "--m", "1,2", "--n", "1,4"])
        assert (rc, err) == (0, "")
        header, *rows = csv.reader(io.StringIO(out))
        # valid points: (1,1,1), (8,1,1), (8,1,4), (8,2,4)
        assert [row[:3] for row in rows] == [["1", "1", "1"], ["8", "1", "1"], ["8", "1", "4"], ["8", "2", "4"]]
        first = dict(zip(header, rows[0]))
        assert first["upper.main"] == first["upper.naor"] == ""

    def test_skips_invalid_combinations(self, capsys):
        rc, out, _ = run_capture(
            capsys, ["report", "--u", "4", "--m", "2", "--n", "2,6", "--c", "1", "--format", "csv"]
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 2  # header + the single valid row
