import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import idealhash
from idealhash.cli import run


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

    def test_fraction_flag_parses_both_notations(self, capsys):
        rc1, out1, _ = run_capture(capsys, ["exact", "--u", "8", "--m", "2", "--n", "4", "--c", "3/2"])
        rc2, out2, _ = run_capture(capsys, ["exact", "--u", "8", "--m", "2", "--n", "4", "--c", "1.5"])
        assert rc1 == rc2 == 0
        assert json.loads(out1)["m_c"] == json.loads(out2)["m_c"]


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
        assert "advice" in payload

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

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, out, _ = run_capture(
            capsys, ["bounds", "--u", "8", "--m", "2", "--n", "4", "--out", str(path)]
        )
        assert rc == 0
        assert out == ""
        assert json.loads(path.read_text())["command"] == "bounds"


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

    @pytest.mark.parametrize(
        "text",
        [
            "1 1 2\n",  # short line: key 4 has no cell
            "1 1 2 2 1\n",  # long line: key 5 is outside the universe
            "1 1 2 3\n",  # cell 3 with m = 2
            "1 1 2 0\n",
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
                "--u", "8", "--m", "2", "--n", "4", "--c", "1",
                "--t", "2.0", "--load-target", "3",
            ],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["load_target"] == 3


class TestSimulate:
    def test_max_load_seeded_bytes(self, capsys):
        argv = ["simulate", "--kind", "max-load", "--m", "16", "--n", "16", "--trials", "200", "--seed", "3"]
        rc1, out1, _ = run_capture(capsys, argv)
        rc2, out2, _ = run_capture(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_ideal_prob_requires_u(self, capsys):
        rc, _, err = run_capture(
            capsys, ["simulate", "--kind", "ideal-prob", "--m", "2", "--n", "4", "--trials", "10"]
        )
        assert rc == 1
        assert json.loads(err)["error"] == "ValueError"


    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_one(self, capsys, workers):
        for kind in (["--kind", "max-load"], ["--kind", "ideal-prob", "--u", "8"]):
            rc, out, err = run_capture(
                capsys,
                ["simulate", *kind, "--m", "2", "--n", "4", "--trials", "10", "--workers", workers],
            )
            assert rc == 1
            assert out == ""
            assert json.loads(err) == {"error": "ValueError", "message": "need workers >= 1"}


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

    def test_domain_error_exits_one(self, capsys):
        rc, _, err = run_capture(
            capsys, ["exact", "--u", "2", "--m", "2", "--n", "4", "--c", "1"]
        )
        assert rc == 1
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("t", ["inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--method", "yao", "--u", "6", "--m", "2", "--n", "2"],
            ["bounds", "--u", "6", "--m", "2", "--n", "2"],
        ],
        ids=["construct-yao", "bounds"],
    )
    def test_non_finite_t_exits_one_with_record(self, capsys, argv, t):
        rc, out, err = run_capture(capsys, [*argv, "--t", t])
        assert rc == 1
        assert out == ""
        assert json.loads(err) == {"error": "ValueError", "message": "need 1 < t < inf"}

    def test_check_lemmas_passes(self, capsys):
        rc, out, _ = run_capture(capsys, ["check-lemmas", "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True

    def test_check_lemmas_failure_exits_three(self, capsys, monkeypatch):
        from idealhash import cli
        from idealhash.checks import CheckResult

        monkeypatch.setattr(
            cli, "run_all_checks", lambda: [CheckResult("broken", 1, 1, "forced")]
        )
        rc, out, _ = run_capture(capsys, ["check-lemmas", "--format", "json"])
        assert rc == 3
        assert json.loads(out)["all_ok"] is False


class TestEnvOverrides:
    def test_format_flag_default_comes_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("IDEALHASH_FORMAT", "table")
        rc, out, _ = run_capture(capsys, ["bounds", "--u", "8", "--m", "2", "--n", "4"])
        assert rc == 0
        assert out.startswith("name")  # table header, not JSON

    def test_budget_default_comes_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("IDEALHASH_BUDGET", "10")
        rc, _, err = run_capture(
            capsys,
            ["exact", "--u", "10", "--m", "2", "--n", "5", "--c", "1", "--with-hc"],
        )
        assert rc == 1
        assert json.loads(err)["error"] == "BudgetExceededError"


    @pytest.mark.parametrize(
        "name, value, argv",
        [
            ("IDEALHASH_BUDGET", "abc", ["exact", "--u", "8", "--m", "2", "--n", "4"]),
            ("IDEALHASH_BUDGET", "1e6", ["bounds", "--u", "8", "--m", "2", "--n", "4"]),
            ("IDEALHASH_SEED", "1.5", ["construct", "--method", "random", "--u", "4", "--m", "2", "--n", "2"]),
            ("IDEALHASH_WORKERS", "two", ["simulate", "--kind", "max-load", "--m", "2", "--n", "4"]),
            ("IDEALHASH_T", "fast", ["bounds", "--u", "8", "--m", "2", "--n", "4"]),
            ("IDEALHASH_C", "1/0", ["report", "--u", "8", "--m", "2", "--n", "4"]),
            ("IDEALHASH_FORMAT", "xml", ["bounds", "--u", "8", "--m", "2", "--n", "4"]),
            ("IDEALHASH_POOL", "foo", ["construct", "--method", "greedy", "--u", "4", "--m", "2", "--n", "2"]),
        ],
    )
    def test_malformed_override_is_a_usage_error(self, capsys, monkeypatch, name, value, argv):
        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "error: argument --" in capsys.readouterr().err

    def test_flag_wins_over_malformed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("IDEALHASH_BUDGET", "abc")
        rc, out, _ = run_capture(
            capsys, ["exact", "--u", "8", "--m", "2", "--n", "4", "--budget", "100"]
        )
        assert rc == 0
        assert json.loads(out)["m_c"] == 36


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

    def test_skips_invalid_combinations(self, capsys):
        rc, out, _ = run_capture(
            capsys, ["report", "--u", "4", "--m", "2", "--n", "2,6", "--c", "1", "--format", "csv"]
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 2  # header + the single valid row
