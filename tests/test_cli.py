import csv
import io
import json
import subprocess
import sys

import pytest

from truncperm.cli import TIMING_COLUMNS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def strip_timing(rows, extra=()):
    drop = set(TIMING_COLUMNS) | set(extra)
    return [{k: v for k, v in r.items() if k not in drop} for r in rows]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_requires_cell(self, capsys):
        with pytest.raises(SystemExit):
            main(["exact"])

    def test_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "truncperm", "exact", "--n", "2", "--m", "1", "--q", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert parse_csv(proc.stdout)[0]["advantage_exact"] == "1/4"


class TestExactCommand:
    def test_values(self, capsys):
        code, out = run_cli(capsys, "exact", "--n", "2", "--m", "1",
                            "--q-range", "2", "4")
        assert code == 0
        rows = parse_csv(out)
        assert [r["advantage_exact"] for r in rows] == ["1/6", "1/4", "5/8"]
        assert all(r["dual_identity_ok"] == "True" for r in rows)
        assert all(r["below_combined_upper"] == "True" for r in rows)

    def test_sweep_expansion(self, capsys):
        code, out = run_cli(capsys, "exact", "--n-range", "2", "3",
                            "--m-range", "0", "2", "--q", "2")
        assert code == 0
        cells = [(r["n"], r["m"]) for r in parse_csv(out)]
        assert cells == [("2", "0"), ("2", "1"), ("3", "0"), ("3", "1"), ("3", "2")]

    def test_refusal_row(self, capsys):
        # far over any profile ceiling: row is marked refused, exit stays 0
        code, out = run_cli(capsys, "exact", "--n", "8", "--m", "4", "--q", "256")
        rows = parse_csv(out)
        assert rows[0]["status"] == "refused"
        assert "ceiling" in rows[0]["reason"]
        assert code == 0

    def test_refusal_reason_counts_the_first_refused_side(self, capsys):
        # both sums are over the ceiling; the greater side is priced first
        code, out = run_cli(capsys, "exact", "--n", "9", "--m", "4", "--q", "200")
        row = parse_csv(out)[0]
        assert row["status"] == "refused"
        assert row["reason"] == (
            "ceiling: 9422517658 profiles exceed ceiling 1000000; "
            "use mc_advantage for an estimate"
        )
        assert code == 0


class TestBoundsCommand:
    def test_headline_value(self, capsys):
        code, out = run_cli(capsys, "bounds", "--n", "128", "--m", "64",
                            "--q", str(2**64))
        assert code == 0
        row = parse_csv(out)[0]
        assert row["stam_simplified_exact"] == "1/4294967296"
        assert row["stam_simplified_valid"] == "True"

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "bounds", "--n", "8", "--m", "4", "--q", "16",
                            "--format", "json")
        data = json.loads(out)
        assert data[0]["n"] == 8 and "theta_envelope" in data[0]


class TestMcCommand:
    def test_deterministic_across_workers(self, capsys):
        _, out1 = run_cli(capsys, "mc", "--n", "8", "--m", "4", "--q", "32",
                          "--trials", "20000", "--seed", "9", "--workers", "1")
        _, out4 = run_cli(capsys, "mc", "--n", "8", "--m", "4", "--q", "32",
                          "--trials", "20000", "--seed", "9", "--workers", "4")
        # identical apart from timing and the echoed worker count
        a = strip_timing(parse_csv(out1), extra=("workers",))
        b = strip_timing(parse_csv(out4), extra=("workers",))
        assert a == b

    def test_seed_changes_estimate(self, capsys):
        _, out1 = run_cli(capsys, "mc", "--n", "8", "--m", "4", "--q", "32",
                          "--trials", "5000", "--seed", "1")
        _, out2 = run_cli(capsys, "mc", "--n", "8", "--m", "4", "--q", "32",
                          "--trials", "5000", "--seed", "2")
        assert parse_csv(out1)[0]["estimate"] != parse_csv(out2)[0]["estimate"]


class TestMomentsCommand:
    def test_brute_and_empirical_agree(self, capsys):
        code, out = run_cli(capsys, "moments", "--n", "3", "--m", "1", "--q", "5",
                            "--trials", "20000")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["brute_matches"] == "True"
        assert row["empirical_within_4se"] == "True"


class TestGameCommand:
    def test_optimal_rule_within_4se(self, capsys):
        code, out = run_cli(capsys, "game", "--n", "8", "--m", "4", "--q", "32",
                            "--trials", "20000", "--seed", "3")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["within_4se"] == "True"
        assert row["rule"] == "likelihood_greater_than_one"

    def test_collision_rule(self, capsys):
        code, out = run_cli(capsys, "game", "--n", "8", "--m", "4", "--q", "32",
                            "--rule", "collision", "--trials", "20000")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["rule"] == "collision_threshold"
        assert float(row["threshold"]) > 0


class TestLemmasCommand:
    def test_reports_known_failure_and_exits_nonzero(self, capsys):
        code = main(["lemmas", "--trials", "100000"])
        out, err = capsys.readouterr()
        rows = parse_csv(out)
        status = {r["check"]: r["passed"] for r in rows}
        assert status["likelihood_exponential_bound"] == "False"
        assert status["likelihood_exponential_bound_half_domain"] == "True"
        assert code == 1  # honest: one stated inequality is false as printed
        others = [v for k, v in status.items() if k != "likelihood_exponential_bound"]
        assert all(v == "True" for v in others)
        # the failing check names its worst witness on stderr, and only it
        assert err.startswith("lemmas: likelihood_exponential_bound failed: worst witness "
                              "(n, m, q) = (4, 1, 16), profile (2, 2, 2, 2, 2, 2, 2, 2)")
        assert err.count("failed") == 1 and err.endswith("\n")

    def test_too_few_trials_is_a_clean_error(self, capsys):
        code = main(["lemmas", "--trials", "1000"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: trials must be >= 1e5 to resolve 1/400\n"


class TestStreamCommand:
    def test_generates_file_and_sidecar(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "ks.bin"
        code, out = run_cli(capsys, "stream", "--n", "12", "--m", "4",
                            "--count", "256", "--out", str(out_path))
        assert code == 0
        assert out_path.stat().st_size == 256  # 256 8-bit symbols, bit-packed
        meta = json.loads((tmp_path / "ks.bin.json").read_text())
        assert meta["n"] == 12 and meta["permutation_kind"] == "explicit"
        row = parse_csv(out)[0]
        assert row["bytes_written"] == "256"

    def test_balance_mode(self, capsys):
        code, out = run_cli(capsys, "stream", "--n", "12", "--m", "4", "--balance")
        assert code == 0
        assert parse_csv(out)[0]["balance"] == "pass"

    def test_feistel_backend(self, capsys, tmp_path):
        out_path = tmp_path / "f.bin"
        code, _ = run_cli(capsys, "stream", "--n", "16", "--m", "8",
                          "--count", "64", "--perm", "feistel",
                          "--out", str(out_path))
        assert code == 0
        meta = json.loads((tmp_path / "f.bin.json").read_text())
        assert meta["permutation_kind"] == "feistel_demo"


class TestBenchCommand:
    def test_reports_throughput(self, capsys):
        code, out = run_cli(capsys, "bench", "--n", "10", "--m", "2",
                            "--count", "1024", "--repetitions", "2")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["bytes_per_second"]) > 0


class TestDeterminism:
    def test_identical_reruns(self, capsys):
        args = ("game", "--n", "8", "--m", "4", "--q", "32",
                "--trials", "10000", "--seed", "17", "--workers", "2")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert strip_timing(parse_csv(out1)) == strip_timing(parse_csv(out2))
