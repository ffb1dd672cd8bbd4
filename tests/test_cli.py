import csv
import io
import json
import subprocess
import sys

import pytest

from truncperm import __version__
from truncperm.cli import TIMING_COLUMNS, build_parser, main
from truncperm.stream import FeistelPermutation


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

    def test_no_arithmetic_mode_option(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exact", "--n", "2", "--q", "2", "--mode", "fast"])
        _, out = run_cli(capsys, "mc", "--n", "4", "--m", "2", "--q", "4", "--trials", "10")
        assert "arith_mode" not in parse_csv(out)[0]

    def test_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "truncperm", "exact", "--n", "2", "--m", "1", "--q", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert parse_csv(proc.stdout)[0]["advantage_exact"] == "1/4"


# value(s) to pass with each option of any subcommand
OPTION_VALUES = {
    "--n": ["8"], "--m": ["4"], "--q": ["16"],
    "--n-range": ["2", "3"], "--m-range": ["0", "1"], "--q-range": ["1", "4"],
    "--trials": ["100"], "--seed": ["3"], "--workers": ["2"],
    "--rule": ["collision"],
    "--count": ["64"], "--start": ["5"], "--packing": ["byte"], "--perm": ["feistel"],
    "--balance": [], "--repetitions": ["2"],
    "--format": ["json"], "--out": ["x.csv"],
}
CELLS = ["--n", "--m", "--q", "--n-range", "--m-range", "--q-range"]
KEYSTREAM = ["--n", "--m", "--count", "--start", "--packing", "--perm"]
READS = {
    "exact": CELLS,
    "bounds": CELLS,
    "mc": CELLS + ["--trials", "--seed", "--workers"],
    "moments": CELLS + ["--trials", "--seed"],
    "game": CELLS + ["--trials", "--seed", "--workers", "--rule"],
    "lemmas": ["--trials", "--seed"],
    "stream": KEYSTREAM + ["--seed", "--balance"],
    "bench": KEYSTREAM + ["--seed", "--repetitions"],
}
# provenance columns of each subcommand's rows, in order
PROVENANCE = {
    "exact": ["version"],
    "bounds": ["version"],
    "mc": ["seed", "workers", "version"],
    "moments": ["seed", "version"],
    "game": ["seed", "workers", "version"],
    "lemmas": ["seed", "version"],
    "stream": ["seed", "version"],
    "bench": ["seed", "version"],
}


class TestOptions:
    @pytest.mark.parametrize("command", sorted(READS))
    def test_takes_only_the_options_it_reads(self, command):
        reads = READS[command] + ["--format", "--out"]
        argv = [command] + [tok for opt in reads for tok in [opt, *OPTION_VALUES[opt]]]
        args = build_parser().parse_args(argv)
        for opt in reads:
            assert getattr(args, opt[2:].replace("-", "_")) is not None, opt
        for opt in sorted(set(OPTION_VALUES) - set(reads)):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, opt, *OPTION_VALUES[opt]])

    @pytest.mark.parametrize("argv", [
        ["exact", "--n", "3", "--m", "1", "--q", "4"],
        ["bounds", "--n", "3", "--m", "1", "--q", "4"],
        ["mc", "--n", "3", "--m", "1", "--q", "4", "--trials", "50"],
        ["moments", "--n", "3", "--m", "1", "--q", "4", "--trials", "50"],
        ["game", "--n", "3", "--m", "1", "--q", "4", "--trials", "50"],
        ["lemmas"],
        ["stream", "--n", "8", "--m", "2", "--balance"],
        ["bench", "--n", "8", "--m", "2", "--count", "64", "--repetitions", "1"],
    ], ids=lambda argv: argv[0])
    def test_rows_end_with_provenance_then_elapsed(self, capsys, argv):
        main(argv)
        rows = parse_csv(capsys.readouterr().out)
        tail = PROVENANCE[argv[0]] + ["elapsed_s"]
        assert rows and all(list(r)[-len(tail):] == tail for r in rows)
        assert all(r["version"] == __version__ for r in rows)

    @pytest.mark.parametrize("command", ["exact", "bounds"])
    def test_unseeded_rows_carry_no_seed_or_workers(self, capsys, command):
        code, out = run_cli(capsys, command, "--n", "3", "--m", "1", "--q-range", "2", "3")
        assert code == 0
        for row in parse_csv(out):
            assert "seed" not in row and "workers" not in row


class TestExactCommand:
    def test_values(self, capsys):
        code, out = run_cli(capsys, "exact", "--n", "2", "--m", "1",
                            "--q-range", "2", "4")
        assert code == 0
        rows = parse_csv(out)
        assert [r["advantage_exact"] for r in rows] == ["1/6", "1/4", "5/8"]
        assert all(r["dual_identity_ok"] == "True" for r in rows)
        assert all(r["below_combined_upper"] == "True" for r in rows)

    def test_reports_profiles_walked(self, capsys):
        # profiles is the closed-form count; the greater-side walk reaches
        # only the profiles with R > 1
        code, out = run_cli(capsys, "exact", "--n", "10", "--m", "5", "--q", "32")
        row = parse_csv(out)[0]
        assert (row["profiles"], row["profiles_walked"]) == ("8349", "87")
        assert code == 0
        _, out = run_cli(capsys, "exact", "--n", "7", "--m", "3", "--q", "112")
        row = parse_csv(out)[0]
        assert (row["status"], row["profiles"], row["profiles_walked"]) == ("refused", "", "")

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

    def test_feistel_balance_mode(self, capsys):
        code, out = run_cli(capsys, "stream", "--n", "16", "--m", "4",
                            "--perm", "feistel", "--balance")
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["perm"], row["balance"]) == ("feistel_demo", "pass")

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

    def test_feistel_times_the_block_evaluation(self, capsys, monkeypatch):
        def scalar(self, x):
            raise AssertionError("per-symbol call")

        monkeypatch.setattr(FeistelPermutation, "__call__", scalar)
        code, out = run_cli(capsys, "bench", "--n", "16", "--m", "8", "--count", "4096",
                            "--perm", "feistel", "--repetitions", "2")
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["perm"], row["bytes_written"]) == ("feistel_demo", "4096")
        assert float(row["bytes_per_second"]) > 0


class TestDeterminism:
    def test_identical_reruns(self, capsys):
        args = ("game", "--n", "8", "--m", "4", "--q", "32",
                "--trials", "10000", "--seed", "17", "--workers", "2")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert strip_timing(parse_csv(out1)) == strip_timing(parse_csv(out2))
