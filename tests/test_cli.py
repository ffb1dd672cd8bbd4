import csv
import io
import json
import os
import resource
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

import truncperm.cli as cli
import truncperm.core
import truncperm.exact
import truncperm.game
import truncperm.moments
from truncperm import __version__
from truncperm.cli import TIMING_COLUMNS, build_parser, main
from truncperm.core import CHUNK_CELLS, SHARD_COUNT, Params
from truncperm.stream import FeistelPermutation

from test_exact import advantage_sum_unpruned


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def strip_timing(rows):
    return [{k: v for k, v in r.items() if k not in TIMING_COLUMNS} for r in rows]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_requires_cell(self, capsys):
        assert main(["exact"]) == 2
        assert capsys.readouterr() == ("", "error: provide --n\n")

    def test_no_arithmetic_mode_option(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exact", "--n", "2", "--q", "2", "--mode", "fast"])
        _, out = run_cli(capsys, "mc", "--n", "4", "--m", "2", "--q", "4", "--trials", "10")
        assert "arith_mode" not in parse_csv(out)[0]

    USAGE = ("usage: truncperm [-h] {exact,bounds,mc,moments,game,lemmas,stream,bench}"
             " ...\n")
    GAME_HELP = """\
usage: truncperm game [-h] [--n N [N ...]] [--m M [M ...]] [--q Q [Q ...]]
                      [--trials TRIALS] [--seed SEED]
                      [--rule {optimal,optimal-less,collision}]
                      [--format {csv,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --n N [N ...]
  --m M [M ...]
  --q Q [Q ...]
  --trials TRIALS
  --seed SEED
  --rule {optimal,optimal-less,collision}
  --format {csv,json}
  --out OUT
"""

    EXACT_HELP = """\
usage: truncperm exact [-h] [--n N [N ...]] [--m M [M ...]] [--q Q [Q ...]]
                       [--format {csv,json}] [--out OUT]

options:
  -h, --help           show this help message and exit
  --n N [N ...]
  --m M [M ...]
  --q Q [Q ...]
  --format {csv,json}
  --out OUT
"""

    @pytest.mark.parametrize("argv,code,out,err", [
        (["--help"], 0, USAGE + """
truncated-permutation distinguishing-advantage laboratory

positional arguments:
  {exact,bounds,mc,moments,game,lemmas,stream,bench}

options:
  -h, --help            show this help message and exit
""", ""),
        ([], 2, "", USAGE + "truncperm: error: the following arguments are required: command\n"),
        (["nosuch"], 2, "", USAGE + "truncperm: error: argument command: invalid choice: "
         "'nosuch' (choose from 'exact', 'bounds', 'mc', 'moments', 'game', 'lemmas', "
         "'stream', 'bench')\n"),
        (["exact", "--bogus"], 2, "", USAGE + "truncperm: error: unrecognized arguments: --bogus\n"),
        (["exact", "extra", "--n", "4", "--m", "1", "--q", "3"], 2, "",
         USAGE + "truncperm: error: unrecognized arguments: extra\n"),
        (["game", "--help"], 0, GAME_HELP, ""),
        (["exact", "-h"], 0, EXACT_HELP, ""),
        (["--format", "json", "exact"], 2, "", USAGE + "truncperm: error: argument "
         "command: invalid choice: 'json' (choose from 'exact', 'bounds', 'mc', "
         "'moments', 'game', 'lemmas', 'stream', 'bench')\n"),
    ], ids=["help", "no-command", "unknown-command", "unknown-option", "extra-argument",
            "game-help", "exact-help", "option-before-command"])
    def test_usage_help_and_errors(self, capsys, monkeypatch, argv, code, out, err):
        # a parser that builds only the invoked subcommand's options prints
        # the same text as one that builds them all
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", ["truncperm", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_builds_only_the_invoked_subcommand(self, command):
        parser = build_parser(command)
        assert list(parser._subparsers._group_actions[0].choices) == [command]
        assert build_parser(None).format_usage() == parser.format_usage()

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
    # the retired range options, which every subcommand rejects
    "--n-range": ["2", "3"], "--m-range": ["0", "1"], "--q-range": ["1", "4"],
    "--trials": ["100"], "--seed": ["3"],
    "--rule": ["collision"],
    "--count": ["64"], "--start": ["5"], "--packing": ["byte"], "--perm": ["feistel"],
    "--balance": [], "--repetitions": ["2"],
    "--format": ["json"], "--out": ["x.csv"],
}
CELLS = ["--n", "--m", "--q"]
KEYSTREAM = ["--n", "--m", "--count", "--start", "--packing", "--perm"]
READS = {
    "exact": CELLS,
    "bounds": CELLS,
    "mc": CELLS + ["--trials", "--seed"],
    "moments": CELLS + ["--trials", "--seed"],
    "game": CELLS + ["--trials", "--seed", "--rule"],
    "lemmas": ["--seed"],
    "stream": KEYSTREAM + ["--seed", "--balance"],
    "bench": KEYSTREAM + ["--seed", "--repetitions"],
}
# provenance columns of each subcommand's rows, in order
PROVENANCE = {
    "exact": ["version"],
    "bounds": ["version"],
    "mc": ["seed", "version"],
    "moments": ["seed", "version"],
    "game": ["seed", "version"],
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
        tail = PROVENANCE[argv[0]] + ["cpu_s", "elapsed_s"]
        assert rows and all(list(r)[-len(tail):] == tail for r in rows)
        assert all(r["version"] == __version__ and "workers" not in r for r in rows)

    @pytest.mark.parametrize("command", ["exact", "bounds"])
    def test_unseeded_rows_carry_no_seed_or_workers(self, capsys, command):
        code, out = run_cli(capsys, command, "--n", "3", "--m", "1", "--q", "2", "3")
        assert code == 0
        for row in parse_csv(out):
            assert "seed" not in row and "workers" not in row

    @pytest.mark.parametrize("command", ["exact", "bounds", "mc", "moments", "game"])
    def test_one_value_is_a_range_one_cell_wide(self, capsys, command):
        trials = ["--trials", "40"] if "--trials" in READS[command] else []
        _, one = run_cli(capsys, command, "--n", "4", "--m", "1", "--q", "5", *trials)
        _, wide = run_cli(capsys, command, "--n", "4", "4", "--m", "1", "1",
                          "--q", "5", "5", *trials)
        assert strip_timing(parse_csv(one)) == strip_timing(parse_csv(wide))


class TestCountOptions:
    @pytest.mark.parametrize("argv", [
        ["mc", "--n", "4", "--m", "2", "--q", "4", "--trials", "0"],
        ["mc", "--n", "4", "--m", "2", "--q", "4", "--trials", "-3"],
        ["game", "--n", "4", "--m", "2", "--q", "4", "--trials", "0"],
        ["moments", "--n", "4", "--m", "2", "--q", "4", "--trials", "0"],
    ], ids=" ".join)
    def test_rejects_non_positive_counts(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"argument {argv[-2]}: must be a positive integer, got '{argv[-1]}'" in err

    @pytest.mark.parametrize("argv,message", [
        ("bench --n 8 --m 4 --repetitions 0",
         "argument --repetitions: must be a positive integer, got '0'"),
        ("stream --n 21 --m 4", "error: explicit permutation supports 1 <= n <= 20"),
        ("stream --n 8 --m 4 --count 1000",
         "error: counter range exceeds 2**n: inputs must stay distinct"),
        ("bench --n 8 --m 4 --count 1000",
         "error: counter range exceeds 2**n: inputs must stay distinct"),
        ("stream --n 26 --m 4 --perm feistel --balance", "error: --balance needs n <= 24"),
        ("bench --n 9 --m 4 --perm feistel", "error: Feistel needs an even bit width"),
        ("stream --n 8 --m 9 --balance", "error: need 0 <= m < n, got m=9, n=8"),
        ("stream --m 4", "error: stream needs --n and --m"),
        ("exact --q 3", "error: provide --n"),
        ("mc --n 3 --q 100 --trials 10", "error: empty sweep"),
        ("exact --n 4 --q 1 2 3", "error: --q takes one value or a range LO HI"),
        ("bounds --n 2 3 4", "error: --n takes one value or a range LO HI"),
        ("exact --n 4 --m 1 --q 3 extra", "argument --q: invalid int value: 'extra'"),
        ("game --n 4 --m 1 --q 1 --rule collision --trials 10",
         "error: --rule collision: q must be >= 2 (a single reply has no pairs)"),
    ])
    def test_input_errors_exit_2(self, capsys, tmp_path, monkeypatch, argv, message):
        # one line on stderr, nothing on stdout, and no stream file written
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse's own rejection
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(message)
        assert err.count("error") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_one_moments_trial_skips_the_sampled_moments(self, capsys):
        code, out = run_cli(capsys, "moments", "--n", "4", "--m", "2", "--q", "4",
                            "--trials", "1")
        assert code == 0 and "emp_m2" not in parse_csv(out)[0]

    def test_workers_default_to_the_usable_cores(self, monkeypatch):
        default_workers = truncperm.core.default_workers
        monkeypatch.setattr(truncperm.core, "resource", None)  # no address-space cap
        if hasattr(os, "sched_getaffinity"):
            assert default_workers() == min(len(os.sched_getaffinity(0)), SHARD_COUNT)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(100)),
                            raising=False)
        assert default_workers() == SHARD_COUNT
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_workers() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1


# Result columns of small seeded cells as printed with one draw per shard and
# arm on one thread; drawing in pieces and on threads must not change them.
GOLDEN_ROWS = [
    # 1024 buckets: 64-row pieces, 100 trials per shard
    ("mc --n 12 --m 2 --q 64 --trials 3200 --seed 4",
     {"trials": "3200", "estimate": "0.14634071852701258",
      "std_err": "0.003486054455585856"}),
    # 782 trials x 2**16 buckets per shard: the per-trial path of mc_advantage
    ("mc --n 17 --m 1 --q 256 --trials 25024 --seed 4",
     {"trials": "25024", "estimate": "0.17175433031966517",
      "std_err": "0.0014815538521661105"}),
    # 256 buckets: 256-row pieces, 300 trials per shard and arm
    ("game --n 12 --m 4 --q 24 --trials 9600 --seed 4",
     {"rule": "likelihood_greater_than_one", "threshold": "", "trials_per_arm": "9600",
      "accept_rate_function": "0.7235416666666666",
      "accept_rate_permutation": "0.7464583333333333",
      "empirical_advantage": "0.022916666666666696", "std_err": "0.006367948822639409",
      "exact_advantage": "0.02411436390984696", "within_4se": "True"}),
    ("game --n 12 --m 4 --q 24 --trials 9600 --seed 4 --rule collision",
     {"rule": "collision_threshold", "threshold": "0.14684175155588414",
      "trials_per_arm": "9600", "accept_rate_function": "0.2764583333333333",
      "accept_rate_permutation": "0.25354166666666667",
      "empirical_advantage": "0.02291666666666664", "std_err": "0.006367948822639409",
      "exact_advantage": "0.02411436390984696", "within_4se": "True"}),
    # one Generator, 5000 = 78 * 64 + 8 rows; p(64) = 1741630 profiles, over
    # the ceiling, so the cross-check is left undone and the sampled
    # standard errors gate the flag
    ("moments --n 12 --m 2 --q 64 --trials 5000 --seed 4",
     {"m1": "0.0", "m2": "1.966827392578125", "m3": "2.201156437397003",
      "m4": "15.029339885164518", "m2_exact": "64449/32768",
      "m4_exact": "258202093149/17179869184", "brute_matches": "",
      "emp_m2": "1.9435640625", "emp_m4": "15.239313038635254", "emp_trials": "5000",
      "empirical_within_4se": "True"}),
    # 11 profiles: the cross-check runs, and the exact standard errors gate
    # the flag
    ("moments --n 4 --m 1 --q 6 --trials 3000 --seed 2",
     {"m1": "0.0", "m2": "1.640625", "m3": "2.87109375", "m4": "17.867431640625",
      "m2_exact": "105/64", "m4_exact": "73185/4096", "brute_matches": "True",
      "emp_m2": "1.5302083333333334", "emp_m4": "15.484054036458334",
      "emp_trials": "3000", "empirical_within_4se": "True"}),
]


# each golden cell at the default thread count, and at 1 and 3 threads where
# the command runs shards (moments draws from one Generator)
GOLDEN_RUNS = [
    (argv, threads, want)
    for argv, want in GOLDEN_ROWS
    for threads in ([None] if argv.startswith("moments") else [None, 1, 3])
]


class TestSeededRows:
    @pytest.mark.parametrize(
        "argv,threads,want", GOLDEN_RUNS,
        ids=[a if t is None else f"{a} threads={t}" for a, t, _ in GOLDEN_RUNS])
    def test_result_columns_are_unchanged(self, capsys, monkeypatch, argv, threads, want):
        if threads is not None:
            monkeypatch.setattr(truncperm.core, "default_workers", lambda: threads)
        code, out = run_cli(capsys, *argv.split())
        row = parse_csv(out)[0]
        assert code == 0
        assert {k: row[k] for k in want} == want

    @pytest.mark.parametrize("argv", [
        "mc --n 12 --m 2 --q 64 --trials 3200",
        "mc --n 18 --m 1 --q 8 --trials 64",
        "game --n 12 --m 4 --q 24 --rule collision --trials 3200",
        "game --n 18 --m 1 --q 8 --trials 64",
        "moments --n 12 --m 2 --q 64 --trials 3000",
        "moments --n 18 --m 1 --q 8 --trials 20",
    ])
    def test_no_draw_exceeds_a_piece(self, capsys, monkeypatch, argv):
        argv = argv.split()
        calls = []

        def recording(sampler):
            def draw(params, trials, rng):
                calls.append((trials, params.num_replies))
                return sampler(params, trials, rng)
            return draw

        for module in (truncperm.exact, truncperm.game, truncperm.moments):
            for name in ("sample_function_count_matrix", "sample_permutation_count_matrix"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, recording(getattr(module, name)))
        main(argv)
        capsys.readouterr()
        assert len(calls) > 1
        assert all(rows * b <= CHUNK_CELLS or rows == 1 for rows, b in calls), calls
        assert sum(rows for rows, _ in calls) == int(argv[-1]) * (2 if argv[0] == "game" else 1)


# cells the samplers cannot draw
UNDRAWABLE = [
    # numpy's hypergeometric draw takes populations 2**n below 10**9
    "game --n 30 --m 10 --q 8 --trials 10",
    "game --n 40 --m 39 --q 3 --trials 10",
    # one row of 2**(n-m) counters over MATRIX_CELLS
    "game --n 28 --m 1 --q 3 --trials 10",
    "moments --n 30 --m 0 --q 3 --trials 10",
    # 2**64 reply values, past numpy's integer draws
    "mc --n 64 --m 0 --q 2 --trials 10",
]


SRC = os.path.dirname(os.path.dirname(truncperm.core.__file__))


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# the CLI in a child that sees `cores` usable cores, set before it is imported
WITH_CORES = ("import os, sys; os.sched_getaffinity = lambda pid: set(range({})); "
              "import truncperm.cli; sys.exit(truncperm.cli.main(sys.argv[1:]))")


def run_capped(argv, cwd=None, cores=None):
    """`truncperm argv` in a child with a 1 GiB address space and a 60 s
    deadline, importing the package this test imports from any `cwd`; with
    `cores`, the child's affinity call reports that many usable cores."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    entry = ["-m", "truncperm"] if cores is None else ["-c", WITH_CORES.format(cores)]
    return subprocess.run(
        [sys.executable, *entry, *argv.split()], cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
    )


class TestUndrawableCells:
    @pytest.mark.parametrize("argv", UNDRAWABLE)
    def test_exit_2_with_one_line(self, argv):
        proc = run_capped(argv)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", UNDRAWABLE)
    def test_refused_before_any_draw(self, capsys, monkeypatch, argv):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew with {name}")

        monkeypatch.setattr(truncperm.core, "spawn_rngs", lambda seed, count: [NoDraws()] * count)
        monkeypatch.setattr(cli, "make_rng", lambda seed: NoDraws())
        assert main(argv.split()) == 2
        assert capsys.readouterr().err.startswith("error: (n, m, q) = ")


# rows of 2**24 and 2**25 counters, the longest `require_count_rows` admits:
# drawn with numpy pvals and colors, and one row at a time, they fit in 1 GiB
LONG_ROWS = [
    "moments --n 25 --m 0 --q 3 --trials 2",
    "game --n 25 --m 0 --q 3 --trials 2",
    "game --n 24 --m 0 --q 3 --trials 2",
    "game --n 24 --m 0 --q 3 --trials 2 --rule collision",
]

# cells that start threads; on 32 usable cores under 1 GiB, each thread's
# address space, and then its rows, would not fit
MANY_CORES = [
    "mc --n 12 --m 6 --q 512 --trials 100000",
    "game --n 10 --m 0 --q 3 --trials 6400",
    # rows of 2**21 counters: THREAD_ROW_BYTES admits 8 threads, 1 GiB held 7
    "mc --n 21 --m 0 --q 3 --trials 64",
]


class TestLongRows:
    @pytest.mark.parametrize("argv", LONG_ROWS)
    def test_drawn_within_1_gib(self, argv):
        proc = run_capped(argv)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr[-300:]
        assert len(parse_csv(proc.stdout)) == 1

    @pytest.mark.parametrize("argv", MANY_CORES)
    def test_threads_are_capped_by_the_address_space(self, argv):
        proc = run_capped(argv, cores=32)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr[-300:]
        serial = run_capped(argv, cores=1)
        assert serial.returncode == 0, serial.stderr[-300:]
        assert strip_timing(parse_csv(proc.stdout)) == strip_timing(parse_csv(serial.stdout))

    def test_threads_are_capped_by_row_bytes(self, monkeypatch):
        pools = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(truncperm.core, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(truncperm.core, "default_workers", lambda: SHARD_COUNT)
        for n in (21, 22, 23, 24, 25):
            truncperm.core.map_shards(lambda t, rng: None, Params(n, 0, 3), 8, 0)
        # 2**27 bytes of rows: 8 threads at 2**21 counters, serial from 2**24 on
        assert pools == [8, 4, 2]
        # and never more threads than cores
        monkeypatch.setattr(truncperm.core, "default_workers", lambda: 3)
        truncperm.core.map_shards(lambda t, rng: None, Params(21, 0, 3), 8, 0)
        assert pools[-1] == 3


# --seed takes non-negative integers on every subcommand; the Feistel key is
# the seed's 8 bytes, so that backend also needs it below 2**63
SEED_ERRORS = [
    *((argv, f"argument --seed: must be a non-negative integer, got '{argv.split()[-1]}'")
      for argv in ["mc --n 4 --m 2 --q 4 --trials 10 --seed -1",
                   "game --n 4 --m 2 --q 4 --trials 10 --seed -1",
                   "moments --n 4 --m 2 --q 4 --trials 10 --seed -1",
                   "lemmas --seed -1",
                   "stream --n 8 --m 4 --count 256 --seed -1",
                   "bench --n 8 --m 4 --count 256 --seed -1",
                   "stream --n 8 --m 4 --count 256 --perm feistel --seed -3",
                   "mc --n 4 --m 2 --q 4 --seed x"]),
    *((argv, "error: --perm feistel needs --seed below 2**63")
      for argv in ["stream --n 8 --m 4 --count 256 --perm feistel --seed 9223372036854775808",
                   "bench --n 8 --m 4 --count 256 --perm feistel --seed 9223372036854775808"]),
]


class TestSeedOption:
    @pytest.mark.parametrize("argv,message", SEED_ERRORS, ids=[a for a, _ in SEED_ERRORS])
    def test_exit_2_with_one_error_line(self, tmp_path, argv, message):
        proc = run_capped(argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr.splitlines()[-1].endswith(message)
        assert proc.stderr.count("error") == 1 and "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_largest_feistel_seed_is_its_key(self, capsys, tmp_path):
        # 2**63 - 1 is the last seed whose signed 8 bytes make the key
        out = tmp_path / "ks.bin"
        seed = (1 << 63) - 1
        run_cli(capsys, "stream", "--n", "8", "--m", "4", "--count", "256",
                "--perm", "feistel", "--seed", str(seed), "--out", str(out))
        perm = FeistelPermutation(8, seed.to_bytes(8, "little"))
        assert list(out.read_bytes()) == [perm(x) >> 4 << 4 | perm(x + 1) >> 4
                                          for x in range(0, 256, 2)]


class TestExactCommand:
    def test_values(self, capsys):
        code, out = run_cli(capsys, "exact", "--n", "2", "--m", "1",
                            "--q", "2", "4")
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
        assert (row["status"], row["profiles"], row["profiles_walked"]) == ("ok", "186", "160")
        assert row["dual_identity_ok"] == ""

    def test_sweep_expansion(self, capsys):
        code, out = run_cli(capsys, "exact", "--n", "2", "3",
                            "--m", "0", "2", "--q", "2")
        assert code == 0
        cells = [(r["n"], r["m"]) for r in parse_csv(out)]
        assert cells == [("2", "0"), ("2", "1"), ("3", "0"), ("3", "1"), ("3", "2")]

    def test_ranges_clip_to_valid_cells(self, capsys):
        # a negative or huge bound clips to 0 <= m < n and 1 <= q <= 2**n
        code, out = run_cli(capsys, "exact", "--n", "-1", "2", "--m", "-3", "9",
                            "--q", "0", str(10**12))
        assert code == 0
        cells = [(r["n"], r["m"], r["q"]) for r in parse_csv(out)]
        assert cells == [("1", "0", "1"), ("1", "0", "2")] + [
            ("2", m, q) for m in "01" for q in "1234"]

    @pytest.mark.parametrize("n,m,q,less", [
        (7, 3, 112, 1090592), (7, 3, 120, 1579883), (7, 3, 128, 2239706),
        (8, 4, 256, 1673243),
    ])
    def test_answers_from_the_greater_side(self, capsys, n, m, q, less):
        # only the less side is over the ceiling: the greater side answers and
        # the dual identity is left unchecked, which is not a failure
        code, out = run_cli(capsys, "exact", "--n", str(n), "--m", str(m), "--q", str(q))
        row = parse_csv(out)[0]
        p = Params(n, m, q)
        want = advantage_sum_unpruned(p, lambda _, excess: excess > 0)
        assert code == 0
        assert row["status"] == "ok"
        assert Fraction(row["advantage_exact"]) == want
        assert row["dual_identity_ok"] == ""
        assert row["below_combined_upper"] == "True"
        assert row["reason"] == (
            f"dual identity not checked: less side: at least {less} profiles exceed ceiling "
            "1000000; use mc_advantage for an estimate"
        )

    def test_both_sides_within_the_ceiling_check_the_dual_identity(self, capsys):
        # (11, 10, 1500) has 2 reply values, so the less side's subtree sums
        # span hundreds of part sizes
        for n, m, q in [(10, 5, 32), (11, 10, 1500)]:
            code, out = run_cli(capsys, "exact", "--n", str(n), "--m", str(m), "--q", str(q))
            row = parse_csv(out)[0]
            assert code == 0
            assert (row["status"], row["dual_identity_ok"], row["reason"]) == ("ok", "True", "")

    def test_refusal_row(self, capsys):
        # both sides far over the profile ceiling: row is marked refused, exit
        # stays 0
        code, out = run_cli(capsys, "exact", "--n", "10", "--m", "4", "--q", "256")
        rows = parse_csv(out)
        assert rows[0]["status"] == "refused"
        assert "ceiling" in rows[0]["reason"]
        assert code == 0

    @pytest.mark.parametrize("n,m,q,prices", [
        (10, 5, 32, 2),  # both sides answered
        (7, 3, 112, 2),  # the less side over the ceiling
        (12, 6, 384, 1),  # the greater side over the ceiling: refused
    ])
    def test_each_side_is_priced_once(self, capsys, monkeypatch, n, m, q, prices):
        calls = []
        price = truncperm.exact._partition_counts

        def counted(*args):
            calls.append(args)
            return price(*args)

        monkeypatch.setattr(truncperm.exact, "_partition_counts", counted)
        run_cli(capsys, "exact", "--n", str(n), "--m", str(m), "--q", str(q))
        assert len(calls) == prices

    def test_prints_every_digit_of_a_large_fraction(self, capsys):
        # 751 greater-side profiles, but a 10,669-character Fraction: past the
        # interpreter's 4300-digit cap on turning an int into text
        cap = sys.get_int_max_str_digits()
        code, out = run_cli(capsys, "exact", "--n", "12", "--m", "1", "--q", "1500")
        assert sys.get_int_max_str_digits() == cap
        row = parse_csv(out)[0]
        want = truncperm.exact.exact_advantage(Params(12, 1, 1500)).value
        assert code == 0
        assert (row["status"], row["profiles"], row["profiles_walked"]) == ("ok", "751", "456")
        num, den = row["advantage_exact"].split("/")
        assert (len(num), len(den)) == (5334, 5334)
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(int(num), int(den)) == want
        finally:
            sys.set_int_max_str_digits(cap)

    def test_refusal_reason_counts_the_first_refused_side(self, capsys):
        # both sums are over the ceiling; the greater side is priced first
        code, out = run_cli(capsys, "exact", "--n", "9", "--m", "4", "--q", "200")
        row = parse_csv(out)[0]
        assert row["status"] == "refused"
        assert row["reason"] == (
            "ceiling: at least 8790084 profiles exceed ceiling 1000000; "
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

    def test_underflowing_hall_scale_reads_inf(self, capsys):
        code, out = run_cli(capsys, "bounds", "--n", "400", "--m", "390", "--q", "3")
        assert code == 0
        assert parse_csv(out)[0]["hall_upper"] == "inf"


class TestMcCommand:
    def test_deterministic_across_workers(self, capsys, monkeypatch):
        outs = []
        for threads in (1, 4):
            monkeypatch.setattr(truncperm.core, "default_workers", lambda: threads)
            outs.append(run_cli(capsys, "mc", "--n", "8", "--m", "4", "--q", "32",
                                "--trials", "20000", "--seed", "9")[1])
        # identical apart from timing
        assert strip_timing(parse_csv(outs[0])) == strip_timing(parse_csv(outs[1]))

    def test_seed_changes_estimate(self, capsys):
        _, out1 = run_cli(capsys, "mc", "--n", "8", "--m", "4", "--q", "32",
                          "--trials", "5000", "--seed", "1")
        _, out2 = run_cli(capsys, "mc", "--n", "8", "--m", "4", "--q", "32",
                          "--trials", "5000", "--seed", "2")
        assert parse_csv(out1)[0]["estimate"] != parse_csv(out2)[0]["estimate"]

    def test_single_trial_has_no_standard_error(self, capsys):
        argv = ["mc", "--n", "4", "--m", "1", "--q", "4", "--trials", "1"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert parse_csv(out)[0]["std_err"] == ""
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["std_err"] == ""


class TestMomentsCommand:
    def test_brute_and_empirical_agree(self, capsys):
        code, out = run_cli(capsys, "moments", "--n", "3", "--m", "1", "--q", "5",
                            "--trials", "20000")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["brute_matches"] == "True"
        assert row["empirical_within_4se"] == "True"

    def test_sampled_moments_are_held_to_their_exact_standard_errors(self, capsys):
        # 22 profiles: E x**8 gives x**4 a standard error of 3.46 at 500
        # trials, 7.4 times the sampled 0.466, so emp_m4 = 2.51 against
        # m4 = 4.79 is 0.66 of it off, not 4.9
        code, out = run_cli(capsys, "moments", "--n", "5", "--m", "0", "--q", "8",
                            "--trials", "500", "--seed", "2")
        row = parse_csv(out)[0]
        assert code == 0
        assert (row["brute_matches"], row["emp_m4"], row["empirical_within_4se"]) == (
            "True", "2.510634765625", "True")

    def test_cross_check_runs_on_every_cell_within_the_profile_ceiling(self, capsys):
        # 257 profiles, though 2**512 transcripts
        code, out = run_cli(capsys, "moments", "--n", "10", "--m", "9", "--q", "512",
                            "--trials", "1")
        assert code == 0
        assert parse_csv(out)[0]["brute_matches"] == "True"


class TestGameCommand:
    def test_optimal_rule_within_4se(self, capsys):
        code, out = run_cli(capsys, "game", "--n", "8", "--m", "4", "--q", "32",
                            "--trials", "20000", "--seed", "3")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["within_4se"] == "True"
        assert row["rule"] == "likelihood_greater_than_one"

    @pytest.mark.parametrize("rule", ["optimal", "optimal-less"])
    def test_rates_of_zero_or_one_stay_within_4se(self, capsys, rule):
        # (3, 0, 7) and (3, 0, 8) sample acceptance rates of exactly 0 or 1
        code, out = run_cli(capsys, "game", "--n", "2", "5", "--m", "0", "4",
                            "--q", "2", "10", "--trials", "300", "--seed", "1",
                            "--rule", rule)
        rows = {(r["n"], r["m"], r["q"]): r for r in parse_csv(out)}
        assert code == 0
        assert {r["within_4se"] for r in rows.values()} <= {"True", ""}
        assert rows["3", "0", "8"]["accept_rate_function"] in ("0.0", "1.0")
        assert float(rows["3", "0", "8"]["std_err"]) > 0

    @pytest.mark.parametrize("rule", ["optimal", "collision"])
    def test_single_trial_has_no_standard_error(self, capsys, rule):
        # one trial per arm gives no spread to hold the gap to, so the row
        # keeps its exact advantage and passes; two trials are held to it
        for seed in range(6):
            code, out = run_cli(capsys, "game", "--n", "4", "--m", "1", "--q", "4",
                                "--trials", "1", "--seed", str(seed), "--rule", rule)
            row = parse_csv(out)[0]
            assert code == 0
            assert (row["std_err"], row["within_4se"]) == ("", "")
            assert row["exact_advantage"] != ""
        code, out = run_cli(capsys, "game", "--n", "4", "--m", "1", "--q", "4",
                            "--trials", "2", "--seed", "0", "--rule", rule)
        row = parse_csv(out)[0]
        assert float(row["std_err"]) > 0 and row["within_4se"] in ("True", "False")

    @pytest.mark.parametrize("rule", ["optimal", "optimal-less"])
    def test_likelihood_rules_priced_by_the_greater_side(self, capsys, rule):
        # the full count, 1031391 profiles, is over the ceiling; the greater
        # side's is not
        code, out = run_cli(capsys, "game", "--n", "8", "--m", "4", "--q", "64",
                            "--trials", "20000", "--seed", "1", "--rule", rule)
        row = parse_csv(out)[0]
        assert code == 0
        assert row["exact_advantage"] == "0.30331953674031154"
        assert (row["within_4se"], row["exact_reason"]) == ("True", "")

    def test_refused_exact_advantage_says_why(self, capsys):
        code, out = run_cli(capsys, "game", "--n", "8", "--m", "4", "--q", "64",
                            "--trials", "2000", "--rule", "collision")
        row = parse_csv(out)[0]
        assert code == 0
        assert (row["exact_advantage"], row["within_4se"]) == ("", "")
        assert row["exact_reason"] == (
            "ceiling: at least 1031391 profiles exceed ceiling 1000000; "
            "use mc_advantage for an estimate"
        )
        _, out = run_cli(capsys, "game", "--n", "14", "--m", "7", "--q", "128",
                         "--trials", "100")
        row = parse_csv(out)[0]
        assert row["exact_advantage"] == ""
        assert row["exact_reason"] == (
            "ceiling: at least 2239706 profiles exceed ceiling 1000000; "
            "use mc_advantage for an estimate"
        )

    def test_collision_rule(self, capsys):
        code, out = run_cli(capsys, "game", "--n", "8", "--m", "4", "--q", "32",
                            "--rule", "collision", "--trials", "20000")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["rule"] == "collision_threshold"
        assert float(row["threshold"]) > 0


MIXED_SWEEPS = [
    # answered from q = 44 to 60, refused from q = 61
    ["exact", "--n", "12", "--m", "6", "--q", "44", "64"],
    # the exact advantage answered up to q = 60, its ceiling reason from q = 61
    ["game", "--n", "12", "--m", "6", "--q", "56", "64", "--trials", "10"],
]


class TestSweepColumns:
    @pytest.mark.parametrize("argv", MIXED_SWEEPS, ids=lambda argv: argv[0])
    def test_every_row_has_the_first_rows_columns(self, capsys, argv):
        # the CSV header is the first row's: answered and refused rows alike
        # carry its columns, in its order
        _, out = run_cli(capsys, *argv, "--format", "json")
        rows = json.loads(out)
        assert all(list(row) == list(rows[0]) for row in rows)
        reasons = [bool(row.get("reason") or row.get("exact_reason")) for row in rows]
        assert reasons == [False] * (len(rows) - 4) + [True] * 4
        _, out = run_cli(capsys, *argv)
        lines = list(csv.reader(io.StringIO(out)))
        assert lines[0] == list(rows[0])
        assert [len(line) for line in lines[1:]] == [len(rows[0])] * len(rows)


class TestLemmasCommand:
    def test_reports_known_failure_and_exits_nonzero(self, capsys):
        code = main(["lemmas"])
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

    def test_takes_no_trial_count(self, capsys):
        # the tail check draws a fixed TAIL_TRIALS, so --trials is no option
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--trials", "0"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.endswith("error: unrecognized arguments: --trials 0\n")


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
                "--trials", "10000", "--seed", "17")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert strip_timing(parse_csv(out1)) == strip_timing(parse_csv(out2))
