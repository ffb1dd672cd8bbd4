"""Batch command-line front end.

Every subcommand evaluates its module over a single (n, m, q) cell or a sweep,
and emits one row per cell as CSV (default) or JSON.  Each subcommand takes
only the option groups it reads (`COMMANDS`).  All randomness is seeded; rows
echo the seed where the command takes one, so a re-run with the same seed, on
any host and any thread count, reproduces the output byte for byte apart from
the timing columns (`TIMING_COLUMNS`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from functools import partial

from . import __version__
from .bounds import best_known_upper, bound_report, float_or_inf
from .checks import run_lemma_suite
from .core import Params, SamplerLimitError, make_rng
from .exact import (
    EnumerationLimitError,
    VIA_R_GREATER,
    VIA_R_LESS,
    exact_advantage,
    mc_advantage_sharded,
)
from .game import (
    Rule,
    COLLISION_THRESHOLD,
    collision_rule_threshold,
    optimal_rule,
    play_game_sharded,
    rule_advantage_exact,
)
from .moments import (
    moments_empirical,
    pair_collision_moments,
    power_standard_errors,
    profile_power_means,
)
from .stream import (
    BALANCE_MAX_N,
    ExplicitPermutation,
    FeistelPermutation,
    StreamConfig,
    balance_check,
    generate_stream,
    throughput_bench,
    write_metadata,
)

# The CPU and wall seconds of a row, in `_clock()` order: the columns excluded
# from golden-file comparisons (everything else is reproducible given the seed).
TIMING_COLUMNS = ("cpu_s", "elapsed_s")


class UsageError(Exception):
    """Option values that parse but describe no valid run; `main` prints
    the message and exits 2, like argparse."""


def _cells(args) -> list[tuple[int, int, int]]:
    """Expand the cell sweep; ranges are inclusive and clipped to validity."""
    if args.n_range:
        ns = range(args.n_range[0], args.n_range[1] + 1)
    elif args.n is not None:
        ns = [args.n]
    else:
        raise UsageError("provide --n or --n-range")
    cells = []
    for n in ns:
        if args.m_range:
            ms = range(args.m_range[0], min(args.m_range[1], n - 1) + 1)
        else:
            ms = [args.m if args.m is not None else 0]
        for m in ms:
            if not 0 <= m < n:
                continue
            if args.q_range:
                qs = range(max(args.q_range[0], 1), min(args.q_range[1], 1 << n) + 1)
            else:
                qs = [args.q if args.q is not None else 1]
            for q in qs:
                if 1 <= q <= (1 << n):
                    cells.append((n, m, q))
    if not cells:
        raise UsageError("empty sweep")
    return cells


def _provenance(args) -> dict:
    """The seed, where the command takes one, and the version."""
    echoed = {"seed": args.seed} if hasattr(args, "seed") else {}
    return {**echoed, "version": __version__}


def _clock() -> tuple[float, float]:
    """(CPU seconds of the process, all threads counted; wall seconds)."""
    return time.process_time(), time.perf_counter()


def _row(args, fields: dict, t0: tuple[float, float]) -> dict:
    """A report row: the fields, a None one as an empty cell, the provenance,
    then the TIMING_COLUMNS, the CPU and wall seconds since t0 (a `_clock()`
    reading)."""
    spent = (round(now - then, 6) for now, then in zip(_clock(), t0))
    shown = {key: "" if value is None else value for key, value in fields.items()}
    return {**shown, **_provenance(args), **dict(zip(TIMING_COLUMNS, spent))}


def _sweep(args, cell_fn):
    """Run cell_fn(args, params) -> (fields, ok) on every cell of the sweep;
    one row per cell, and ok only if every cell's is."""
    rows, ok = [], True
    for n, m, q in _cells(args):
        t0 = _clock()
        fields, cell_ok = cell_fn(args, Params(n, m, q))
        rows.append(_row(args, {"n": n, "m": m, "q": q, **fields}, t0))
        ok &= cell_ok
    return rows, ok


def _emit(rows: list[dict], args) -> None:
    """The rows as JSON or as CSV; every row of a command has the first
    row's columns in its order, so that row gives the header."""
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=rows[0])
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac(value) -> str:
    """A Fraction as numerator/denominator in every digit, any other value as
    its repr.  The interpreter's cap on the digits of an int turned into text
    (0 for none; absent before Python 3.10.7) guards the parsing of untrusted
    text, which this is not, so it is lifted here."""
    if not isinstance(value, Fraction):
        return repr(value)
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        return f"{value.numerator}/{value.denominator}"
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


# ---------------------------------------------------------------------------
# Cells of the sweep subcommands; each returns (result fields, ok)

EXACT_RESULTS = (
    "advantage",
    "advantage_exact",
    "identity",
    "profiles",
    "profiles_walked",
    "dual_identity_ok",
    "below_combined_upper",
)


def exact_cell(args, p: Params):
    # each sum prices itself before it walks, so a refused cell enumerates
    # nothing.  The greater side gives the answer; the less side only checks
    # it through the dual identity, so a less side over the ceiling leaves
    # the check undone, not the cell refused
    try:
        greater = exact_advantage(p, VIA_R_GREATER)
    except EnumerationLimitError as exc:
        refused = dict.fromkeys(EXACT_RESULTS, "")
        return {**refused, "status": "refused", "reason": f"ceiling: {exc}"}, True
    try:
        dual_ok = greater.value == exact_advantage(p, VIA_R_LESS).value
        unchecked = ""
    except EnumerationLimitError as exc:
        dual_ok = ""
        unchecked = f"dual identity not checked: less side: {exc}"
    dominated = greater.value <= best_known_upper(p.n, p.m, p.q)
    fields = {
        "advantage": float(greater.value),
        "advantage_exact": _frac(greater.value),
        "identity": VIA_R_GREATER,
        "profiles": greater.profiles_enumerated,
        "profiles_walked": greater.profiles_walked,
        "dual_identity_ok": dual_ok,
        "below_combined_upper": dominated,
        "status": "ok",
        "reason": unchecked,
    }
    return fields, dual_ok is not False and dominated


def bounds_cell(args, p: Params):
    rep = bound_report(p.n, p.m, p.q)
    fields = {
        "birthday_exact": (
            float(rep.birthday_exact) if rep.birthday_exact is not None else ""
        ),
        "birthday_upper": float(rep.birthday_upper),
        "hall_lower_ref": float_or_inf(rep.hall_lower_ref.value),
        "hall_lower_valid": rep.hall_lower_ref.valid,
        "hall_upper": rep.hall_upper,
        "bi_upper": rep.bi_upper.value,
        "bi_valid": rep.bi_upper.valid,
        "gg_upper": rep.gg_upper.value,
        "gg_branch": rep.gg_upper.branch,
        "gg_valid": rep.gg_upper.valid,
        "stam_full": rep.stam_full,
        "stam_simplified": float_or_inf(rep.stam_simplified.value),
        "stam_simplified_exact": _frac(rep.stam_simplified.value),
        "stam_simplified_valid": rep.stam_simplified.valid,
        "combined_upper": float(rep.combined_upper),
        "theta_envelope": float(rep.theta_envelope),
    }
    return fields, True


def mc_cell(args, p: Params):
    est = mc_advantage_sharded(p, args.trials, args.seed)
    fields = {
        "trials": est.trials,
        "estimate": est.mean,
        "std_err": est.std_err,
    }
    return fields, True


def moments_cell(args, p: Params):
    ok = True
    closed = pair_collision_moments(p.q, p.num_replies)
    fields = {
        "m1": float(closed[0]),
        "m2": float(closed[1]),
        "m3": float(closed[2]),
        "m4": float(closed[3]),
        "m2_exact": _frac(closed[1]),
        "m4_exact": _frac(closed[3]),
        "brute_matches": "",
    }
    means = None  # E x**k for k = 1..POWERS over the profiles
    try:
        means = profile_power_means(p)
        fields["brute_matches"] = ok = means[:4] == closed
    except EnumerationLimitError:
        pass  # over the profile ceiling: the closed form stays unchecked
    if args.trials >= 2:
        emp, ses = moments_empirical(p, args.trials, make_rng(args.seed))
        # each power's standard error from the exact moments where the
        # profile sums ran, else the sampled one
        if means:
            ses = power_standard_errors(means, args.trials)
        within = all(
            abs(e - float(c)) <= 4.0 * se + 1e-12
            for e, c, se in zip(emp, closed, ses)
        )
        fields.update(
            emp_m2=emp[1], emp_m4=emp[3], emp_trials=args.trials,
            empirical_within_4se=within,
        )
        ok &= within
    return fields, ok


def _build_rule(args, params: Params) -> Rule:
    if args.rule == "optimal":
        return optimal_rule("greater")
    if args.rule == "optimal-less":
        return optimal_rule("less")
    try:  # "collision", the last of argparse's choices
        return Rule(COLLISION_THRESHOLD, collision_rule_threshold(params))
    except ValueError as exc:  # q = 1: no pairs to threshold
        raise UsageError(f"--rule collision: {exc}") from exc


def game_cell(args, p: Params):
    rule = _build_rule(args, p)
    res = play_game_sharded(p, rule, args.trials, args.seed)
    fields = {
        "rule": rule.kind,
        "threshold": rule.threshold,
        "trials_per_arm": args.trials,
        "accept_rate_function": res.accept_rate_function,
        "accept_rate_permutation": res.accept_rate_permutation,
        "empirical_advantage": res.empirical_advantage,
        "std_err": res.standard_error,
        "exact_advantage": "",
        "within_4se": "",
        "exact_reason": "",
    }
    try:
        exact = rule_advantage_exact(p, rule)
    except EnumerationLimitError as exc:
        fields["exact_reason"] = f"ceiling: {exc}"
        return fields, True
    fields["exact_advantage"] = float(exact)
    if res.standard_error is None:  # one trial per arm: nothing to hold it to
        return fields, True
    within = abs(res.empirical_advantage - float(exact)) <= 4.0 * res.standard_error
    fields["within_4se"] = within
    return fields, within


# ---------------------------------------------------------------------------
# Subcommands over something other than a cell sweep; each returns (rows, ok)


def cmd_lemmas(args):
    rows, ok = [], True
    t0 = _clock()
    for res in run_lemma_suite(make_rng(args.seed)):
        fields = {
            "check": res.name,
            "passed": res.passed,
            "cases": res.cases,
            "worst_slack": res.worst_slack,
        }
        rows.append(_row(args, fields, t0))
        ok &= res.passed
        if not res.passed:
            why = res.detail or f"worst slack {res.worst_slack}"
            print(f"lemmas: {res.name} failed: {why}", file=sys.stderr)
    return rows, ok


def _build_perm(args):
    if args.n is None or args.m is None:
        raise UsageError(f"{args.command} needs --n and --m")
    if not 0 <= args.m < args.n:
        raise UsageError(f"need 0 <= m < n, got m={args.m}, n={args.n}")
    try:
        if args.perm == "explicit":
            return ExplicitPermutation(args.n, args.seed)
        return FeistelPermutation(args.n, args.seed.to_bytes(8, "little", signed=True))
    except ValueError as exc:  # the backend's width check
        raise UsageError(str(exc)) from exc
    except OverflowError as exc:  # the key is the seed's 8 bytes
        raise UsageError("--perm feistel needs --seed below 2**63") from exc


def _stream_config(args) -> StreamConfig:
    try:
        return StreamConfig(
            args.n, args.m, args.count, start_counter=args.start, packing=args.packing
        )
    except ValueError as exc:  # the counter range
        raise UsageError(str(exc)) from exc


def cmd_stream(args):
    t0 = _clock()
    perm = _build_perm(args)
    if args.balance:
        if args.n > BALANCE_MAX_N:
            raise UsageError(f"--balance needs n <= {BALANCE_MAX_N}")
        balanced = balance_check(perm, args.m)
        fields = {
            "n": args.n,
            "m": args.m,
            "perm": perm.kind,
            "balance": "pass" if balanced else "fail",
        }
        return [_row(args, fields, t0)], balanced
    cfg = _stream_config(args)
    out = args.out or "stream.bin"
    with open(out, "wb") as fh:
        written = generate_stream(perm, cfg, fh)
    write_metadata(out + ".json", perm, cfg, args.seed)
    args.out = None  # binary went to --out; the report row goes to stdout
    fields = {
        "n": args.n,
        "m": args.m,
        "count": args.count,
        "packing": args.packing,
        "perm": perm.kind,
        "bytes_written": written,
        "output": out,
        "metadata": out + ".json",
    }
    return [_row(args, fields, t0)], True


def cmd_bench(args):
    t0 = _clock()
    perm = _build_perm(args)
    cfg = _stream_config(args)
    res = throughput_bench(partial(_build_perm, args), cfg, repetitions=args.repetitions)
    fields = {
        "n": args.n,
        "m": args.m,
        "count": args.count,
        "packing": args.packing,
        "perm": perm.kind,
        "bytes_written": res.bytes_written,
        "bytes_per_second": res.bytes_per_second,
        "seconds_per_symbol": res.seconds_per_symbol,
    }
    return [_row(args, fields, t0)], True


def _int_at_least(low: int):
    """argparse type of an integer option of at least `low`: 1 for the trial
    and repetition counts, 0 for the seed."""
    kind = "positive" if low else "non-negative"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value

    return parse


# (flags, argparse keywords) of each option group
OPTION_GROUPS = {
    "cells": (
        ("--n", dict(type=int)),
        ("--m", dict(type=int)),
        ("--q", dict(type=int)),
        ("--n-range", dict(type=int, nargs=2, metavar=("LO", "HI"))),
        ("--m-range", dict(type=int, nargs=2, metavar=("LO", "HI"))),
        ("--q-range", dict(type=int, nargs=2, metavar=("LO", "HI"))),
    ),
    "trials": (("--trials", dict(type=_int_at_least(1), default=10**5)),),
    "seed": (("--seed", dict(type=_int_at_least(0), default=0)),),
    "rule": (
        ("--rule", dict(choices=("optimal", "optimal-less", "collision"), default="optimal")),
    ),
    "keystream": (
        ("--n", dict(type=int)),
        ("--m", dict(type=int)),
        ("--count", dict(type=int, default=1 << 12)),
        ("--start", dict(type=int, default=0)),
        ("--packing", dict(choices=("bit", "byte"), default="bit")),
        ("--perm", dict(choices=("explicit", "feistel"), default="explicit")),
    ),
    "balance": (("--balance", dict(action="store_true")),),
    "repetitions": (("--repetitions", dict(type=_int_at_least(1), default=5)),),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  When `command` names one, only it is
    built, as no other can be reached; the usage still lists them all, so
    usage and errors read the same."""
    parser = argparse.ArgumentParser(
        prog="truncperm",
        description="truncated-permutation distinguishing-advantage laboratory",
    )
    single = command in COMMANDS
    # a lone subparser would set the usage's choices to itself alone
    metavar = "{" + ",".join(COMMANDS) + "}" if single else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if single else COMMANDS:
        fn, groups = COMMANDS[name]
        p = sub.add_parser(name)
        for group in groups:
            for flag, kwargs in OPTION_GROUPS[group]:
                p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        rows, ok = args.fn(args)
    except (SamplerLimitError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(rows, args)
    return 0 if ok else 1


# name: (function of the parsed arguments, option groups it reads)
COMMANDS = {
    "exact": (partial(_sweep, cell_fn=exact_cell), ("cells",)),
    "bounds": (partial(_sweep, cell_fn=bounds_cell), ("cells",)),
    "mc": (partial(_sweep, cell_fn=mc_cell), ("cells", "trials", "seed")),
    "moments": (partial(_sweep, cell_fn=moments_cell), ("cells", "trials", "seed")),
    "game": (partial(_sweep, cell_fn=game_cell), ("cells", "trials", "seed", "rule")),
    "lemmas": (cmd_lemmas, ("seed",)),
    "stream": (cmd_stream, ("keystream", "seed", "balance")),
    "bench": (cmd_bench, ("keystream", "seed", "repetitions")),
}


if __name__ == "__main__":
    sys.exit(main())
