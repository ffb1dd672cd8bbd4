"""Batch command-line front end.

Every subcommand evaluates its module over a single (n, m, q) cell or a sweep,
and emits one row per cell as CSV (default) or JSON.  All randomness is
seeded; rows embed the full configuration, so a re-run with the same seed and
any worker count reproduces the output byte for byte apart from the elapsed
column.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .bounds import bound_report
from .checks import run_lemma_suite
from .core import Params, make_rng
from .exact import (
    EnumerationLimitError,
    VIA_R_GREATER,
    VIA_R_LESS,
    exact_advantage,
    mc_advantage_sharded,
    profile_budget,
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
    PreconditionError,
    moments_brute,
    moments_closed_form,
    moments_empirical,
)
from .stream import (
    BalanceResult,
    StreamConfig,
    balance_check,
    demo_permutation,
    explicit_permutation,
    generate_stream,
    throughput_bench,
    write_metadata,
)

# Columns excluded from golden-file comparisons (everything else is
# reproducible given the seed).
TIMING_COLUMNS = ("elapsed_s",)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--q", type=int)
    parser.add_argument("--n-range", type=int, nargs=2, metavar=("LO", "HI"))
    parser.add_argument("--m-range", type=int, nargs=2, metavar=("LO", "HI"))
    parser.add_argument("--q-range", type=int, nargs=2, metavar=("LO", "HI"))
    parser.add_argument("--trials", type=int, default=10**5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--mode", choices=("exact", "fast"), default="exact")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None)


def _cells(args) -> list[tuple[int, int, int]]:
    """Expand the cell sweep; ranges are inclusive and clipped to validity."""
    if args.n_range:
        ns = range(args.n_range[0], args.n_range[1] + 1)
    elif args.n is not None:
        ns = [args.n]
    else:
        raise SystemExit("error: provide --n or --n-range")
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
        raise SystemExit("error: empty sweep")
    return cells


def _provenance(args) -> dict:
    return {
        "seed": args.seed,
        "workers": args.workers,
        "arith_mode": args.mode,
        "version": __version__,
    }


def _emit(rows: list[dict], args) -> None:
    if not rows:
        return
    if args.format == "json":
        text = json.dumps(rows, indent=2, default=str) + "\n"
    else:
        fieldnames: list[str] = []
        for row in rows:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


# ---------------------------------------------------------------------------
# Subcommands; each returns (rows, all_ok)


def cmd_exact(args):
    rows, ok = [], True
    for n, m, q in _cells(args):
        t0 = time.perf_counter()
        row = {"n": n, "m": m, "q": q, **_provenance(args)}
        try:
            p = Params(n, m, q)
            # price both sums before running either, so a refused cell
            # enumerates nothing; the greater side first, as its count is the
            # one a refusal of both sides reports
            for identity in (VIA_R_GREATER, VIA_R_LESS):
                profile_budget(p, identity)
            greater = exact_advantage(p, VIA_R_GREATER)
            less = exact_advantage(p, VIA_R_LESS)
            upper = bound_report(n, m, q).combined_upper
            dual_ok = greater.value == less.value
            dominated = greater.value <= upper
            row.update(
                advantage=float(greater.value),
                advantage_exact=_frac(greater.value),
                identity=greater.identity,
                profiles=greater.profiles_enumerated,
                dual_identity_ok=dual_ok,
                below_combined_upper=dominated,
                status="ok",
                reason="",
            )
            ok &= dual_ok and dominated
        except EnumerationLimitError as exc:
            row.update(
                advantage="",
                advantage_exact="",
                identity="",
                profiles="",
                dual_identity_ok="",
                below_combined_upper="",
                status="refused",
                reason=f"ceiling: {exc}",
            )
        row["elapsed_s"] = round(time.perf_counter() - t0, 6)
        rows.append(row)
    return rows, ok


def cmd_bounds(args):
    rows = []
    for n, m, q in _cells(args):
        t0 = time.perf_counter()
        rep = bound_report(n, m, q)
        rows.append(
            {
                "n": n,
                "m": m,
                "q": q,
                "birthday_exact": (
                    float(rep.birthday_exact) if rep.birthday_exact is not None else ""
                ),
                "birthday_upper": float(rep.birthday_upper),
                "hall_lower_ref": float(rep.hall_lower_ref.value),
                "hall_lower_valid": rep.hall_lower_ref.valid,
                "hall_upper": rep.hall_upper,
                "bi_upper": rep.bi_upper.value,
                "bi_valid": rep.bi_upper.valid,
                "gg_upper": rep.gg_upper.value,
                "gg_branch": rep.gg_upper.branch,
                "gg_valid": rep.gg_upper.valid,
                "stam_full": rep.stam_full if rep.stam_full is not None else "",
                "stam_simplified": float(rep.stam_simplified.value),
                "stam_simplified_exact": _frac(rep.stam_simplified.value),
                "stam_simplified_valid": rep.stam_simplified.valid,
                "combined_upper": float(rep.combined_upper),
                "theta_envelope": float(rep.theta_envelope),
                **_provenance(args),
                "elapsed_s": round(time.perf_counter() - t0, 6),
            }
        )
    return rows, True


def cmd_mc(args):
    rows = []
    for n, m, q in _cells(args):
        t0 = time.perf_counter()
        est = mc_advantage_sharded(
            Params(n, m, q), args.trials, args.seed, workers=args.workers
        )
        rows.append(
            {
                "n": n,
                "m": m,
                "q": q,
                "trials": est.trials,
                "estimate": est.mean,
                "std_err": est.std_err if est.std_err is not None else "",
                **_provenance(args),
                "elapsed_s": round(time.perf_counter() - t0, 6),
            }
        )
    return rows, True


def cmd_moments(args):
    rows, ok = [], True
    for n, m, q in _cells(args):
        t0 = time.perf_counter()
        p = Params(n, m, q)
        closed = moments_closed_form(p)
        row = {
            "n": n,
            "m": m,
            "q": q,
            "m1": float(closed.m1),
            "m2": float(closed.m2),
            "m3": float(closed.m3),
            "m4": float(closed.m4),
            "m2_exact": _frac(closed.m2),
            "m4_exact": _frac(closed.m4),
        }
        if p.num_replies**q <= 10**6:
            brute = moments_brute(p)
            match = brute == closed
            row["brute_matches"] = match
            ok &= match
        else:
            row["brute_matches"] = ""
        if args.trials >= 2:
            emp = moments_empirical(p, args.trials, make_rng(args.seed))
            within = all(
                abs(e - float(c)) <= 4.0 * se + 1e-12
                for e, c, se in (
                    (emp.m1, closed.m1, emp.se1),
                    (emp.m2, closed.m2, emp.se2),
                    (emp.m3, closed.m3, emp.se3),
                    (emp.m4, closed.m4, emp.se4),
                )
            )
            row.update(
                emp_m2=emp.m2, emp_m4=emp.m4, emp_trials=emp.trials,
                empirical_within_4se=within,
            )
            ok &= within
        row.update(**_provenance(args))
        row["elapsed_s"] = round(time.perf_counter() - t0, 6)
        rows.append(row)
    return rows, ok


def _build_rule(args, params: Params) -> Rule:
    if args.rule == "optimal":
        return optimal_rule("greater")
    if args.rule == "optimal-less":
        return optimal_rule("less")
    if args.rule == "collision":
        return Rule(COLLISION_THRESHOLD, collision_rule_threshold(params))
    raise SystemExit(f"error: unknown rule {args.rule!r}")


def cmd_game(args):
    rows, ok = [], True
    for n, m, q in _cells(args):
        t0 = time.perf_counter()
        p = Params(n, m, q)
        rule = _build_rule(args, p)
        res = play_game_sharded(p, rule, args.trials, args.seed, workers=args.workers)
        row = {
            "n": n,
            "m": m,
            "q": q,
            "rule": rule.kind,
            "threshold": rule.threshold if rule.threshold is not None else "",
            "trials_per_arm": res.trials_per_arm,
            "accept_rate_function": res.accept_rate_function,
            "accept_rate_permutation": res.accept_rate_permutation,
            "empirical_advantage": res.empirical_advantage,
            "std_err": res.standard_error,
        }
        try:
            exact = rule_advantage_exact(p, rule)
            within = abs(res.empirical_advantage - float(exact)) <= 4.0 * res.standard_error
            row.update(exact_advantage=float(exact), within_4se=within)
            ok &= within
        except EnumerationLimitError:
            row.update(exact_advantage="", within_4se="")
        row.update(**_provenance(args))
        row["elapsed_s"] = round(time.perf_counter() - t0, 6)
        rows.append(row)
    return rows, ok


def cmd_lemmas(args):
    rows, ok = [], True
    t0 = time.perf_counter()
    for res in run_lemma_suite(make_rng(args.seed), trials=args.trials):
        rows.append(
            {
                "check": res.name,
                "passed": res.passed,
                "cases": res.cases,
                "worst_slack": res.worst_slack,
                **_provenance(args),
                "elapsed_s": round(time.perf_counter() - t0, 6),
            }
        )
        ok &= res.passed
        if not res.passed:
            why = res.detail or f"worst slack {res.worst_slack}"
            print(f"lemmas: {res.name} failed: {why}", file=sys.stderr)
    return rows, ok


def _build_perm(args, n: int):
    if args.perm == "explicit":
        return explicit_permutation(n, args.seed)
    return demo_permutation(n, args.seed.to_bytes(8, "little", signed=True))


def cmd_stream(args):
    if args.n is None or args.m is None:
        raise SystemExit("error: stream needs --n and --m")
    t0 = time.perf_counter()
    perm = _build_perm(args, args.n)
    if args.balance:
        res: BalanceResult = balance_check(perm, args.n, args.m)
        rows = [
            {
                "n": args.n,
                "m": args.m,
                "perm": perm.kind,
                "balance": "pass" if res.passed else "fail",
                **_provenance(args),
                "elapsed_s": round(time.perf_counter() - t0, 6),
            }
        ]
        return rows, res.passed
    cfg = StreamConfig(
        args.n, args.m, args.count, start_counter=args.start, packing=args.packing
    )
    out = args.out or "stream.bin"
    with open(out, "wb") as fh:
        written = generate_stream(perm, cfg, fh)
    write_metadata(out + ".json", perm, cfg, seed=args.seed)
    args.out = None  # binary went to --out; the report row goes to stdout
    rows = [
        {
            "n": args.n,
            "m": args.m,
            "count": args.count,
            "packing": args.packing,
            "perm": perm.kind,
            "bytes_written": written,
            "output": out,
            "metadata": out + ".json",
            **_provenance(args),
            "elapsed_s": round(time.perf_counter() - t0, 6),
        }
    ]
    return rows, True


def cmd_bench(args):
    if args.n is None or args.m is None:
        raise SystemExit("error: bench needs --n and --m")
    t0 = time.perf_counter()
    perm = _build_perm(args, args.n)
    cfg = StreamConfig(
        args.n, args.m, args.count, start_counter=args.start, packing=args.packing
    )
    res = throughput_bench(perm, cfg, repetitions=args.repetitions)
    rows = [
        {
            "n": args.n,
            "m": args.m,
            "count": args.count,
            "packing": args.packing,
            "perm": perm.kind,
            "bytes_written": res.bytes_written,
            "bytes_per_second": res.bytes_per_second,
            "seconds_per_symbol": res.seconds_per_symbol,
            **_provenance(args),
            "elapsed_s": round(time.perf_counter() - t0, 6),
        }
    ]
    return rows, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncperm",
        description="truncated-permutation distinguishing-advantage laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name)
        _add_common(p)
        if name == "game":
            p.add_argument(
                "--rule",
                choices=("optimal", "optimal-less", "collision"),
                default="optimal",
            )
        if name in ("stream", "bench"):
            p.add_argument("--count", type=int, default=1 << 12)
            p.add_argument("--start", type=int, default=0)
            p.add_argument("--packing", choices=("bit", "byte"), default="bit")
            p.add_argument("--perm", choices=("explicit", "feistel"), default="explicit")
        if name == "stream":
            p.add_argument("--balance", action="store_true")
        if name == "bench":
            p.add_argument("--repetitions", type=int, default=5)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows, ok = args.fn(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(rows, args)
    return 0 if ok else 1


COMMANDS = {
    "exact": cmd_exact,
    "bounds": cmd_bounds,
    "mc": cmd_mc,
    "moments": cmd_moments,
    "game": cmd_game,
    "lemmas": cmd_lemmas,
    "stream": cmd_stream,
    "bench": cmd_bench,
}


if __name__ == "__main__":
    sys.exit(main())
