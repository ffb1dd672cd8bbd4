"""Regenerate perfbench/reference.json from the current program.

Run from the repository root:  PYTHONPATH=src python3 perfbench/make_reference.py

Every cell of every workload is run in-process for each recorded seed (exact
cells once, as they ignore the seed).  Exact cells also get their true value
from the greater-side profile sum alone, which answers the cells the CLI
refuses; moments cells get the mean and standard deviation of each empirical
moment over many more seeds.  Only do this when an intended change of output
is being recorded; the reference is what later commits are checked against.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
from fractions import Fraction
from pathlib import Path

from checks import (
    ESTIMATES,
    FIXED_FIELDS,
    MOMENTS,
    SEEDED_FIELDS,
    check_keystream,
    option,
    parse_row,
    result_fields,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MOMENT_SPREAD_SEEDS = 256  # seeds behind each moment's standard deviation


def run_cli(argv: list[str]) -> tuple[int, dict]:
    from truncperm.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return rc, parse_row(out.getvalue())


def true_advantage(argv: list[str]) -> str:
    """The exact advantage as the CLI prints it, from the greater-side sum
    only, which needs only the profiles within bucket capacity."""
    from truncperm.cli import _frac
    from truncperm.core import Params
    from truncperm.exact import VIA_R_GREATER, exact_advantage

    n, m, q = (int(option(argv, k)) for k in ("--n", "--m", "--q"))
    return _frac(exact_advantage(Params(n, m, q), VIA_R_GREATER).value)


def moment_spread(argv: list[str], exact: dict) -> list[list[float]]:
    """[mean, standard deviation] of each empirical moment over many seeds."""
    samples = [[] for _ in MOMENTS]
    for seed in range(MOMENT_SPREAD_SEEDS):
        _, row = run_cli(argv + ["--seed", str(seed)])
        for acc, (emp_col, _) in zip(samples, MOMENTS):
            acc.append(float(row[emp_col]))
    out = []
    for acc, (emp_col, exact_col) in zip(samples, MOMENTS):
        mean, sd = statistics.fmean(acc), statistics.stdev(acc)
        want = float(Fraction(exact[exact_col]))
        if abs(mean - want) > 4.0 * sd / math.sqrt(len(acc)):
            raise SystemExit(f"{emp_col} mean {mean} is biased away from {exact_col}={want}")
        out.append([mean, sd])
    return out


def main() -> int:
    config = json.loads((BENCH / "workloads.json").read_text())
    seeds = config["recorded_seeds"]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    cells = {}
    for workload in config["workloads"].values():
        for cell in workload["cells"]:
            argv, command = cell["argv"], cell["argv"][0]
            entry: dict = {"fixed": {}, "seeds": {}}
            estimates = []
            for seed in seeds if cell["seeded"] else [None]:
                full = argv + (["--seed", str(seed)] if seed is not None else [])
                rc, row = run_cli(full)
                got = result_fields(command, argv, row, ROOT)
                if rc != 0:
                    raise SystemExit(f"{cell['label']} seed {seed}: exit code {rc}")
                if command == "stream":
                    reason = check_keystream(argv, seed, int(row["bytes_written"]), ROOT)
                    if reason:
                        raise SystemExit(f"{cell['label']} seed {seed}: {reason}")
                fixed = {k: got[k] for k in FIXED_FIELDS.get(command, ())}
                if entry["fixed"] and entry["fixed"] != fixed:
                    raise SystemExit(f"{cell['label']}: seed-independent fields vary with seed")
                entry["fixed"] = fixed
                if seed is not None:
                    entry["seeds"][str(seed)] = {k: got[k] for k in SEEDED_FIELDS[command]}
                    if command in ESTIMATES:
                        estimates.append([float(row[c]) for c in ESTIMATES[command]])
            if estimates:  # mean of the recorded estimates and its standard error
                value = math.fsum(v for v, _ in estimates) / len(estimates)
                se = math.sqrt(math.fsum(s * s for _, s in estimates)) / len(estimates)
                entry["pooled"] = [value, se]
            if command == "exact":
                entry["advantage_exact"] = true_advantage(argv)
                if fixed["status"] == "ok" and row["advantage_exact"] != entry["advantage_exact"]:
                    raise SystemExit(f"{cell['label']}: CLI and greater-side sum differ")
            if command == "moments":
                entry["moment_spread"] = moment_spread(argv, entry["fixed"])
            if not entry["seeds"]:
                del entry["seeds"]
            cells[cell["label"]] = entry
            print(cell["label"], "done", file=sys.stderr)
    reference = {"recorded_seeds": seeds, "cells": cells}
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
