"""Benchmark of the truncperm command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The metrics' names and units are in
BENCHMARK.json, the workloads and their cells in perfbench/workloads.json and
the reference outputs in perfbench/reference.json.

Set-up: `setup_s` is the median wall time of several fresh interpreters that
import `truncperm.cli`, which every CLI call pays.

Measurement: each cell runs `truncperm.cli.main` in a fresh single-threaded
child process (child.py), as a CLI call would, so no memo carries over from
one cell to the next; the import is not timed.  Cells run in passes, each in
an order drawn from the seed, until --seconds is up (the first pass always
completes); each cell's median over its samples stands for it, and wall_s is
their sum.  Each cell has a deadline and its child an address-space cap; a
cell that overruns, crashes or whose row differs from the reference counts as
failed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every cell twice in
turn, untraced and with its truncperm functions wrapped by tracer.py, and
prints the per-layer metrics (per-cell medians of each layer's time and
counts, summed over cells) and trace.overhead_s, the traced minus the
untraced wall time.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is non-zero, with no result printed, when the program
cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_cell, option, parse_row

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
STARTUP_TIMEOUT_S = 60.0
TERM_GRACE_S = 2.0
SETUP_IMPORTS = 11  # fresh interpreters timed for setup_s (their median)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # single-threaded children
    return env


class Child:
    """One cell in a fresh child process (child.py)."""

    def __init__(self, argv: list[str], env: dict, rlimit_bytes: int,
                 trace_path: Path | None):
        cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(argv)]
        if trace_path is not None:
            cmd.append(str(trace_path))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (rlimit_bytes, rlimit_bytes))

        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            preexec_fn=limit_memory,
        )
        self._buf = b""

    def _read(self, timeout: float) -> dict | None:
        """One reply line, or None on timeout or end of file."""
        fd = self.proc.stdout.fileno()
        end = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = end - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def run(self, deadline: float) -> dict:
        """Wait for the import, then for the cell; always reaps the child."""
        try:
            ready = self._read(STARTUP_TIMEOUT_S)
            if not ready or not ready.get("ready"):
                raise RuntimeError("cell child failed to start")
            t0 = time.perf_counter()
            reply = self._read(deadline)
            if reply is None and self.proc.poll() is None:
                elapsed = time.perf_counter() - t0
                self.proc.send_signal(signal.SIGTERM)  # the child reports the cut cell
                reply = self._read(TERM_GRACE_S) or {"elapsed_s": elapsed}
                reply["status"] = "deadline"
            elif reply is None:
                reply = {"status": "crashed", "elapsed_s": time.perf_counter() - t0}
            return reply
        finally:
            if self.proc.poll() is None:
                try:
                    self.proc.wait(timeout=TERM_GRACE_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


class Runner:
    """Runs cells, each in a fresh child, and keeps every sample."""

    def __init__(self, cells, seed, config, reference, env, trace_tag=None):
        self.seed = seed
        self.deadline = float(config["cell_deadline_s"])
        self.rlimit = int(config["rlimit_as_mb"]) << 20
        self.reference = reference
        self.env = env
        self.trace_tag = trace_tag
        self.samples: dict[str, list[dict]] = {cell["label"]: [] for cell in cells}

    def run_cell(self, cell: dict) -> None:
        argv = cell["argv"] + (["--seed", str(self.seed)] if cell["seeded"] else [])
        spans = None
        if self.trace_tag is not None:
            spans = WORK / f"spans-{self.trace_tag}-{cell['label']}.npz"
        reply = Child(argv, self.env, self.rlimit, spans).run(self.deadline)
        reason = self._judge(cell, reply)
        self.samples[cell["label"]].append({
            "s": reply["elapsed_s"],
            "failed": f"{cell['label']}: {reason}" if reason else "",
            "answered": not reason and parse_row(reply["stdout"]).get("status", "ok") == "ok",
            "rss_kb": 0 if reason else reply["maxrss_kb"],
            "trace": reply.get("trace", {}),
        })

    def _judge(self, cell, reply) -> str:
        if reply["status"] != "ok":
            return f"{reply['status']} {reply.get('error', '')}".strip()
        try:
            row = parse_row(reply["stdout"])
            ref = self.reference["cells"][cell["label"]]
            return check_cell(cell, self.seed, reply["rc"], row, ref, ROOT)
        except (ValueError, KeyError, OSError) as exc:
            return f"unreadable output: {exc!r}"

    def all_samples(self) -> list[dict]:
        return [x for xs in self.samples.values() for x in xs]

    def cell_median(self, label: str, key: str = "s") -> float:
        xs = self.samples[label]
        if key == "s":
            return statistics.median(x["s"] for x in xs)
        return statistics.median(x["trace"].get(key, 0.0) for x in xs)

    def total(self, key: str = "s") -> float:
        """Sum over cells of each cell's median: one typical pass."""
        return sum(self.cell_median(label, key) for label in self.samples)


def measure_setup(env: dict, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing truncperm.cli."""
    cmd = [sys.executable, "-c", "import truncperm.cli"]
    times = []
    for i in range(repeats + 1):  # the first import may write bytecode caches
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=STARTUP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("cannot import truncperm.cli: " + proc.stderr.decode()[-500:])
        if i:
            times.append(elapsed)
    return statistics.median(times)


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """End-to-end metrics by name."""
    # Fractions are averaged per cell, so a cut last pass does not shift them.
    cells = runner.samples.values()
    return {
        "setup_s": setup_s,
        "wall_s": runner.total(),
        "slowest_cell_s": max(runner.cell_median(label) for label in runner.samples),
        "passed_frac": statistics.fmean(
            statistics.fmean(not x["failed"] for x in xs) for xs in cells),
        "answered_frac": statistics.fmean(
            statistics.fmean(x["answered"] for x in xs) for xs in cells),
        "peak_rss_MB": max(x["rss_kb"] for xs in cells for x in xs) / 1024.0,
    }


def rates(runner: Runner, cells: list[dict]) -> dict:
    """Throughputs of the untraced cells: Monte Carlo trials per second, and
    keystream megabytes per second for each permutation backend."""
    work = {"trials": [0.0, 0.0], "explicit": [0.0, 0.0], "feistel": [0.0, 0.0]}
    for cell in cells:
        argv, t = cell["argv"], runner.cell_median(cell["label"])
        if argv[0] in ("mc", "game", "moments"):
            acc, amount = work["trials"], float(option(argv, "--trials"))
        elif argv[0] == "stream":
            n, m, count = (int(option(argv, k)) for k in ("--n", "--m", "--count"))
            bits = n - m if option(argv, "--packing") == "bit" else 8 * ((n - m + 7) // 8)
            acc, amount = work[option(argv, "--perm")], count * bits / 8 / 1e6
        else:
            continue
        acc[0] += amount
        acc[1] += t

    def rate(key):
        done, seconds = work[key]
        return done / seconds if seconds else 0.0

    return {
        "trials_per_s": rate("trials"),
        "keystream_MBps.explicit": rate("explicit"),
        "keystream_MBps.feistel": rate("feistel"),
    }


def per_layer(untraced: Runner, traced: Runner, cells: list[dict], names: list[str]) -> dict:
    """Per-layer metrics by name: derived ones, else the tracer's key of that
    name (tracer.py), summed over cells."""
    profiles = traced.total("exact.enumerate_profiles.profiles")
    enum_s = traced.total("exact.enumerate_profiles.s")
    derived = {
        "exact.enumerate_profiles.profiles_per_s": profiles / enum_s if enum_s else 0.0,
        "trace.overhead_s": traced.total() - untraced.total(),
        **rates(untraced, cells),
    }
    return {name: derived[name] if name in derived else traced.total(name) for name in names}


def machine() -> str:
    import platform

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    try:
        return run(args)
    except RuntimeError as exc:  # the program cannot be started at all
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    if not (ROOT / "src" / "truncperm" / "cli.py").is_file():
        print(f"error: no truncperm source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((BENCH / "workloads.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    if args.workload not in config["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cells = config["workloads"][args.workload]["cells"]
    env = child_env()
    print("machine:", machine(), file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    if not args.trace:
        setup_s = measure_setup(env, SETUP_IMPORTS)

    order_rng = random.Random(args.seed)
    untraced = Runner(cells, args.seed, config, reference, env)
    runners = [untraced]
    if args.trace:
        runners.append(Runner(cells, args.seed, config, reference, env,
                              trace_tag=args.workload))
    start = time.perf_counter()
    # Passes over the cells in seeded order until --seconds is up, stopping
    # between cells; the first pass always completes, so every cell has a
    # sample, and each cell's median stands for it.
    first_pass = True
    while first_pass or time.perf_counter() - start < args.seconds:
        order = list(range(len(cells)))
        order_rng.shuffle(order)
        for i in order:
            for runner in runners:
                runner.run_cell(cells[i])
            if not first_pass and time.perf_counter() - start >= args.seconds:
                break
        first_pass = False

    for cell in cells:
        print(f"cell {cell['label']}: samples={len(untraced.samples[cell['label']])} "
              f"median_s={untraced.cell_median(cell['label']):.4f}", file=sys.stderr)
    samples = [x for runner in runners for x in runner.all_samples()]
    failures = [x["failed"] for x in samples if x["failed"]]
    for line in dict.fromkeys(failures):
        print("failed:", line, file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = per_layer(untraced, runners[1], cells, [d["name"] for d in declared])
    else:
        values = end_to_end(untraced, setup_s)
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
