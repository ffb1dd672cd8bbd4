"""Correctness checks of CLI cell output against stored references.

Exact fractions do not depend on the seed and are compared for every seed;
a cell the reference program refused must, if answered, give the true value
recorded beside it.  Monte Carlo, moments and game rows are compared field by
field (as the CLI prints them, so byte for byte) for the seeds recorded in
reference.json, and for any other seed each estimate must lie within 4
standard errors of the reference value: Monte Carlo and game estimates use
the row's own standard error, the empirical moments the spread of that moment
over many reference seeds.  Keystreams are compared by sha256 for recorded
seeds and otherwise recomputed here from the definition of each permutation
backend, independently of `truncperm.stream`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

# Result columns compared for recorded seeds; provenance and timing columns
# are not results and may change without changing any answer.
SEEDED_FIELDS = {
    "mc": ("trials", "estimate", "std_err"),
    "game": (
        "trials_per_arm",
        "accept_rate_function",
        "accept_rate_permutation",
        "empirical_advantage",
        "std_err",
    ),
    "moments": ("emp_m2", "emp_m4", "emp_trials", "empirical_within_4se"),
    "stream": ("bytes_written", "sha256"),
}
# Result columns that do not depend on the seed.
FIXED_FIELDS = {
    "exact": ("status",),
    "game": ("exact_advantage",),
    "moments": ("m1", "m2", "m3", "m4", "m2_exact", "m4_exact", "brute_matches"),
}
# (value column, standard-error column) of each Monte Carlo estimate.
ESTIMATES = {"mc": ("estimate", "std_err"), "game": ("empirical_advantage", "std_err")}
# (empirical column, exact column) of each sampled moment.
MOMENTS = (("emp_m2", "m2_exact"), ("emp_m4", "m4_exact"))


def parse_row(stdout: str) -> dict:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return rows[0]


def option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def result_fields(command: str, argv: list[str], row: dict, root: Path) -> dict:
    """The compared result columns of a row (stream rows gain the file's sha256)."""
    out = {k: row.get(k) for k in SEEDED_FIELDS.get(command, ()) if k != "sha256"}
    out.update({k: row.get(k) for k in FIXED_FIELDS.get(command, ())})
    if command == "stream":
        out["sha256"] = hashlib.sha256((root / option(argv, "--out")).read_bytes()).hexdigest()
    return out


def check_cell(cell: dict, seed: int, rc, row: dict, ref: dict, root: Path) -> str:
    """Return "" when the cell's row is correct, else the reason it is not."""
    argv = cell["argv"]
    command = argv[0]
    got = result_fields(command, argv, row, root)
    if command == "exact":
        status, want = ref["fixed"]["status"], ref["advantage_exact"]
        if got["status"] not in ("ok", status):
            return f"status {got['status']!r}, reference {status!r}"
        if got["status"] == "ok" and Fraction(row["advantage_exact"]) != Fraction(want):
            return f"advantage_exact={row['advantage_exact']}, true value {want}"
        if rc != 0:  # dual identity or bound dominance failed
            return f"exit code {rc}"
        return ""
    if rc != 0:
        return f"exit code {rc}"
    for key, want in ref.get("fixed", {}).items():
        if want != "" and got.get(key) != want:
            return f"{key}={got.get(key)!r}, reference {want!r}"
    recorded = ref.get("seeds", {}).get(str(seed))
    if recorded is not None:
        for key in SEEDED_FIELDS[command]:
            if got.get(key) != recorded[key]:
                return f"seed {seed}: {key}={got.get(key)!r}, recorded {recorded[key]!r}"
        return ""
    if command in ESTIMATES:
        value_col, se_col = ESTIMATES[command]
        value, se = float(row[value_col]), float(row[se_col])
        ref_value, ref_se = ref["pooled"]
        if abs(value - ref_value) > 4.0 * math.hypot(se, ref_se):
            return f"{value_col}={value} is over 4 se from reference {ref_value}"
    if command == "moments":
        for (emp_col, exact_col), (_, spread) in zip(MOMENTS, ref["moment_spread"]):
            value, exact = float(row[emp_col]), float(Fraction(ref["fixed"][exact_col]))
            if abs(value - exact) > 4.0 * spread:
                return f"{emp_col}={value} is over 4 se from {exact_col}={exact}"
    if command == "stream":
        return check_keystream(argv, seed, int(row["bytes_written"]), root)
    return ""


# ---------------------------------------------------------------------------
# Keystream recomputation


def pack_symbols(symbols: np.ndarray, width: int, packing: str) -> bytes:
    """Bit packing: symbols MSB-first, concatenated, last byte zero-padded.
    Byte packing: each symbol big-endian in ceil(width/8) bytes."""
    symbols = symbols.astype(np.uint64)
    if packing == "byte":
        nbytes = (width + 7) // 8
        shifts = np.arange(nbytes - 1, -1, -1, dtype=np.uint64) * np.uint64(8)
        return ((symbols[:, None] >> shifts) & np.uint64(0xFF)).astype(np.uint8).tobytes()
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    chunks = []
    for lo in range(0, len(symbols), 1 << 16):  # 2**16 symbols end on a byte boundary
        bits = (symbols[lo : lo + (1 << 16), None] >> shifts) & np.uint64(1)
        chunks.append(np.packbits(bits.astype(np.uint8).ravel()).tobytes())
    return b"".join(chunks)


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[: count * width]
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return bits.reshape(count, width).astype(np.int64) @ weights


def feistel(x: int, n: int, key: bytes, rounds: int = 8) -> int:
    """The keyed balanced Feistel network of the demo backend: round function
    BLAKE2b(key, le32(round) || le64(right)) truncated to n/2 bits."""
    half = n // 2
    mask = (1 << half) - 1
    left, right = x >> half, x & mask
    for r in range(rounds):
        msg = struct.pack("<I", r) + right.to_bytes(8, "little")
        f = int.from_bytes(hashlib.blake2b(msg, key=key, digest_size=8).digest(), "little")
        left, right = right, left ^ (f & mask)
    return (left << half) | right


def check_keystream(argv: list[str], seed: int, written: int, root: Path) -> str:
    n, m = int(option(argv, "--n")), int(option(argv, "--m"))
    width = n - m
    count = int(option(argv, "--count"))
    start = int(option(argv, "--start", "0"))
    packing = option(argv, "--packing", "bit")
    data = (root / option(argv, "--out")).read_bytes()
    if len(data) != written:
        return f"file has {len(data)} bytes, row says {written}"
    if option(argv, "--perm", "explicit") == "explicit":
        table = np.random.default_rng(seed).permutation(1 << n)
        want = pack_symbols(table[start : start + count] >> m, width, packing)
        return "" if data == want else "explicit keystream differs from recomputation"
    if packing != "bit":
        return "feistel check expects bit packing"
    symbols = unpack_bits(data, width, count)
    key = seed.to_bytes(8, "little", signed=True)
    for i in np.random.default_rng(seed).integers(0, count, size=256):
        if symbols[i] != feistel(start + int(i), n, key) >> m:
            return f"feistel symbol {i} differs from recomputation"
    if start == 0 and count == 1 << n:  # a full sweep of a bijection is balanced
        if np.any(np.bincount(symbols, minlength=1 << width) != 1 << m):
            return "full-domain feistel keystream is not balanced"
    return ""
