"""Beyond-birthday-bound keystream from a truncated keyed permutation.

Counter inputs 0, 1, 2, ... are passed through a bijection of n-bit values and
the top n-m bits of each output are emitted, either bit-packed (MSB-first
within each byte) or padded to byte boundaries.  Two permutation backends are
provided: a tabulated uniformly random permutation for small n, and a keyed
Feistel network as a large-n throughput stand-in (bijective by construction,
but NOT a uniform permutation -- demo only).

Both backends are evaluated BLOCK counters at a time with numpy: an output is
a list of MSB-first (uint64 array, bit width) words, so no numpy value is
wider than 64 bits even at n = 128.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import struct
import time
from dataclasses import dataclass

import numpy as np

# Counters evaluated and packed per block.  A multiple of 8, so a full block
# of bit-packed symbols ends on a byte boundary whatever the symbol width.
BLOCK = 1 << 16

_WORD = (1 << 64) - 1


class ExplicitPermutation:
    """A uniformly random permutation of [0, 2**n), tabulated.

    Generated by an unbiased shuffle from the seeded RNG; n <= 20 keeps the
    table small.
    """

    kind = "explicit"

    def __init__(self, n: int, seed: int):
        if not 1 <= n <= 20:
            raise ValueError("explicit permutation supports 1 <= n <= 20")
        self.n = n
        self.table = np.random.default_rng(seed).permutation(1 << n)

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def outputs(self, lo: int, hi: int) -> list[tuple[np.ndarray, int]]:
        """Outputs for the counters lo, ..., hi-1 as one n-bit word."""
        return [(self.table[lo:hi], self.n)]


class FeistelPermutation:
    """Fixed-round balanced Feistel network over n bits with a keyed BLAKE2b
    round function.

    Bijective by construction, but not a uniformly random permutation: use it
    for throughput demos, never for distribution claims.
    A real 128-bit block cipher can be dropped in behind the same interface.
    """

    kind = "feistel_demo"
    rounds = 8

    def __init__(self, n: int, key: bytes):
        if n % 2 != 0:
            raise ValueError("Feistel needs an even bit width")
        if not 2 <= n <= 128:
            raise ValueError("supported widths are even n in [2, 128]")
        self.n = n
        self.key = key
        self._half = n // 2
        self._mask = (1 << self._half) - 1
        self._tables: list[np.ndarray] | None = None  # per round, once built

    def _round(self, r: int, value: int) -> int:
        msg = struct.pack("<I", r) + value.to_bytes(8, "little")
        digest = hashlib.blake2b(msg, key=self.key, digest_size=8).digest()
        return int.from_bytes(digest, "little") & self._mask

    def __call__(self, x: int) -> int:
        if not 0 <= x < (1 << self.n):
            raise ValueError(f"value {x} out of range for {self.n} bits")
        left, right = x >> self._half, x & self._mask
        for r in range(self.rounds):
            left, right = right, left ^ self._round(r, right)
        return (left << self._half) | right

    def outputs(self, lo: int, hi: int) -> list[tuple[np.ndarray, int]]:
        """Outputs for the counters lo, ..., hi-1 as the left and right
        halves, each a uint64 array of n/2-bit words.

        A block at least as long as the half domain builds each round's
        function over all 2**(n/2) right halves once per instance, and every
        later block looks its rounds up there; a shorter block, before that,
        hashes only its own distinct right halves in each round.
        """
        half = self._half
        i = np.arange(hi - lo, dtype=np.uint64)
        low = np.uint64(lo & _WORD) + i  # low 64 bits of each counter; wraps
        high = np.uint64(lo >> 64) + (low < i)  # the bits above, plus the carry
        # two shifts, because a shift by 64 (half = 64) is undefined
        left = ((low >> 1) >> (half - 1)) | (high << (64 - half))
        right = low & np.uint64(self._mask)
        if self._tables is None and (1 << half) <= hi - lo:
            self._tables = [self._hash_all(r, range(1 << half)) for r in range(self.rounds)]
        for r in range(self.rounds):
            if self._tables is not None:
                hashed = self._tables[r][right]
            else:
                values, inverse = np.unique(right, return_inverse=True)
                hashed = self._hash_all(r, values.tolist())[inverse]
            left, right = right, left ^ hashed
        return [(left, half), (right, half)]

    def _hash_all(self, r: int, values) -> np.ndarray:
        """Round r's function of each value, as a uint64 array."""
        return np.fromiter((self._round(r, v) for v in values), np.uint64, len(values))


def _blocks(perm, n: int, start: int, stop: int):
    """Yield the outputs for counters start, ..., stop-1, BLOCK at a time."""
    if perm.n != n:
        raise ValueError(f"permutation width {perm.n} does not match n = {n}")
    for lo in range(start, stop, BLOCK):
        yield perm.outputs(lo, min(lo + BLOCK, stop))


def _bit_matrix(words, n: int, m: int, lead: int = 0) -> np.ndarray:
    """One row per output: `lead` zero bits, then the top n-m bits of the
    output MSB-first, as a uint8 matrix of 0/1.  `words` is an output block
    split MSB-first into (uint64 array, bit width) words."""
    count = len(words[0][0])
    bits = np.zeros((count, lead + n - m), dtype=np.uint8)
    col = lead  # next column to fill
    low = n  # lowest bit position of the words seen so far
    for arr, width in words:
        low -= width  # now the lowest bit position of this word
        keep = width - max(0, m - low)  # the word's bits at or above bit m
        if keep <= 0:
            continue
        top = 64 - width  # column of the word's top bit among its 64
        raw = arr.astype(">u8").view(np.uint8).reshape(count, 8)
        raw = np.unpackbits(raw[:, top // 8 : (top + keep + 7) // 8], axis=1)
        bits[:, col : col + keep] = raw[:, top % 8 : top % 8 + keep]
        col += keep
    return bits


@dataclass(frozen=True)
class StreamConfig:
    n: int
    m: int
    count: int
    start_counter: int = 0
    packing: str = "bit"  # "bit" (MSB-first packed) or "byte" (zero-padded)

    def __post_init__(self) -> None:
        if not 0 <= self.m < self.n:
            raise ValueError("need 0 <= m < n")
        if self.count < 0 or self.start_counter < 0:
            raise ValueError("count and start_counter must be non-negative")
        if self.start_counter + self.count > (1 << self.n):
            raise ValueError("counter range exceeds 2**n: inputs must stay distinct")
        if self.packing not in ("bit", "byte"):
            raise ValueError("packing must be 'bit' or 'byte'")

    @property
    def symbol_bits(self) -> int:
        return self.n - self.m


def generate_stream(perm, cfg: StreamConfig, sink) -> int:
    """Emit the top n-m bits of perm(counter) for each counter value into
    `sink`.

    Bit-packed mode concatenates the (n-m)-bit symbols MSB-first into bytes
    (final byte zero-padded on the right); byte-aligned mode zero-pads each
    symbol to whole bytes, big-endian.  Returns the number of bytes written.
    """
    width = cfg.symbol_bits
    lead = -width % 8 if cfg.packing == "byte" else 0
    written = 0
    stop = cfg.start_counter + cfg.count
    for words in _blocks(perm, cfg.n, cfg.start_counter, stop):
        # byte rows are whole bytes, so packing the flattened matrix packs
        # each symbol on its own; bit rows run on across bytes
        chunk = np.packbits(_bit_matrix(words, cfg.n, cfg.m, lead)).tobytes()
        sink.write(chunk)
        written += len(chunk)
    return written


#: Widest permutation `balance_check` sweeps in full.
BALANCE_MAX_N = 24


def balance_check(perm, m: int) -> bool:
    """Sweep every input of the n-bit permutation `perm` (n = perm.n): True
    if each (n-m)-bit prefix occurs exactly 2**m times, as for a bijection."""
    n = perm.n
    if n > BALANCE_MAX_N:
        raise ValueError(f"full sweep limited to n <= {BALANCE_MAX_N}")
    width = n - m
    hist = np.zeros(1 << width, dtype=np.int64)
    for words in _blocks(perm, n, 0, 1 << n):
        rows = np.packbits(_bit_matrix(words, n, m, lead=32 - width), axis=1)
        hist += np.bincount(rows.view(">u4")[:, 0], minlength=1 << width)
    return bool(np.all(hist == (1 << m)))


@dataclass(frozen=True)
class BenchResult:
    bytes_written: int
    bytes_per_second: float
    seconds_per_symbol: float


def throughput_bench(make_perm, cfg: StreamConfig, repetitions: int = 5) -> BenchResult:
    """Time `generate_stream` into a discard sink; median over repetitions.

    Each repetition streams from a fresh permutation, `make_perm()`, built
    outside the timer, so every one pays what a single stream pays (the
    Feistel round tables included) and none reads a warmed instance."""
    times = []
    written = 0
    for _ in range(repetitions):
        perm = make_perm()
        sink = io.BytesIO()
        t0 = time.perf_counter()
        written = generate_stream(perm, cfg, sink)
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    return BenchResult(
        bytes_written=written,
        bytes_per_second=written / med if med > 0 else float("inf"),
        seconds_per_symbol=med / cfg.count if cfg.count else 0.0,
    )


def write_metadata(path, perm, cfg: StreamConfig, seed: int) -> None:
    """Write the JSON sidecar describing a generated stream to `path`."""
    metadata = {
        "n": cfg.n,
        "m": cfg.m,
        "start_counter": cfg.start_counter,
        "count": cfg.count,
        "packing": cfg.packing,
        "permutation_kind": perm.kind,
        "seed": seed,
        "disclaimer": (
            "indistinguishability margins assume the permutation is "
            "uniformly random; the Feistel demo backend is not"
        ),
    }
    with open(path, "w") as fh:
        json.dump(metadata, fh, indent=2)
        fh.write("\n")
