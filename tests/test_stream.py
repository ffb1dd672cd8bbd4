import hashlib
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncperm import stream
from truncperm.core import Params
from truncperm.exact import exact_advantage
from truncperm.stream import (
    BLOCK,
    ExplicitPermutation,
    FeistelPermutation,
    StreamConfig,
    balance_check,
    generate_stream,
    stream_metadata,
    throughput_bench,
    write_metadata,
)
from fractions import Fraction


def unpack_symbols(data: bytes, cfg: StreamConfig) -> list[int]:
    """The packing reference: recover the symbol sequence from a generated
    stream, each row of bits read back into one (arbitrarily wide) int."""
    width = cfg.symbol_bits
    row = width if cfg.packing == "bit" else 8 * ((width + 7) // 8)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=cfg.count * row)
    padded = np.zeros((cfg.count, 64 * ((row + 63) // 64)), dtype=np.uint8)
    padded[:, padded.shape[1] - row :] = bits.reshape(cfg.count, row)
    words = np.packbits(padded, axis=1).view(">u8")  # big-endian 64-bit words
    values = words[:, 0].astype(object)
    for j in range(1, words.shape[1]):
        values = (values << 64) | words[:, j].astype(object)
    return values.tolist()


class TestExplicitPermutation:
    def test_is_bijection(self):
        perm = ExplicitPermutation(8, seed=1)
        assert sorted(perm(x) for x in range(256)) == list(range(256))

    def test_deterministic_in_seed(self):
        a = ExplicitPermutation(6, seed=5)
        b = ExplicitPermutation(6, seed=5)
        assert np.array_equal(a.table, b.table)
        assert not np.array_equal(a.table, ExplicitPermutation(6, seed=6).table)

    def test_width_limit(self):
        with pytest.raises(ValueError):
            ExplicitPermutation(21, seed=0)


def feistel_inverse(perm, y):
    """The rounds of a FeistelPermutation undone, last first: a reference
    inverse, kept here as nothing in the package reads one."""
    half = perm.n // 2
    left, right = y >> half, y & ((1 << half) - 1)
    for r in reversed(range(perm.rounds)):
        left, right = right ^ perm._round(r, left), left
    return (left << half) | right


class TestFeistelPermutation:
    def test_bijective_and_invertible(self):
        perm = FeistelPermutation(16, b"test key")
        for x in range(0, 1 << 16, 257):  # sparse sample plus inverses
            assert feistel_inverse(perm, perm(x)) == x
        # full bijectivity at a small width
        small = FeistelPermutation(8, b"k")
        assert sorted(small(x) for x in range(256)) == list(range(256))

    def test_key_matters(self):
        a = FeistelPermutation(16, b"a")
        b = FeistelPermutation(16, b"b")
        assert any(a(x) != b(x) for x in range(64))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            FeistelPermutation(7, b"k")
        with pytest.raises(ValueError):
            FeistelPermutation(130, b"k")

    def test_input_range(self):
        with pytest.raises(ValueError):
            FeistelPermutation(8, b"k")(256)


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(4, 4, 1)
        with pytest.raises(ValueError):
            StreamConfig(4, 1, 20)  # counters run past 2**4
        with pytest.raises(ValueError):
            StreamConfig(4, 1, 4, packing="nibble")

    def test_symbol_bits(self):
        assert StreamConfig(12, 4, 1).symbol_bits == 8


class TestGenerateStream:
    def test_full_sweep_emits_each_symbol_capacity_times(self):
        # n=3, m=1: 8 counters, each 2-bit prefix appears exactly twice
        perm = ExplicitPermutation(3, seed=2)
        cfg = StreamConfig(3, 1, 8)
        sink = io.BytesIO()
        written = generate_stream(perm, cfg, sink)
        assert written == 2  # 8 symbols * 2 bits = 16 bits
        symbols = unpack_symbols(sink.getvalue(), cfg)
        assert sorted(symbols) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_bit_packed_length(self):
        perm = ExplicitPermutation(8, seed=0)
        cfg = StreamConfig(8, 4, 256)
        sink = io.BytesIO()
        assert generate_stream(perm, cfg, sink) == 128  # 256 * 4 bits

    def test_bit_packing_round_trip(self):
        perm = ExplicitPermutation(10, seed=7)
        for m in (0, 3, 7):
            cfg = StreamConfig(10, m, 100, start_counter=17)
            sink = io.BytesIO()
            generate_stream(perm, cfg, sink)
            expected = [perm(c) >> m for c in range(17, 117)]
            assert unpack_symbols(sink.getvalue(), cfg) == expected

    def test_byte_packing_round_trip(self):
        perm = ExplicitPermutation(12, seed=7)
        cfg = StreamConfig(12, 2, 50, packing="byte")
        sink = io.BytesIO()
        written = generate_stream(perm, cfg, sink)
        assert written == 50 * 2  # 10-bit symbols padded to 2 bytes
        expected = [perm(c) >> 2 for c in range(50)]
        assert unpack_symbols(sink.getvalue(), cfg) == expected

    def test_final_byte_zero_padded(self):
        perm = ExplicitPermutation(4, seed=1)
        cfg = StreamConfig(4, 1, 3)  # 9 bits -> 2 bytes, 7 bits of padding
        sink = io.BytesIO()
        assert generate_stream(perm, cfg, sink) == 2
        assert sink.getvalue()[-1] & 0x7F == 0

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generate_stream(ExplicitPermutation(8, 0), StreamConfig(10, 2, 4), io.BytesIO())

    def test_prefix_distribution_matches_exact_advantage(self):
        # many independent permutations, a short stream prefix each: the
        # optimal distinguisher's empirical advantage tracks the exact value
        p = Params(6, 3, 8)
        exact = float(exact_advantage(p).value)
        trials = 4000
        from truncperm.game import _accept_counts, optimal_rule

        counts = np.empty((trials, p.num_replies), dtype=np.int64)
        for seed, row in enumerate(counts):
            perm = ExplicitPermutation(6, seed=seed)
            symbols = [perm(c) >> 3 for c in range(8)]
            row[:] = np.bincount(symbols, minlength=p.num_replies)
        hits_perm = _accept_counts(optimal_rule(), counts, p)
        # uniform-arm acceptance probability, exactly
        from truncperm.exact import enumerate_profiles
        from truncperm.core import likelihood_ratio

        accept_fun = sum(
            float(Fraction(count, p.num_replies**p.q))
            for parts, count in enumerate_profiles(p)
            if likelihood_ratio(parts, p) > 1
        )
        gap = hits_perm / trials - accept_fun
        se = math.sqrt(0.25 / trials)
        assert abs(gap - exact) < 4 * (se + 1e-9)


class _Affine:
    """The bijection x -> (a*x + c) mod 2**n (a odd), evaluated one counter
    at a time and split MSB-first into the 64-bit words the packer reads:
    a third backend, with other word widths than the built-in two."""

    def __init__(self, n, a, c):
        self.n, self.a, self.c = n, a, c

    def __call__(self, x):
        return (x * self.a + self.c) % 2**self.n

    def outputs(self, lo, hi):
        values = [self(x) for x in range(lo, hi)]
        return [
            (np.array([(y >> shift) & (2**64 - 1) for y in values], dtype=np.uint64),
             min(64, self.n - shift))
            for shift in range(64 * ((self.n - 1) // 64), -1, -64)
        ]


def _affine32():
    return _Affine(32, 2654435761, 12345)


def _affine80():
    return _Affine(80, 0x9E3779B97F4A7C15F39D, 7)


def _key(seed):
    return seed.to_bytes(8, "little", signed=True)


# (permutation, config, bytes written, sha256 of the stream), as written by
# the per-symbol generator that the block generator replaced
PINNED_STREAMS = {
    "explicit-20-7-bit": (
        lambda: ExplicitPermutation(20, 3), StreamConfig(20, 7, 1 << 20), 1703936,
        "920274f4c56239b62d50442ed9348f188357556f199d2ad9edb17180bbe6e6af"),
    "explicit-20-7-byte": (
        lambda: ExplicitPermutation(20, 3), StreamConfig(20, 7, 1 << 20, packing="byte"),
        2097152, "37f356555be26b5b74213e5cd9f9675b570483bf93998773d661736b16f593b6"),
    "feistel-16-8-bit": (
        lambda: FeistelPermutation(16, _key(3)), StreamConfig(16, 8, 1 << 16), 65536,
        "241d6824df4f59756c57449a8da255391e9a76a24b54f85fe97253f88a96b194"),
    "feistel-128-0-top": (
        lambda: FeistelPermutation(128, _key(3)),
        StreamConfig(128, 0, 5, start_counter=2**128 - 5), 80,
        "dd5fcd816cc2b9bfbfc605686fd8ae25b57211bc397d88f28fc51143296412ea"),
    "explicit-10-3-start17-101": (
        lambda: ExplicitPermutation(10, 7), StreamConfig(10, 3, 101, start_counter=17), 89,
        "0233f18c5370538c552b139b2fd71f4e0b742d1d2973e2bb7e452d190251ca82"),
    "explicit-18-5-block-bit": (
        lambda: ExplicitPermutation(18, 5),
        StreamConfig(18, 5, (1 << 16) + 3, start_counter=1000), 106501,
        "c221d4251b93f5dd95ba2d4814de7fa8183eb2bf5872e826d1f5d6f03e82d7e0"),
    "explicit-18-5-block-byte": (
        lambda: ExplicitPermutation(18, 5),
        StreamConfig(18, 5, (1 << 16) + 3, start_counter=1000, packing="byte"), 131078,
        "d5e91a10c00441e90ddda45ed8ff24d29c17494c5671db1d1e267773f3290215"),
    "feistel-18-5-block-byte": (
        lambda: FeistelPermutation(18, _key(5)),
        StreamConfig(18, 5, (1 << 16) + 3, start_counter=11, packing="byte"), 131078,
        "6cba48a9e9248f601a6c808d9e7d5700b22a29e42d58bc2ad15e56afe13af68f"),
    "feistel-128-57-block-bit": (
        lambda: FeistelPermutation(128, _key(9)),
        StreamConfig(128, 57, 70001, start_counter=2**128 - 70001), 621259,
        "8ca02100f1f2e6d8973afcbf95dfb7c3bc8728e5655483afad0cc773f640e23d"),
    "feistel-128-60-carry-byte": (  # the low 64 counter bits wrap mid-stream
        lambda: FeistelPermutation(128, _key(9)),
        StreamConfig(128, 60, 3001, start_counter=2**64 - 1000, packing="byte"), 27009,
        "5429aadc2c60e8f5e6a409d4e08981acffefff3500477eb0cfd9f43a8e84a3fd"),
    "feistel-96-40-halfwrap-bit": (  # the right half wraps mid-stream
        lambda: FeistelPermutation(96, _key(2)),
        StreamConfig(96, 40, 21, start_counter=5 * 2**48 - 7), 147,
        "c5cc676d520e905e7bdca31d5cbecb4cf35ae49f99a5a582fd69cc911f9538fa"),
    "external-32-9-bit": (
        _affine32, StreamConfig(32, 9, 1001, start_counter=5), 2878,
        "465eb407df79e97a8c41e0ac12a33ce1ec49580200389ee0346070c1d081098d"),
    "external-32-9-byte": (
        _affine32, StreamConfig(32, 9, 1001, start_counter=5, packing="byte"), 3003,
        "5a714b26d565f466b59330e893bf6a120934542674c1d27a74916af725a33f49"),
    "external-80-3-bit": (
        _affine80, StreamConfig(80, 3, 50, start_counter=2**70), 482,
        "39c0b2814a8a8012f062761842bbd9a83e1da6941e65f047ea9eb2e8b5d5face"),
}


class TestPinnedStreams:
    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    def test_bytes_unchanged(self, name):
        build, cfg, length, digest = PINNED_STREAMS[name]
        sink = io.BytesIO()
        assert generate_stream(build(), cfg, sink) == length
        assert len(sink.getvalue()) == length
        assert hashlib.sha256(sink.getvalue()).hexdigest() == digest


@st.composite
def _stream_cases(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        perm = ExplicitPermutation(n, seed=draw(st.integers(0, 2**32)))
    else:
        n = 2 * draw(st.integers(1, 64))
        perm = FeistelPermutation(n, draw(st.binary(max_size=16)))
    m = draw(st.integers(0, n - 1))
    count = draw(st.integers(0, min(200, 1 << n)))
    start = draw(st.integers(0, (1 << n) - count))
    packing = draw(st.sampled_from(["bit", "byte"]))
    return perm, StreamConfig(n, m, count, start_counter=start, packing=packing)


class TestBlockEvaluation:
    @given(_stream_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_calls(self, case):
        perm, cfg = case
        sink = io.BytesIO()
        generate_stream(perm, cfg, sink)
        counters = range(cfg.start_counter, cfg.start_counter + cfg.count)
        expected = [perm(c) >> cfg.m for c in counters]
        assert unpack_symbols(sink.getvalue(), cfg) == expected

    def test_backends_never_called_per_symbol(self, monkeypatch):
        def scalar(self, x):
            raise AssertionError("per-symbol call")

        monkeypatch.setattr(ExplicitPermutation, "__call__", scalar)
        monkeypatch.setattr(FeistelPermutation, "__call__", scalar)
        generate_stream(ExplicitPermutation(12, 0), StreamConfig(12, 3, 4096), io.BytesIO())
        generate_stream(FeistelPermutation(12, b"k"), StreamConfig(12, 3, 4096), io.BytesIO())
        assert balance_check(FeistelPermutation(12, b"k"), 3)

    def test_writes_one_block_at_a_time(self):
        sizes = []
        sink = SimpleNamespace(write=lambda chunk: sizes.append(len(chunk)))
        cfg = StreamConfig(20, 7, 3 * BLOCK + 5, packing="byte")
        generate_stream(ExplicitPermutation(20, 1), cfg, sink)
        assert sizes == [2 * BLOCK] * 3 + [10]

    def test_unpack_round_trip_is_linear(self):
        perm = ExplicitPermutation(18, seed=4)
        count = (1 << 17) + 5
        for packing in ("bit", "byte"):
            cfg = StreamConfig(18, 1, count, start_counter=77, packing=packing)
            sink = io.BytesIO()
            generate_stream(perm, cfg, sink)
            expected = (perm.table[77 : 77 + count] >> 1).tolist()
            assert unpack_symbols(sink.getvalue(), cfg) == expected


class TestFeistelRoundTables:
    def test_table_and_hashed_paths_agree(self):
        # a block shorter than the half domain, on a fresh instance, hashes its
        # own right halves; after a block of 2**8 counters or more the
        # instance looks them up
        tabled = FeistelPermutation(16, b"k")
        tabled.outputs(0, 1 << 8)
        assert tabled._tables is not None
        for lo, hi in [(0, 255), (1000, 1100), (65300, 65536), (12345, 12346)]:
            fresh = FeistelPermutation(16, b"k")
            words = fresh.outputs(lo, hi)
            assert fresh._tables is None
            for (a, wa), (b, wb) in zip(words, tabled.outputs(lo, hi)):
                assert wa == wb and np.array_equal(a, b)

    @pytest.mark.parametrize("n", [16, 18])
    def test_full_sweep_hashes_each_round_input_once(self, monkeypatch, n):
        calls = []
        real = FeistelPermutation._round

        def counting(self, r, value):
            calls.append(r)
            return real(self, r, value)

        monkeypatch.setattr(FeistelPermutation, "_round", counting)
        perm = FeistelPermutation(n, b"k")
        assert balance_check(perm, 3)
        assert len(calls) == FeistelPermutation.rounds << (n // 2)
        generate_stream(perm, StreamConfig(n, 3, 1 << n), io.BytesIO())
        assert len(calls) == FeistelPermutation.rounds << (n // 2)


class TestBalanceCheck:
    def test_explicit_passes(self):
        perm = ExplicitPermutation(12, seed=3)
        assert balance_check(perm, 4) is True

    def test_feistel_passes(self):
        assert balance_check(FeistelPermutation(10, b"key"), 2) is True

    def test_corrupted_table_fails(self):
        perm = ExplicitPermutation(12, seed=3)
        idx = int(np.argmax(perm.table >> 4 != perm.table[0] >> 4))
        perm.table[idx] = perm.table[0]  # duplicate entry: no longer a bijection
        assert balance_check(perm, 4) is False

    def test_sweep_limit(self):
        with pytest.raises(ValueError):
            balance_check(FeistelPermutation(26, b"k"), 2)


class TestStreamLength:
    @pytest.fixture(scope="class", params=["explicit", "feistel"])
    def perm(self, request):
        if request.param == "explicit":
            return ExplicitPermutation(18, seed=4)
        return FeistelPermutation(18, b"len")

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 13])
    def test_bytes_written(self, perm, width):
        # count * width bits rounded up to whole bytes when bit-packed, and
        # ceil(width / 8) whole bytes per symbol when byte-packed; the last
        # two counts end on either side of a block boundary
        for count in (0, 1, 7, 8, BLOCK - 1, BLOCK + 1):
            for packing, want in (("bit", (count * width + 7) // 8),
                                  ("byte", count * ((width + 7) // 8))):
                cfg = StreamConfig(18, 18 - width, count, packing=packing)
                sink = io.BytesIO()
                assert generate_stream(perm, cfg, sink) == len(sink.getvalue()) == want


class TestBenchAndMetadata:
    def test_throughput_positive(self):
        res = throughput_bench(
            lambda: ExplicitPermutation(10, seed=0), StreamConfig(10, 2, 1024), repetitions=3
        )
        assert res.bytes_written == 1024
        assert res.bytes_per_second > 0
        assert res.seconds_per_symbol >= 0

    @pytest.mark.parametrize("repetitions", [1, 3])
    def test_fresh_permutation_per_repetition(self, monkeypatch, repetitions):
        # a warmed instance (e.g. Feistel round tables already built) would
        # time a cheaper stream than a single run pays
        made, streamed = [], []

        def make():
            made.append(ExplicitPermutation(8, seed=len(made)))
            return made[-1]

        def counting(perm, cfg, sink):
            streamed.append(perm)
            return real(perm, cfg, sink)

        real = stream.generate_stream
        monkeypatch.setattr(stream, "generate_stream", counting)
        res = throughput_bench(make, StreamConfig(8, 2, 64), repetitions=repetitions)
        assert len(made) == repetitions
        assert [id(p) for p in streamed] == [id(p) for p in made]
        assert res.bytes_written == 48

    def test_metadata_sidecar(self, tmp_path):
        perm = ExplicitPermutation(8, seed=5)
        cfg = StreamConfig(8, 4, 16)
        meta = stream_metadata(perm, cfg, seed=5)
        assert meta["permutation_kind"] == "explicit"
        assert "disclaimer" in meta
        path = tmp_path / "s.json"
        write_metadata(path, perm, cfg, seed=5)
        assert json.loads(path.read_text()) == meta
