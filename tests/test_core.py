import math
import os
import resource
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncperm.core as core
from truncperm.core import (
    CHUNK_CELLS,
    LOG_ZERO,
    MATRIX_CELLS,
    SHARD_COUNT,
    THREAD_ADDRESS_BYTES,
    Params,
    SamplerLimitError,
    all_distinct_prob,
    collision_excess_of_profile,
    collision_excesses,
    count_pieces,
    likelihood_ratio,
    log_all_distinct,
    log_likelihood_ratios,
    make_rng,
    map_shards,
    require_count_rows,
    sample_function_count_matrix,
    sample_permutation_count_matrix,
    spawn_rngs,
)
from truncperm.exact import enumerate_profiles, mc_advantage, mc_advantage_sharded
from truncperm.game import optimal_rule, play_game_sharded


def count_rows(*rows):
    """A count matrix with the given rows of bucket counts."""
    return np.array(rows, dtype=np.int64)


def row_parts(counts):
    """Count profile parts of each row of a count matrix."""
    return [tuple(sorted((int(d) for d in row if d), reverse=True)) for row in counts]


class TestParams:
    def test_derived_values(self):
        p = Params(4, 2, 3)
        assert p.domain_size == 16
        assert p.num_replies == 4
        assert p.bucket_capacity == 4

    @pytest.mark.parametrize("n,m,q", [(0, 0, 1), (4, 4, 1), (4, -1, 1), (4, 2, 0), (2, 1, 5)])
    def test_rejects_invalid(self, n, m, q):
        with pytest.raises(ValueError):
            Params(n, m, q)


class TestAllDistinctProb:
    def test_empty_product(self):
        assert all_distinct_prob(0, 8) == 1

    def test_direct(self):
        assert all_distinct_prob(3, 8) == Fraction(21, 32)
        # the draw-by-draw product, one factor per draw
        for alpha in range(1, 30):
            prod = Fraction(1)
            for k in range(alpha + 1):
                assert all_distinct_prob(k, alpha) == prod
                prod *= Fraction(alpha - k, alpha)

    def test_zero_past_domain(self):
        assert all_distinct_prob(9, 8) == 0


class TestLogAllDistinct:
    def test_zero_past_domain(self):
        assert log_all_distinct(9, 8) == LOG_ZERO

    def test_matches_exact(self):
        for k, alpha in [(0, 5), (3, 8), (7, 7), (10, 1000)]:
            exact = all_distinct_prob(k, alpha)
            assert math.isclose(log_all_distinct(k, alpha), math.log(exact))

    @given(st.integers(0, 50), st.integers(1, 200))
    def test_upper_bound_inequality(self, k, alpha):
        # log of the product never exceeds -k(k-1)/(2 alpha)
        if k > alpha:
            return
        lhs = log_all_distinct(k, alpha)
        assert lhs <= -k * (k - 1) / (2 * alpha) + 1e-12


class TestProfileParts:
    """A profile is the tuple of its parts: every function of it is
    symmetric in them, and a zero part adds a factor of 1 and no pairs."""

    @given(st.data())
    @settings(max_examples=100)
    def test_order_and_zero_parts_do_not_matter(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(0, n - 1))
        q = data.draw(st.integers(1, min(8, 1 << n)))
        p = Params(n, m, q)
        replies = data.draw(
            st.lists(st.integers(0, p.num_replies - 1), min_size=q, max_size=q)
        )
        (parts,) = row_parts(np.bincount(replies, minlength=p.num_replies)[None, :])
        zeros = (0,) * data.draw(st.integers(0, 3))
        for other in (data.draw(st.permutations(parts)),
                      data.draw(st.permutations(parts + zeros))):
            for fn in (likelihood_ratio, collision_excess_of_profile):
                assert fn(tuple(other), p) == fn(parts, p), (fn.__name__, parts, other)


class TestCollisionExcess:
    @pytest.mark.parametrize("params,row,want", [
        (Params(2, 1, 2), [2, 0], Fraction(1, 2)),
        (Params(3, 1, 3), [2, 1, 0, 0], Fraction(1, 4)),
        (Params(2, 1, 3), [2, 1], Fraction(-1, 2)),
    ])
    def test_examples(self, params, row, want):
        (parts,) = row_parts([row])
        assert collision_excess_of_profile(parts, params) == want
        assert collision_excesses(count_rows(row), params).tolist() == [float(want)]

    @given(st.data())
    @settings(max_examples=50)
    def test_pair_count_identity(self, data):
        # excess + C(q,2)/B equals the sum of per-bucket pair counts
        n = data.draw(st.integers(2, 5))
        m = data.draw(st.integers(0, n - 1))
        q = data.draw(st.integers(1, min(8, 1 << n)))
        p = Params(n, m, q)
        t = data.draw(
            st.lists(st.integers(0, p.num_replies - 1), min_size=q, max_size=q)
        )
        counts = np.bincount(t, minlength=p.num_replies)[None, :]
        (parts,) = row_parts(counts)
        excess = collision_excess_of_profile(parts, p)
        pairs = sum(math.comb(d, 2) for d in parts)
        assert excess + Fraction(math.comb(q, 2), p.num_replies) == pairs
        assert math.isclose(collision_excesses(counts, p)[0], excess, abs_tol=1e-12)


class TestLikelihoodRatio:
    def test_examples(self):
        p = Params(2, 1, 2)
        assert likelihood_ratio((1, 1), p) == Fraction(4, 3)
        assert likelihood_ratio((2,), p) == Fraction(2, 3)
        assert likelihood_ratio((3,), Params(2, 1, 3)) == 0

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            likelihood_ratio((1,), Params(2, 1, 2))

    def test_log_rows(self):
        p = Params(2, 1, 2)
        got = log_likelihood_ratios(count_rows([1, 1], [0, 2]), p)
        assert math.isclose(got[0], math.log(4 / 3))
        assert math.isclose(got[1], math.log(2 / 3))
        assert log_likelihood_ratios(count_rows([3, 0]), Params(2, 1, 3)).tolist() == [
            LOG_ZERO
        ]

    def test_log_rows_match_fraction_reference(self, small_cell_ratios):
        # at every profile of every small cell: the log of the exact ratio,
        # or LOG_ZERO where it is exactly 0
        assert len(small_cell_ratios) == 428
        for p, profiles in small_cell_ratios:
            counts = np.zeros((len(profiles), p.num_replies), dtype=np.int64)
            for row, (parts, _, _) in zip(counts, profiles):
                row[: len(parts)] = parts
            for got, (parts, _, ratio) in zip(log_likelihood_ratios(counts, p), profiles):
                if ratio == 0:
                    assert got == LOG_ZERO, (p, parts)
                else:
                    want = math.log(ratio)
                    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (
                        p, parts, got, want
                    )

    def test_log_rows_survive_large_q(self):
        # the denominator alone would underflow a float here
        p = Params(40, 20, 4096)
        counts = np.zeros((1, p.num_replies), dtype=np.int64)
        counts[0, : p.q] = 1
        assert math.isfinite(log_likelihood_ratios(counts, p)[0])

    @pytest.mark.parametrize("n,m,q", [(2, 1, 2), (2, 1, 3), (3, 1, 4), (3, 2, 3)])
    def test_mean_ratio_is_one(self, n, m, q):
        # probabilities R/|set| must sum to exactly 1
        p = Params(n, m, q)
        total = sum(
            Fraction(count, p.num_replies**q) * likelihood_ratio(parts, p)
            for parts, count in enumerate_profiles(p)
        )
        assert total == 1


class TestSamplers:
    def test_function_bucket_frequencies(self):
        p = Params(4, 2, 3)
        trials = 10**5 // p.q + 1
        counts = sample_function_count_matrix(p, trials, make_rng(11)).sum(axis=0)
        draws = trials * p.q
        expect = draws / p.num_replies
        sigma = math.sqrt(draws * (1 / p.num_replies) * (1 - 1 / p.num_replies))
        assert np.all(np.abs(counts - expect) < 5 * sigma)

    def test_single_bit_mean(self):
        p = Params(6, 5, 64)
        counts = sample_function_count_matrix(p, 1000, make_rng(3))
        draws = counts.sum()
        mean = counts[:, 1].sum() / draws
        se = 0.5 / math.sqrt(draws)
        assert abs(mean - 0.5) < 5 * se

    def test_single_query(self):
        p = Params(3, 1, 1)
        for sampler in (sample_function_count_matrix, sample_permutation_count_matrix):
            counts = sampler(p, 50, make_rng(0))
            assert counts.shape == (50, p.num_replies)
            assert set(map(tuple, np.sort(counts, axis=1))) == {(0, 0, 0, 1)}

    def test_permutation_full_codebook_is_balanced(self):
        p = Params(2, 1, 4)
        counts = sample_permutation_count_matrix(p, 50, make_rng(9))
        assert counts.tolist() == [[2, 2]] * 50

    def test_permutation_collision_probability(self):
        # at (2, 1, 2) a shared prefix happens with probability exactly 1/3
        p = Params(2, 1, 2)
        trials = 3 * 10**4
        counts = sample_permutation_count_matrix(p, trials, make_rng(5))
        hits = int(np.count_nonzero(counts.max(axis=1) == 2))
        se = math.sqrt((1 / 3) * (2 / 3) / trials)
        assert abs(hits / trials - 1 / 3) < 5 * se

    @pytest.mark.parametrize("sampler,weight", [
        (sample_function_count_matrix, lambda parts, p: 1),
        (sample_permutation_count_matrix,
         lambda parts, p: likelihood_ratio(parts, p)),
    ], ids=["function", "permutation"])
    def test_profile_distribution(self, sampler, weight):
        # empirical profile frequencies match the uniform probability of the
        # profile, times R(profile) under the permutation
        p = Params(4, 2, 4)
        expected = {parts: float(Fraction(count, p.num_replies**p.q) * weight(parts, p))
                    for parts, count in enumerate_profiles(p)}
        trials = 10**5
        rows, freq = np.unique(np.sort(sampler(p, trials, make_rng(17)), axis=1),
                               axis=0, return_counts=True)
        seen = dict(zip(row_parts(rows), freq.tolist()))
        assert set(seen) <= set(expected)
        for parts, prob in expected.items():
            if prob == 0:
                assert parts not in seen
                continue
            sigma = math.sqrt(trials * prob * (1 - prob))
            assert abs(seen.get(parts, 0) - trials * prob) < 5 * max(sigma, 1.0)

    def test_count_matrix_samplers_match_marginals(self):
        p = Params(4, 2, 4)
        rng = make_rng(23)
        fun = sample_function_count_matrix(p, 2 * 10**4, rng)
        perm = sample_permutation_count_matrix(p, 2 * 10**4, rng)
        assert fun.shape == perm.shape == (2 * 10**4, p.num_replies)
        assert np.all(fun.sum(axis=1) == p.q)
        assert np.all(perm.sum(axis=1) == p.q)
        assert np.all(perm <= p.bucket_capacity)

    def test_spawn_rngs_deterministic(self):
        a = spawn_rngs(42, 4)
        b = spawn_rngs(42, 4)
        for x, y in zip(a, b):
            assert np.array_equal(x.integers(0, 100, 10), y.integers(0, 100, 10))


class TestCountPieces:
    @pytest.mark.parametrize("sampler,params,trials,piece_rows", [
        # 4096 buckets: 16-row pieces, 625 = 39 * 16 + 1 rows
        (sample_function_count_matrix, Params(16, 4, 1024), 625, 16),
        # 128 buckets: 512-row pieces, 3125 = 6 * 512 + 53 rows
        (sample_permutation_count_matrix, Params(14, 7, 128), 3125, 512),
    ])
    def test_pieces_equal_one_draw(self, sampler, params, trials, piece_rows):
        whole_rng, pieces_rng = make_rng(31), make_rng(31)
        whole = sampler(params, trials, whole_rng)
        pieces = list(count_pieces(sampler, params, trials, pieces_rng))
        assert trials % piece_rows
        assert [len(c) for c in pieces[:-1]] == [piece_rows] * (trials // piece_rows)
        assert len(pieces[-1]) == trials % piece_rows
        assert np.array_equal(np.concatenate(pieces), whole)
        # both Generators are left in the same state
        assert whole_rng.bit_generator.state == pieces_rng.bit_generator.state

    def test_one_row_per_piece_past_the_cap(self):
        p = Params(18, 1, 8)  # 2**17 buckets, more than CHUNK_CELLS
        pieces = list(count_pieces(sample_function_count_matrix, p, 3, make_rng(2)))
        assert [c.shape for c in pieces] == [(1, p.num_replies)] * 3

    def test_statistics_of_pieces_equal_the_whole(self):
        p = Params(16, 4, 1024)
        whole = sample_function_count_matrix(p, 625, make_rng(5))
        pieces = list(count_pieces(sample_function_count_matrix, p, 625, make_rng(5)))
        for stat in (core.log_likelihood_ratios, core.collision_excesses):
            joined = np.concatenate([stat(c, p) for c in pieces])
            assert joined.tobytes() == stat(whole, p).tobytes()


class TestMapShards:
    @pytest.fixture
    def pools(self, monkeypatch):
        started = []

        class Recorder(core.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(core, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(core, "default_workers", lambda: 8)  # 8 usable cores
        return started

    def test_one_piece_cell_starts_no_pool(self, pools):
        p = Params(10, 4, 256)  # 64 buckets
        trials = CHUNK_CELLS // p.num_replies  # the whole matrix is one piece
        out = map_shards(lambda t, rng: t, p, trials, seed=1)
        assert sum(out) == trials and pools == []

    def test_larger_cell_uses_the_workers(self, pools, monkeypatch):
        p = Params(10, 4, 256)
        trials = CHUNK_CELLS // p.num_replies + 1
        monkeypatch.setattr(core, "default_workers", lambda: 1)
        serial = map_shards(lambda t, rng: rng.integers(1 << 30), p, trials, 1)
        monkeypatch.setattr(core, "default_workers", lambda: 4)
        threaded = map_shards(lambda t, rng: rng.integers(1 << 30), p, trials, 1)
        assert serial == threaded and pools == [4]

    @pytest.mark.parametrize("limit,threads", [
        (resource.RLIM_INFINITY, SHARD_COUNT),  # the cores, capped at the shards
        (1 << 30, 7),  # 2**27 for the rows, then 2**27 per thread
        (THREAD_ADDRESS_BYTES - 1, 1),  # below one thread's reservation
    ])
    def test_threads_are_capped_by_the_address_space(self, monkeypatch, limit, threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(100)), raising=False)
        monkeypatch.setattr(core.resource, "getrlimit",
                            lambda what: (limit, resource.RLIM_INFINITY))
        assert core.default_workers() == threads

    def test_shard_layout(self):
        p = Params(4, 2, 4)
        sizes = map_shards(lambda t, rng: t, p, 2 * SHARD_COUNT + 6, seed=0)
        assert sizes == [3] * 6 + [2] * (SHARD_COUNT - 6)
        assert map_shards(lambda t, rng: t, p, 5, seed=0) == [1] * 5

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_fewer_than_one_trial(self, trials):
        p = Params(4, 2, 4)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            map_shards(lambda t, rng: t, p, trials, seed=0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            mc_advantage_sharded(p, trials, 0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            play_game_sharded(p, optimal_rule(), trials, 0)


class TestSamplerLimits:
    """Cells the samplers cannot draw are refused before any draw."""

    def test_one_row_of_counters(self):
        assert MATRIX_CELLS == 5 * 10**7
        require_count_rows(Params(25, 0, 2), permutation_arm=False)  # 2**25 counters
        with pytest.raises(SamplerLimitError, match=r"^\(n, m, q\) = \(26, 0, 2\): one row of "
                           r"2\*\*\(n-m\) = 67108864 counters exceeds 50000000 cells$"):
            require_count_rows(Params(26, 0, 2), permutation_arm=False)

    def test_permutation_population(self):
        require_count_rows(Params(29, 10, 2), permutation_arm=True)
        require_count_rows(Params(30, 10, 2), permutation_arm=False)
        with pytest.raises(SamplerLimitError, match=r"population 2\*\*n = 1073741824 is not "
                           r"below numpy's hypergeometric limit 1000000000$"):
            require_count_rows(Params(30, 10, 2), permutation_arm=True)

    def test_reply_values_past_64_bit_draws(self):
        # two distinct replies of 2**63 have R = 1/(1 - 2**-63) >= 1: every trial scores 0
        est = mc_advantage(Params(63, 0, 2), 3, make_rng(0))
        assert (est.mean, est.std_err) == (0.0, 0.0)
        with pytest.raises(SamplerLimitError, match=r"2\*\*64 reply values exceed"):
            mc_advantage(Params(64, 0, 2), 3, make_rng(0))
