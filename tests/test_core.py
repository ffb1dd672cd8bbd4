import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncperm.core as core
from truncperm.core import (
    CHUNK_CELLS,
    LOG_ZERO,
    CountProfile,
    Params,
    all_distinct_prob,
    collision_excess,
    count_pieces,
    count_profile,
    likelihood_ratio,
    log_likelihood_ratio,
    make_rng,
    map_shards,
    sample_function_count_matrix,
    sample_function_transcript,
    sample_permutation_count_matrix,
    sample_permutation_transcript,
    spawn_rngs,
)
from truncperm.exact import enumerate_profiles


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

    def test_zero_past_domain(self):
        assert all_distinct_prob(9, 8) == 0
        assert all_distinct_prob(9, 8, mode="log") == LOG_ZERO

    def test_log_matches_exact(self):
        for k, alpha in [(0, 5), (3, 8), (7, 7), (10, 1000)]:
            exact = all_distinct_prob(k, alpha)
            assert math.isclose(
                float(all_distinct_prob(k, alpha, mode="log")), math.log(exact)
            )

    @given(st.integers(0, 50), st.integers(1, 200))
    def test_upper_bound_inequality(self, k, alpha):
        # log of the product never exceeds -k(k-1)/(2 alpha)
        if k > alpha:
            return
        lhs = all_distinct_prob(k, alpha, mode="log")
        assert lhs <= -k * (k - 1) / (2 * alpha) + 1e-12


class TestCountProfile:
    def test_histogram(self):
        assert count_profile([0, 0, 1], Params(2, 1, 3)).parts == (2, 1)
        assert count_profile([3, 3, 3, 3], Params(2, 0, 4)).parts == (4,)
        assert count_profile([0, 1, 2], Params(3, 1, 3)).parts == (1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_profile([0, 2], Params(2, 1, 2))  # symbol out of range
        with pytest.raises(ValueError):
            count_profile([0], Params(2, 1, 2))  # wrong length
        with pytest.raises(ValueError):
            CountProfile((1, 2))  # not descending

    def test_fits_capacity(self):
        p = Params(2, 1, 3)
        assert CountProfile((2, 1)).fits_capacity(p)
        assert not CountProfile((3,)).fits_capacity(p)


class TestCollisionExcess:
    def test_examples(self):
        assert collision_excess([0, 0], Params(2, 1, 2)) == Fraction(1, 2)
        assert collision_excess([0, 0, 1], Params(3, 1, 3)) == Fraction(1, 4)
        assert collision_excess([0, 0, 1], Params(2, 1, 3)) == Fraction(-1, 2)

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
        prof = count_profile(t, p)
        lhs = collision_excess(t, p) + Fraction(math.comb(q, 2), p.num_replies)
        assert lhs == sum(math.comb(d, 2) for d in prof.parts)


class TestLikelihoodRatio:
    def test_examples(self):
        p = Params(2, 1, 2)
        assert likelihood_ratio(CountProfile((1, 1)), p) == Fraction(4, 3)
        assert likelihood_ratio(CountProfile((2,)), p) == Fraction(2, 3)
        assert likelihood_ratio(CountProfile((3,)), Params(2, 1, 3)) == 0

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            likelihood_ratio(CountProfile((1,)), Params(2, 1, 2))

    def test_log_mode_pairs_factors(self):
        p = Params(2, 1, 2)
        assert math.isclose(
            log_likelihood_ratio(CountProfile((1, 1)), p), math.log(4 / 3)
        )
        assert likelihood_ratio(CountProfile((1, 1)), p, mode="log") == pytest.approx(
            math.log(4 / 3)
        )
        assert log_likelihood_ratio(CountProfile((3,)), Params(2, 1, 3)) == LOG_ZERO

    def test_log_mode_survives_large_q(self):
        # the denominator alone would underflow a float here
        p = Params(40, 20, 4096)
        val = log_likelihood_ratio(CountProfile((1,) * 4096), p)
        assert math.isfinite(val)

    @pytest.mark.parametrize("n,m,q", [(2, 1, 2), (2, 1, 3), (3, 1, 4), (3, 2, 3)])
    def test_mean_ratio_is_one(self, n, m, q):
        # probabilities R/|set| must sum to exactly 1
        p = Params(n, m, q)
        total = sum(
            pw.probability * likelihood_ratio(pw.profile, p)
            for pw in enumerate_profiles(p)
        )
        assert total == 1


class TestSamplers:
    def test_function_symbol_frequencies(self):
        p = Params(4, 2, 3)
        rng = make_rng(11)
        trials = 10**5
        draws = np.concatenate(
            [sample_function_transcript(p, rng) for _ in range(trials // p.q + 1)]
        )[: trials]
        counts = np.bincount(draws, minlength=p.num_replies)
        expect = trials / p.num_replies
        sigma = math.sqrt(trials * (1 / p.num_replies) * (1 - 1 / p.num_replies))
        assert np.all(np.abs(counts - expect) < 5 * sigma)

    def test_single_bit_mean(self):
        p = Params(6, 5, 64)
        rng = make_rng(3)
        draws = np.concatenate(
            [sample_function_transcript(p, rng) for _ in range(1000)]
        )
        mean = draws.mean()
        se = 0.5 / math.sqrt(draws.size)
        assert abs(mean - 0.5) < 5 * se

    def test_single_query(self):
        p = Params(3, 1, 1)
        t = sample_function_transcript(p, make_rng(0))
        assert t.shape == (1,) and 0 <= t[0] < p.num_replies

    def test_permutation_full_codebook_is_balanced(self):
        p = Params(2, 1, 4)
        rng = make_rng(9)
        for _ in range(50):
            prof = count_profile(sample_permutation_transcript(p, rng), p)
            assert prof.parts == (2, 2)

    def test_permutation_collision_probability(self):
        # at (2, 1, 2) a shared prefix happens with probability exactly 1/3
        p = Params(2, 1, 2)
        rng = make_rng(5)
        trials = 3 * 10**4
        hits = sum(
            count_profile(sample_permutation_transcript(p, rng), p).parts == (2,)
            for _ in range(trials)
        )
        se = math.sqrt((1 / 3) * (2 / 3) / trials)
        assert abs(hits / trials - 1 / 3) < 5 * se

    def test_permutation_profile_distribution_matches_ratio(self):
        # empirical profile frequencies match R(profile) * uniform probability
        p = Params(4, 2, 4)
        expected = {
            pw.profile.parts: float(
                pw.probability * likelihood_ratio(pw.profile, p)
            )
            for pw in enumerate_profiles(p)
        }
        rng = make_rng(17)
        trials = 10**5
        seen: dict = {}
        for _ in range(trials):
            parts = count_profile(sample_permutation_transcript(p, rng), p).parts
            seen[parts] = seen.get(parts, 0) + 1
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
        return started

    def test_one_piece_cell_starts_no_pool(self, pools):
        p = Params(10, 4, 256)  # 64 buckets
        trials = CHUNK_CELLS // p.num_replies  # the whole matrix is one piece
        out = map_shards(lambda t, rng: t, p, trials, seed=1, workers=4)
        assert sum(out) == trials and pools == []

    def test_larger_cell_uses_the_workers(self, pools):
        p = Params(10, 4, 256)
        trials = CHUNK_CELLS // p.num_replies + 1
        serial = map_shards(lambda t, rng: rng.integers(1 << 30), p, trials, 1, 1)
        threaded = map_shards(lambda t, rng: rng.integers(1 << 30), p, trials, 1, 4)
        assert serial == threaded and pools == [4]
