import math
from fractions import Fraction
from functools import lru_cache

import pytest

from truncperm.core import Params, make_rng
from truncperm.exact import (
    VIA_R_GREATER,
    VIA_R_LESS,
    EnumerationLimitError,
    _partitions,
    brute_force_advantage,
    count_partitions,
    enumerate_profiles,
    exact_advantage,
    mc_advantage,
    mc_advantage_sharded,
    profile_score,
    transcript_count,
)
from truncperm.core import CountProfile


@lru_cache(maxsize=None)
def count_partitions_recursive(total, max_part, max_parts):
    """The memoised recursion `count_partitions` replaced, kept as reference."""
    if total == 0:
        return 1
    if max_parts <= 0 or max_part <= 0:
        return 0
    return sum(
        count_partitions_recursive(total - first, first, max_parts - 1)
        for first in range(min(total, max_part), 0, -1)
    )


class TestPartitions:
    def test_order_and_content(self):
        got = list(_partitions(4, 4, 4))
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_restricted(self):
        assert list(_partitions(4, 2, 2)) == [(2, 2)]
        assert list(_partitions(4, 2, 4)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counter_agrees(self):
        for total in range(0, 9):
            for max_part in range(1, 9):
                for max_parts in range(1, 9):
                    assert count_partitions(total, max_part, max_parts) == sum(
                        1 for _ in _partitions(total, max_part, max_parts)
                    )

    def test_closed_form_matches_recursion(self):
        for total in range(31):
            for max_part in range(31):
                for max_parts in range(31):
                    assert count_partitions(total, max_part, max_parts) == (
                        count_partitions_recursive(total, max_part, max_parts)
                    ), (total, max_part, max_parts)

    def test_unrestricted_partition_number(self):
        assert count_partitions(128, 128, 128) == 4351078600  # p(128)


class TestEnumerateProfiles:
    def test_weights_for_2_1_4(self):
        got = {pw.profile.parts: pw.transcript_count for pw in
               enumerate_profiles(Params(2, 1, 4))}
        assert got == {(4,): 2, (3, 1): 8, (2, 2): 6}

    def test_counts_sum_to_all_transcripts(self):
        for n, m, q in [(2, 1, 4), (3, 1, 5), (3, 2, 4), (4, 2, 6)]:
            p = Params(n, m, q)
            total = sum(pw.transcript_count for pw in enumerate_profiles(p))
            assert total == p.num_replies**q

    def test_probabilities_sum_to_one(self):
        p = Params(3, 1, 5)
        assert sum(pw.probability for pw in enumerate_profiles(p)) == 1

    def test_transcript_count_formula(self):
        # 2 reply values carrying counts (2, 1): 2 placements * 3 orderings
        assert transcript_count((2, 1), Params(2, 1, 3)) == 6
        assert transcript_count((1, 1, 1), Params(3, 1, 3)) == 4 * 3 * 2


class TestExactAdvantage:
    @pytest.mark.parametrize(
        "n,m,q,expected",
        [
            (2, 1, 2, Fraction(1, 6)),
            (2, 1, 3, Fraction(1, 4)),
            (2, 1, 4, Fraction(5, 8)),
        ],
    )
    def test_spot_values(self, n, m, q, expected):
        for identity in (VIA_R_GREATER, VIA_R_LESS):
            assert exact_advantage(Params(n, m, q), identity).value == expected

    def test_single_query_is_zero(self):
        assert exact_advantage(Params(4, 2, 1)).value == 0

    def test_matches_brute_force(self):
        for n, m, q in [(2, 0, 4), (2, 1, 3), (3, 1, 4), (3, 2, 5), (4, 3, 4)]:
            p = Params(n, m, q)
            assert exact_advantage(p).value == brute_force_advantage(p).value

    def test_birthday_reduction(self):
        # m = 0: the advantage is exactly the collision probability
        for n in (2, 3):
            dom = 1 << n
            for q in range(1, dom + 1):
                prod = Fraction(1)
                for i in range(1, q):
                    prod *= Fraction(dom - i, dom)
                assert exact_advantage(Params(n, 0, q)).value == 1 - prod

    def test_full_codebook_m0(self):
        # q = 2^n with no truncation: collision is certain minus the one
        # injective arrangement
        assert exact_advantage(Params(2, 0, 4)).value == Fraction(29, 32)

    def test_monotone_in_q(self):
        p_prev = Fraction(0)
        for q in range(1, 17):
            val = exact_advantage(Params(4, 2, q)).value
            assert val >= p_prev
            p_prev = val

    def test_greater_mode_skips_overfull_profiles(self):
        # m=0, q=200: the less-side enumeration is astronomically large but
        # the greater side has a single profile
        res = exact_advantage(Params(8, 0, 200))
        assert res.profiles_enumerated == 1
        with pytest.raises(EnumerationLimitError):
            exact_advantage(Params(8, 0, 200), VIA_R_LESS)

    def test_ceiling_refusal(self):
        with pytest.raises(EnumerationLimitError):
            exact_advantage(Params(8, 4, 256), VIA_R_LESS, profile_ceiling=10)

    def test_rejects_unknown_identity(self):
        with pytest.raises(ValueError):
            exact_advantage(Params(2, 1, 2), "via_typo")

    def test_full_domain_single_profile_is_immediate(self):
        # (8, 4, 256): one in-capacity profile, (16,) * 16
        res = exact_advantage(Params(8, 4, 256))
        assert res.profiles_enumerated == 1

    def test_integer_kernel_matches_fraction_reference(self, small_cell_ratios):
        for p, profiles in small_cell_ratios:
            greater = less = Fraction(0)
            for pw, ratio in profiles:
                if ratio > 1:
                    greater += pw.probability * (ratio - 1)
                elif ratio < 1:
                    less += pw.probability * (1 - ratio)
            assert exact_advantage(p, VIA_R_GREATER).value == greater, p
            assert exact_advantage(p, VIA_R_LESS).value == less, p


class TestBruteForce:
    def test_ceiling(self):
        with pytest.raises(EnumerationLimitError):
            brute_force_advantage(Params(8, 0, 4), transcript_ceiling=10**3)


class TestProfileScore:
    def test_values(self):
        p = Params(2, 1, 2)
        # one bucket with both replies: ln(1/2) + 1/2
        assert profile_score(CountProfile((2,)), p) == pytest.approx(
            math.log(0.5) + 0.5
        )
        assert profile_score(CountProfile((1, 1)), p) == 0.0

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            profile_score(CountProfile((3,)), Params(2, 1, 3))


class TestMonteCarlo:
    def test_within_4se_of_exact(self):
        p = Params(4, 2, 8)
        exact = float(exact_advantage(p).value)
        est = mc_advantage(p, 10**5, make_rng(7))
        assert abs(est.mean - exact) < 4 * est.std_err

    def test_both_identities_agree_statistically(self):
        p = Params(4, 1, 6)
        a = mc_advantage(p, 10**5, make_rng(1), identity=VIA_R_LESS)
        b = mc_advantage(p, 10**5, make_rng(2), identity=VIA_R_GREATER)
        assert abs(a.mean - b.mean) < 4 * (a.std_err + b.std_err)

    def test_single_trial_has_no_se(self):
        est = mc_advantage(Params(3, 1, 3), 1, make_rng(0))
        assert est.std_err is None and est.trials == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mc_advantage(Params(2, 1, 2), 0, make_rng(0))
        with pytest.raises(ValueError):
            mc_advantage(Params(2, 1, 2), 10, make_rng(0), identity="nope")

    def test_sharded_worker_invariance(self):
        p = Params(8, 4, 32)
        one = mc_advantage_sharded(p, 20_000, seed=5, workers=1)
        four = mc_advantage_sharded(p, 20_000, seed=5, workers=4)
        assert one == four

    def test_sharded_tracks_exact(self):
        p = Params(8, 4, 32)
        exact = float(exact_advantage(p).value)
        est = mc_advantage_sharded(p, 10**5, seed=11, workers=2)
        assert abs(est.mean - exact) < 4 * est.std_err
