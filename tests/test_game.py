import math
from fractions import Fraction

import numpy as np
import pytest

import truncperm.core
from truncperm.core import (
    Params,
    collision_excess_of_profile,
    log_all_distinct,
    log_all_distinct_table,
    log_likelihood_ratios,
)
from truncperm.exact import PROFILE_CEILING, EnumerationLimitError, exact_advantage
from truncperm.game import (
    COLLISION_THRESHOLD,
    LIKELIHOOD_GREATER,
    Rule,
    _accept_counts,
    _result_from_accepts,
    collision_rule_threshold,
    optimal_rule,
    play_game_sharded,
    rule_advantage_exact,
)


class TestRuleConstruction:
    def test_optimal_directions(self):
        assert optimal_rule().kind == LIKELIHOOD_GREATER
        assert optimal_rule("less").kind == "likelihood_less_than_one"
        with pytest.raises(ValueError):
            optimal_rule("sideways")

    def test_collision_rule_needs_threshold(self):
        with pytest.raises(ValueError):
            Rule(COLLISION_THRESHOLD)
        with pytest.raises(ValueError):
            Rule(LIKELIHOOD_GREATER, threshold=0.5)
        with pytest.raises(ValueError):
            Rule("guess_randomly")

    def test_threshold_values(self):
        assert collision_rule_threshold(Params(2, 1, 2)) == pytest.approx(0.1)
        assert collision_rule_threshold(Params(10, 9, 512)) == pytest.approx(
            math.sqrt(512 * 511) / (10 * math.sqrt(2))
        )
        with pytest.raises(ValueError):
            collision_rule_threshold(Params(4, 2, 1))


def accepts_row(rule, row, params):
    """`_accept_counts` on a one-row count matrix, as a bool."""
    return bool(_accept_counts(rule, np.array([row], dtype=np.int64), params))


class TestAcceptCounts:
    def test_likelihood_directions(self):
        p = Params(2, 1, 2)
        assert accepts_row(optimal_rule(), [1, 1], p)
        assert not accepts_row(optimal_rule(), [2, 0], p)
        assert accepts_row(optimal_rule("less"), [0, 2], p)

    def test_tie_at_one_rejected_both_ways(self):
        # single query: R = 1 for the only profile, and its log is exactly 0.0
        p = Params(2, 1, 1)
        assert log_likelihood_ratios(np.array([[1, 0]]), p).tolist() == [0.0]
        assert not accepts_row(optimal_rule(), [1, 0], p)
        assert not accepts_row(optimal_rule("less"), [1, 0], p)

    def test_collision_rule(self):
        p = Params(2, 1, 2)
        rule = Rule(COLLISION_THRESHOLD, 0.1)
        assert accepts_row(rule, [2, 0], p)  # excess 1/2
        assert not accepts_row(rule, [1, 1], p)  # excess -1/2


class TestRuleAdvantageExact:
    def test_optimal_equals_exact_advantage(self):
        for n, m, q in [(2, 1, 2), (3, 1, 4), (4, 2, 8), (8, 4, 32)]:
            p = Params(n, m, q)
            adv = exact_advantage(p).value
            assert rule_advantage_exact(p, optimal_rule()) == adv
            assert rule_advantage_exact(p, optimal_rule("less")) == adv

    def test_collision_rule_small(self):
        p = Params(2, 1, 2)
        rule = Rule(COLLISION_THRESHOLD, collision_rule_threshold(p))
        assert rule_advantage_exact(p, rule) == Fraction(1, 6)

    def test_collision_rule_suboptimal_but_positive(self):
        p = Params(8, 4, 32)
        rule = Rule(COLLISION_THRESHOLD, collision_rule_threshold(p))
        adv = rule_advantage_exact(p, rule)
        assert 0 < adv <= exact_advantage(p).value

    def test_reject_everything_rule(self):
        p = Params(4, 2, 8)
        assert rule_advantage_exact(p, Rule(COLLISION_THRESHOLD, math.inf)) == 0
        # so does taking every profile, which rejects none.  On 2 reply values
        # (11, 10, 1500) has profiles of part sizes 750 to 1500, which must
        # not take a stack frame each
        p = Params(11, 10, 1500)
        assert rule_advantage_exact(p, Rule(COLLISION_THRESHOLD, -math.inf)) == 0
        assert rule_advantage_exact(p, Rule(COLLISION_THRESHOLD, math.inf)) == 0

    def test_ceiling(self):
        # the full count is over the ceiling, though the greater side's is not:
        # the collision rule, which walks every profile, is refused, and the
        # likelihood rules answer from the greater side
        p = Params(8, 4, 200)
        with pytest.raises(EnumerationLimitError, match=f"exceed ceiling {PROFILE_CEILING};"):
            rule_advantage_exact(p, Rule(COLLISION_THRESHOLD, collision_rule_threshold(p)))
        assert rule_advantage_exact(p, optimal_rule()) == exact_advantage(p).value

    def test_huge_cell_refused_immediately(self):
        # the profile count is p(4096) restricted to 256 parts, about 5e66
        with pytest.raises(EnumerationLimitError):
            rule_advantage_exact(Params(16, 8, 4096), optimal_rule())

    def test_integer_kernel_matches_fraction_reference(self, small_cell_ratios):
        for p, profiles in small_cell_ratios:
            rules = {optimal_rule(): lambda r, x: r > 1,
                     optimal_rule("less"): lambda r, x: r < 1}
            if p.q >= 2:
                cut = collision_rule_threshold(p)
                rules[Rule(COLLISION_THRESHOLD, cut)] = lambda r, x, cut=cut: x > cut
            terms = [(Fraction(count, p.num_replies**p.q) * (r - 1), r,
                      collision_excess_of_profile(parts, p))
                     for parts, count, r in profiles]
            for rule, accepts in rules.items():
                expected = abs(sum((w for w, r, x in terms if accepts(r, x)), Fraction(0)))
                assert rule_advantage_exact(p, rule) == expected, (p, rule)


class TestFloatClassifier:
    def test_sign_matches_integer_excess(self, small_cell_ratios):
        # the log-space value `_accept_counts` thresholds at 0 has, at every
        # profile, the sign of b**q * prod (2**m)_d - (2**n)_q
        for p, profiles in small_cell_ratios:
            cap, q = p.bucket_capacity, p.q
            counts = np.zeros((len(profiles), p.num_replies), dtype=np.int64)
            signs = []
            for row, (parts, _, _) in zip(counts, profiles):
                row[: len(parts)] = parts
                num = p.num_replies**q * math.prod(math.perm(cap, d) for d in parts)
                excess = num - math.perm(p.domain_size, q)
                signs.append((excess > 0) - (excess < 0))
            table = log_all_distinct_table(q, cap)
            log_denom = log_all_distinct(q, p.domain_size)
            log_ratio = table[counts].sum(axis=1) - log_denom
            assert np.sign(log_ratio).tolist() == signs, p
            assert _accept_counts(optimal_rule(), counts, p) == signs.count(1), p
            assert _accept_counts(optimal_rule("less"), counts, p) == signs.count(-1), p


class TestPlayGame:
    def test_converges_to_exact(self):
        p = Params(8, 4, 32)
        exact = float(exact_advantage(p).value)
        res = play_game_sharded(p, optimal_rule(), 10**5, 29)
        assert res.standard_error > 0
        assert abs(res.empirical_advantage - exact) < 4 * res.standard_error

    def test_collision_rule_converges(self):
        p = Params(8, 4, 32)
        rule = Rule(COLLISION_THRESHOLD, collision_rule_threshold(p))
        exact = float(rule_advantage_exact(p, rule))
        res = play_game_sharded(p, rule, 10**5, 31)
        assert abs(res.empirical_advantage - exact) < 4 * res.standard_error

    def test_accept_rates_order(self):
        # the permutation arm accepts likelihood-greater transcripts more often
        p = Params(8, 4, 32)
        res = play_game_sharded(p, optimal_rule(), 2 * 10**4, 7)
        assert res.accept_rate_permutation > res.accept_rate_function

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            play_game_sharded(Params(2, 1, 2), optimal_rule(), 0, 0)

    @pytest.mark.parametrize("accepts", [(0, 300), (300, 0), (0, 0), (300, 300)])
    def test_rate_of_zero_or_one_keeps_a_standard_error(self, accepts):
        # each arm's variance is at least that of one accept: (1/t)(1 - 1/t)
        res = _result_from_accepts(*accepts, 300)
        assert res.standard_error > 0
        assert res.standard_error == pytest.approx(math.sqrt(2 * (1 / 300) * (299 / 300) / 300))

    def test_interior_rates_keep_the_plug_in_standard_error(self):
        for acc_fun, acc_perm, t in ((1, 299, 300), (17, 4000, 20000), (1, 1, 2)):
            r, s = acc_fun / t, acc_perm / t
            want = math.sqrt(r * (1.0 - r) / t + s * (1.0 - s) / t)
            assert _result_from_accepts(acc_fun, acc_perm, t).standard_error == want


class TestPlayGameSharded:
    def test_worker_invariance(self, monkeypatch):
        p = Params(8, 4, 32)
        monkeypatch.setattr(truncperm.core, "default_workers", lambda: 1)
        one = play_game_sharded(p, optimal_rule(), 20_000, seed=3)
        monkeypatch.setattr(truncperm.core, "default_workers", lambda: 4)
        four = play_game_sharded(p, optimal_rule(), 20_000, seed=3)
        assert one == four

    def test_seed_changes_result(self):
        p = Params(8, 4, 32)
        a = play_game_sharded(p, optimal_rule(), 20_000, seed=3)
        b = play_game_sharded(p, optimal_rule(), 20_000, seed=4)
        assert a != b
