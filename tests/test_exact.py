import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from collections import Counter
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncperm
from truncperm.core import (
    Params,
    all_distinct_prob,
    collision_excess_of_profile,
    likelihood_ratio,
    make_rng,
)
from truncperm.exact import (
    PROFILE_CEILING,
    TRANSCRIPT_CEILING,
    VIA_R_GREATER,
    VIA_R_LESS,
    EnumerationLimitError,
    _partitions,
    advantage_sum,
    brute_force_advantage,
    enumerate_profiles,
    exact_advantage,
    mc_advantage,
    mc_advantage_sharded,
    transcript_tallies,
)
from truncperm.game import COLLISION_THRESHOLD, Rule, rule_advantage_exact

from conftest import count_partitions


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


def transcript_count(parts, params):
    """Number of transcripts with this count profile, kept as reference:
    choices of which reply values carry the counts, times orderings of the
    query indices."""
    placements = perm(params.num_replies, len(parts))
    for c in Counter(parts).values():
        placements //= factorial(c)
    orderings = factorial(params.q)
    for d in parts:
        orderings //= factorial(d)
    return placements * orderings


def partitions_per_part(total, max_part, max_parts):
    """The one-frame-per-part walk `_partitions` replaced, kept as reference:
    each level places one part, counting the run of equal parts above it."""

    def walk(left, top, room, run, count):
        if left == 0:
            yield (), count
        elif left <= top * room:
            for d in range(min(left, top), -(-left // room) - 1, -1):
                c = run + 1 if d == top else 1
                w = count * comb(left, d) * room // c
                for rest, tail in walk(left - d, d, room - 1, c, w):
                    yield (d, *rest), tail

    return walk(total, max_part, max_parts, 0, 1)


def advantage_sum_unpruned(params, accept):
    """The leaf-by-leaf kernel the pruned walk replaced, kept as reference:
    every profile within capacity, `accept(parts, excess)`."""
    q = params.q
    cap = params.bucket_capacity
    falling = [1] * (q + 1)
    for d in range(1, q + 1):
        falling[d] = falling[d - 1] * (cap - d + 1)
    uniform = perm(params.domain_size, q)
    scale = params.num_replies**q
    total = 0
    for parts, _ in _partitions(q, min(q, cap), params.num_replies):
        excess = scale * math.prod(falling[d] for d in parts) - uniform
        if accept(parts, excess):
            total += transcript_count(parts, params) * excess
    return Fraction(total, scale * uniform)


@pytest.fixture
def closed_subtrees():
    """The (left, top, room) of each call `advantage_sum` makes to `closed`,
    the less side's memoised sum over a subtree in which every profile is
    taken."""
    calls = []

    def hook(frame, event, arg):
        if (event, frame.f_code.co_name, frame.f_globals.get("__name__")) == (
                "call", "closed", "truncperm.exact"):
            calls.append(tuple(frame.f_locals[k] for k in ("left", "top", "room")))

    previous = sys.getprofile()
    sys.setprofile(hook)
    yield calls
    sys.setprofile(previous)


class TestPartitions:
    def test_order_and_content(self):
        got = [parts for parts, _ in _partitions(4, 4, 4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_restricted(self):
        assert list(_partitions(4, 2, 2)) == [((2, 2), 6)]  # 4!/(2! 2!) orderings
        assert [parts for parts, _ in _partitions(4, 2, 4)] == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counter_agrees(self):
        for total in range(0, 9):
            for max_part in range(1, 9):
                for max_parts in range(1, 9):
                    assert count_partitions(total, max_part, max_parts) == sum(
                        1 for _ in _partitions(total, max_part, max_parts)
                    )

    def test_matches_the_per_part_walk(self):
        # same (parts, count) pairs in the same order
        for total in range(31):
            for max_part in range(1, 13):
                for max_parts in range(1, 13):
                    args = (total, max_part, max_parts)
                    assert list(_partitions(*args)) == list(partitions_per_part(*args)), args

    @pytest.mark.parametrize("args", [(512, 512, 2), (300, 300, 3)])
    def test_matches_the_per_part_walk_on_few_large_parts(self, args):
        got = list(_partitions(*args))
        assert got == list(partitions_per_part(*args))
        assert len(got) == count_partitions(*args)

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
        got = dict(enumerate_profiles(Params(2, 1, 4)))
        assert got == {(4,): 2, (3, 1): 8, (2, 2): 6}

    def test_counts_sum_to_all_transcripts(self):
        for n, m, q in [(2, 1, 4), (3, 1, 5), (3, 2, 4), (4, 2, 6)]:
            p = Params(n, m, q)
            total = sum(count for _, count in enumerate_profiles(p))
            assert total == p.num_replies**q

    def test_probabilities_sum_to_one(self):
        p = Params(3, 1, 5)
        assert sum(Fraction(count, p.num_replies**p.q)
                   for _, count in enumerate_profiles(p)) == 1

    def test_refused_when_called(self):
        # partitions of 64 into at most 16 parts: priced before any is listed
        with pytest.raises(EnumerationLimitError) as err:
            enumerate_profiles(Params(8, 4, 64))
        assert str(err.value) == (
            "at least 1031391 profiles exceed ceiling 1000000; use mc_advantage for an estimate"
        )

    @pytest.mark.parametrize("call", [
        "exact_advantage(p)",
        "rule_advantage_exact(p, optimal_rule())",
        "profile_power_means(p)",
    ])
    def test_refused_in_milliseconds_at_any_q(self, call):
        # the price stops at its first count over the ceiling, here the
        # partitions of 2**16 into at most 3 parts; the full count runs for
        # minutes, so a child with a deadline times the refusal alone
        script = (
            "import time\n"
            "from truncperm.core import Params\n"
            "from truncperm.exact import EnumerationLimitError, exact_advantage\n"
            "from truncperm.game import optimal_rule, rule_advantage_exact\n"
            "from truncperm.moments import profile_power_means\n"
            "p = Params(40, 20, 65536)\n"
            "start = time.perf_counter()\n"
            "try:\n"
            f"    {call}\n"
            "except EnumerationLimitError as exc:\n"
            "    print(time.perf_counter() - start, exc, sep='\\n')\n"
        )
        src = os.path.dirname(os.path.dirname(truncperm.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=30)
        seconds, reason = proc.stdout.splitlines()
        assert float(seconds) < 1.0
        assert count_partitions(65536, 65536, 3) == 357946710
        assert reason == (
            "at least 357946710 profiles exceed ceiling 1000000; use mc_advantage for an estimate"
        )

    def test_carried_counts_match_the_formula(self):
        # 257 profiles (512 - k, k) on 2 reply values
        p = Params(10, 9, 512)
        got = list(enumerate_profiles(p))
        assert [parts for parts, _ in got] == [(512 - k, k) if k else (512,) for k in range(257)]
        assert len(got) == 257
        assert all(count == transcript_count(parts, p) for parts, count in got)

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
        # about 1.47e12 less-side profiles
        with pytest.raises(EnumerationLimitError, match=f"exceed ceiling {PROFILE_CEILING};"):
            exact_advantage(Params(8, 4, 256), VIA_R_LESS)

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
            for _, count, ratio in profiles:
                prob = Fraction(count, p.num_replies**p.q)
                if ratio > 1:
                    greater += prob * (ratio - 1)
                elif ratio < 1:
                    less += prob * (1 - ratio)
            assert exact_advantage(p, VIA_R_GREATER).value == greater, p
            assert exact_advantage(p, VIA_R_LESS).value == less, p


class TestPrunedKernel:
    @pytest.mark.parametrize("n,m,q,walked", [
        (7, 3, 112, 160), (7, 3, 120, 22), (7, 3, 128, 1), (8, 4, 256, 1),
    ])
    def test_greater_side_matches_unpruned_walk(self, n, m, q, walked):
        # cells whose less side is refused; (8, 4, 256) once ran away.  Here
        # q > 2**m, so the walk starts from part sizes above the capacity.
        p = Params(n, m, q)
        res = exact_advantage(p, VIA_R_GREATER)
        assert res.value == advantage_sum_unpruned(p, lambda _, excess: excess > 0)
        assert res.profiles_walked == walked

    def test_identities_agree_where_pruning_skips_most_profiles(self):
        p = Params(12, 6, 48)
        greater = exact_advantage(p, VIA_R_GREATER)
        less = exact_advantage(p, VIA_R_LESS)
        assert greater.value == less.value
        assert greater.profiles_enumerated == less.profiles_enumerated == 147273
        assert less.profiles_walked == 147273
        assert greater.profiles_walked == 122  # the profiles with R > 1

    @pytest.mark.parametrize("n,m,q", [(9, 4, 48), (6, 2, 40)])
    def test_less_side_adds_taken_subtrees_in_one_step(self, closed_subtrees, n, m, q):
        p = Params(n, m, q)
        greater = exact_advantage(p, VIA_R_GREATER)
        assert closed_subtrees == []  # the pruned side visits its leaves
        less = exact_advantage(p, VIA_R_LESS)
        assert closed_subtrees
        assert less.value == greater.value
        assert less.profiles_walked == count_partitions(q, q, p.num_replies)

    def test_unpruned_sums_walk_every_profile_they_are_priced_at(self, small_cell_ratios):
        # the less side on the 927 cells with n <= 7 priced at most 10**4
        # profiles; (12, 6, 48) above checks a larger one
        cells = [Params(n, m, q) for n in range(1, 8) for m in range(n)
                 for q in range(1, (1 << n) + 1)]
        checked = 0
        for p in cells:
            priced = count_partitions(p.q, p.q, p.num_replies)
            if priced > 10**4:
                continue
            checked += 1
            assert advantage_sum(p, VIA_R_LESS)[1:] == (priced, priced), p
        assert checked == 927
        # the collision rule at five pair bounds walks only the profiles with
        # at most that many pairs, and is priced at all of them; no profile
        # has fewer than 0 pairs or more than C(q, 2), and the sum over none
        # or all of them is 0
        for p, profiles in small_cell_ratios:
            pairs = [sum(comb(d, 2) for d in parts) for parts, *_ in profiles]
            mean = comb(p.q, 2) // p.num_replies
            for most in (-1, mean - 1, mean, mean + 2, comb(p.q, 2)):
                value, priced, walked = advantage_sum(p, None, most)
                assert (priced, walked) == (
                    len(profiles), sum(1 for x in pairs if x <= most)), (p, most)
                assert value == 0 or 0 <= most < comb(p.q, 2), (p, most)

    @pytest.mark.parametrize("q", [1100, 4096])
    def test_birthday_case_for_large_q(self, q):
        # one profile, (1,) * q: the walk must not recurse once per part
        res = exact_advantage(Params(12, 0, q), VIA_R_GREATER)
        assert res.value == 1 - all_distinct_prob(q, 2**12)

    def test_walk_reaches_exactly_the_accepted_profiles(self, small_cell_ratios):
        for p, profiles in small_cell_ratios:
            greater = exact_advantage(p, VIA_R_GREATER)
            less = exact_advantage(p, VIA_R_LESS)
            assert greater.profiles_walked == sum(1 for *_, r in profiles if r > 1), p
            assert less.profiles_walked == less.profiles_enumerated == len(profiles), p


@st.composite
def small_cells(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, n - 1))
    return Params(n, m, draw(st.integers(1, min(1 << n, 12))))


class TestIntegerBounds:
    """`advantage_sum` decides acceptance on integer bounds; each rule is
    checked against a Fraction sum over `enumerate_profiles`."""

    @staticmethod
    def reference(p, accepts):
        # sum of probability * (R - 1) over the profiles accepts(profile, R) takes
        total = Fraction(0)
        for parts, count in enumerate_profiles(p):
            ratio = likelihood_ratio(parts, p)
            if accepts(parts, ratio):
                total += Fraction(count, p.num_replies**p.q) * (ratio - 1)
        return total

    @given(small_cells(), st.integers(-2, 70))
    @settings(max_examples=200, deadline=None)
    def test_sides_and_pair_bounds(self, p, max_pairs):
        def pairs(parts):
            return sum(comb(d, 2) for d in parts)

        sides = {VIA_R_GREATER: lambda r: r > 1, VIA_R_LESS: lambda r: r < 1,
                 None: lambda r: True}
        for side, on_side in sides.items():
            assert advantage_sum(p, side)[0] == self.reference(
                p, lambda prof, r: on_side(r)), (p, side)
            assert advantage_sum(p, side, max_pairs)[0] == self.reference(
                p, lambda prof, r: on_side(r) and pairs(prof) <= max_pairs
            ), (p, side, max_pairs)

    @staticmethod
    def ties(p):
        """Every threshold t at which some profile has pairs - C(q,2)/b == t
        exactly (a float, as the mean is dyadic)."""
        return sorted({float(collision_excess_of_profile(parts, p))
                       for parts, _ in enumerate_profiles(p)})

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_collision_rule(self, data):
        p = data.draw(small_cells())
        t = data.draw(st.one_of(
            st.sampled_from(self.ties(p)),
            st.floats(-100.0, 0.0),
            st.floats(allow_nan=False),
            st.sampled_from([math.inf, -math.inf]),
        ))
        want = abs(self.reference(
            p, lambda prof, r: collision_excess_of_profile(prof, p) > t))
        assert rule_advantage_exact(p, Rule(COLLISION_THRESHOLD, t)) == want

    @pytest.mark.parametrize("n,m,q", [(3, 1, 8), (5, 0, 9), (5, 2, 12), (6, 2, 10)])
    def test_ties_are_rejected(self, n, m, q):
        # a profile exactly at the threshold is not taken: the threshold at
        # each tie gives the sum over the profiles strictly above it
        p = Params(n, m, q)
        for t in [*self.ties(p), -math.inf, math.inf, -0.5, -1e300]:
            above = self.reference(
                p, lambda prof, r: collision_excess_of_profile(prof, p) > t)
            assert rule_advantage_exact(p, Rule(COLLISION_THRESHOLD, t)) == abs(above), t

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_collision_walk_sums_the_rejected_side(self, closed_subtrees, t):
        # the accepted sum is minus the rejected one, which the walk reaches
        # profile by profile, without a one-step subtree sum
        p = Params(8, 4, 24)
        got = rule_advantage_exact(p, Rule(COLLISION_THRESHOLD, t))
        assert closed_subtrees == []
        assert got == abs(self.reference(
            p, lambda prof, r: collision_excess_of_profile(prof, p) > t))

    def test_rejects_unknown_side(self, monkeypatch):
        calls = []
        monkeypatch.setattr("truncperm.exact._price", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="unknown side"):
            advantage_sum(Params(2, 1, 2), "via_typo")
        assert calls == []

    @pytest.mark.parametrize("side,priced", [
        (VIA_R_GREATER, 186), (VIA_R_LESS, 161410965), (None, 161410965),
    ])
    def test_each_walk_prices_itself(self, side, priced):
        # (7, 3, 112): parts of at most 2**3 on the greater side, of any size
        # on the others; only the greater side is within the ceiling.  The
        # others are refused at the first count over it, the 1090592
        # partitions into at most 7 parts
        p = Params(7, 3, 112)
        assert count_partitions(112, 8 if side == VIA_R_GREATER else 112, 16) == priced
        if priced > PROFILE_CEILING:
            assert count_partitions(112, 112, 6) <= PROFILE_CEILING
            assert count_partitions(112, 112, 7) == 1090592
            with pytest.raises(EnumerationLimitError) as err:
                advantage_sum(p, side)
            assert str(err.value) == (
                "at least 1090592 profiles exceed ceiling 1000000; use mc_advantage for an estimate"
            )
        else:
            assert advantage_sum(p, side)[1:] == (186, 160)


class TestBruteForce:
    def test_tallies_match_transcript_counts(self):
        # every (q, b) with b**q <= 10**4: listing the transcripts and the
        # closed-form counts give the same weight to every profile
        cells = [(q, 1 << k) for k in range(1, 14) for q in range(1, 14)
                 if (1 << k) ** q <= 10**4]
        assert len(cells) == 37
        for q, b in cells:
            p = Params(b.bit_length() + 3, 4, q)
            tallies = transcript_tallies(q, b)
            assert sum(tallies.values()) == b**q
            assert dict(enumerate_profiles(p)) == tallies, (q, b)

    def test_ceiling(self):
        # 256**4, about 4.3e9 transcripts
        with pytest.raises(EnumerationLimitError, match=f"exceed ceiling {TRANSCRIPT_CEILING}$"):
            brute_force_advantage(Params(8, 0, 4))


class TestMonteCarlo:
    def test_within_4se_of_exact(self):
        p = Params(4, 2, 8)
        exact = float(exact_advantage(p).value)
        est = mc_advantage(p, 10**5, make_rng(7))
        assert abs(est.mean - exact) < 4 * est.std_err

    def test_single_trial_has_no_se(self):
        est = mc_advantage(Params(3, 1, 3), 1, make_rng(0))
        assert est.std_err is None and est.trials == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mc_advantage(Params(2, 1, 2), 0, make_rng(0))

    def test_sharded_worker_invariance(self, monkeypatch):
        p = Params(8, 4, 32)
        monkeypatch.setattr(truncperm.core, "default_workers", lambda: 1)
        one = mc_advantage_sharded(p, 20_000, seed=5)
        monkeypatch.setattr(truncperm.core, "default_workers", lambda: 4)
        four = mc_advantage_sharded(p, 20_000, seed=5)
        assert one == four

    def test_sharded_tracks_exact(self):
        p = Params(8, 4, 32)
        exact = float(exact_advantage(p).value)
        est = mc_advantage_sharded(p, 10**5, seed=11)
        assert abs(est.mean - exact) < 4 * est.std_err
