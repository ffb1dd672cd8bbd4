import math
from fractions import Fraction

import pytest

from truncperm.checks import (
    FOURTH_MOMENT_CELLS,
    TAIL_CELL,
    check_distinct_prob_lower,
    check_distinct_prob_upper,
    check_doubling,
    check_fourth_moment,
    check_likelihood_exponential_bound,
    check_log1m_lower,
    check_profile_score_maximizer,
    check_tail_probability,
    check_witness_poly,
    check_witness_poly_expectation,
    profile_score,
    run_lemma_suite,
    tail_witness_poly,
)
from truncperm.core import Params, make_rng


class TestIndividualChecks:
    def test_distinct_prob_upper(self):
        res = check_distinct_prob_upper()
        assert res.passed and res.cases > 10_000

    def test_log1m_lower(self):
        assert check_log1m_lower().passed

    def test_distinct_prob_lower(self):
        assert check_distinct_prob_lower().passed

    def test_doubling(self):
        assert check_doubling().passed

    def test_profile_score_maximizer(self):
        res = check_profile_score_maximizer()
        assert res.passed and res.cases > 50

    def test_witness_poly(self):
        assert check_witness_poly().passed

    def test_witness_poly_expectation(self):
        res = check_witness_poly_expectation()
        assert res.passed and res.worst_slack > 0

    def test_fourth_moment(self):
        res = check_fourth_moment()
        assert res.passed and res.worst_slack > 0

    @pytest.mark.parametrize("seed", [41, 19])
    def test_tail_probability(self, seed):
        assert check_tail_probability(make_rng(seed)).passed


def in_tail_regime(p):
    """q > 2**((n-m)/2 + 8), compared exactly via squares."""
    return p.q * p.q > p.num_replies << 16


def test_fixed_cells_are_in_the_large_q_regime():
    for p in (*FOURTH_MOMENT_CELLS, TAIL_CELL):
        assert in_tail_regime(p), p
    assert not in_tail_regime(Params(10, 9, 362))  # q**2 just below B*2**16


class TestWitnessPoly:
    def test_roots(self):
        for root in (Fraction(1, 10), Fraction(5), Fraction(-5, 2)):
            assert tail_witness_poly(root) == 0

    def test_factored_form_agrees(self):
        for x in [Fraction(k, 7) for k in range(-30, 40)]:
            factored = -((x + Fraction(5, 2)) ** 2) * (x - Fraction(1, 10)) * (x - 5)
            assert tail_witness_poly(x) == factored

    def test_sign_pattern(self):
        assert tail_witness_poly(Fraction(1, 2)) > 0
        assert tail_witness_poly(Fraction(0)) < 0
        assert tail_witness_poly(Fraction(6)) < 0

    def test_maximum_below_200(self):
        crit = (103 + math.sqrt(29409)) / 80
        assert float(tail_witness_poly(crit)) < 200
        xs = [(-10 + k * 1e-2) for k in range(2001)]
        assert max(float(tail_witness_poly(x)) for x in xs) < 200

    def test_accepts_floats(self):
        assert tail_witness_poly(0.1) == pytest.approx(0.0, abs=1e-12)


class TestProfileScore:
    def test_values(self):
        p = Params(2, 1, 2)
        # one bucket with both replies: ln(1/2) + 1/2
        assert profile_score((2,), p) == pytest.approx(
            math.log(0.5) + 0.5
        )
        assert profile_score((1, 1), p) == 0.0

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            profile_score((3,), Params(2, 1, 3))


# (cases, worst slack) of every lemma row, in suite order, as
# `run_lemma_suite(make_rng(0))` gives them; none may move.  The three checks
# that share the loop over ALPHAS give what each gave with its own loop.  The
# full-domain exponential bound is the one red row (criterion 8)
LEMMA_ROWS = {
    "distinct_prob_upper": (14425, 0.0),
    "log1m_lower": (501, 0.0),
    "distinct_prob_lower": (12843, 3.0316490059097606e-13),
    "score_doubling": (12843, 3.410604770600687e-13),
    "profile_score_maximizer": (71, 0.0),
    "likelihood_exponential_bound": (655, -1635.9339588504265),
    "likelihood_exponential_bound_half_domain": (113, 2.9400777392844726e-11),
    "witness_poly": (20004, 0.0),
    "witness_poly_expectation": (2, 0.16610627185227056),
    "fourth_moment_bound": (2, 17163439960.0),
    "collision_tail_probability": (1, 0.2608610765510661),
}
RED_ROW = "likelihood_exponential_bound"


@pytest.fixture(scope="module")
def lemma_rows():
    return {r.name: r for r in run_lemma_suite(make_rng(0))}


@pytest.mark.parametrize("name", list(LEMMA_ROWS))
def test_lemma_rows_are_pinned(lemma_rows, name):
    res = lemma_rows[name]
    assert (res.cases, res.worst_slack) == LEMMA_ROWS[name]
    assert res.passed is (name != RED_ROW)
    assert bool(res.violations) is (name == RED_ROW)


class TestLikelihoodExponentialBound:
    def test_fails_on_stated_grid(self):
        # the inequality is numerically false once q reaches the full domain:
        # the balanced profile at n = 4, q = 16 exceeds the bound for every m >= 1
        res = check_likelihood_exponential_bound()[0]
        assert not res.passed
        assert res.worst_slack < 0

    def test_reports_witness_from_data(self):
        assert check_likelihood_exponential_bound()[0].detail == (
            "worst witness (n, m, q) = (4, 1, 16), profile (2, 2, 2, 2, 2, 2, 2, 2): "
            "R = 3443.98 > bound 1808.04; "
            "violated at (n, m, q) = (4, 1, 16), (4, 2, 16), (4, 3, 16)"
        )

    def test_holds_up_to_half_the_domain(self):
        res = check_likelihood_exponential_bound()[1]
        assert res.passed and res.cases > 0
        assert res.violations == () and res.detail == ""


class TestSuite:
    def test_fixed_order_and_known_failure(self, lemma_rows):
        assert list(lemma_rows) == [
            "distinct_prob_upper",
            "log1m_lower",
            "distinct_prob_lower",
            "score_doubling",
            "profile_score_maximizer",
            "likelihood_exponential_bound",
            "likelihood_exponential_bound_half_domain",
            "witness_poly",
            "witness_poly_expectation",
            "fourth_moment_bound",
            "collision_tail_probability",
        ]
        # the full-domain exponential bound is the single known failure
        assert [name for name, r in lemma_rows.items() if not r.passed] == [RED_ROW]
