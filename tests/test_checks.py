import pytest

from truncperm.checks import (
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
    run_lemma_suite,
)
from truncperm.core import make_rng


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
        assert check_fourth_moment().passed

    def test_tail_probability(self):
        assert check_tail_probability(make_rng(41)).passed


# (name, cases, worst slack) of the three checks that share the loop over
# ALPHAS, as each gave with its own loop: the lemma rows must not move
GRID_ROWS = {
    check_distinct_prob_upper: ("distinct_prob_upper", 14425, 0.0),
    check_distinct_prob_lower: ("distinct_prob_lower", 12843, 3.0316490059097606e-13),
    check_doubling: ("score_doubling", 12843, 3.410604770600687e-13),
}


@pytest.mark.parametrize("check", list(GRID_ROWS), ids=lambda f: f.__name__)
def test_alpha_grid_rows_are_pinned(check):
    res = check()
    assert (res.name, res.cases, res.worst_slack) == GRID_ROWS[check]
    assert res.passed and res.violations == ()


class TestLikelihoodExponentialBound:
    def test_fails_on_stated_grid(self):
        # the inequality is numerically false once q reaches the full domain:
        # the balanced profile at n = 4, q = 16 exceeds the bound for every m >= 1
        res = check_likelihood_exponential_bound()
        assert not res.passed
        assert res.worst_slack < 0

    def test_reports_witness_from_data(self):
        assert check_likelihood_exponential_bound().detail == (
            "worst witness (n, m, q) = (4, 1, 16), profile (2, 2, 2, 2, 2, 2, 2, 2): "
            "R = 3443.98 > bound 1808.04; "
            "violated at (n, m, q) = (4, 1, 16), (4, 2, 16), (4, 3, 16)"
        )

    def test_holds_up_to_half_the_domain(self):
        res = check_likelihood_exponential_bound(half_domain_only=True)
        assert res.passed and res.cases > 0
        assert res.violations == () and res.detail == ""


class TestSuite:
    def test_fixed_order_and_known_failure(self):
        results = run_lemma_suite(make_rng(0), trials=10**5)
        names = [r.name for r in results]
        assert names == [
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
        by_name = {r.name: r for r in results}
        # the full-domain exponential bound is the single known failure
        assert not by_name["likelihood_exponential_bound"].passed
        for name, r in by_name.items():
            if name != "likelihood_exponential_bound":
                assert r.passed, name
