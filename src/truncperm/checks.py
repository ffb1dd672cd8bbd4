"""Numerical verification of the inequality toolbox.

Each check evaluates one analytic inequality on a dense parameter grid and
reports the worst slack observed.  These are the machine-checkable stand-ins
for the pencil-and-paper proofs: a failing check means a transcription error
somewhere, not a new theorem.  Every check passes on one rule, a worst slack
of at least -1e-9 (`_result`), and the helpers that only the checks read live
here with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    Params,
    collision_excess_of_profile,
    likelihood_ratio,
    log_all_distinct,
    log_all_distinct_table,
)
from .exact import enumerate_profiles
from .game import collision_rule_threshold
from .moments import pair_collision_moments, sample_excess

# tolerance for float comparisons of quantities that can meet with equality
# (e.g. both sides 0 at k = 1)
_EPS = 1e-9

# the grid of the three distinct-probability checks: k = 1 .. K_MAX per alpha
ALPHAS = tuple(2**j for j in range(1, 21)) + (3, 5, 7, 100, 1000, 999983)
K_MAX = 1024

# the cells of the fourth-moment bound and of the Monte Carlo tail bound, all
# in the large-q regime q > 2**((n-m)/2 + 8) that both lemmas assume, and the
# tail bound's sample size, enough to resolve its 1/400
FOURTH_MOMENT_CELLS = (Params(10, 9, 1024), Params(13, 11, 2048))
TAIL_CELL = Params(10, 9, 512)
TAIL_TRIALS = 10**5


@dataclass(frozen=True)
class Witness:
    """A count profile at which a likelihood-ratio bound is checked: the grid
    cell, the profile, and both sides of ``ratio <= bound``."""

    n: int
    m: int
    q: int
    parts: tuple[int, ...]
    ratio: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.ratio

    def __str__(self) -> str:
        relation = "<=" if self.slack >= 0 else ">"
        return (f"(n, m, q) = ({self.n}, {self.m}, {self.q}), profile {self.parts}: "
                f"R = {self.ratio:.2f} {relation} bound {self.bound:.2f}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    worst_slack: float
    violations: tuple[Witness, ...] = ()  # the worst failing case of each cell

    @property
    def worst_witness(self) -> Witness | None:
        return min(self.violations, key=lambda w: w.slack, default=None)

    @property
    def detail(self) -> str:
        """The worst witness and every violated cell; empty if none was recorded."""
        worst = self.worst_witness
        if worst is None:
            return ""
        cells = ", ".join(f"({w.n}, {w.m}, {w.q})" for w in self.violations)
        return f"worst witness {worst}; violated at (n, m, q) = {cells}"


def _result(name, slacks, cases, violations=()) -> CheckResult:
    worst = float(min(slacks)) if slacks else float("inf")
    return CheckResult(name, worst >= -_EPS, cases, worst, tuple(violations))


def _alpha_grid(name, divisor, slack_of) -> CheckResult:
    """One distinct-probability check over ALPHAS: for each alpha, k = 1 ..
    top with top = min(K_MAX, alpha // divisor) (at least 1: the smallest
    alpha is 2 and no divisor is over 2), and
    slack_of(alpha, k, table) the slack array, where k is a float array and
    table = log_all_distinct_table(top, alpha)."""
    slacks = []
    cases = 0
    for alpha in ALPHAS:
        top = min(K_MAX, alpha // divisor)
        k = np.arange(1, top + 1, dtype=np.float64)
        slacks.append(np.min(slack_of(alpha, k, log_all_distinct_table(top, alpha))))
        cases += top
    return _result(name, slacks, cases)


def check_distinct_prob_upper() -> CheckResult:
    """ln of the all-distinct probability is at most -k(k-1)/(2 alpha)."""

    def slack(alpha, k, table):
        return -k * (k - 1.0) / (2.0 * alpha) - table[1:]

    return _alpha_grid("distinct_prob_upper", 1, slack)


def check_log1m_lower() -> CheckResult:
    """ln(1-x) >= -x - x**2 on [0, 1/2], in steps of 1/1000."""
    step = 1e-3
    x = np.arange(0.0, 0.5 + step / 2, step)
    slack = np.log1p(-x) - (-x - x**2)
    return _result("log1m_lower", [np.min(slack)], x.size)


def check_distinct_prob_lower() -> CheckResult:
    """For k <= alpha/2: ln all-distinct >= -k(k-1)/(2 alpha) - k**3/(3 alpha**2)."""

    def slack(alpha, k, table):
        return table[1:] - (-k * (k - 1.0) / (2.0 * alpha) - k**3 / (3.0 * alpha**2))

    return _alpha_grid("distinct_prob_lower", 2, slack)


def check_doubling() -> CheckResult:
    """Doubling inequality: the score ln W + pairs/alpha at (2k, 2 alpha) is
    at least twice the score at (k, alpha) minus (k/alpha)**2 / 2."""

    def slack(alpha, k, small):
        top = k.size
        big = log_all_distinct_table(2 * top, 2 * alpha)
        lhs = big[2 : 2 * top + 1 : 2] + (2 * k) * (2 * k - 1) / 2.0 / (2.0 * alpha)
        rhs = 2.0 * (small[1:] + k * (k - 1) / 2.0 / alpha) - 0.5 * (k / alpha) ** 2
        return lhs - rhs

    return _alpha_grid("score_doubling", 2, slack)


def profile_score(parts: tuple[int, ...], params: Params) -> float:
    """Sum over the counts `parts` of occupied buckets of ln(all-distinct prob
    of the count) plus pairs/capacity; the exchange quantity maximized by
    balanced profiles."""
    cap = params.bucket_capacity
    if max(parts) > cap:
        raise ValueError("profile has a count above the bucket capacity 2**m")
    return math.fsum(log_all_distinct(d, cap) + math.comb(d, 2) / cap for d in parts)


def _balanced_partition(q: int, buckets: int) -> tuple[int, ...]:
    lo, extra = divmod(q, buckets)
    return (lo + 1,) * extra + (lo,) * (buckets - extra)


def check_profile_score_maximizer() -> CheckResult:
    """Exhaustive search over feasible profiles with q <= 8 at four (n, m):
    the score is maximized by the most-balanced profile, and the maximum is 0
    when q < #buckets."""
    slacks = []
    cases = 0
    for n, m in ((2, 1), (3, 2), (3, 1), (4, 2)):
        b = 1 << (n - m)
        cap = 1 << m
        for q in range(1, min(8, b * cap) + 1):
            params = Params(n, m, q)
            best = profile_score(_balanced_partition(q, b), params)
            for parts, _ in enumerate_profiles(params):
                if max(parts) > cap:
                    continue
                cases += 1
                slacks.append(best - profile_score(parts, params))
            if q < b:
                slacks.append(-abs(best))  # maximum must be exactly 0
    return _result("profile_score_maximizer", slacks, cases)


def check_likelihood_exponential_bound(half_domain_only: bool = False) -> CheckResult:
    """For n <= 4 and power-of-two q: the likelihood ratio never exceeds
    exp(q**2 / 2**(n+m+1) - excess / 2**m).

    The ratio and the collision excess are both functions of the count
    profile, so checking every profile covers every transcript.

    This inequality is FALSE as stated once q reaches the full domain size:
    at n = 4, q = 16 the perfectly balanced profile violates it for every
    m >= 1 (worst case m = 1, ratio 3443.98 vs bound 1808.04).  m = 0 holds
    there (ratio 16**16/16! ~ 881,658 vs bound e**15.5 ~ 5.39e6), and the same
    pattern holds at n = 5, 6 with q = 2**n.  The doubling step the bound rests
    on needs q <= 2**(n-1).  Pass ``half_domain_only=True`` to restrict to that
    provable regime, where the check passes.

    Each violated cell is reported as its worst profile in ``violations``.
    """
    slacks = []
    cases = 0
    violations = []
    for n in range(1, 5):
        for m in range(n):
            for q in (2, 4, 8, 16):
                if q > (1 << n):
                    continue
                if half_domain_only and q > (1 << (n - 1)):
                    continue
                params = Params(n, m, q)
                cap = params.bucket_capacity
                cell = []
                for parts, _ in enumerate_profiles(params):
                    r = likelihood_ratio(parts, params)
                    x = collision_excess_of_profile(parts, params)
                    bound = math.exp(
                        q * q / 2 ** (n + m + 1) - float(x) / cap
                    )
                    cell.append(Witness(n, m, q, parts, float(r), bound))
                cases += len(cell)
                slacks.extend(w.slack for w in cell)
                worst = min(cell, key=lambda w: w.slack)
                if worst.slack < -_EPS:
                    violations.append(worst)
    name = "likelihood_exponential_bound"
    if half_domain_only:
        name += "_half_domain"
    return _result(name, slacks, cases, violations)


def tail_witness_poly(x):
    """The quartic -(x + 5/2)**2 (x - 1/10)(x - 5), evaluated in expanded
    form; positive only strictly inside (1/10, 5), bounded above by 200."""
    return (
        -(x**4)
        + Fraction(1, 10) * x**3
        + Fraction(75, 4) * x**2
        + Fraction(235, 8) * x
        - Fraction(25, 8)
    )


def check_witness_poly() -> CheckResult:
    """The witness quartic stays below 200 on a dense grid and at its interior
    critical point, and vanishes at its printed roots."""
    xs = np.arange(-10.0, 10.0, 1e-3)
    vals = -(xs**4) + xs**3 / 10 + 75 * xs**2 / 4 + 235 * xs / 8 - 25.0 / 8
    slacks = [200.0 - float(np.max(vals))]
    crit = (103.0 + math.sqrt(29409.0)) / 80.0
    slacks.append(200.0 - float(tail_witness_poly(crit)))
    for root in (Fraction(1, 10), Fraction(5), Fraction(-5, 2)):
        slacks.append(-abs(float(tail_witness_poly(root))))
    return _result("witness_poly", slacks, xs.size + 4)


def check_witness_poly_expectation() -> CheckResult:
    """E of the witness quartic applied to the normalized collision excess
    exceeds 1/2, evaluated from the closed-form moments at (10, 9, 512) and
    (12, 10, 2048)."""
    slacks = []
    for n, m, q in ((10, 9, 512), (12, 10, 2048)):
        b = 1 << (n - m)
        m1, m2, m3, m4 = pair_collision_moments(q, b)
        s2 = b / (q * (q - 1.0))  # square of the normalization scale
        s = math.sqrt(s2)
        expectation = (
            -(s2**2) * float(m4)
            + (s2 * s) * float(m3) / 10.0
            + 75.0 / 4.0 * s2 * float(m2)
            + 235.0 / 8.0 * s * float(m1)
            - 25.0 / 8.0
        )
        slacks.append(expectation - 0.5)
    return _result("witness_poly_expectation", slacks, len(slacks))


def check_fourth_moment() -> CheckResult:
    """The closed-form fourth moment stays below q**2 (q-1)**2 / 2**(2(n-m))
    on FOURTH_MOMENT_CELLS."""
    slacks = []
    for p in FOURTH_MOMENT_CELLS:
        q, b = p.q, p.num_replies
        bound = Fraction(q * q * (q - 1) ** 2, b * b)
        slacks.append(float(bound - pair_collision_moments(q, b)[3]))
    return _result("fourth_moment_bound", slacks, len(slacks))


def check_tail_probability(rng) -> CheckResult:
    """Monte Carlo tail bound at TAIL_CELL: over TAIL_TRIALS transcripts drawn
    from `rng`, the collision excess exceeds the collision rule's cutoff
    (`collision_rule_threshold`) with probability > 1/400, by a
    4-standard-error margin."""
    x = sample_excess(TAIL_CELL, TAIL_TRIALS, rng)
    hits = float(np.mean(x > collision_rule_threshold(TAIL_CELL)))
    se = math.sqrt(max(hits * (1.0 - hits), 1e-12) / TAIL_TRIALS)
    return _result("collision_tail_probability", [hits - 4.0 * se - 1.0 / 400.0], 1)


def run_lemma_suite(rng) -> list[CheckResult]:
    """Every inequality check on its fixed grid, in a fixed order; `rng`
    draws the tail check's sample, the only random one."""
    return [
        check_distinct_prob_upper(),
        check_log1m_lower(),
        check_distinct_prob_lower(),
        check_doubling(),
        check_profile_score_maximizer(),
        check_likelihood_exponential_bound(),
        check_likelihood_exponential_bound(half_domain_only=True),
        check_witness_poly(),
        check_witness_poly_expectation(),
        check_fourth_moment(),
        check_tail_probability(rng),
    ]
