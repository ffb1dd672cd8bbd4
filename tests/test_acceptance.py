"""Acceptance gate: one test per shipping criterion, each printing a single
PASS/FAIL line (visible even under pytest's output capture).

Criterion 8 asserts what the lemma suite promises. Every claimed inequality
holds, the half-domain exponential likelihood bound included. The full-domain
exponential bound is numerically false at q = 2**n (see the README), and the
suite must keep reporting it refuted, exactly at its known witnesses. So
criterion 8 passes while `truncperm lemmas` still exits 1.
"""

import csv
import io
import math
from fractions import Fraction
from math import comb, factorial

import pytest

import truncperm.core
from truncperm.bounds import (
    best_known_upper,
    birthday_upper,
    stam_upper,
    stam_upper_simplified,
)
from truncperm.checks import run_lemma_suite
from truncperm.cli import TIMING_COLUMNS, main as cli_main
from truncperm.core import Params, make_rng
from truncperm.exact import (
    VIA_R_GREATER,
    VIA_R_LESS,
    brute_force_advantage,
    exact_advantage,
)
from truncperm.game import optimal_rule, play_game_sharded
from truncperm.moments import moments_empirical, pair_collision_moments
from truncperm.stream import (
    ExplicitPermutation,
    StreamConfig,
    balance_check,
    generate_stream,
)

from conftest import pair_collision_moments_brute


BRUTE_CEILING = 10**6


def grid_cells():
    """Every (n <= 4, m < n, q <= 2**n) cell whose transcript space fits the
    brute-force ceiling."""
    for n in range(1, 5):
        for m in range(n):
            b = 1 << (n - m)
            for q in range(1, (1 << n) + 1):
                if b**q > BRUTE_CEILING:
                    break
                yield n, m, q


@pytest.fixture(scope="module")
def exact_grid():
    return {
        (n, m, q): exact_advantage(Params(n, m, q)).value for n, m, q in grid_cells()
    }


@pytest.fixture
def report(capsys):
    def _report(criterion: int, passed: bool, detail: str = "") -> None:
        verdict = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"criterion {criterion:2d}: {verdict}  {detail}", flush=True)

    return _report


def test_criterion_01_oracle_equivalence(exact_grid, report):
    mismatches = [
        cell
        for cell, adv in exact_grid.items()
        if adv != brute_force_advantage(Params(*cell)).value
    ]
    report(1, not mismatches,
           f"profile enumeration == brute force on {len(exact_grid)} cells")
    assert not mismatches


def test_criterion_02_dual_identity(exact_grid, report):
    mismatches = [
        cell
        for cell in exact_grid
        if exact_advantage(Params(*cell), VIA_R_GREATER).value
        != exact_advantage(Params(*cell), VIA_R_LESS).value
    ]
    report(2, not mismatches,
           f"E max(R-1,0) == E max(1-R,0) on {len(exact_grid)} cells")
    assert not mismatches


def test_criterion_03_birthday_reduction(report):
    bad = []
    cells = 0
    for n in range(1, 9):
        dom = 1 << n
        prod = Fraction(1)
        for q in range(1, dom + 1):
            if q > 1:
                prod *= Fraction(dom - (q - 1), dom)
            cells += 1
            if exact_advantage(Params(n, 0, q)).value != 1 - prod:
                bad.append((n, q))
    report(3, not bad, f"m=0 advantage is the exact collision probability, "
                       f"{cells} cells, n <= 8")
    assert not bad


def test_criterion_04_spot_values(report):
    expected = {2: Fraction(1, 6), 3: Fraction(1, 4), 4: Fraction(5, 8)}
    got = {q: exact_advantage(Params(2, 1, q)).value for q in expected}
    ok = got == expected
    report(4, ok, "Adv_{2,1}(2,3,4) = 1/6, 1/4, 5/8")
    assert got == expected


def test_criterion_05_bound_dominance(exact_grid, report):
    violations = []
    for (n, m, q), adv in exact_grid.items():
        uppers = [birthday_upper(n, q), best_known_upper(n, m, q)]
        if q - 1 < (1 << n):
            uppers.append(stam_upper(n, m, q))
        if any(adv > u for u in uppers):
            violations.append((n, m, q))
    report(5, not violations,
           f"Adv <= birthday, Stam, combined on {len(exact_grid)} cells")
    assert not violations


def test_criterion_06_conclusions_reproduction(report):
    margin = stam_upper_simplified(128, 64, 2**64)
    # the headline's 2**64 symbols of 64 bits make (q*(n-m)+7)//8 = 2**67
    # bytes by the rule generate_stream keeps, checked here on small cells
    lengths_ok = True
    for n, m, q in ((8, 4, 256), (10, 3, 1000), (12, 1, 333)):
        sink = io.BytesIO()
        written = generate_stream(ExplicitPermutation(n, seed=6), StreamConfig(n, m, q), sink)
        lengths_ok &= written == len(sink.getvalue()) == (q * (n - m) + 7) // 8
    ok = (
        margin.value == Fraction(1, 2**32)
        and isinstance(margin.value, Fraction)
        and margin.valid
        and lengths_ok
    )
    report(6, ok, "margin 2**-32 exactly; 2**64 symbols of 64 bits = 2**67 bytes")
    assert ok


def test_criterion_07_moments(report):
    closed_ok = all(
        pair_collision_moments(q, b) == pair_collision_moments_brute(q, b)
        for b in (2, 3, 4)
        for q in range(1, 7)
    )
    p = Params(10, 9, 512)  # two buckets
    closed = pair_collision_moments(512, 2)
    means, ses = moments_empirical(p, 10**5, make_rng(2024))
    mc_ok = len(means) == 4 and all(
        abs(e - float(c)) <= 4 * se for e, c, se in zip(means, closed, ses)
    )
    report(7, closed_ok and mc_ok,
           "closed == brute for B in {2,3,4}, q <= 6; MC within 4 SE at q=512")
    assert closed_ok and mc_ok


def full_domain_sides(n, m):
    """Both sides of R <= exp(q**2/2**(n+m+1) - X/2**m) at q = 2**n for the
    balanced profile, b = 2**(n-m) buckets of 2**m replies each, from the
    closed forms R = b**q * ((2**m)!)**b / q! and X = b*C(2**m, 2) - C(q, 2)/b.
    Returns R and the exponent of the bound, both exact."""
    q, b, cap = 1 << n, 1 << (n - m), 1 << m
    ratio = Fraction(b**q * factorial(cap) ** b, factorial(q))
    excess = b * comb(cap, 2) - Fraction(comb(q, 2), b)
    return ratio, Fraction(q * q, 2 ** (n + m + 1)) - excess / cap


def test_criterion_08_lemma_suite(report):
    results = run_lemma_suite(make_rng(8))
    by_name = {r.name: r for r in results}
    full = by_name["likelihood_exponential_bound"]
    half = by_name["likelihood_exponential_bound_half_domain"]
    claimed = [r for r in results if r is not full]
    broken = [r.name for r in claimed if not r.passed]
    refuted = {(w.n, w.m, w.q): w for w in full.violations}
    passed = False
    try:
        # 1. every claimed inequality holds, the half-domain bound on 113 cases
        assert not broken, f"claimed inequalities fail: {broken}"
        assert half.cases == 113
        # 2-3. the full-domain bound fails on its 655-case grid exactly at
        # q = 2**n = 16 with m >= 1, each time at the balanced profile, worst
        # at m = 1: nothing at q <= 2**(n-1) and nothing at m = 0 is violated
        assert not full.passed and full.cases == 655
        assert {cell: w.parts for cell, w in refuted.items()} == {
            (4, m, 16): (1 << m,) * (1 << (4 - m)) for m in (1, 2, 3)
        }
        assert full.worst_witness is refuted[(4, 1, 16)]
        assert full.worst_witness.slack == full.worst_slack
        # both sides recomputed here, not taken from the check: at m = 1,
        # R = 2**56/16! ~ 3443.98 against e**7.5 ~ 1808.04; at m = 0 the bound
        # holds, R = 16**16/16! ~ 881,658 against e**15.5 ~ 5.39e6
        for m in range(4):
            ratio, exponent = full_domain_sides(4, m)
            if m == 0:
                assert math.log(ratio) < exponent
                continue
            assert math.log(ratio) > exponent
            witness = refuted[(4, m, 16)]
            assert math.isclose(witness.ratio, ratio, rel_tol=1e-12)
            assert math.isclose(witness.bound, math.exp(exponent), rel_tol=1e-12)
        passed = True
    finally:
        report(8, passed,
               f"{len(claimed) - len(broken)} of {len(claimed)} claimed inequalities "
               f"hold; full-domain bound refuted: {full.detail or 'nowhere'}")


def test_criterion_09_game_convergence(report):
    p = Params(8, 4, 32)
    exact = float(exact_advantage(p).value)
    res = play_game_sharded(p, optimal_rule(), 10**5, seed=9)
    ok = abs(res.empirical_advantage - exact) <= 4 * res.standard_error
    report(9, ok,
           f"empirical {res.empirical_advantage:.5f} vs exact {exact:.5f} "
           f"(4 SE = {4 * res.standard_error:.5f})")
    assert ok


def test_criterion_10_tightness_sweep(exact_grid, report):
    from truncperm.bounds import advantage_envelope

    ratios = {}
    for (n, m, q), adv in exact_grid.items():
        if not 2 <= q <= 3 * (1 << n) // 4:
            continue
        ratios[(n, m, q)] = float(adv / Fraction(advantage_envelope(n, m, q)))
    in_range = all(0.001 <= r <= 1.1 for r in ratios.values())
    monotone = True
    for (n, m, q), adv in exact_grid.items():
        prev = exact_grid.get((n, m, q - 1))
        if prev is not None and adv < prev:
            monotone = False
    lo, hi = min(ratios.values()), max(ratios.values())
    report(10, in_range and monotone,
           f"{len(ratios)} cells, Adv/envelope in [{lo:.4f}, {hi:.4f}] "
           f"within [0.001, 1.1]; Adv non-decreasing in q")
    assert in_range and monotone


def test_criterion_11_stream_balance(report):
    perm = ExplicitPermutation(12, seed=11)
    balanced = balance_check(perm, 4)
    # negative control: clobber one table entry so the map is not a bijection
    idx = int((perm.table >> 4 != perm.table[0] >> 4).argmax())
    perm.table[idx] = perm.table[0]
    control_fails = not balance_check(perm, 4)
    ok = balanced and control_fails
    report(11, ok, "every 8-bit prefix exactly 16 times; corrupted table caught")
    assert ok


def test_criterion_12_cli_determinism(report, capsys, monkeypatch):
    def run(threads):
        monkeypatch.setattr(truncperm.core, "default_workers", lambda: threads)
        argv = ["mc", "--n", "8", "--m", "4", "--q", "32", "--trials", "20000",
                "--seed", "12"]
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, list(csv.DictReader(io.StringIO(out)))

    def strip(rows):
        return [{k: v for k, v in r.items() if k not in TIMING_COLUMNS} for r in rows]

    c1, first = run(1)
    c2, again = run(1)
    c3, four = run(4)
    # no column is masked but timing: a row echoes no thread count
    ok = (
        c1 == c2 == c3 == 0
        and strip(first) == strip(again)
        and strip(first) == strip(four)
    )
    report(12, ok, "identical CSV modulo timing for reruns and 1 vs 4 threads")
    assert ok
