import csv
import io
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from truncperm.bounds import (
    _pow2_half,
    advantage_envelope,
    bellare_impagliazzo_upper,
    best_known_upper,
    birthday_exact,
    birthday_upper,
    bound_report,
    gilboa_gueron_upper,
    hall_lower_reference,
    hall_upper,
    stam_upper,
    stam_upper_simplified,
)
from truncperm.cli import main
from truncperm.core import Params
from truncperm.exact import exact_advantage


class TestPow2Half:
    def test_even_is_exact(self):
        assert _pow2_half(64) == Fraction(1 << 32)
        assert _pow2_half(-4) == Fraction(1, 4)
        assert _pow2_half(0) == 1

    def test_odd_is_float(self):
        assert _pow2_half(3) == pytest.approx(2 * math.sqrt(2))
        assert isinstance(_pow2_half(3), float)


class TestBirthday:
    def test_exact_small(self):
        assert birthday_exact(2, 1) == 0
        assert birthday_exact(2, 2) == Fraction(1, 4)
        assert birthday_exact(2, 3) == 1 - Fraction(3, 4) * Fraction(2, 4)

    def test_exact_saturates(self):
        assert birthday_exact(2, 5) == 1

    def test_exact_is_the_query_by_query_product(self):
        dom, prod = 1 << 40, Fraction(1)
        for i in range(1, 1000):
            prod *= Fraction(dom - i, dom)
        assert birthday_exact(40, 1000) == 1 - prod

    def test_upper_dominates_exact(self):
        for n in (2, 3, 4):
            for q in range(1, (1 << n) + 1):
                assert birthday_exact(n, q) <= birthday_upper(n, q)

    def test_upper_caps_at_one(self):
        assert birthday_upper(2, 4) == 1
        assert birthday_upper(4, 2) == Fraction(2, 32)

    def test_exact_is_none_past_math_perm(self):
        # math.perm takes k <= sys.maxsize; past the domain no perm is needed
        assert birthday_exact(64, 2**63) is None
        assert birthday_exact(62, 2**63) == 1


class TestHall:
    def test_lower_reference(self):
        fb = hall_lower_reference(8, 4, 16)
        assert fb.value == Fraction(256, 4096)
        assert fb.valid
        assert not hall_lower_reference(4, 2, 16).valid

    def test_upper_value(self):
        assert hall_upper(4, 0, 4) == pytest.approx(5.125)

    def test_upper_blows_up_for_large_m(self):
        # the x**3 term carries 2**((7m-n)/2): useless when m is close to n
        assert hall_upper(16, 14, 2**10) > 1e6

    def test_upper_is_infinite_once_its_scale_underflows(self):
        # 2**((n-7m)/2) is 0.0 as a float at (400, 390): no division by zero
        assert bound_report(400, 390, 3).hall_upper == math.inf
        assert hall_upper(600, 590, 3) == math.inf


class TestBellareImpagliazzo:
    def test_value_and_validity(self):
        fb = bellare_impagliazzo_upper(8, 4, 32)
        assert fb.value == pytest.approx(8 * 32 / 64.0)
        assert fb.valid  # 2**4 < 32 < 2**6
        assert not bellare_impagliazzo_upper(8, 4, 16).valid  # q = B
        assert not bellare_impagliazzo_upper(8, 4, 64).valid  # q = 2**((n+m)/2)


class TestGilboaGueron:
    def test_branch_one(self):
        # (6, 2, 16): x = 1, m <= n/3
        bb = gilboa_gueron_upper(6, 2, 16)
        assert bb.branch == 1 and bb.valid
        expected = 2 * 2 ** (1 / 3) + 2 * math.sqrt(2) / math.sqrt(3) + 1.0
        assert bb.value == pytest.approx(expected)

    def test_branch_two(self):
        # (30, 12, 2**20): x = 1/2, m > n/3, still below n - log2(16n)
        bb = gilboa_gueron_upper(30, 12, 2**20)
        assert bb.branch == 2 and bb.valid
        expected = 3 * 0.5 ** (2 / 3) + 1.0 + 5 * 0.25 + 0.5
        assert bb.value == pytest.approx(expected)

    def test_branch_two_invalid_region(self):
        # m > n - log2(16n)
        bb = gilboa_gueron_upper(8, 7, 4)
        assert bb.branch == 2 and not bb.valid


class TestStam:
    def test_value(self):
        assert stam_upper(2, 1, 2) == pytest.approx(0.5 * math.sqrt(2 / 9))

    def test_zero_at_single_query(self):
        assert stam_upper(8, 4, 1) == 0.0

    def test_undefined_past_domain(self):
        with pytest.raises(ValueError):
            stam_upper(2, 1, 5)

    def test_simplified_exact_when_even(self):
        fb = stam_upper_simplified(128, 64, 2**64)
        assert fb.value == Fraction(1, 2**32)
        assert isinstance(fb.value, Fraction)
        assert fb.valid

    def test_simplified_float_when_odd(self):
        fb = stam_upper_simplified(5, 2, 3)
        assert isinstance(fb.value, float)
        assert fb.value == pytest.approx(3 / 2 ** 3.5)

    def test_simplified_validity_edge(self):
        assert stam_upper_simplified(4, 1, 12).valid  # q = (3/4) 2**n
        assert not stam_upper_simplified(4, 1, 13).valid

    def test_full_below_simplified_in_valid_range(self):
        for n, m in [(6, 2), (8, 4), (10, 3)]:
            for q in (2, 1 << (n - 2), 3 * (1 << n) // 4):
                assert stam_upper(n, m, q) <= float(
                    stam_upper_simplified(n, m, q).value
                ) * (1 + 1e-12)


class TestCombinedAndEnvelope:
    def test_combined_small(self):
        assert best_known_upper(2, 1, 2) == pytest.approx(0.5 * math.sqrt(2 / 9))

    def test_combined_caps_at_one(self):
        assert best_known_upper(4, 0, 100) == 1

    def test_envelope_regimes(self):
        assert advantage_envelope(8, 4, 16) == Fraction(1, 4)  # middle branch
        assert advantage_envelope(8, 4, 2) == Fraction(4, 256)  # birthday branch
        assert advantage_envelope(8, 4, 64) == 1  # saturated

    def test_combined_dominates_exact_advantage(self):
        for n in range(2, 5):
            for m in range(n):
                for q in range(2, (1 << n) + 1):
                    adv = exact_advantage(Params(n, m, q)).value
                    assert adv <= best_known_upper(n, m, q)


class TestBoundReport:
    def test_fields(self):
        rep = bound_report(8, 4, 32)
        assert rep.birthday_exact is None  # m != 0
        assert rep.stam_full is not None
        assert rep.combined_upper <= 1

    def test_birthday_exact_only_for_m0(self):
        assert bound_report(4, 0, 3).birthday_exact == birthday_exact(4, 3)

    def test_stam_none_past_domain(self):
        assert bound_report(2, 1, 4).stam_full is not None
        # q - 1 >= 2**n has no Stam value but the report still builds
        # (q <= 2**n always holds for Params, but the report takes raw ints)
        rep = bound_report(2, 1, 5)
        assert rep.stam_full is None

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            bound_report(4, 4, 2)
        with pytest.raises(ValueError):
            bound_report(4, 2, 0)


def _reference_bounds(n, m, q):
    """hall_upper, bi_upper and gg_upper in 50-digit decimals, whose exponents
    have no float limit."""
    with localcontext() as ctx:
        ctx.prec = 50
        two, third = Decimal(2), Decimal(1) / 3
        x = q / two ** (Decimal(n + m) / 2)
        hall = 5 * x ** (2 * third) + x**3 / (2 * two ** (Decimal(n - 7 * m) / 2))
        if 3 * m <= n:
            gg = (2 * two**third * x ** (2 * third)
                  + 2 * two.sqrt() / Decimal(3).sqrt() * x ** Decimal("1.5") + x**2)
        else:
            gg = (3 * x ** (2 * third) + 2 * x + 5 * x**2
                  + (2 * x) ** (Decimal(n) / (n - m)) / 2)
        return {"hall_upper": hall, "bi_upper": n * x, "gg_upper": gg}


# cells whose float bounds raised OverflowError, with the row's columns that
# read inf there; the others are finite
FLOAT_RANGE_CELLS = [
    # 2**((n+m)/2) is past the float range, x = 3 / 2**1025 is not
    ((2048, 2, 3), set()),
    # x is subnormal; 2**((n-7m)/2) underflows, so hall_upper is inf as at (400, 390)
    ((1100, 1000, 3), {"hall_upper"}),
    # x = sqrt(2), and gg_upper's (2x)**700 / 2 = 2**1049 is past the float range
    ((700, 699, 2**700), {"hall_upper", "gg_upper"}),
    # x**3 = 2**1047 is past the float range (hall_upper is about 2**696), and
    # q = 2**699 past math.perm
    ((700, 0, 2**699), {"hall_upper"}),
    # 2**((n-7m)/2) = 2**1046.5 is past the float range: hall_upper is its
    # first term alone
    ((2100, 1, 3), set()),
    # n + m is odd and 2**((n+m)/2) past the float range: x falls back to
    # q / 2**1025 / sqrt(2)
    ((2049, 2, 3), set()),
    # q = 2**1100 is past the float range, so x = 2**549.5 comes from the
    # fallback; x**3 is past it too, as are hall_lower_ref = 2**1099 and
    # stam_full
    ((1100, 1, 2**1100), {"hall_upper", "gg_upper", "hall_lower_ref", "stam_full"}),
]


class TestFloatRange:
    @pytest.mark.parametrize("cell,infinite", FLOAT_RANGE_CELLS,
                             ids=[str(cell[:2]) for cell, _ in FLOAT_RANGE_CELLS])
    def test_overflowed_bounds_read_inf(self, capsys, cell, infinite):
        rep = bound_report(*cell)
        got = {"hall_upper": rep.hall_upper, "bi_upper": rep.bi_upper.value,
               "gg_upper": rep.gg_upper.value}
        assert {name for name, value in got.items() if value == math.inf} == (
            infinite & got.keys()
        )
        reference = _reference_bounds(*cell)
        for name in got.keys() - infinite:
            assert math.isclose(got[name], float(reference[name]), rel_tol=1e-6), name
        assert rep.birthday_exact is None
        n, m, q = cell
        assert main(["bounds", "--n", str(n), "--m", str(m), "--q", str(q)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        row = next(csv.DictReader(io.StringIO(out)))
        assert {name for name, value in row.items() if value == "inf"} == infinite
        assert row["birthday_exact"] == ""
