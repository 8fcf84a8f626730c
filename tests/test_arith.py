import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordist.arith import (
    num_to_json,
    over_lcm,
    parse_number,
    regime_of,
)


class TestParseNumber:
    def test_ratio_strings(self):
        assert parse_number("3/7") == F(3, 7)
        assert parse_number("3/7", "float") == pytest.approx(3 / 7)

    def test_short_decimal_stays_exact_in_auto(self):
        assert parse_number(Decimal("0.125")) == F(1, 8)
        assert parse_number("0.125") == F(1, 8)

    def test_long_decimal_falls_back_to_float(self):
        got = parse_number(Decimal("0.1234567890123"))
        assert isinstance(got, float)

    def test_scientific_notation(self):
        assert parse_number(Decimal("1e-3")) == F(1, 1000)
        assert parse_number(Decimal("2E2")) == F(200)

    def test_python_float_kept_float_in_auto(self):
        assert isinstance(parse_number(0.1), float)

    def test_rational_mode_reads_float_repr(self):
        assert parse_number(0.1, "rational") == F(1, 10)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            parse_number(True)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            parse_number(1, "decimal")

    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    @settings(max_examples=200, deadline=None)
    def test_fraction_string_round_trip(self, q):
        assert parse_number(str(q), "rational") == q


class TestRegimes:
    def test_regime_of(self):
        assert regime_of([F(1, 2), 3]) == "rational"
        assert regime_of([F(1, 2), 0.5]) == "float"


class TestOverLcm:
    @given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_ints_over_the_lcm_denominator(self, values):
        ints, den = over_lcm(values)
        assert all(type(v) is int for v in ints)
        assert [F(v, den) for v in ints] == values
        assert den == math.lcm(*(F(v).denominator for v in values))

    def test_float_is_a_type_error(self):
        with pytest.raises(TypeError):
            over_lcm([F(1, 2), 0.5])


class TestJsonNumbers:
    def test_fraction_to_string(self):
        assert num_to_json(F(1, 2)) == "1/2"
        assert num_to_json(F(3)) == "3"
        assert num_to_json(2) == "2"
        assert num_to_json(-7) == "-7"
        assert num_to_json(0) == "0"
        assert num_to_json(10**40) == str(F(10**40)) == "1" + "0" * 40

    def test_bool_passthrough(self):
        assert num_to_json(True) is True
        assert num_to_json(False) is False

    def test_float_passthrough(self):
        assert num_to_json(0.25) == 0.25

    def test_exact_fraction_of_decimal_string(self):
        assert parse_number("0.2", "rational") == F(1, 5)
        with pytest.raises(ValueError):
            parse_number("zebra", "rational")
