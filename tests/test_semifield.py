import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropfit import (
    MAX_PLUS,
    MAX_TIMES,
    ZERO,
    InversionOfZero,
    ZeroToNonpositivePower,
    by_name,
)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


def scalars_for(sf):
    return positive if sf is MAX_TIMES else finite


# --- direct examples -------------------------------------------------------

def test_add_examples():
    assert MAX_PLUS.add(2.0, 3.0) == 3.0
    assert MAX_PLUS.add(7.5, ZERO) == 7.5
    assert MAX_PLUS.add(ZERO, 7.5) == 7.5
    assert MAX_TIMES.add(0.5, 0.5) == 0.5
    assert MAX_PLUS.add(ZERO, ZERO) is ZERO


def test_mul_examples():
    assert MAX_PLUS.mul(2.0, 3.0) == 5.0
    assert MAX_PLUS.mul(4.0, ZERO) is ZERO
    assert MAX_PLUS.mul(ZERO, 4.0) is ZERO
    assert MAX_TIMES.mul(2.0, 3.0) == 6.0


def test_inv_examples():
    assert MAX_PLUS.inv(5.0) == -5.0
    assert MAX_PLUS.inv(0.0) == 0.0
    assert MAX_TIMES.inv(4.0) == 0.25
    with pytest.raises(InversionOfZero):
        MAX_PLUS.inv(ZERO)
    with pytest.raises(InversionOfZero):
        MAX_TIMES.inv(ZERO)


def test_pow_examples():
    assert MAX_PLUS.pow(6.0, Fraction(1, 2)) == 3.0
    assert MAX_PLUS.pow(17.0, 0) == MAX_PLUS.one
    assert MAX_TIMES.pow(9.0, Fraction(1, 2)) == 3.0
    assert MAX_TIMES.pow(17.0, 0) == MAX_TIMES.one
    assert MAX_PLUS.pow(ZERO, Fraction(1, 3)) is ZERO
    with pytest.raises(ZeroToNonpositivePower):
        MAX_PLUS.pow(ZERO, 0)
    with pytest.raises(ZeroToNonpositivePower):
        MAX_TIMES.pow(ZERO, -2)


def test_leq_examples():
    assert MAX_PLUS.leq(ZERO, -123.0)
    assert MAX_PLUS.leq(2.0, 3.0)
    assert not MAX_PLUS.leq(3.0, 2.0)
    assert MAX_TIMES.leq(0.5, 0.5)
    assert not MAX_TIMES.leq(2.0, ZERO)


def test_sqrt_is_half_power():
    assert MAX_PLUS.sqrt(0.1360) == pytest.approx(0.0680, abs=1e-15)
    assert MAX_TIMES.sqrt(4.0) == 2.0


def test_by_name():
    assert by_name("max-plus") is MAX_PLUS
    assert by_name("max-times") is MAX_TIMES
    with pytest.raises(ValueError):
        by_name("min-plus")


def test_from_real_embedding():
    assert MAX_PLUS.from_real(-3.5) == -3.5
    assert MAX_TIMES.from_real(0.0) is ZERO
    with pytest.raises(ValueError):
        MAX_TIMES.from_real(-1.0)
    with pytest.raises(ValueError):
        MAX_PLUS.from_real(math.inf)


# --- algebraic laws --------------------------------------------------------

@pytest.mark.parametrize("sf", [MAX_PLUS, MAX_TIMES], ids=lambda s: s.name)
class TestLaws:
    @given(data=st.data())
    def test_add_laws_are_exact(self, sf, data):
        s = scalars_for(sf)
        a, b, c = data.draw(s), data.draw(s), data.draw(s)
        assert sf.add(a, b) == sf.add(b, a)
        assert sf.add(sf.add(a, b), c) == sf.add(a, sf.add(b, c))
        assert sf.add(a, a) == a

    @given(data=st.data())
    def test_mul_commutes_exactly(self, sf, data):
        s = scalars_for(sf)
        a, b = data.draw(s), data.draw(s)
        assert sf.mul(a, b) == sf.mul(b, a)

    @given(data=st.data())
    def test_mul_associates(self, sf, data):
        s = scalars_for(sf)
        a, b, c = data.draw(s), data.draw(s), data.draw(s)
        left = sf.mul(sf.mul(a, b), c)
        right = sf.mul(a, sf.mul(b, c))
        if sf is MAX_PLUS:
            # sums can cancel, so "relative" means relative to the operands
            assert abs(left - right) <= 1e-12 * max(1.0, abs(a), abs(b), abs(c))
        else:
            assert left == pytest.approx(right, rel=1e-12)

    @given(data=st.data())
    def test_mul_distributes_over_add_exactly(self, sf, data):
        # Rounding is monotone, so the distributive law survives floats.
        s = scalars_for(sf)
        a, b, c = data.draw(s), data.draw(s), data.draw(s)
        assert sf.mul(a, sf.add(b, c)) == sf.add(sf.mul(a, b), sf.mul(a, c))

    @given(data=st.data())
    def test_inverse_hits_the_unit(self, sf, data):
        a = data.draw(scalars_for(sf))
        product = sf.mul(a, sf.inv(a))
        assert sf.is_one(product, 1e-12)

    @given(data=st.data())
    def test_pow_round_trip(self, sf, data):
        a = data.draw(st.floats(min_value=0.01, max_value=100.0) if sf is MAX_TIMES
                      else st.floats(min_value=-100.0, max_value=100.0,
                                     allow_nan=False))
        r = data.draw(st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                                   max_denominator=8).filter(lambda f: f != 0))
        back = sf.pow(sf.pow(a, r), 1 / r)
        assert back == pytest.approx(a, rel=1e-12, abs=1e-12)

    @given(data=st.data())
    def test_leq_matches_add(self, sf, data):
        s = st.one_of(scalars_for(sf), st.just(ZERO))
        a, b = data.draw(s), data.draw(s)
        assert sf.leq(a, b) == (sf.add(a, b) == b or (a is ZERO and b is ZERO))

    @given(data=st.data())
    def test_zero_is_bottom(self, sf, data):
        a = data.draw(scalars_for(sf))
        assert sf.leq(ZERO, a)
        assert sf.add(a, ZERO) == a
