import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropfit import (
    MAX_PLUS,
    MAX_TIMES,
    ZERO,
    DimensionMismatch,
    SemifieldMismatch,
    TropicalMatrix,
    TropicalVector,
    ZeroVector,
    conjugate,
    distance,
    dot,
    full,
    mat_mul,
    mat_vec_mul,
    scale,
    support,
    vec_mat_mul,
)


def vec(*elements, sf=MAX_PLUS):
    return TropicalVector(elements, sf)


def test_vector_validation():
    with pytest.raises(ValueError):
        TropicalVector((), MAX_PLUS)
    with pytest.raises(ValueError):
        TropicalVector((math.nan,), MAX_PLUS)
    with pytest.raises(ValueError):
        TropicalVector((-1.0,), MAX_TIMES)
    v = vec(1, ZERO, 2.5)
    assert len(v) == 3 and not v.is_regular
    assert vec(1, 2).is_regular


def test_matrix_validation():
    with pytest.raises(ValueError):
        TropicalMatrix(((1.0,), (2.0, 3.0)), MAX_PLUS)
    m = TropicalMatrix(((1, 2), (ZERO, 4)), MAX_PLUS)
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 0] is ZERO and not m.is_regular


def test_diagonal_matrix():
    d = TropicalMatrix.diagonal((1.0, 2.0, 3.0), MAX_PLUS)
    assert d[0, 0] == 1.0 and d[1, 1] == 2.0
    assert d[0, 1] is ZERO and d[2, 0] is ZERO


def test_mat_vec_mul_examples():
    a = TropicalMatrix(((0, 0), (0, 1)), MAX_PLUS)
    assert mat_vec_mul(a, vec(0, 0)).elements == (0.0, 1.0)

    zero_vec = TropicalVector((ZERO, ZERO), MAX_PLUS)
    image = mat_vec_mul(a, zero_vec)
    assert all(e is ZERO for e in image)

    identity = TropicalMatrix(((0, ZERO), (ZERO, 0)), MAX_PLUS)
    x = vec(3.5, -2.0)
    assert mat_vec_mul(identity, x).elements == x.elements


def test_mat_vec_mul_dimension_error():
    a = TropicalMatrix(((0, 0), (0, 1)), MAX_PLUS)
    with pytest.raises(DimensionMismatch):
        mat_vec_mul(a, vec(1, 2, 3))


def test_semifield_mixing_rejected():
    with pytest.raises(SemifieldMismatch):
        dot(vec(1, 2), TropicalVector((1, 2), MAX_TIMES))


def test_conjugate_examples():
    assert conjugate(vec(1, 2)).elements == (-1.0, -2.0)
    mixed = conjugate(TropicalVector((ZERO, 5.0), MAX_PLUS))
    assert mixed[0] is ZERO and mixed[1] == -5.0
    assert conjugate(TropicalVector((2.0, 4.0), MAX_TIMES)).elements == (0.5, 0.25)
    with pytest.raises(ZeroVector):
        conjugate(TropicalVector((ZERO, ZERO), MAX_PLUS))


def test_support_examples():
    assert support(TropicalVector((ZERO, 1.0, ZERO), MAX_PLUS)) == {1}
    assert support(vec(5, 6, 7)) == {0, 1, 2}
    assert support(TropicalVector((ZERO, ZERO), MAX_PLUS)) == frozenset()


def test_mat_mul_against_diagonal():
    y = TropicalMatrix.diagonal((1.0, 2.0), MAX_PLUS)
    z = TropicalMatrix(((10, 20), (30, 40)), MAX_PLUS)
    product = mat_mul(y, z)
    assert product.entries == ((11.0, 21.0), (32.0, 42.0))


def test_vec_mat_mul_and_dot():
    a = TropicalMatrix(((0, 1), (2, 3)), MAX_PLUS)
    row = vec(0, 0)
    assert vec_mat_mul(row, a).elements == (2.0, 3.0)
    assert dot(vec(1, 2), vec(3, 4)) == 6.0
    assert dot(TropicalVector((ZERO, 2), MAX_PLUS), vec(9, 1)) == 3.0


def test_full():
    v = full(4, MAX_PLUS.one, MAX_PLUS)
    assert v.elements == (0.0, 0.0, 0.0, 0.0)


# --- the metric ------------------------------------------------------------

def test_distance_examples():
    a = vec(1, 2)
    assert distance(a, a).value == MAX_PLUS.one
    assert distance(vec(1, 2), vec(3, 1)).value == 2.0
    assert distance(vec(1, ZERO), vec(1, 1)).is_infinite
    zero2 = TropicalVector((ZERO, ZERO), MAX_PLUS)
    assert distance(zero2, zero2).value == MAX_PLUS.one
    with pytest.raises(DimensionMismatch):
        distance(vec(1, 2), vec(1, 2, 3))


def test_distance_common_partial_support():
    a = TropicalVector((1.0, ZERO), MAX_PLUS)
    b = TropicalVector((4.0, ZERO), MAX_PLUS)
    assert distance(a, b).value == 3.0


def test_distance_max_times():
    a = TropicalVector((2.0, 8.0), MAX_TIMES)
    b = TropicalVector((4.0, 4.0), MAX_TIMES)
    # max(4/2, 8/4) = 2 either way round
    assert distance(a, b).value == 2.0
    assert distance(b, a).value == 2.0


def _random_regular_pair(rng, n, dyadic=False):
    if dyadic:
        draw = lambda: rng.randrange(-640, 641) / 64.0
    else:
        draw = lambda: rng.uniform(-10.0, 10.0)
    a = vec(*[draw() for _ in range(n)])
    b = vec(*[draw() for _ in range(n)])
    return a, b


def test_metric_properties_randomized():
    rng = random.Random(20240311)
    for _ in range(300):
        n = rng.randrange(1, 6)
        a, b = _random_regular_pair(rng, n)
        d_ab, d_ba = distance(a, b), distance(b, a)
        assert d_ab == d_ba
        assert d_ab.value >= MAX_PLUS.one
        cheb = max(abs(p - q) for p, q in zip(a, b))
        assert d_ab.value == pytest.approx(cheb, abs=1e-12)
        assert distance(a, a).value == MAX_PLUS.one


def test_metric_scaling_invariance_exact_on_dyadics():
    # Dyadic entries make every max-plus product exact, so the claimed
    # cancellation of the common factor holds with no tolerance at all.
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 5)
        a, b = _random_regular_pair(rng, n, dyadic=True)
        lam = rng.randrange(-640, 641) / 64.0
        assert distance(scale(lam, a), scale(lam, b)) == distance(a, b)


def test_mat_vec_mul_is_linear():
    rng = random.Random(5)
    for _ in range(100):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        a = TropicalMatrix(
            [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(m)],
            MAX_PLUS)
        u = vec(*[rng.uniform(-5, 5) for _ in range(n)])
        v = vec(*[rng.uniform(-5, 5) for _ in range(n)])
        lam = rng.uniform(-5, 5)

        u_plus_v = TropicalVector(
            [MAX_PLUS.add(p, q) for p, q in zip(u, v)], MAX_PLUS)
        left = mat_vec_mul(a, u_plus_v)
        right = TropicalVector(
            [MAX_PLUS.add(p, q)
             for p, q in zip(mat_vec_mul(a, u), mat_vec_mul(a, v))],
            MAX_PLUS)
        for p, q in zip(left, right):
            assert p == pytest.approx(q, abs=1e-12)

        scaled = mat_vec_mul(a, scale(lam, u))
        rescaled = scale(lam, mat_vec_mul(a, u))
        for p, q in zip(scaled, rescaled):
            assert p == pytest.approx(q, abs=1e-12)


# --- the products against a numpy semiring reference ------------------------

@st.composite
def product_operands(draw):
    """A semifield, A (m x n), B (n x p), u, v (n) and w (m), with ZEROs.

    Values lie within e^+-5: [-5, 5] in max-plus, exp of that in
    max-times. v shares u's support in about half of the draws, so
    distance often has a common support to measure.
    """
    sf = draw(st.sampled_from([MAX_PLUS, MAX_TIMES]))
    m, n, p = (draw(st.integers(1, 4)) for _ in range(3))
    value = st.floats(-5.0, 5.0)
    if sf is MAX_TIMES:
        value = value.map(math.exp)
    entry = st.one_of(st.just(ZERO), value)

    def entries(size):
        return draw(st.lists(entry, min_size=size, max_size=size))

    u = entries(n)
    if draw(st.booleans()):
        v = [ZERO if e is ZERO else draw(value) for e in u]
    else:
        v = entries(n)
    return (sf, [entries(n) for _ in range(m)], [entries(p) for _ in range(n)],
            u, v, entries(m))


def _reading(values, zero):
    """A float array of nested scalars, ZERO read as zero."""
    array = np.array(values, dtype=object)
    array[array == ZERO] = zero
    return array.astype(float)


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_products_equal_a_numpy_semiring_reference(operands):
    # Max-plus: max of sums, ZERO read as -inf. Max-times: max of
    # products, ZERO read as 0.0. Both sides round the same operations
    # and max is exact, so equality is exact.
    sf, a, b, u, v, w = operands
    if sf is MAX_PLUS:
        zero, mul, inv = -np.inf, np.add, np.negative
    else:
        zero, mul, inv = 0.0, np.multiply, np.reciprocal
    ar, br, ur, vr, wr = (_reading(x, zero) for x in (a, b, u, v, w))
    am, bm = TropicalMatrix(a, sf), TropicalMatrix(b, sf)
    uv, vv, wv = (TropicalVector(x, sf) for x in (u, v, w))

    def read(scalars):
        return _reading(scalars, zero).tolist()

    assert read(mat_vec_mul(am, uv).elements) == (
        np.max(mul(ar, ur), axis=1).tolist())
    assert read(vec_mat_mul(wv, am).elements) == (
        np.max(mul(wr[:, None], ar), axis=0).tolist())
    assert read([dot(uv, vv)]) == [np.max(mul(ur, vr))]
    assert read(mat_mul(am, bm).entries) == (
        np.max(mul(ar[:, :, None], br[None, :, :]), axis=1).tolist())

    d = distance(uv, vv)
    if not np.array_equal(ur == zero, vr == zero):
        assert d.is_infinite
    elif (ur == zero).all():
        assert d.value == sf.one
    else:
        common = ur != zero
        uc, vc = ur[common], vr[common]
        assert d.value == np.max(np.maximum(mul(uc, inv(vc)),
                                            mul(inv(uc), vc)))
