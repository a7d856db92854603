import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropfit import (
    MAX_PLUS,
    MAX_TIMES,
    ZERO,
    DimensionMismatch,
    NonRegularInput,
    Termination,
    TropicalMatrix,
    TropicalVector,
    conjugate,
    distance,
    mat_vec_mul,
    one_sided_solve,
    scale,
    two_sided_solve,
    vec_mat_mul,
)
from tropfit.approx import (
    DegreeVector,
    SampleSet,
    fit_polynomial,
    fit_rational,
)
from tropfit.datasets import nonconvex_curve
from tropfit.approx import score_polynomials
from tropfit.solvers import (
    _residuate_into,
    alternate,
    balance,
    from_max_plus,
    one_sided,
    out_of_range,
    residuation_in_range,
    tropical_vector,
)
from oracles import (
    grid_min_one_sided,
    grid_min_two_sided,
    one_sided_reference,
    pair_step,
    pair_tolerance,
    two_sided_reference,
)


def random_matrix(rng, m, n, lo=-5.0, hi=5.0, sf=MAX_PLUS):
    return TropicalMatrix(
        [[rng.uniform(lo, hi) for _ in range(n)] for _ in range(m)], sf)


def random_vector(rng, n, lo=-5.0, hi=5.0, sf=MAX_PLUS):
    return TropicalVector([rng.uniform(lo, hi) for _ in range(n)], sf)


# --- one-sided -------------------------------------------------------------

def test_one_sided_rejects_bad_input():
    a = TropicalMatrix(((1, 2), (3, 4)), MAX_PLUS)
    with pytest.raises(NonRegularInput):
        one_sided_solve(TropicalMatrix(((1, ZERO), (3, 4)), MAX_PLUS),
                        TropicalVector((1, 2), MAX_PLUS))
    with pytest.raises(NonRegularInput):
        one_sided_solve(a, TropicalVector((ZERO, 2), MAX_PLUS))
    with pytest.raises(DimensionMismatch):
        one_sided_solve(a, TropicalVector((1, 2, 3), MAX_PLUS))


def test_one_sided_consistent_system():
    rng = random.Random(1)
    for _ in range(50):
        m, n = rng.randrange(1, 5), rng.randrange(1, 4)
        a = random_matrix(rng, m, n)
        x = random_vector(rng, n)
        b = mat_vec_mul(a, x)
        sol = one_sided_solve(a, b)
        assert sol.exact
        assert abs(sol.delta - MAX_PLUS.one) <= 1e-9
        reproduced = mat_vec_mul(a, sol.x_star)
        assert all(abs(p - q) <= 1e-12 for p, q in zip(reproduced, b))
        # the returned solution is the greatest one
        assert all(xs >= xi - 1e-12 for xs, xi in zip(sol.x_star, x))


def test_one_sided_error_and_solution_fields_agree():
    rng = random.Random(2)
    for _ in range(50):
        m, n = rng.randrange(2, 5), rng.randrange(1, 4)
        a = random_matrix(rng, m, n)
        b = random_vector(rng, m)
        sol = one_sided_solve(a, b)
        assert sol.error == pytest.approx(sol.delta / 2.0, abs=1e-15)
        assert sol.delta >= -1e-15
        assert sol.exact == (abs(sol.delta - MAX_PLUS.one) <= 1e-9)
        d = distance(mat_vec_mul(a, sol.x_star), b)
        assert d.value == pytest.approx(sol.error, abs=1e-12)


def test_one_sided_beats_brute_force_grid():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        a = rng.uniform(-5, 5, size=(m, n))
        b = rng.uniform(-5, 5, size=m)
        sol = one_sided_solve(TropicalMatrix(a.tolist(), MAX_PLUS),
                              TropicalVector(b.tolist(), MAX_PLUS))
        reference = grid_min_one_sided(a, b)
        assert sol.error <= reference + 1e-9
        assert sol.error >= reference - 0.1 * n


def test_one_sided_optimality_against_perturbations():
    rng = random.Random(4)
    a = random_matrix(rng, 4, 3)
    b = random_vector(rng, 4)
    sol = one_sided_solve(a, b)
    base = distance(mat_vec_mul(a, sol.x_star), b).value
    for _ in range(1000):
        bumped = TropicalVector(
            [x + rng.uniform(-1.0, 1.0) for x in sol.x_star], MAX_PLUS)
        challenger = distance(mat_vec_mul(a, bumped), b).value
        assert challenger >= base - 1e-12


def test_one_sided_scaling_moves_solution_not_error():
    rng = random.Random(5)
    for _ in range(50):
        m, n = rng.randrange(2, 5), rng.randrange(1, 4)
        a = random_matrix(rng, m, n)
        b = random_vector(rng, m)
        lam = rng.uniform(-4.0, 4.0)
        plain = one_sided_solve(a, b)
        shifted = one_sided_solve(a, scale(lam, b))
        assert shifted.delta == pytest.approx(plain.delta, abs=1e-12)
        for p, q in zip(shifted.x_star, scale(lam, plain.x_star)):
            assert p == pytest.approx(q, abs=1e-12)


def test_one_sided_max_times():
    rng = random.Random(6)
    a = TropicalMatrix(
        [[rng.uniform(0.5, 4.0) for _ in range(2)] for _ in range(3)],
        MAX_TIMES)
    x = TropicalVector([rng.uniform(0.5, 4.0) for _ in range(2)], MAX_TIMES)
    b = mat_vec_mul(a, x)
    sol = one_sided_solve(a, b)
    assert sol.exact
    reproduced = mat_vec_mul(a, sol.x_star)
    for p, q in zip(reproduced, b):
        assert p == pytest.approx(q, rel=1e-12)


def test_one_sided_balances_a_delta_inside_the_exact_band():
    # delta = 1e-9 is within DELTA_UNIT_TOL, so the fit counts as exact,
    # and its coefficient is still scaled by sqrt(delta): 0 + 1e-9 / 2.
    y = (0.0, 1e-9)
    sol = one_sided_solve(TropicalMatrix(((0.0,), (0.0,)), MAX_PLUS),
                          TropicalVector(y, MAX_PLUS))
    report = fit_polynomial(
        SampleSet.from_reals([(0.0, v) for v in y], MAX_PLUS),
        DegreeVector([0]))
    assert sol.exact and report.termination is Termination.EXACT_SOLUTION
    for coefficient, error in ((sol.x_star[0], sol.error),
                               (report.model.coefficients[0], report.error)):
        assert coefficient == 5e-10
        assert max(abs(coefficient - v) for v in y) == error == 5e-10


# --- two-sided -------------------------------------------------------------

def test_two_sided_identical_spans():
    rng = random.Random(7)
    a = random_matrix(rng, 3, 2)
    x0 = random_vector(rng, 2)
    sol = two_sided_solve(a, a, x0=x0)
    assert sol.termination is Termination.EXACT_SOLUTION
    assert sol.iterations == 1
    assert abs(sol.delta_star - MAX_PLUS.one) <= 1e-9
    left = mat_vec_mul(a, sol.x_star)
    right = mat_vec_mul(a, sol.y_star)
    assert max(abs(p - q) for p, q in zip(left, right)) <= 1e-9
    # y_star is the projection coefficients, up to the solver's scaling,
    # from the start scaled to a largest entry of 0.
    start = TropicalVector([v - max(x0) for v in x0], MAX_PLUS)
    expected = conjugate(vec_mat_mul(conjugate(mat_vec_mul(a, start)), a))
    assert max(abs(p - q) for p, q in zip(sol.y_star, expected)) <= 1e-9


def assert_pair_rule(delta_star, deltas, a, b):
    """delta_star is the delta of the first half step within the pair
    tolerance of the smallest, in max-plus."""
    tol = pair_tolerance(deltas, np.array(a.entries), np.array(b.entries))
    assert delta_star == deltas[pair_step(deltas, tol)]
    assert min(deltas) <= delta_star <= min(deltas) + tol


def test_two_sided_monotone_and_bounded():
    rng = random.Random(8)
    for _ in range(30):
        m = rng.randrange(2, 4)
        a = random_matrix(rng, m, rng.randrange(1, 3))
        b = random_matrix(rng, m, rng.randrange(1, 3))
        sol = two_sided_solve(a, b)
        assert sol.delta_star >= -1e-15
        for earlier, later in zip(sol.deltas, sol.deltas[1:]):
            assert later <= earlier + 1e-12
        assert_pair_rule(sol.delta_star, sol.deltas, a, b)
        if sol.termination is Termination.EXACT_SOLUTION:
            left = mat_vec_mul(a, sol.x_star)
            right = mat_vec_mul(b, sol.y_star)
            assert max(abs(p - q) for p, q in zip(left, right)) <= 1e-9


def test_two_sided_beats_brute_force_grid():
    rng = np.random.default_rng(9)
    for _ in range(5):
        m = int(rng.integers(2, 4))
        a = rng.uniform(-3, 3, size=(m, int(rng.integers(1, 3))))
        b = rng.uniform(-3, 3, size=(m, int(rng.integers(1, 3))))
        sol = two_sided_solve(TropicalMatrix(a.tolist(), MAX_PLUS),
                              TropicalMatrix(b.tolist(), MAX_PLUS))
        reference = grid_min_two_sided(a, b)
        assert sol.delta_star <= 2.0 * reference + 1e-9


def test_two_sided_iteration_cap():
    rng = random.Random(10)
    a = random_matrix(rng, 3, 2)
    b = random_matrix(rng, 3, 2)
    sol = two_sided_solve(a, b, max_iter=1)
    assert sol.iterations == 1
    assert len(sol.deltas) == 1
    assert sol.termination in (Termination.ITERATION_CAP,
                               Termination.EXACT_SOLUTION,
                               Termination.CYCLE_DETECTED)
    full = two_sided_solve(a, b)
    assert full.delta_star <= sol.delta_star + 1e-15


def test_two_sided_default_start_matches_explicit_units():
    rng = random.Random(11)
    a = random_matrix(rng, 3, 2)
    b = random_matrix(rng, 3, 2)
    explicit = two_sided_solve(
        a, b, x0=TropicalVector((0.0, 0.0), MAX_PLUS))
    implicit = two_sided_solve(a, b)
    assert implicit == explicit


def test_two_sided_rejects_bad_input():
    a = TropicalMatrix(((1, 2), (3, 4)), MAX_PLUS)
    with pytest.raises(NonRegularInput):
        two_sided_solve(a, TropicalMatrix(((ZERO, 1), (2, 3)), MAX_PLUS))
    with pytest.raises(DimensionMismatch):
        two_sided_solve(a, TropicalMatrix(((1, 2),), MAX_PLUS))
    with pytest.raises(DimensionMismatch):
        two_sided_solve(a, a, x0=TropicalVector((1, 2, 3), MAX_PLUS))
    with pytest.raises(NonRegularInput):
        two_sided_solve(a, a, x0=TropicalVector((1, ZERO), MAX_PLUS))
    with pytest.raises(ValueError):
        two_sided_solve(a, a, max_iter=0)


# --- array core against the per-scalar reference ----------------------------

def reference_cases(sf, count, seed):
    """Random systems of several shapes, with and without a start vector."""
    rng = random.Random(seed)
    lo, hi = (-5.0, 5.0) if sf is MAX_PLUS else (0.2, 5.0)
    for k in range(count):
        m = rng.randrange(2, 9)
        a = random_matrix(rng, m, rng.randrange(1, 5), lo, hi, sf)
        b = random_matrix(rng, m, rng.randrange(1, 5), lo, hi, sf)
        x0 = random_vector(rng, a.cols, lo, hi, sf) if k % 2 else None
        yield a, b, x0


def test_one_sided_matches_per_scalar_reference():
    rng = random.Random(14)
    for sf, lo, hi in ((MAX_PLUS, -5.0, 5.0), (MAX_TIMES, 0.2, 5.0)):
        for _ in range(40):
            m = rng.randrange(1, 9)
            a = random_matrix(rng, m, rng.randrange(1, 5), lo, hi, sf)
            b = random_vector(rng, m, lo, hi, sf)
            sol = one_sided_solve(a, b)
            delta, x_star = one_sided_reference(a, b)
            if sf is MAX_PLUS:
                assert sol.delta == delta
                assert sol.x_star == x_star
            else:
                assert sol.delta == pytest.approx(delta, rel=1e-12)
                for got, want in zip(sol.x_star, x_star):
                    assert got == pytest.approx(want, rel=1e-12)


def test_two_sided_matches_per_scalar_reference_in_max_plus():
    for a, b, x0 in reference_cases(MAX_PLUS, 40, 12):
        for max_iter in (7, 1000):
            sol = two_sided_solve(a, b, x0=x0, max_iter=max_iter)
            # two_sided_solve runs from x0 scaled to a largest entry of 0.
            start = None if x0 is None else TropicalVector(
                [v - max(x0) for v in x0], MAX_PLUS)
            deltas, x_star, y_star, termination = two_sided_reference(
                a, b, x0=start, max_iter=max_iter)
            assert sol.deltas == tuple(deltas)
            assert_pair_rule(sol.delta_star, deltas, a, b)
            assert sol.x_star == x_star
            assert sol.y_star == y_star
            assert sol.iterations == len(deltas)
            assert type(sol.iterations) is int
            assert type(sol.delta_star) is float
            assert sol.termination is termination


def test_two_sided_matches_per_scalar_reference_in_max_times():
    for a, b, x0 in reference_cases(MAX_TIMES, 40, 13):
        sol = two_sided_solve(a, b, x0=x0)
        deltas, _, _, termination = two_sided_reference(a, b, x0=x0)
        readings = np.log(deltas)
        tol = pair_tolerance(readings, np.log(a.entries), np.log(b.entries))
        assert sol.delta_star == pytest.approx(
            deltas[pair_step(readings, tol)], rel=1e-12)
        low = min(sol.deltas)
        assert low <= sol.delta_star <= low * math.exp(tol)
        assert sol.iterations == len(deltas)
        assert sol.termination is termination


def tall_rational_system(seed):
    """X and Y Z of the 6/4 class on 200 noisy samples of the g curve."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.05, 2.0, 200))
    y = (np.array([nonconvex_curve(v) for v in x.tolist()])
         + rng.normal(0.0, 0.02, 200))
    num = np.array([-3.0, -2.0, 0.0, 1.0, 2.0, 4.0])
    den = np.array([-5.0, -3.0, -2.0, 0.0])
    return (TropicalMatrix((x[:, None] * num).tolist(), MAX_PLUS),
            TropicalMatrix((y[:, None] + x[:, None] * den).tolist(),
                           MAX_PLUS))


def test_two_sided_matches_per_scalar_reference_on_tall_systems():
    # 200 x 6 against 200 x 4: long runs whose iterate histories outgrow
    # the solver's initial capacity of 32 per side, ending at the cap or
    # in a cycle.
    terminations = set()
    longest = 0
    for seed in range(6):
        a, b = tall_rational_system(seed)
        sol = two_sided_solve(a, b, max_iter=150)
        deltas, x_star, y_star, termination = two_sided_reference(
            a, b, max_iter=150)
        assert sol.deltas == tuple(deltas)
        assert sol.x_star == x_star
        assert sol.y_star == y_star
        assert sol.iterations == len(deltas)
        assert sol.termination is termination
        terminations.add(termination)
        longest = max(longest, sol.iterations)
    assert terminations == {Termination.ITERATION_CAP,
                            Termination.CYCLE_DETECTED}
    assert longest > 2 * 32


def test_residuate_of_one_system_gives_a_float_and_a_bool():
    rng = np.random.default_rng(15)
    for n, m in ((1, 1), (3, 7), (5, 21)):
        b = rng.uniform(-5.0, 5.0, size=m)
        # The first system is consistent: each term row is b shifted down.
        consistent = b - rng.uniform(0.0, 3.0, size=(n, 1))
        drawn = rng.uniform(-5.0, 5.0, size=(n, m))
        # A single sample is always matched; more, drawn at random, are not.
        for at, solvable in ((consistent, True), (drawn, m == 1)):
            slack = np.empty(m)
            r, delta = _residuate_into(at, b, np.empty(at.shape), slack, slack)
            r = r[:, 0]
            assert type(delta) is float
            assert np.array_equal(r, np.minimum.reduce(b - at, axis=1))
            assert delta == np.max(b - np.maximum.reduce(at + r[:, None]))
            x, one_delta, exact = one_sided(at, b)
            assert type(one_delta) is float and type(exact) is bool
            assert one_delta == delta and exact is solvable
            assert np.array_equal(x, r + 0.5 * delta)


@pytest.mark.parametrize("readings, message", [
    ([0.0, 800.0, -800.0],
     "coefficient 1 leaves the float range: exp(800.0) overflows to inf"),
    ([0.0, 1.0, -812.4],
     "coefficient 2 leaves the float range: exp(-812.4) underflows to 0"),
])
def test_max_times_coefficient_out_of_range_names_its_index(readings,
                                                            message):
    with pytest.raises(ValueError) as raised:
        tropical_vector(np.array(readings), MAX_TIMES)
    assert str(raised.value) == message
    # In max-plus the same readings are the values themselves.
    assert tropical_vector(np.array(readings), MAX_PLUS).elements == tuple(
        readings)


def test_out_of_range_is_the_range_rule_of_each_semifield():
    inf, nan = math.inf, math.nan
    readings = np.array([0.0, -745.2, -745.1, 709.7, 709.8, -inf, inf, nan])
    # In max-plus 0.0 is the unit: only the non-finite readings are out.
    assert out_of_range(readings, MAX_PLUS).tolist() == [
        False, False, False, False, False, True, True, True]
    # In max-times exp leaves the normal floats below about -708.40
    # (subnormal, then 0 below about -745.13) and overflows above about
    # 709.78.
    assert out_of_range(readings, MAX_TIMES).tolist() == [
        False, True, True, False, True, True, True, True]
    assert out_of_range(np.array([-708.3, -708.5]), MAX_TIMES).tolist() == [
        False, True]
    assert out_of_range(readings.reshape(2, 4), MAX_TIMES).shape == (2, 4)


@pytest.mark.parametrize("readings, semifield, message", [
    ([[0.0, 1.0], [2.0, 1e3]], MAX_TIMES,
     "value 3 leaves the float range: exp(1000.0) overflows to inf"),
    ([0.0, -math.inf], MAX_TIMES,
     "value 1 leaves the float range: exp(-inf) underflows to 0"),
    ([-745.1], MAX_TIMES,
     "value 0 leaves the float range: exp(-745.1) underflows to a subnormal"),
    ([math.nan], MAX_TIMES, "value 0 leaves the float range: exp(nan) is nan"),
    ([0.0, math.inf], MAX_PLUS,
     "value 1 leaves the float range: inf is not finite"),
])
def test_checked_map_out_names_the_first_reading_out_of_range(
        readings, semifield, message):
    with pytest.raises(ValueError) as raised:
        from_max_plus(readings, semifield, "value {}")
    assert str(raised.value) == message


def test_max_times_tuple_solvers_out_of_range_raise_like_the_fits():
    # exp(log 1e300 - log 1e-300) is delta_star; the coefficients are in
    # range. Degree 0 makes the fits' designs the all-ones matrix a, and
    # the rational right side the column b.
    a = TropicalMatrix(((1.0,), (1.0,)), MAX_TIMES)
    b = (1e-300, 1e300)
    samples = SampleSet.from_reals([(2.0, b[0]), (3.0, b[1])], MAX_TIMES)
    zero = DegreeVector([0])
    raised = []
    for solve in (lambda: one_sided_solve(a, TropicalVector(b, MAX_TIMES)),
                  lambda: two_sided_solve(
                      a, TropicalMatrix(((b[0],), (b[1],)), MAX_TIMES)),
                  lambda: fit_polynomial(samples, zero),
                  lambda: fit_rational(samples, zero, zero)):
        with pytest.raises(ValueError) as error:
            solve()
        raised.append(str(error.value))
    assert raised == ["delta_star leaves the float range: "
                      "exp(1381.6) overflows to inf"] * 4


def test_two_sided_delta_trace_is_unchecked():
    # The first delta, about 740, is above the float range in max-times;
    # the second is 0, so delta_star is the unit and the trace reads inf.
    tiny = math.exp(-740.0)
    a = TropicalMatrix(((1.0, tiny), (tiny, 1.0)), MAX_TIMES)
    b = TropicalMatrix(((1.0,), (1.0,)), MAX_TIMES)
    solution = two_sided_solve(a, b, x0=TropicalVector((1.0, tiny), MAX_TIMES))
    assert solution.deltas == (math.inf, 1.0)
    assert solution.delta_star == 1.0
    assert solution.termination is Termination.EXACT_SOLUTION


# --- the map-in rule ----------------------------------------------------------

OVERFLOWING = [
    # b - a overflows to -inf.
    (np.array([[0.0, 0.0], [1e308, 1.0]]), np.array([-1e308, 1e308])),
    # Every b - a is finite; a r overflows to -inf at the first sample.
    (np.array([[-1e308, 1e308]]), np.array([0.0, 0.0])),
]


@pytest.mark.parametrize("at, b", OVERFLOWING)
def test_residuation_out_of_range_raises_before_computing(at, b):
    message = "the data leave the float range: their differences overflow"
    with pytest.raises(ValueError, match=message):
        one_sided(at, b)
    with pytest.raises(ValueError, match=message):
        alternate(at, b[None, :], np.zeros(len(at)), 10)
    with pytest.raises(ValueError, match=message):
        alternate(b[None, :], at, np.zeros(1), 10)
    with pytest.raises(ValueError, match=message):
        one_sided_solve(TropicalMatrix(tuple(map(tuple, at.T.tolist())),
                                       MAX_PLUS),
                        TropicalVector(b.tolist(), MAX_PLUS))


def test_alternate_raises_when_a_later_half_step_overflows():
    # The fifth system this loop draws passes the entry check, but its
    # iterates drift upward until the differences of half step 209
    # overflow: the solve raises the error the CLI prints with exit 2,
    # and numpy warns of nothing.
    rng = np.random.default_rng(0)
    for _ in range(5):
        m, n, l = rng.integers(2, 8), rng.integers(1, 4), rng.integers(1, 4)
        magnitude = 10.0 ** rng.uniform(300, 307.5)
        a = rng.uniform(-1, 1, (m, n)) * magnitude
        b = rng.uniform(-1, 1, (m, l)) * magnitude
    assert a.shape == (6, 3) and b.shape == (6, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as error:
            two_sided_solve(TropicalMatrix(a.tolist(), MAX_PLUS),
                            TropicalMatrix(b.tolist(), MAX_PLUS))
    assert str(error.value) == ("the data leave the float range: "
                                "their differences overflow")


def test_scoring_raises_the_rule_error_of_the_first_failing_row():
    # Degree 1 puts p x at -1e308 and 1e308; degree 0 fits. A row outside
    # the rule scores inf; when every row is, the first one's error is
    # raised.
    samples = SampleSet.from_reals([(-1e308, 0.0), (1e308, 0.0)], MAX_PLUS)
    with pytest.raises(ValueError) as direct:
        fit_polynomial(samples, DegreeVector([1]))
    scores, best = score_polynomials(samples, np.array([[0], [1]]))
    assert scores.tolist() == [0.0, math.inf]
    assert best == fit_polynomial(samples, DegreeVector([0]))
    with pytest.raises(ValueError) as scored:
        score_polynomials(samples, np.array([[1], [-1]]))
    assert str(scored.value) == str(direct.value)
    scores, best = score_polynomials(samples, np.array([[0]]))
    assert scores.tolist() == [0.0]
    assert best == fit_polynomial(samples, DegreeVector([0]))


_HUGE = st.floats(-1.7e308, 1.7e308)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_HUGE, min_size=4, max_size=4), min_size=n,
             max_size=n),
    st.lists(_HUGE, min_size=4, max_size=4))))
def test_residuation_in_range_bounds_every_step(case):
    # Where the rule holds, _residuate_into and balance stay finite: tier-1
    # turns any overflow warning into a failure.
    at, b = (np.array(part) for part in case)
    in_range = residuation_in_range(float(at.min()), float(at.max()),
                                    float(b.min()), float(b.max()))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = residuation_in_range(at.min(axis=1), at.max(axis=1),
                                    b.min(), b.max())
    assert rows.shape == (len(at),)
    if not in_range:
        return
    assert rows.all()
    slack = np.empty(b.shape)
    r, delta = _residuate_into(at, b, np.empty(at.shape), slack, slack)
    r = r[:, 0]
    x_star, _ = balance(r, delta)
    assert np.isfinite(r).all() and math.isfinite(delta)
    assert np.isfinite(x_star).all()
