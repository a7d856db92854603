import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropfit import (
    MAX_PLUS,
    MAX_TIMES,
    ZERO,
    DegreeVector,
    NonRegularInput,
    PolynomialModel,
    RationalModel,
    SampleSet,
    Termination,
    TropicalVector,
    ZeroAbscissa,
    ZeroArgument,
    build_poly_matrix,
    eval_polynomial,
    eval_rational,
    fit_polynomial,
    fit_rational,
)
from tropfit.approx import evaluate, score_polynomials
from tropfit.datasets import convex_samples, nonconvex_samples
from oracles import eval_reference, rational_system, two_sided_reference

# Reference values for the bundled demo fits (printed to four decimals
# in the docs); independently re-derivable from the closed-form solve.
CONVEX_N5_DEGREES = [-14, -1, 1, 2, 3]
CONVEX_N5_DELTA = 0.1360
CONVEX_N5_THETA = (2.5680, 0.9176, -0.4320, -1.6281, -3.2413)
CONVEX_N7_DEGREES = [-15, -3, -1, 0, 1, 2, 3]
CONVEX_N7_DELTA = 0.0481
CONVEX_N7_THETA = (2.5240, 1.4096, 0.8736, 0.3503, -0.4760, -1.6720, -3.2853)
NONCONVEX_DELTA = 0.1395
NONCONVEX_NUM_DEGREES = [-3, -2, 1, 2]
NONCONVEX_DEN_DEGREES = [-5, -2]
NONCONVEX_THETA = (3.4753, 2.7409, -1.0110, -2.6014)
NONCONVEX_SIGMA_TAIL = 2.4211  # leading sigma sits in a flat direction


def reference_n5_model():
    return PolynomialModel(DegreeVector(CONVEX_N5_DEGREES),
                           TropicalVector(CONVEX_N5_THETA, MAX_PLUS))


# --- degree vectors and sample sets ----------------------------------------

def test_degree_vector_sorts_and_deduplicates():
    dv = DegreeVector([3, -2, Fraction(1, 2)])
    assert list(dv) == [Fraction(-2), Fraction(1, 2), Fraction(3)]
    with pytest.raises(ValueError):
        DegreeVector([1, 2, 1])
    with pytest.raises(ValueError):
        DegreeVector([Fraction(1, 2), Fraction(2, 4)])
    with pytest.raises(ValueError):
        DegreeVector([])


def test_degree_vector_accepts_fraction_strings():
    dv = DegreeVector(["-14", "1/3"])
    assert list(dv) == [Fraction(-14), Fraction(1, 3)]


def test_sample_set_validation():
    with pytest.raises(ZeroAbscissa):
        SampleSet(((ZERO, 1.0),), MAX_PLUS)
    with pytest.raises(NonRegularInput):
        SampleSet(((1.0, ZERO),), MAX_PLUS)
    with pytest.raises(ValueError):
        SampleSet((), MAX_PLUS)
    with pytest.raises(ZeroAbscissa):
        SampleSet.from_reals([(0.0, 1.0)], MAX_TIMES)
    ss = SampleSet.from_reals([(0.0, 2.5), (0.1, 1.1)], MAX_PLUS)
    assert len(ss) == 2 and ss.outputs.elements == (2.5, 1.1)


def test_sample_set_errors_come_from_the_scalar_checks():
    with pytest.raises(ValueError) as info:
        SampleSet(((0.0, 1.0),), MAX_TIMES)
    assert str(info.value) == "(0.0, 1.0) is not a pair of max-times scalars"
    with pytest.raises(ValueError) as info:
        SampleSet.from_reals([(1.0, -1.0)], MAX_TIMES)
    with pytest.raises(ValueError) as scalar:
        MAX_TIMES.from_real(-1.0)
    assert str(info.value) == str(scalar.value)
    # Pairs of scalars: the first faulty pair wins, a ZERO included.
    with pytest.raises(ZeroAbscissa):
        SampleSet(((ZERO, 1.0), (-1.0, 1.0)), MAX_TIMES)
    with pytest.raises(ValueError, match=r"\(1\.0, -1\.0\)"):
        SampleSet(((1.0, -1.0), (ZERO, 1.0)), MAX_TIMES)
    # Conventional reals: a value from_real rejects beats any zero.
    with pytest.raises(ValueError, match="got -1.0"):
        SampleSet.from_reals([(0.0, 1.0), (2.0, -1.0)], MAX_TIMES)
    with pytest.raises(NonRegularInput):
        SampleSet.from_reals([(1.0, 0.0), (0.0, 1.0)], MAX_TIMES)


def test_max_times_samples_keep_the_input_floats():
    x = [0.1, 1e-300, 2.5, 7.0 / 3.0]
    y = [0.3, 7.0, 1e300, math.pi]
    ss = SampleSet.from_reals(zip(x, y), MAX_TIMES)
    assert ss.points == tuple(zip(x, y))
    assert ss.inputs == tuple(x) and ss.outputs.elements == tuple(y)
    assert np.array_equal(ss.xs, np.log(x))
    assert SampleSet(list(zip(x, y)), MAX_TIMES).points == ss.points


@pytest.mark.parametrize("sf", [MAX_PLUS, MAX_TIMES])
def test_sample_arrays_are_read_only(sf):
    ss = SampleSet.from_reals([(1.0, 2.0), (3.0, 4.0)], sf)
    for array in (ss.x, ss.y, ss.xs, ss.ys):
        with pytest.raises(ValueError):
            array[0] = 5.0
    with pytest.raises(AttributeError):
        ss.x = np.ones(2)


# --- design matrix ----------------------------------------------------------

def test_build_poly_matrix_examples():
    ss = SampleSet.from_reals([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)], MAX_PLUS)
    design = build_poly_matrix(ss, DegreeVector([0, 1]))
    assert design.entries == ((0.0, 0.0), (0.0, 1.0), (0.0, 2.0))

    single = SampleSet.from_reals([(1.0, 1.0)], MAX_PLUS)
    assert build_poly_matrix(single, DegreeVector([-14])).entries == ((-14.0,),)

    mt = SampleSet.from_reals([(2.0, 1.0), (3.0, 1.0)], MAX_TIMES)
    assert build_poly_matrix(mt, DegreeVector([2])).entries == ((4.0,), (9.0,))


# --- polynomial fitting -----------------------------------------------------

def test_fit_polynomial_convex_n5():
    report = fit_polynomial(convex_samples(), DegreeVector(CONVEX_N5_DEGREES))
    assert report.delta_star == pytest.approx(CONVEX_N5_DELTA, abs=1e-3)
    for got, want in zip(report.model.coefficients, CONVEX_N5_THETA):
        assert got == pytest.approx(want, abs=1e-3)
    assert report.iterations == 1
    assert report.termination is Termination.ONE_SHOT


def test_fit_polynomial_convex_n7():
    report = fit_polynomial(convex_samples(), DegreeVector(CONVEX_N7_DEGREES))
    assert report.delta_star == pytest.approx(CONVEX_N7_DELTA, abs=1e-3)
    for got, want in zip(report.model.coefficients, CONVEX_N7_THETA):
        assert got == pytest.approx(want, abs=1e-3)


def test_fit_polynomial_recovers_exact_data():
    model = PolynomialModel(DegreeVector([-1, 0, 2]),
                            TropicalVector((1.0, 0.5, -1.25), MAX_PLUS))
    xs = [0.1 + 0.2 * i for i in range(12)]
    ss = SampleSet(tuple((x, eval_polynomial(model, x)) for x in xs), MAX_PLUS)
    report = fit_polynomial(ss, model.degrees)
    assert report.termination is Termination.EXACT_SOLUTION
    assert abs(report.delta_star) <= 1e-9
    for x, y in ss.points:
        assert eval_polynomial(report.model, x) == pytest.approx(y, abs=1e-12)


def test_fit_polynomial_residual_identity():
    for degrees in (CONVEX_N5_DEGREES, CONVEX_N7_DEGREES):
        samples = convex_samples()
        report = fit_polynomial(samples, DegreeVector(degrees))
        worst = max(abs(eval_polynomial(report.model, x) - y)
                    for x, y in samples.points)
        assert worst == pytest.approx(report.error, abs=1e-9)


def test_fit_polynomial_optimality_against_perturbations():
    rng = random.Random(17)
    samples = convex_samples()
    report = fit_polynomial(samples, DegreeVector(CONVEX_N5_DEGREES))
    for _ in range(200):
        bumped = PolynomialModel(
            report.model.degrees,
            TropicalVector([c + rng.uniform(-0.5, 0.5)
                            for c in report.model.coefficients], MAX_PLUS))
        worst = max(abs(eval_polynomial(bumped, x) - y)
                    for x, y in samples.points)
        assert worst >= report.error - 1e-12


# --- rational fitting -------------------------------------------------------

def test_fit_rational_nonconvex_demo():
    report = fit_rational(nonconvex_samples(),
                          DegreeVector(NONCONVEX_NUM_DEGREES),
                          DegreeVector(NONCONVEX_DEN_DEGREES))
    assert report.delta_star == pytest.approx(NONCONVEX_DELTA, abs=2e-3)
    assert report.error == pytest.approx(report.delta_star / 2.0, abs=1e-15)
    # Compare shapes after removing the common-scaling freedom: pin the
    # leading numerator coefficient.
    shift = NONCONVEX_THETA[0] - report.model.numerator.coefficients[0]
    for got, want in zip(report.model.numerator.coefficients, NONCONVEX_THETA):
        assert got + shift == pytest.approx(want, abs=2e-3)
    sigma = report.model.denominator.coefficients
    assert sigma[1] + shift == pytest.approx(NONCONVEX_SIGMA_TAIL, abs=2e-3)


def test_fit_rational_better_class_of_nonconvex_demo():
    # Swapping the +1 monomial for -1 tracks the dip near x = 1 and
    # roughly halves the squared error.
    report = fit_rational(nonconvex_samples(),
                          DegreeVector([-3, -2, -1, 0, 2, 4]),
                          DegreeVector([-5, -3, -2, 0]))
    assert report.delta_star == pytest.approx(0.0701450, abs=2e-3)


def test_fit_rational_recovers_exact_data():
    model = RationalModel(
        PolynomialModel(DegreeVector([-2, 1]),
                        TropicalVector((1.5, -0.5), MAX_PLUS)),
        PolynomialModel(DegreeVector([-1, 2]),
                        TropicalVector((0.25, -1.0), MAX_PLUS)))
    xs = [0.1 + 0.2 * i for i in range(12)]
    ss = SampleSet(tuple((x, eval_rational(model, x)) for x in xs), MAX_PLUS)
    report = fit_rational(ss, model.numerator.degrees,
                          model.denominator.degrees)
    assert report.termination is Termination.EXACT_SOLUTION
    assert abs(report.delta_star) <= 1e-9


def test_fit_rational_residual_identity():
    samples = nonconvex_samples()
    report = fit_rational(samples, DegreeVector(NONCONVEX_NUM_DEGREES),
                          DegreeVector(NONCONVEX_DEN_DEGREES))
    worst = max(abs(eval_rational(report.model, x) - y)
                for x, y in samples.points)
    assert worst == pytest.approx(report.error, abs=1e-9)


def test_fit_rational_gauge_freedom():
    samples = nonconvex_samples()
    report = fit_rational(samples, DegreeVector(NONCONVEX_NUM_DEGREES),
                          DegreeVector(NONCONVEX_DEN_DEGREES))
    lam = 2.75
    shifted = RationalModel(
        PolynomialModel(report.model.numerator.degrees,
                        TropicalVector([c + lam for c in
                                        report.model.numerator.coefficients],
                                       MAX_PLUS)),
        PolynomialModel(report.model.denominator.degrees,
                        TropicalVector([c + lam for c in
                                        report.model.denominator.coefficients],
                                       MAX_PLUS)))
    for x in (0.0, 0.3, 0.7, 1.1, 1.6, 2.0):
        assert eval_rational(shifted, x) == pytest.approx(
            eval_rational(report.model, x), abs=1e-12)
    worst = max(abs(eval_rational(shifted, x) - y) for x, y in samples.points)
    assert worst == pytest.approx(report.error, abs=1e-9)


# --- evaluation -------------------------------------------------------------

def test_eval_polynomial_examples():
    model = reference_n5_model()
    assert eval_polynomial(model, 0.0) == pytest.approx(2.5680, abs=1e-12)
    assert eval_polynomial(model, 1.0) == pytest.approx(0.5680, abs=1e-12)
    # at x = 1 the sample is 0.5, so the pointwise gap equals the fit error
    assert abs(eval_polynomial(model, 1.0) - 0.5) == pytest.approx(
        0.0680, abs=1e-12)

    identity = PolynomialModel(DegreeVector([1]),
                               TropicalVector((0.0,), MAX_PLUS))
    for x in (-2.0, 0.0, 3.5):
        assert eval_polynomial(identity, x) == x

    with pytest.raises(ZeroArgument):
        eval_polynomial(model, ZERO)


def test_eval_rational_examples():
    num = PolynomialModel(DegreeVector(NONCONVEX_NUM_DEGREES),
                          TropicalVector(NONCONVEX_THETA, MAX_PLUS))
    den = PolynomialModel(DegreeVector(NONCONVEX_DEN_DEGREES),
                          TropicalVector((3.2525, 2.4211), MAX_PLUS))
    model = RationalModel(num, den)
    assert eval_rational(model, 0.0) == pytest.approx(0.2228, abs=1e-12)

    self_quotient = RationalModel(reference_n5_model(), reference_n5_model())
    for x in (0.0, 0.5, 1.5):
        assert eval_rational(self_quotient, x) == MAX_PLUS.one

    unit_den = RationalModel(
        reference_n5_model(),
        PolynomialModel(DegreeVector([0]), TropicalVector((0.0,), MAX_PLUS)))
    for x in (0.0, 0.5, 1.5):
        assert eval_rational(unit_den, x) == eval_polynomial(
            reference_n5_model(), x)

    with pytest.raises(ZeroArgument):
        eval_rational(model, ZERO)


def test_eval_polynomial_is_convex_in_max_plus():
    rng = random.Random(23)
    model = reference_n5_model()
    for _ in range(200):
        x1, x2 = sorted((rng.uniform(-3, 3), rng.uniform(-3, 3)))
        t = rng.uniform(0.0, 1.0)
        mid = t * x1 + (1 - t) * x2
        blend = (t * eval_polynomial(model, x1)
                 + (1 - t) * eval_polynomial(model, x2))
        assert eval_polynomial(model, mid) <= blend + 1e-12


def test_model_validation():
    with pytest.raises(ValueError):
        PolynomialModel(DegreeVector([1, 2]),
                        TropicalVector((1.0,), MAX_PLUS))
    with pytest.raises(ValueError):
        PolynomialModel(DegreeVector([1, 2]),
                        TropicalVector((1.0, ZERO), MAX_PLUS))
    with pytest.raises(ValueError):
        RationalModel(
            PolynomialModel(DegreeVector([1]), TropicalVector((1.0,), MAX_PLUS)),
            PolynomialModel(DegreeVector([1]),
                            TropicalVector((1.0,), MAX_TIMES)))


def test_fit_works_in_max_times():
    # The same reduction applies verbatim in the other semifield.
    xs = [0.5 + 0.25 * i for i in range(8)]
    model = PolynomialModel(DegreeVector([0, 2]),
                            TropicalVector((1.25, 0.5), MAX_TIMES))
    ss = SampleSet(tuple((x, eval_polynomial(model, x)) for x in xs),
                   MAX_TIMES)
    report = fit_polynomial(ss, model.degrees)
    assert report.termination is Termination.EXACT_SOLUTION
    for x, y in ss.points:
        assert eval_polynomial(report.model, x) == pytest.approx(y, rel=1e-12)


def test_fit_rational_works_in_max_times():
    xs = [0.5 + 0.25 * i for i in range(8)]
    model = RationalModel(
        PolynomialModel(DegreeVector([-1, 1]),
                        TropicalVector((2.0, 0.75), MAX_TIMES)),
        PolynomialModel(DegreeVector([0, 2]),
                        TropicalVector((1.5, 0.25), MAX_TIMES)))
    ss = SampleSet(tuple((x, eval_rational(model, x)) for x in xs), MAX_TIMES)
    report = fit_rational(ss, model.numerator.degrees,
                          model.denominator.degrees)
    assert report.termination is Termination.EXACT_SOLUTION
    assert report.delta_star == pytest.approx(1.0, abs=1e-9)
    for x, y in ss.points:
        assert eval_rational(report.model, x) == pytest.approx(y, rel=1e-9)


# --- array core against the per-scalar reference ----------------------------

def test_fit_rational_matches_per_scalar_reference():
    samples = nonconvex_samples()
    for num, den in ((NONCONVEX_NUM_DEGREES, NONCONVEX_DEN_DEGREES),
                     ([-3, -2, 0, 1, 2, 4], [-5, -3, -2, 0])):
        num, den = DegreeVector(num), DegreeVector(den)
        report = fit_rational(samples, num, den)
        deltas, theta, sigma, termination = two_sided_reference(
            *rational_system(samples, num, den))
        assert report.delta_star == min(deltas)
        assert report.model.numerator.coefficients == theta
        assert report.model.denominator.coefficients == sigma
        assert report.iterations == len(deltas)
        assert report.termination is termination


def test_evaluate_matches_per_scalar_reference():
    rng = random.Random(29)
    xs = [rng.uniform(0.05, 3.0) for _ in range(50)]
    for sf in (MAX_PLUS, MAX_TIMES):
        def poly(degrees):
            return PolynomialModel(
                DegreeVector(degrees),
                TropicalVector([sf.from_real(rng.uniform(0.5, 3.0))
                                for _ in degrees], sf))
        for model in (poly([-2, Fraction(1, 3), 2]),
                      RationalModel(poly([-1, 0, 2]), poly([-3, 1]))):
            got = evaluate(model, xs).tolist()
            want = [eval_reference(model, x) for x in xs]
            if sf is MAX_PLUS:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12)


def test_evaluate_rejects_points_outside_the_semifield():
    model = reference_n5_model()
    mt_model = PolynomialModel(DegreeVector([1]),
                               TropicalVector((2.0,), MAX_TIMES))
    assert evaluate(mt_model, [0.5, 2.0]).tolist() == pytest.approx(
        [1.0, 4.0], rel=1e-15)
    with pytest.raises(ZeroArgument):
        evaluate(mt_model, [1.0, 0.0])
    with pytest.raises(ValueError):
        evaluate(mt_model, [-1.0])
    with pytest.raises(ValueError):
        evaluate(model, [math.nan])


# --- scale of the data ------------------------------------------------------

def test_fit_rational_at_large_magnitude():
    # Shifting y by c in max-plus leaves the error of a rational fit
    # unchanged. Near 2e7 the pointwise error and the solver error
    # differ by about 1.5e-9, under one ulp of the ordinates, which an
    # absolute 1e-9 self-check mistook for a bug.
    base = nonconvex_samples()
    num, den = (DegreeVector(NONCONVEX_NUM_DEGREES),
                DegreeVector(NONCONVEX_DEN_DEGREES))
    plain = fit_rational(base, num, den)
    for c in (2e7, 1e9):
        shifted = SampleSet(tuple((x, y + c) for x, y in base.points),
                            MAX_PLUS)
        report = fit_rational(shifted, num, den)
        assert report.error == pytest.approx(plain.error, abs=1e-6)
        worst = max(abs(eval_rational(report.model, x) - y)
                    for x, y in shifted.points)
        assert worst == pytest.approx(report.error, abs=64 * math.ulp(c))


# --- max-times through the logarithm ----------------------------------------

_positive = st.floats(min_value=0.05, max_value=20.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_positive, _positive), min_size=3, max_size=12,
                unique_by=lambda p: p[0]))
def test_max_times_fit_is_exp_of_max_plus_fit_of_logs(pairs):
    mt = SampleSet.from_reals(pairs, MAX_TIMES)
    mp = SampleSet.from_reals(np.log(pairs).tolist(), MAX_PLUS)
    degrees = DegreeVector([-1, 0, 2])
    poly_mt, poly_mp = fit_polynomial(mt, degrees), fit_polynomial(mp, degrees)
    assert poly_mt.delta_star == pytest.approx(math.exp(poly_mp.delta_star),
                                               rel=1e-12)
    num, den = DegreeVector([-1, 1]), DegreeVector([0, 2])
    rat_mt = fit_rational(mt, num, den, max_iter=200)
    rat_mp = fit_rational(mp, num, den, max_iter=200)
    assert rat_mt.delta_star == pytest.approx(math.exp(rat_mp.delta_star),
                                              rel=1e-12)
    assert rat_mt.iterations == rat_mp.iterations
    assert rat_mt.termination is rat_mp.termination


# --- metamorphic properties in max-plus -------------------------------------

_abscissas = st.floats(min_value=-3.0, max_value=3.0)
_ordinates = st.floats(min_value=-10.0, max_value=10.0)
_pairs = st.lists(st.tuples(_abscissas, _ordinates), min_size=2, max_size=15,
                  unique_by=lambda p: p[0])
_degree_vectors = st.lists(st.integers(-6, 6), min_size=1, max_size=4,
                           unique=True).map(DegreeVector)


def _max_plus(pairs):
    return SampleSet(tuple(pairs), MAX_PLUS)


@settings(max_examples=60, deadline=None)
@given(_pairs, _degree_vectors, st.floats(min_value=-1e8, max_value=1e8))
def test_shifting_y_keeps_the_error_and_shifts_the_coefficients(
        pairs, degrees, c):
    base = fit_polynomial(_max_plus(pairs), degrees)
    shifted = fit_polynomial(_max_plus((x, y + c) for x, y in pairs), degrees)
    # Rounding of y + c moves results by a few ulps of c; 1e-9 also
    # covers a fit on the edge of counting as exact.
    tol = max(1e-9, 64 * math.ulp(c))
    assert shifted.delta_star == pytest.approx(base.delta_star, abs=tol)
    for moved, kept in zip(shifted.model.coefficients,
                           base.model.coefficients):
        assert moved - c == pytest.approx(kept, abs=tol)


@settings(max_examples=60, deadline=None)
@given(_pairs.flatmap(lambda p: st.tuples(st.just(p), st.permutations(p))),
       _degree_vectors)
def test_permuting_the_samples_keeps_the_polynomial_fit(pairs, degrees):
    original, permuted = pairs
    assert (fit_polynomial(_max_plus(permuted), degrees)
            == fit_polynomial(_max_plus(original), degrees))


@settings(max_examples=40, deadline=None)
@given(_pairs, _degree_vectors, _degree_vectors)
def test_reported_error_is_the_largest_residual(pairs, num, den):
    samples = _max_plus(pairs)
    x = [p[0] for p in pairs]
    y = np.array([p[1] for p in pairs])
    for report in (fit_polynomial(samples, num),
                   fit_rational(samples, num, den, max_iter=100)):
        worst = float(np.max(np.abs(evaluate(report.model, x) - y)))
        assert worst == pytest.approx(report.error, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("fit", [
    lambda s: fit_polynomial(s, DegreeVector([2, 3])),
    lambda s: fit_rational(s, DegreeVector([2, 3]), DegreeVector([0])),
], ids=["polynomial", "rational"])
def test_max_times_delta_star_out_of_range_raises(fit):
    # The coefficients are in range, exp(delta) is not; no overflow
    # warning escapes (tier-1 turns it into an error).
    samples = SampleSet.from_reals([(1e-300, 1.0), (1e-200, 2.0), (0.5, 3.0)],
                                   MAX_TIMES)
    with pytest.raises(ValueError) as raised:
        fit(samples)
    assert str(raised.value) == ("delta_star leaves the float range: "
                                 "exp(1379.1) overflows to inf")


@pytest.mark.parametrize("point, message", [
    (1e-9, "a model value leaves the float range: exp(-828.9) underflows to 0"),
    (1e9, "a model value leaves the float range: exp(828.9) overflows to inf"),
])
def test_evaluate_rejects_max_times_values_out_of_range(point, message):
    # 0 is the semifield zero, not a value; inf is no float value at all.
    model = PolynomialModel(DegreeVector([40]),
                            TropicalVector((1.0,), MAX_TIMES))
    assert evaluate(model, [1.0]).tolist() == [1.0]
    with pytest.raises(ValueError) as raised:
        evaluate(model, [1.0, point])
    assert str(raised.value) == message


def test_max_plus_zero_coefficient_scores_and_fits():
    # y = x exactly: the fitted coefficient is 0.0, the max-plus unit,
    # which is a value like any other (in max-times it would read 1).
    samples = SampleSet.from_reals([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)],
                                   MAX_PLUS)
    report = fit_polynomial(samples, DegreeVector([1]))
    assert report.model.coefficients.elements == (0.0,)
    assert (report.delta_star, report.error) == (0.0, 0.0)
    assert report.termination is Termination.EXACT_SOLUTION
    scores = score_polynomials(samples, np.array([[1], [0]]))
    assert scores.tolist() == [0.0, 3.0]
    rational = fit_rational(samples, DegreeVector([1]), DegreeVector([0]))
    assert rational.model.numerator.coefficients.elements == (0.0,)
    assert rational.model.denominator.coefficients.elements == (0.0,)
    assert rational.delta_star == 0.0
