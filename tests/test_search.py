import contextlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tropfit.approx
import tropfit.search
import tropfit.solvers
from tropfit import (
    MAX_PLUS,
    MAX_TIMES,
    DegreeVector,
    RangeTooNarrow,
    SampleSet,
    SearchConfig,
    fit_polynomial,
    fit_rational,
    random_search,
    sample_degree_vector,
)
from tropfit.approx import score_polynomials
from tropfit.datasets import convex_samples, nonconvex_samples
from tropfit.search import BLOCK_COUNT


def test_sample_degree_vector_forced_draw():
    rng = np.random.default_rng(0)
    assert list(sample_degree_vector(0, 2, 3, rng)) == [0, 1, 2]


def test_sample_degree_vector_contract():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dv = sample_degree_vector(-15, 5, 5, rng)
        values = [int(d) for d in dv]
        assert len(set(values)) == 5
        assert values == sorted(values)
        assert all(-15 <= v <= 5 for v in values)


def test_sample_degree_vector_range_too_narrow():
    rng = np.random.default_rng(2)
    with pytest.raises(RangeTooNarrow):
        sample_degree_vector(0, 0, 2, rng)


@pytest.mark.parametrize("low, high", [
    (2**63 - 2, 2**63 + 5),     # numpy would wrap the drawn degrees
    (2**63, 2**63 + 5),
    (-2**63 - 3, -2**63 + 5),
])
def test_sample_degree_vector_rejects_bounds_past_int64(low, high):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="the degree bounds and the range "
                                         "width must lie within the int64"):
        sample_degree_vector(low, high, 3, rng)
    assert rng.bit_generator.state == before


def test_config_validation():
    with pytest.raises(RangeTooNarrow):
        SearchConfig(n_terms_numerator=5, degree_min=0, degree_max=2,
                     n_samples=10, rng_seed=1)
    with pytest.raises(ValueError):
        SearchConfig(n_terms_numerator=2, degree_min=0, degree_max=5,
                     n_samples=0, rng_seed=1)
    config = SearchConfig(n_terms_numerator=2, degree_min=0, degree_max=5,
                          n_samples=3, rng_seed=1, n_terms_denominator=2)
    assert config.is_rational


def test_config_rejects_a_negative_seed():
    # numpy's default_rng would reject it later, naming no field.
    with pytest.raises(ValueError, match="^rng_seed must be at least 0$"):
        SearchConfig(n_terms_numerator=2, degree_min=0, degree_max=5,
                     n_samples=3, rng_seed=-1)
    assert SearchConfig(n_terms_numerator=2, degree_min=0, degree_max=5,
                        n_samples=3, rng_seed=0).rng_seed == 0


def test_search_is_deterministic():
    samples = convex_samples()
    config = SearchConfig(n_terms_numerator=4, degree_min=-15, degree_max=5,
                          n_samples=40, rng_seed=123)
    first = random_search(samples, config)
    second = random_search(samples, config)
    assert first == second


def test_search_threads_do_not_change_the_result():
    samples = convex_samples()
    config = SearchConfig(n_terms_numerator=4, degree_min=-15, degree_max=5,
                          n_samples=40, rng_seed=7)
    serial = random_search(samples, config, threads=1)
    parallel = random_search(samples, config, threads=4)
    assert serial == parallel


def test_search_minimizes_over_the_trace():
    samples = convex_samples()
    config = SearchConfig(n_terms_numerator=3, degree_min=-15, degree_max=5,
                          n_samples=25, rng_seed=99)
    report = random_search(samples, config)
    assert report.samples_evaluated == 25
    assert len(report.error_trace) == 25
    finite = [delta for _, delta in report.error_trace if math.isfinite(delta)]
    assert report.best.delta_star == min(finite)

    # re-fitting the winning class reproduces the winner
    again = fit_polynomial(samples, report.best_degrees)
    assert again.delta_star == report.best.delta_star


def test_search_prefix_stability_and_dominance():
    samples = convex_samples()
    short = random_search(samples, SearchConfig(
        n_terms_numerator=3, degree_min=-15, degree_max=5,
        n_samples=10, rng_seed=5))
    long = random_search(samples, SearchConfig(
        n_terms_numerator=3, degree_min=-15, degree_max=5,
        n_samples=30, rng_seed=5))
    assert long.error_trace[:10] == short.error_trace
    assert long.best.delta_star <= short.best.delta_star


def test_search_injected_draw_reproduces_direct_fit(monkeypatch):
    samples = convex_samples()
    forced = DegreeVector([-14, -1, 1, 2, 3])
    # The block holds terms x draws offsets from degree_min = -15.
    monkeypatch.setattr(
        tropfit.search, "_choice_block",
        lambda rng, width, counts, n: [np.array([[1, 14, 16, 17, 18]] * n).T])
    report = random_search(samples, SearchConfig(
        n_terms_numerator=5, degree_min=-15, degree_max=5,
        n_samples=1, rng_seed=0))
    direct = fit_polynomial(samples, forced)
    assert report.best == direct
    assert report.best_degrees == forced
    assert report.error_trace == ((0, direct.delta_star),)
    assert report.best.delta_star == pytest.approx(0.1360, abs=1e-3)


def test_rational_search_smoke():
    samples = nonconvex_samples()
    config = SearchConfig(n_terms_numerator=4, degree_min=-10, degree_max=10,
                          n_samples=12, rng_seed=11, n_terms_denominator=2,
                          max_iter_two_sided=200)
    report = random_search(samples, config, threads=2)
    assert report.best_denominator_degrees is not None
    assert len(report.best_degrees) == 4
    assert len(report.best_denominator_degrees) == 2
    assert math.isfinite(report.best.delta_star)
    # the winning class re-fits to the same error
    again = fit_rational(samples, report.best_degrees,
                         report.best_denominator_degrees, max_iter=200)
    assert again.delta_star == report.best.delta_star


def test_search_skips_failing_classes(monkeypatch):
    samples = nonconvex_samples()
    calls = {"n": 0}
    real_fit = tropfit.search.fit_rational

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RangeTooNarrow("synthetic failure")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(tropfit.search, "fit_rational", flaky)
    report = random_search(samples, SearchConfig(
        n_terms_numerator=3, degree_min=-6, degree_max=6, n_samples=4,
        rng_seed=3, n_terms_denominator=2, max_iter_two_sided=100))
    assert calls["n"] == 4
    assert report.error_trace[0][1] == math.inf
    assert all(math.isfinite(d) for _, d in report.error_trace[1:])
    assert math.isfinite(report.best.delta_star)


def test_search_records_a_failed_self_check_as_inf(monkeypatch):
    # With every tolerance at zero, rounding in the g demo shifted up by
    # 2e7 fails the post-fit check of some draws; the search goes on.
    monkeypatch.setattr(tropfit.approx, "RATIONAL_ERROR_CHECK_TOL", 0.0)
    monkeypatch.setattr(tropfit.solvers, "TOL_ULPS", 0)
    samples = SampleSet(tuple((x, y + 2e7)
                              for x, y in nonconvex_samples().points),
                        MAX_PLUS)
    report = random_search(samples, SearchConfig(
        n_terms_numerator=4, degree_min=-10, degree_max=10, n_samples=12,
        rng_seed=11, n_terms_denominator=2, max_iter_two_sided=200))
    errors = [delta for _, delta in report.error_trace]
    assert math.inf in errors
    assert report.best.delta_star == min(errors) < math.inf


def test_rational_search_skips_a_value_error(monkeypatch):
    samples = nonconvex_samples()
    real_fit = tropfit.search.fit_rational
    calls = []

    def overflowing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("synthetic overflow")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(tropfit.search, "fit_rational", overflowing)
    report = random_search(samples, SearchConfig(
        n_terms_numerator=3, degree_min=-6, degree_max=6, n_samples=4,
        rng_seed=3, n_terms_denominator=2, max_iter_two_sided=100))
    assert [delta == math.inf for _, delta in report.error_trace] == [
        False, True, False, False]
    assert math.isfinite(report.best.delta_star)


@pytest.mark.parametrize("error", [ValueError, RangeTooNarrow])
def test_a_rational_search_whose_draws_all_fail_raises_the_first_error(
        monkeypatch, error):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise error(f"draw {len(calls) - 1} failed")

    monkeypatch.setattr(tropfit.search, "fit_rational", failing)
    with pytest.raises(error, match="^draw 0 failed$"):
        random_search(nonconvex_samples(), SearchConfig(
            n_terms_numerator=3, degree_min=-6, degree_max=6, n_samples=4,
            rng_seed=3, n_terms_denominator=2))
    assert len(calls) == 4


def _probe_samples():
    """The f samples mapped to max-times: x = e^(t + 1), y = e^y."""
    return SampleSet(tuple((math.exp(t + 1), math.exp(y))
                           for t, y in convex_samples().points), MAX_TIMES)


@pytest.mark.parametrize("n_den, bound, failed, delta_star, num, den", [
    (None, 300, 46, 8.790855251739556, [0, 44, 199], None),
    (1, 300, 42, 61.982032661270544, [-204, -32], [-35]),
    (None, 600, 145, 4.560915404207631, [-594, -125, 1], None),
    (1, 600, 120, 17984.87668574982, [-408, -64], [-70]),
])
def test_searches_score_draws_that_cannot_be_fitted_as_inf(
        n_den, bound, failed, delta_star, num, den):
    # Wide ranges give many draws whose coefficients leave the float
    # range in max-times; each scores inf and the search goes on.
    report = random_search(_probe_samples(), SearchConfig(
        n_terms_numerator=3 if n_den is None else 2, degree_min=-bound,
        degree_max=bound, n_samples=200, rng_seed=1,
        n_terms_denominator=n_den))
    trace = [delta for _, delta in report.error_trace]
    assert trace.count(math.inf) == failed
    assert report.best.delta_star == min(trace) == delta_star
    assert report.best_degrees == DegreeVector(num)
    assert report.best_denominator_degrees == (
        None if den is None else DegreeVector(den))


# --- batched polynomial scoring against draw-by-draw fits -------------------

def _choice_draw(rng, low, high, count):
    """One degree class from numpy's own rng.choice."""
    values = rng.choice(high - low + 1, size=count, replace=False) + low
    return DegreeVector(sorted(values.tolist()))


def _draw_by_draw(samples, config):
    """Trace and winner of a polynomial search fitted one draw at a time."""
    rng = np.random.default_rng(config.rng_seed)
    draws = [_choice_draw(rng, config.degree_min, config.degree_max,
                          config.n_terms_numerator)
             for _ in range(config.n_samples)]
    trace = [fit_polynomial(samples, dv).delta_star for dv in draws]
    winner = trace.index(min(trace))
    return trace, draws[winner]


def _max_times(samples):
    return SampleSet(tuple((math.exp(x), math.exp(y))
                           for x, y in samples.points), MAX_TIMES)


#: Rows per gather in the tests that cross gathers. score_polynomials
#: gathers SCORE_ELEMENTS floats at once, which holds hundreds of rows for
#: small data, so those tests shrink it with _gathers_of.
BLOCK = 64


@contextlib.contextmanager
def _gathers_of(rows, n_terms, n_samples):
    """score_polynomials gathering rows rows of n_terms by n_samples."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tropfit.approx, "SCORE_ELEMENTS",
                      rows * n_terms * n_samples)
        yield patch


@pytest.mark.parametrize("n_samples", [1, BLOCK - 1, BLOCK, BLOCK + 1, 500])
@pytest.mark.parametrize("semifield", ["max-plus", "max-times"])
def test_batched_search_matches_draw_by_draw_fits(n_samples, semifield):
    samples = convex_samples()
    if semifield == "max-times":
        samples = _max_times(samples)
    for seed, gather in ((0, None), (0, BLOCK), (17, BLOCK)):
        config = SearchConfig(n_terms_numerator=5, degree_min=-15,
                              degree_max=5, n_samples=n_samples,
                              rng_seed=seed)
        with (_gathers_of(gather, 5, len(samples)) if gather
              else contextlib.nullcontext()):
            report = random_search(samples, config)
        trace, winner = _draw_by_draw(samples, config)
        assert [delta for _, delta in report.error_trace] == trace
        assert [index for index, _ in report.error_trace] == list(
            range(n_samples))
        assert report.samples_evaluated == n_samples
        assert report.best_degrees == winner
        assert report.best == fit_polynomial(samples, winner)
        assert report.best_denominator_degrees is None


def test_batched_search_tie_goes_to_the_first_draw():
    # Five of five degrees: every draw is the class [0, 4], in a
    # different order from the generator, and ties everywhere.
    samples = nonconvex_samples()
    config = SearchConfig(n_terms_numerator=5, degree_min=0, degree_max=4,
                          n_samples=2 * BLOCK + 3, rng_seed=4)
    with _gathers_of(BLOCK, 5, len(samples)):
        report = random_search(samples, config)
    trace, winner = _draw_by_draw(samples, config)
    assert [delta for _, delta in report.error_trace] == trace
    assert len(set(trace)) == 1
    assert report.best_degrees == winner == DegreeVector([0, 1, 2, 3, 4])
    assert report.best == fit_polynomial(samples, winner)


def test_batched_search_overflow_raises_value_error():
    # 1e308 times any degree of magnitude 2 or more overflows the floats.
    samples = SampleSet(((1e308, 0.0), (2.0, 1.0)), MAX_PLUS)
    config = SearchConfig(n_terms_numerator=3, degree_min=-4, degree_max=4,
                          n_samples=BLOCK + 1, rng_seed=0)
    with pytest.raises(ValueError, match="overflows the float range"):
        random_search(samples, config)
    with pytest.raises(ValueError, match="overflows the float range"):
        _draw_by_draw(samples, config)


def test_batched_search_scores_unrepresentable_coefficients_as_inf():
    # In max-times, draws whose coefficients underflow to 0 cannot be
    # built as models; they score inf and the search goes on.
    samples = SampleSet(((1e-300, 1.0), (1e-200, 2.0), (0.5, 3.0)),
                        MAX_TIMES)
    config = SearchConfig(n_terms_numerator=3, degree_min=-4, degree_max=4,
                          n_samples=BLOCK + 1, rng_seed=0)
    report = random_search(samples, config)
    rng = np.random.default_rng(config.rng_seed)
    trace, errors = [], []
    for _ in range(config.n_samples):
        try:
            trace.append(fit_polynomial(samples, _choice_draw(
                rng, -4, 4, 3)).delta_star)
        except ValueError as exc:
            trace.append(math.inf)
            errors.append(str(exc))
    assert [delta for _, delta in report.error_trace] == trace
    assert trace.count(math.inf) == 44
    assert errors[0] == ("coefficient 0 leaves the float range: "
                         "exp(-2302.2) underflows to 0")
    assert report.best.delta_star == min(trace) == 2.0
    assert report.best_degrees == DegreeVector([0, 1, 3])


def test_failing_rows_past_the_first_block_score_inf_without_a_refit(
        monkeypatch):
    samples = SampleSet(((1e-300, 1.0), (1e-200, 2.0), (0.5, 3.0)),
                        MAX_TIMES)
    fitting = [[-1, 0], [0, 1], [0, 2], [-1, 1], [1, 2]]
    # Row BLOCK + 6 underflows, the row after it overflows.
    rows = np.array((fitting * BLOCK)[:BLOCK + 6] + [[-3, -2], [3, 4]],
                    dtype=np.int64)
    with pytest.raises(ValueError) as first:
        fit_polynomial(samples, DegreeVector([-3, -2]))
    with pytest.raises(ValueError) as later:
        fit_polynomial(samples, DegreeVector([3, 4]))
    assert str(first.value) != str(later.value)
    # The failing whole-array check judges each row without a fit.
    calls = []
    monkeypatch.setattr(tropfit.approx, "fit_polynomial",
                        lambda *a: calls.append(a) or fit_polynomial(*a))
    with _gathers_of(BLOCK, 2, 3):
        scores, best = score_polynomials(samples, rows)
    assert np.isinf(scores).tolist() == [False] * (BLOCK + 6) + [True] * 2
    assert not calls
    deltas = [fit_polynomial(samples, DegreeVector(row)).delta_star
              for row in fitting]
    assert best == fit_polynomial(
        samples, DegreeVector(fitting[deltas.index(min(deltas))]))
    # When every row fails, one fit raises the first row's error.
    with pytest.raises(ValueError) as scored, _gathers_of(BLOCK, 2, 3):
        score_polynomials(samples, rows[BLOCK + 6:])
    assert str(scored.value) == str(first.value)
    assert len(calls) == 1


def test_scoring_holds_one_degrees_by_samples_table():
    # 2000 rows of 3 degrees over +-10^6 hold about 6000 distinct
    # degrees; the per-degree tables share one buffer of that many rows.
    rng = np.random.default_rng(19)
    x = rng.uniform(-1.0, 1.0, 400)
    samples = SampleSet.from_columns(x, x**2 + rng.normal(0.0, 0.05, 400),
                                     MAX_PLUS)
    rows = np.array([rng.choice(2 * 10**6 + 1, 3, replace=False) - 10**6
                     for _ in range(2000)])
    table = 8 * len(np.unique(rows)) * len(samples)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        score_polynomials(samples, rows)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table


def test_scoring_rows_without_degrees_raises_as_fits_do():
    # Every row fails as DegreeVector([]) does, so the first one raises.
    with pytest.raises(ValueError, match="^at least one degree is required$"):
        score_polynomials(convex_samples(), np.empty((3, 0), np.int64))
    scores, best = score_polynomials(convex_samples(),
                                     np.empty((0, 0), np.int64))
    assert scores.shape == (0,) and best is None


def test_scoring_no_rows_gives_an_empty_array():
    scores, best = score_polynomials(convex_samples(),
                                     np.zeros((0, 3), dtype=np.int64))
    assert scores.shape == (0,)
    assert scores.dtype == np.float64
    assert best is None


def test_search_over_a_wide_range_matches_draw_by_draw_fits():
    # The per-degree tables hold the drawn degrees, not the 2e9 + 1 of
    # the range.
    samples = convex_samples()
    config = SearchConfig(n_terms_numerator=5, degree_min=-10**9,
                          degree_max=10**9, n_samples=BLOCK + 1, rng_seed=3)
    report = random_search(samples, config)
    trace, winner = _draw_by_draw(samples, config)
    assert [delta for _, delta in report.error_trace] == trace
    assert report.best_degrees == winner


@st.composite
def _scoring_cases(draw):
    """Samples of either semifield and rows over a shared degree pool."""
    semifield = draw(st.sampled_from([MAX_PLUS, MAX_TIMES]))
    pairs = draw(st.lists(st.tuples(st.floats(-3.0, 3.0),
                                    st.floats(-10.0, 10.0)),
                          min_size=1, max_size=12, unique_by=lambda p: p[0]))
    if semifield is MAX_TIMES:
        pairs = [(math.exp(x), math.exp(y)) for x, y in pairs]
    bound = draw(st.sampled_from([20, 10**6]))
    pool = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=8,
                         unique=True))
    n_terms = draw(st.integers(1, min(len(pool), 5)))
    n_rows = draw(st.integers(1, 2 * BLOCK + 1))
    rows = draw(st.lists(st.permutations(pool).map(lambda p: p[:n_terms]),
                         min_size=n_rows, max_size=n_rows))
    gather = draw(st.integers(1, BLOCK))
    return SampleSet.from_reals(pairs, semifield), rows, gather


def _hex_report(report):
    """A polynomial FitReport with its floats as float.hex strings."""
    return (report.delta_star.hex(), report.error.hex(),
            report.model.degrees,
            [float(c).hex() for c in report.model.coefficients.elements],
            report.iterations, report.termination)


def _check_scores_equal_per_row_fits(samples, rows, gather):
    """score_polynomials equals fit_polynomial row by row, in float.hex.

    A row whose fit raises ValueError scores inf. When every row's fit
    raises, scoring raises the first row's error text. Scoring calls
    fit_polynomial only then, once, to raise it.
    """
    rows_array = np.array(rows, dtype=np.int64)
    expected = []
    for row in rows:
        try:
            expected.append(fit_polynomial(samples, DegreeVector(row)))
        except ValueError as exc:
            expected.append(exc)
    fits = [report for report in expected
            if not isinstance(report, ValueError)]
    calls = []
    with _gathers_of(gather, len(rows[0]), len(samples)) as patch:
        patch.setattr(tropfit.approx, "fit_polynomial",
                      lambda *a: calls.append(a) or fit_polynomial(*a))
        if not fits:
            with pytest.raises(ValueError) as scored:
                score_polynomials(samples, rows_array)
            assert str(scored.value) == str(expected[0])
            # None when the first row's DegreeVector raises.
            assert len(calls) == (len(set(rows[0])) == len(rows[0]))
            return
        scores, best = score_polynomials(samples, rows_array)
    assert not calls
    assert [float(d).hex() for d in scores] == [
        math.inf.hex() if isinstance(report, ValueError)
        else report.delta_star.hex() for report in expected]
    deltas = [report.delta_star for report in fits]
    assert _hex_report(best) == _hex_report(fits[deltas.index(min(deltas))])


@settings(max_examples=100, deadline=None)
@given(_scoring_cases())
def test_scores_equal_per_row_fits_bit_for_bit(case):
    _check_scores_equal_per_row_fits(*case)


def test_enumeration_finds_the_optimum_of_the_readme_class_space():
    # Every 5-term class of [-15, 5] on f, whose optimum a seeded search
    # can miss (the README search does at seed 0). Three classes attain
    # it, and the report is that of the first in lexicographic order.
    samples = convex_samples()
    rows = np.array(list(itertools.combinations(range(-15, 6), 5)))
    assert len(rows) == 20349
    scores, best = score_polynomials(samples, rows)
    optimum = fit_polynomial(samples, DegreeVector([-14, -1, 1, 2, 3]))
    assert scores.min() == optimum.delta_star == 0.13600825625651192
    winners = np.flatnonzero(scores == scores.min())
    assert len(winners) == 3
    assert rows[winners[0]].tolist() == [-15, -1, 1, 2, 3]
    assert _hex_report(best) == _hex_report(
        fit_polynomial(samples, DegreeVector([-15, -1, 1, 2, 3])))


def _extreme(signed):
    """Floats of magnitude 1e-308 to 9.9e307, negated too when signed.

    Magnitudes near 1e307 are drawn often: times a small degree they
    come close to the float range's edge without passing it.
    """
    magnitude = st.one_of(
        st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                  st.floats(1.0, 9.9), st.integers(-308, 307)),
        st.sampled_from([1e306, 1e307, 5e307]))
    if signed:
        magnitude = st.builds(lambda m, negate: -m if negate else m,
                              magnitude, st.booleans())
    return st.one_of(magnitude, st.floats(-10.0, 10.0) if signed
                     else st.floats(0.1, 10.0))


@st.composite
def _extreme_scoring_cases(draw):
    """Samples up to 1e308 in either semifield, rows over a degree pool.

    The data reach the float range's edges, so in many cases a whole-array
    range check fails and the rows are checked one by one. A failing
    check of the terms' extremes with no failing row is rare here, so
    test_scoring_survives_a_failing_whole_array_check pins one.
    """
    semifield = draw(st.sampled_from([MAX_PLUS, MAX_TIMES]))
    signed = semifield is MAX_PLUS
    pairs = draw(st.lists(st.tuples(_extreme(signed), _extreme(signed)),
                          min_size=1, max_size=6, unique_by=lambda p: p[0]))
    bound = draw(st.sampled_from([2, 20, 10**6]))
    pool = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=6,
                         unique=True))
    n_terms = draw(st.integers(1, min(len(pool), 4)))
    n_rows = draw(st.integers(1, 2 * BLOCK + 1))
    rows = draw(st.lists(st.permutations(pool).map(lambda p: p[:n_terms]),
                         min_size=n_rows, max_size=n_rows))
    gather = draw(st.integers(1, BLOCK))
    return SampleSet.from_reals(pairs, semifield), rows, gather


@settings(max_examples=200, deadline=None)
@given(_extreme_scoring_cases())
# x spans zero and the degrees have both signs, so the least term, -1e308,
# is the product of the least degree and the largest x. Only the bounds of
# the terms fail the whole-array check, and the last class on its own.
@example((SampleSet.from_reals([(-2.0, 0.0), (1e302, 0.0)], MAX_PLUS),
          [[10**6, 1], [-1, -10**6], [-10**6, 10**6]], BLOCK))
def test_scores_at_extreme_magnitudes_equal_per_row_fits(case):
    _check_scores_equal_per_row_fits(*case)


def test_scoring_survives_a_failing_whole_array_check():
    # The extremes of both rows' terms, -9e307 and 9e307, fail the range
    # rule together, but each row alone fits: its slack reaches 9e307.
    samples = SampleSet.from_reals([(1e307, 0.0), (1.0, 0.0)], MAX_PLUS)
    rows = [[9], [-9]]
    assert not tropfit.solvers.residuation_in_range(-9e307, 9e307, 0.0, 0.0)
    _check_scores_equal_per_row_fits(samples, rows, BLOCK)
    scores, best = score_polynomials(samples, np.array(rows))
    assert scores.tolist() == [9e307, 9e307]
    assert best == fit_polynomial(samples, DegreeVector([9]))


@pytest.mark.parametrize("rows, sorted_out", [
    # Spans of 3 and 4 integers in 4 entries take the offset table,
    ([[2, 3], [3, 4]], False),
    ([[1, 2], [3, 4]], False),
    # a span of 5 integers in 4 entries takes np.unique,
    ([[0, 1], [3, 4]], True),
    # as do wide ranges.
    ([[-10**9, 0], [5, 10**9]], True),
])
def test_degree_index_equals_np_unique(rows, sorted_out, monkeypatch):
    rows = np.array(rows, dtype=np.int64)
    expected_degrees, expected_index = np.unique(rows, return_inverse=True)
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique",
                        lambda *a, **k: calls.append(a) or unique(*a, **k))
    degrees, index = tropfit.approx._degree_index(rows)
    assert bool(calls) == sorted_out
    assert degrees.tolist() == expected_degrees.tolist()
    assert index.tolist() == expected_index.reshape(rows.shape).tolist()
    monkeypatch.undo()
    _check_scores_equal_per_row_fits(convex_samples(), rows.tolist(), BLOCK)


def test_degree_index_covers_a_narrow_span_with_a_gap():
    # A span of 4 integers in 16 entries: the table is the whole span,
    # undrawn degree 1 included, and the index holds the offsets.
    rows = np.tile(np.array([[0, 2], [2, 3]], dtype=np.int64), (4, 1))
    degrees, index = tropfit.approx._degree_index(rows)
    assert degrees.tolist() == [0, 1, 2, 3]
    assert index.tolist() == rows.tolist()
    degrees, index = tropfit.approx._degree_index(rows + 7, -9)
    assert degrees.tolist() == [-2, -1, 0, 1]
    assert index.tolist() == rows.tolist()
    _check_scores_equal_per_row_fits(convex_samples(), rows.tolist(), BLOCK)
    # In 4 entries the offset table leaves the undrawn degree out.
    degrees, index = tropfit.approx._degree_index(rows[:2] - 5, 5)
    assert degrees.tolist() == [0, 2, 3]
    assert index.tolist() == [[0, 1], [1, 2]]
    _check_scores_equal_per_row_fits(convex_samples(), rows[:2].tolist(),
                                     BLOCK)


def test_scoring_rows_that_repeat_a_degree_raises_as_fits_do():
    # A row that repeats a degree fails as its fit does: it scores inf,
    # and when every row fails, the first row's error is raised.
    samples = convex_samples()
    with pytest.raises(ValueError, match="^duplicate degree 1$"):
        fit_polynomial(samples, DegreeVector([1, 1]))
    delta = fit_polynomial(samples, DegreeVector([0, 2])).delta_star
    scores, best = score_polynomials(samples, np.array([[1, 1], [0, 2]]))
    assert scores.tolist() == [math.inf, delta]
    assert best == fit_polynomial(samples, DegreeVector([0, 2]))
    scores, _ = score_polynomials(samples, np.array([[0, 2], [-4, -4]]))
    assert scores.tolist() == [delta, math.inf]
    with pytest.raises(ValueError, match="^duplicate degree -4$"):
        score_polynomials(samples, np.array([[-4, -4], [1, 1]]))
    _check_scores_equal_per_row_fits(samples, [[0, 2], [3, 3], [1, 2]],
                                     BLOCK)
    _check_scores_equal_per_row_fits(samples, [[3, 3], [1, 1]], BLOCK)


def test_an_earlier_failing_row_raises_before_a_later_duplicate():
    # Row 1 underflows in max-times, row 2 repeats a degree.
    samples = SampleSet(((1e-300, 1.0), (1e-200, 2.0), (0.5, 3.0)),
                        MAX_TIMES)
    rows = [[-1, 0], [-3, -2], [1, 1]]
    with pytest.raises(ValueError) as first:
        fit_polynomial(samples, DegreeVector(rows[1]))
    assert "duplicate" not in str(first.value)
    scores, _ = score_polynomials(samples, np.array(rows))
    assert np.isinf(scores).tolist() == [False, True, True]
    # Without row 0 every row fails, and row 1 raises first.
    with pytest.raises(ValueError) as scored:
        score_polynomials(samples, np.array(rows[1:]))
    assert str(scored.value) == str(first.value)
    _check_scores_equal_per_row_fits(samples, rows, BLOCK)
    _check_scores_equal_per_row_fits(samples, rows[1:], BLOCK)


def _scoring_outcome(samples, rows):
    """float.hex scores and best report of score_polynomials, or its error."""
    try:
        scores, best = score_polynomials(samples, rows)
    except ValueError as exc:
        return str(exc)
    return [float(d).hex() for d in scores], _hex_report(best), best


@pytest.mark.parametrize("semifield", ["max-plus", "max-times"])
@pytest.mark.parametrize("bound, n_rows", [
    (15, 500),      # 31 integers in 500 x 5 entries: the offset table
    (150, 40),      # about 300 integers in 40 x 5 entries: np.unique
])
@pytest.mark.parametrize("failing", [False, True])
def test_scores_do_not_depend_on_the_order_of_a_rows_terms(semifield, bound,
                                                           n_rows, failing):
    # A row's delta is a max over the samples of mins over its terms, so
    # the unsorted classes of a block draw score as their sorted rows do.
    if failing:
        # Coefficients underflow to 0 in max-times, and designs overflow
        # the floats in max-plus, as in the batched-search tests above.
        samples = (SampleSet(((1e-300, 1.0), (1e-200, 2.0), (0.5, 3.0)),
                             MAX_TIMES) if semifield == "max-times"
                   else SampleSet(((1e308, 0.0), (2.0, 1.0)), MAX_PLUS))
    else:
        samples = convex_samples()
        if semifield == "max-times":
            samples = _max_times(samples)
    rng = np.random.default_rng(bound)
    drawn = np.array([rng.choice(2 * bound + 1, size=5, replace=False)
                      for _ in range(n_rows)]) - bound
    rows = np.sort(drawn, axis=1)
    span = rows.max() - rows.min() + 1
    assert (span > rows.size) == (bound == 150)
    expected = _scoring_outcome(samples, rows)
    # With failing rows, they score inf, or every row fails and raises.
    assert (isinstance(expected, str) or "inf" in expected[0]) == failing
    for permuted in (drawn, rows[:, ::-1], rng.permuted(rows, axis=1)):
        assert (permuted != rows).any(axis=1).mean() > 0.9
        assert _scoring_outcome(samples, permuted) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-10.0, 10.0)),
                min_size=2, max_size=15, unique_by=lambda p: p[0])
       .flatmap(lambda p: st.tuples(st.just(p), st.permutations(p))),
       st.integers(0, 2**32 - 1))
def test_permuting_the_samples_keeps_the_search(pairs, seed):
    original, permuted = pairs
    config = SearchConfig(n_terms_numerator=3, degree_min=-6, degree_max=6,
                          n_samples=BLOCK + 5, rng_seed=seed)
    assert (random_search(SampleSet(tuple(permuted), MAX_PLUS), config)
            == random_search(SampleSet(tuple(original), MAX_PLUS), config))


# --- the block draw against numpy's per-draw rng.choice stream --------------

def _choice_rounds(rng, width, counts, n):
    """n rounds of rng.choice calls, one per count, as sorted int blocks."""
    calls = [[np.sort(rng.choice(width, size=c, replace=False))
              for c in counts] for _ in range(n)]
    return [np.array([call[i] for call in calls],
                     dtype=np.int64).reshape(n, c)
            for i, c in enumerate(counts)]


BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.Philox, np.random.SFC64)


def _assert_same_stream(width, counts, n, seed, bit_generator=np.random.PCG64,
                        buffered=False):
    block_rng = np.random.Generator(bit_generator(seed))
    choice_rng = np.random.Generator(bit_generator(seed))
    if buffered:
        # A 32-bit draw leaves the high half of a 64-bit output buffered.
        for rng in (block_rng, choice_rng):
            rng.integers(0, 7, dtype=np.uint32)
    blocks = tropfit.search._choice_block(block_rng, width, counts, n)
    expected = _choice_rounds(choice_rng, width, counts, n)
    assert len(blocks) == len(expected)
    for block, reference in zip(blocks, expected):
        # Terms x draws, each draw's terms unsorted.
        assert block.dtype == np.int64
        assert block.flags.c_contiguous
        rows = np.sort(block.T, axis=1)
        assert rows.shape == reference.shape
        assert (rows == reference).all()
    # MT19937's state holds an array, so the states are compared deeply.
    np.testing.assert_equal(block_rng.bit_generator.state,
                            choice_rng.bit_generator.state)
    assert _following(block_rng) == _following(choice_rng)


def _following(rng):
    """The next 64-bit, 32-bit and float draws of rng."""
    return (rng.integers(0, 2**40, size=3).tolist(),
            rng.integers(0, 9, dtype=np.uint32).tolist(),
            rng.random(3).tolist())


@pytest.mark.parametrize("width, count, n", [
    (1, 1, 5),
    (5, 5, 40),                     # width = count: Floyd's first draw is free
    (21, 1, 200),
    (21, 5, 500),
    (21, 21, 30),
    (300, 150, 20),
    (300, BLOCK_COUNT, 20),          # largest block class
    (300, BLOCK_COUNT + 1, 20),      # smallest class drawn by rng.choice
    (10000, 10000, 2),
    (2**31 + 1, 6, 300),            # from here on, most rounds redraw a word
    (3_000_000_000, 4, 300),
    (4_000_000_000, 5, 300),
    (2**32, 3, 200),                # widest 32-bit bound
    (2**32 + 1, 3, 20),             # from here on, 64-bit bounds
    (10**12, 6, 300),
    (2**62, 3, 300),
    (10001, BLOCK_COUNT, 20),       # largest block class above 10000
    (10001, 200, 4),                # last Floyd case of rng.choice
    (10001, 201, 4),                # rng.choice shuffles a tail
])
@pytest.mark.parametrize("buffered", [False, True])
def test_block_draw_equals_rng_choice(width, count, n, buffered):
    for bit_generator in BIT_GENERATORS:
        for seed in (0, 1, 2026):
            _assert_same_stream(width, (count,), n, seed, bit_generator,
                                buffered)


@pytest.mark.parametrize("width, counts", [
    (21, (4, 2)), (21, (5, 3)), (8, (1, 8)), (9, (0, 3)),
    (3_000_000_000, (4, 2)),
])
def test_interleaved_block_draw_equals_rng_choice(width, counts):
    for bit_generator in BIT_GENERATORS:
        for seed, buffered in ((0, False), (7, True), (123, False)):
            _assert_same_stream(width, counts, 150, seed, bit_generator,
                                buffered)


def test_block_draw_with_another_bit_generator_equals_rng_choice():
    for bit_generator in BIT_GENERATORS[1:]:
        for width, counts in ((21, (5,)), (21, (4, 2)), (10**12, (4, 2)),
                              (10001, (201,))):
            _assert_same_stream(width, counts, 60, 3, bit_generator)


def test_block_draw_calls_rng_choice_only_above_block_count():
    # A round with a class of more than BLOCK_COUNT terms draws every
    # class of it with one rng.choice call; no other round calls it.
    class Counting(np.random.Generator):
        def choice(self, *args, **kwargs):
            calls.append(kwargs["size"])
            return super().choice(*args, **kwargs)

    choice_block = tropfit.search._choice_block
    for width, counts in ((1, (1,)), (21, (5,)), (21, (4, 2)), (9, (0, 3)),
                          (300, (BLOCK_COUNT,)), (10001, (BLOCK_COUNT, 3)),
                          (2**32 + 1, (3,)), (2**62, (4, 2)),
                          (300, (BLOCK_COUNT + 1,)), (10000, (10000,)),
                          (10001, (201,)), (10**6, (4, BLOCK_COUNT + 1))):
        expected = list(counts) * 20 if max(counts) > BLOCK_COUNT else []
        for bit_generator in BIT_GENERATORS:
            calls = []
            choice_block(Counting(bit_generator(0)), width, counts, 20)
            assert calls == expected, (width, counts)


def test_block_draw_takes_the_broadcast_call_only_where_it_must():
    # Bounds 1 to 2**32 - 1 map one fill of 32-bit words while fewer than
    # one rejected word is expected; rng.integers sees an array of bounds
    # only for a zero bound (width = count), a 64-bit bound, a likely
    # rejection, or the redraw after a rejected word.
    class Recording(np.random.Generator):
        def integers(self, low, high=None, *args, **kwargs):
            if np.ndim(low) or np.ndim(high):
                calls.append("broadcast")
            elif low == 2**32 and high is None:
                calls.append("fill")
            return super().integers(low, high, *args, **kwargs)

    for width, counts, n, seed, expected in (
            (21, (5,), 500, 2026, ["fill"]),
            (21, (4, 2), 500, 2026, ["fill"]),
            (5, (5,), 40, 2026, ["broadcast"]),
            (2**32 + 1, (3,), 20, 2026, ["broadcast"]),
            # One word of bound 2**31 is rejected about half the time:
            # seed 1 keeps it, seed 0 rejects it and redraws.
            (2**31 + 1, (1,), 1, 1, ["fill"]),
            (2**31 + 1, (1,), 1, 0, ["fill", "broadcast"]),
            # Nearly every round of these widths would reject a word.
            (2**31 + 1, (6,), 300, 2026, ["broadcast"]),
            (3_000_000_000, (4, 2), 150, 2026, ["broadcast"])):
        calls = []
        rng = Recording(np.random.PCG64(seed))
        blocks = tropfit.search._choice_block(rng, width, counts, n)
        assert calls == expected, (width, counts, seed)
        reference = np.random.default_rng(seed)
        rounds = _choice_rounds(reference, width, counts, n)
        for block, rows in zip(blocks, rounds):
            assert (np.sort(block.T, axis=1) == rows).all()
        np.testing.assert_equal(rng.bit_generator.state,
                                reference.bit_generator.state)


def test_sample_degree_vector_pinned_for_one_seed():
    rng = np.random.default_rng(2026)
    rows = [[int(d) for d in sample_degree_vector(-15, 5, 5, rng)]
            for _ in range(4)]
    assert rows == [[-15, -12, -8, -3, -1], [-9, -1, 0, 4, 5],
                    [-14, -12, -10, 0, 4], [-13, -6, -3, 2, 4]]
    assert rng.integers(0, 100, size=3).tolist() == [15, 27, 14]
    rng = np.random.default_rng(2026)
    rows = [[int(d) for d in sample_degree_vector(0, 2**31, 3, rng)]
            for _ in range(2)]
    assert rows == [[56731231, 384259586, 1829338324],
                    [171429433, 795643823, 1003451250]]


def test_sample_degree_vector_edge_sizes():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert tropfit.search._choice_block(rng, 21, (5,), 0)[0].shape == (5, 0)
    assert tropfit.search._choice_block(rng, 21, (0,), 4)[0].shape == (0, 4)
    with pytest.raises(ValueError, match="at least one degree is required"):
        sample_degree_vector(-15, 5, 0, rng)
    with pytest.raises(ValueError, match="count must not be negative"):
        sample_degree_vector(-15, 5, -1, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("low, high, n_terms, n, seed", [
    (-15, 5, 5, 500, 1),
    (-15, 5, 3, 200, 7),
    (-10**9, 10**9, 4, 100, 3),     # np.unique path
    (-6000, 6001, 300, 5, 2),       # tail shuffle
])
def test_search_scores_the_draws_of_sample_degree_vector(low, high, n_terms,
                                                         n, seed):
    # random_search scores its unsorted block draw; n public draws of
    # the same stream give sorted rows with the same trace and winner.
    samples = convex_samples()
    report = random_search(samples, SearchConfig(
        n_terms_numerator=n_terms, degree_min=low, degree_max=high,
        n_samples=n, rng_seed=seed))
    rng = np.random.default_rng(seed)
    rows = np.array([[int(d) for d in sample_degree_vector(low, high,
                                                           n_terms, rng)]
                     for _ in range(n)])
    assert rows.shape == (n, n_terms)
    assert (np.diff(rows, axis=1) > 0).all()
    assert rows.min() >= low and rows.max() <= high
    trace, best = score_polynomials(samples, rows)
    assert report.error_trace == tuple(enumerate(trace.tolist()))
    assert report.best == best
    assert report.best_degrees == best.model.degrees


def test_rational_search_draws_follow_rng_choice():
    samples = nonconvex_samples()
    config = SearchConfig(n_terms_numerator=4, degree_min=-10, degree_max=10,
                          n_samples=12, rng_seed=11, n_terms_denominator=2,
                          max_iter_two_sided=200)
    rng = np.random.default_rng(config.rng_seed)
    draws = [(_choice_draw(rng, -10, 10, 4), _choice_draw(rng, -10, 10, 2))
             for _ in range(config.n_samples)]
    trace = [fit_rational(samples, num, den, max_iter=200).delta_star
             for num, den in draws]
    report = random_search(samples, config)
    assert [delta for _, delta in report.error_trace] == trace
    winner = draws[trace.index(min(trace))]
    assert (report.best_degrees, report.best_denominator_degrees) == winner


@st.composite
def _consistent_cases(draw):
    """Samples of a max-plus polynomial, read in either semifield.

    The model has 1-3 integer degrees in [-5, 5]; its values at 1-7
    abscissas are the ordinates, so the class fits with no error. In
    max-times the samples are the exponentials of the same reals, and
    exp(y) is the max-times model at exp(x) up to rounding.
    """
    degrees = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3,
                            unique=True))
    coefficients = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(degrees),
                                 max_size=len(degrees)))
    xs = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7,
                       unique=True))
    pairs = [(x, max(c + p * x for p, c in zip(degrees, coefficients)))
             for x in xs]
    if draw(st.booleans()):
        return SampleSet.from_reals(pairs, MAX_PLUS), degrees
    return SampleSet.from_reals([(math.exp(x), math.exp(y))
                                 for x, y in pairs], MAX_TIMES), degrees


@settings(max_examples=300, deadline=None)
@given(_consistent_cases())
def test_consistent_data_report_no_error_below_the_unit(case):
    # Rounding can leave a consistent system's slack a few ulps below
    # the unit; no fit, search trace entry or rational fit reports it.
    samples, degrees = case
    unit = samples.semifield.one
    fit = fit_polynomial(samples, DegreeVector(degrees))
    assert fit.delta_star >= unit and fit.error >= unit
    assert fit.delta_star == pytest.approx(unit, abs=1e-9)
    rational = fit_rational(samples, DegreeVector(degrees), DegreeVector([0]))
    assert rational.delta_star >= unit and rational.error >= unit
    report = random_search(samples, SearchConfig(
        n_terms_numerator=len(degrees), degree_min=-5, degree_max=5,
        n_samples=40, rng_seed=len(samples)))
    assert all(delta >= unit for _, delta in report.error_trace)


def test_every_public_name_resolves():
    for name in tropfit.__all__:
        assert getattr(tropfit, name) is not None, name
