import math

import numpy as np
import pytest

import tropfit.approx
import tropfit.search
import tropfit.solvers
from tropfit import (
    MAX_PLUS,
    DegreeVector,
    RangeTooNarrow,
    SampleSet,
    SearchConfig,
    fit_polynomial,
    fit_rational,
    random_search,
    sample_degree_vector,
)
from tropfit.datasets import convex_samples, nonconvex_samples


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
    monkeypatch.setattr(tropfit.search, "sample_degree_vector",
                        lambda *args, **kwargs: forced)
    report = random_search(samples, SearchConfig(
        n_terms_numerator=5, degree_min=-15, degree_max=5,
        n_samples=1, rng_seed=0))
    direct = fit_polynomial(samples, forced)
    assert report.best == direct
    assert report.best_degrees == forced
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
    samples = convex_samples()
    calls = {"n": 0}
    real_fit = tropfit.search.fit_polynomial

    def flaky(ss, degrees):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RangeTooNarrow("synthetic failure")
        return real_fit(ss, degrees)

    monkeypatch.setattr(tropfit.search, "fit_polynomial", flaky)
    report = random_search(samples, SearchConfig(
        n_terms_numerator=3, degree_min=-15, degree_max=5,
        n_samples=4, rng_seed=3))
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
