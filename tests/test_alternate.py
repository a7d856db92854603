"""solvers.alternate against its plain form, its repeat test and its pair.

alternate reuses its buffers and prefilters its repeat test by the
first coordinate; neither may move a result. Every case compares the
delta list, the returned pair and the termination exactly with
oracles.alternate_reference. That reference takes each image from the
last projection, as alternate does, so a last group of cases checks
the returned pair against images recomputed from the designs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropfit import (
    MAX_PLUS,
    MAX_TIMES,
    DegreeVector,
    SampleSet,
    Termination,
    TropicalVector,
    two_sided_solve,
)
from tropfit.approx import _design
from tropfit.datasets import nonconvex_curve, nonconvex_samples
from tropfit.solvers import (
    ITERATE_MATCH_TOL,
    _repeats,
    alternate,
    scaled_tolerance,
    to_max_plus,
)
from oracles import alternate_reference, rational_system

NUM_6 = DegreeVector([-3, -2, 0, 1, 2, 4])
DEN_4 = DegreeVector([-5, -3, -2, 0])
NUM_4 = DegreeVector([-3, -2, 1, 2])
DEN_2 = DegreeVector([-5, -2])


def noisy_g(seed, index, size):
    """Noisy samples of g at sorted uniform x in [0.05, 2], sd 0.02."""
    rng = np.random.default_rng([seed, index])
    x = np.sort(rng.uniform(0.05, 2.0, size))
    y = np.array([nonconvex_curve(v) for v in x.tolist()])
    return x, y + rng.normal(0.0, 0.02, size)


def rational_arrays(samples, num, den):
    """The transposed designs of fit_rational: X and Y Z, in max-plus."""
    x, y = samples.xs, samples.ys
    return _design(x, num), y + _design(x, den)


def assert_same_run(at, bt, x0, max_iter):
    got = alternate(at, bt, x0, max_iter)
    want = alternate_reference(at, bt, x0, max_iter)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    assert got[3] is want[3]
    return got


# Built as the rational-fit benchmark builds its instances: 200 noisy
# samples of g and the 6/4 class. A run that stops at the cap is cut
# short; the same run uncapped ends in a cycle.
RATIONAL_FIT_CASES = [rational_arrays(SampleSet.from_reals(
    zip(*(v.tolist() for v in noisy_g(1, k, 200))), MAX_PLUS), NUM_6, DEN_4)
    for k in range(32)]


@pytest.mark.parametrize("max_iter, stops", [
    (150, {Termination.ITERATION_CAP, Termination.CYCLE_DETECTED}),
    (1000, {Termination.ITERATION_CAP, Termination.CYCLE_DETECTED}),
    (100000, {Termination.CYCLE_DETECTED}),
])
def test_rational_fit_instances_match_the_reference(max_iter, stops):
    terminations = {assert_same_run(at, bt, np.zeros(6), max_iter)[3]
                    for at, bt in RATIONAL_FIT_CASES}
    assert terminations == stops


def test_max_times_instances_match_the_reference():
    # Shaped like the max-times command-line fits: exp of noisy g, 4/2.
    for k in range(8):
        x, y = noisy_g(2, k, 200)
        samples = SampleSet.from_reals(zip(np.exp(x).tolist(),
                                           np.exp(y).tolist()), MAX_TIMES)
        at, bt = rational_arrays(samples, NUM_4, DEN_2)
        assert_same_run(at, bt, np.zeros(4), 1000)


def test_shifted_data_with_a_scaled_match_tolerance_matches_the_reference():
    # At 2e7 the match tolerance is 16 ulps of the data, not 1e-9.
    g = nonconvex_samples()
    shifted = SampleSet.from_reals(zip(g.x.tolist(), (g.y + 2e7).tolist()),
                                   MAX_PLUS)
    at, bt = rational_arrays(shifted, NUM_4, DEN_2)
    assert scaled_tolerance(ITERATE_MATCH_TOL, at, bt) > 10 * ITERATE_MATCH_TOL
    assert_same_run(at, bt, np.zeros(4), 1000)


def test_two_sided_solve_from_a_large_start_matches_the_reference():
    a, b = rational_system(nonconvex_samples(), NUM_4, DEN_2)
    x0 = TropicalVector([1e20, -3e19, 7e19, -1e20], MAX_PLUS)
    solution = two_sided_solve(a, b, x0=x0)
    # two_sided_solve runs from the scaling of x0 whose largest entry is 0.
    start = to_max_plus(x0.elements, MAX_PLUS)
    deltas, x_star, y_star, termination = alternate_reference(
        np.ascontiguousarray(np.array(a.entries).T),
        np.ascontiguousarray(np.array(b.entries).T), start - start.max(), 1000)
    assert list(solution.deltas) == deltas
    assert solution.x_star.elements == tuple(x_star.tolist())
    assert solution.y_star.elements == tuple(y_star.tolist())
    assert solution.termination is termination


@pytest.mark.parametrize("start", [(1e15,) * 4, (1e17,) * 4, (1e20,) * 4,
                                   (1e20, -3e19, 7e19, -1e20)])
def test_a_large_start_does_not_absorb_the_data(start):
    # From these starts a x0 once swallowed the data: delta_star read 0.0
    # (an exact solution after one half step) or 0.125, below the optimum.
    a, b = rational_system(nonconvex_samples(), NUM_4, DEN_2)
    solution = two_sided_solve(a, b, x0=TropicalVector(start, MAX_PLUS))
    default = two_sided_solve(a, b)
    assert default.delta_star == 0.1395240717620072
    if len(set(start)) == 1:
        # A common scaling of the units is the default start, bit for bit.
        assert solution == default
    else:
        assert abs(solution.delta_star - default.delta_star) <= 1e-15
        assert solution.termination is Termination.CYCLE_DETECTED


# --- the folded history and its prefiltered repeat test ---------------------

class History:
    """One side's history as alternate keeps it, for probing _repeats.

    The rows grow as alternate grows them; the loop's own growth is
    checked by the property below, at caps around 64 half steps.
    """

    def __init__(self, n, tol):
        self.rows = np.empty((32, n, 1))
        self.count = 0
        self.firsts, self.order = [], []
        self.tol = tol

    def repeats(self, v):
        """The verdict of _repeats on v, leaving the history unchanged."""
        return _repeats(v[:, None], self.rows, self.count, list(self.firsts),
                        list(self.order), self.tol)

    def store(self, v):
        if self.count == len(self.rows):
            self.rows = np.concatenate((self.rows, np.empty_like(self.rows)))
        self.rows[self.count, :, 0] = v
        assert not _repeats(self.rows[self.count], self.rows, self.count,
                            self.firsts, self.order, self.tol)
        self.count += 1
        assert self.firsts == sorted(self.firsts)
        assert self.rows[self.order, 0, 0].tolist() == self.firsts


def brute_repeats(history, v):
    stored = history.rows[:history.count, :, 0]
    with np.errstate(invalid="ignore"):
        gaps = np.maximum.reduce(np.abs(stored - v), axis=1)
    return bool((gaps <= history.tol).any())


def probes(v, tol, rng):
    """Vectors at and just past tol from v, in the first or another place."""
    up = math.nextafter(tol, math.inf)
    out = [v.copy()]
    for shift in (tol, -tol, up, -up, 2 * tol, 0.5 * tol):
        for place in (0, 1 + int(rng.integers(len(v) - 1))):
            w = v.copy()
            w[place] += shift
            out.append(w)
    w = v.copy()
    w[1:] += 2 * tol  # equal first coordinate, the rest off by 2 tol
    out.append(w)
    for bad in (math.nan, math.inf, -math.inf):
        for place in (0, len(v) - 1):
            w = v.copy()
            w[place] = bad
            out.append(w)
    return out


@pytest.mark.parametrize("tol", [1e-9, 6e-8])
def test_history_repeat_test_equals_the_full_scan(tol):
    rng = np.random.default_rng(5)
    history = History(4, tol)
    checked = matched = 0
    for scale in (1e-3, 1.0, 1e6, 1e20):
        for _ in range(12):
            v = rng.uniform(-1, 1, 4) * scale
            if history.count:
                # Reuse the first coordinate of a stored iterate half the
                # time, so the prefilter window is not empty.
                if rng.integers(2):
                    v[0] = history.rows[rng.integers(history.count), 0, 0]
            for probe in probes(v, tol, rng):
                verdict = history.repeats(probe)
                assert verdict == brute_repeats(history, probe)
                checked += 1
                matched += verdict
            history.store(v)
            for probe in probes(v, tol, rng):
                verdict = history.repeats(probe)
                assert verdict == brute_repeats(history, probe)
                checked += 1
                matched += verdict
    # Non-finite iterates are stored too and never match.
    with np.errstate(invalid="ignore"):
        for bad in (math.nan, math.inf, -math.inf):
            v = np.array([bad, 1.0, 2.0, 3.0])
            history.store(v)
            assert not history.repeats(v)
            w = np.array([1.0, 2.0, bad, 3.0])
            history.store(w)
            assert not history.repeats(w)
    assert history.count == 54 and history.rows.shape == (64, 4, 1)
    assert 0 < matched < checked


def test_history_keeps_columns_when_it_grows():
    history = History(2, 1e-9)
    for k in range(70):
        history.store(np.array([float(k), -float(k)]))
    assert history.count == 70 and history.rows.shape == (128, 2, 1)
    assert np.array_equal(history.rows[:70, 0, 0], np.arange(70.0))
    assert history.repeats(np.array([33.0, -33.0]))
    assert not history.repeats(np.array([33.0, -34.0]))
    # Row 0 is (0, -0): a gap of exactly tol matches, the next float not.
    assert history.repeats(np.array([0.0, 1e-9]))
    assert not history.repeats(np.array([0.0, math.nextafter(1e-9, 1.0)]))


# --- alternate against its plain form on random systems ---------------------

@st.composite
def systems(draw):
    """A random system at, bt and start: uniform or small-integer entries.

    Small integers give ties, exact solutions and short cycles.
    """
    m, n, l = draw(st.integers(2, 29)), draw(st.integers(1, 6)), draw(
        st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        at, bt, x0 = (rng.integers(-3, 4, shape).astype(float)
                      for shape in ((n, m), (l, m), n))
    else:
        at, bt, x0 = (rng.uniform(-5.0, 5.0, shape)
                      for shape in ((n, m), (l, m), n))
    return at, bt, x0 if draw(st.booleans()) else np.zeros(n)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_alternate_equals_the_reference_on_random_systems(system):
    # Caps 63, 64 and 65 stop before, at and after the first growth of
    # each side's rows past 32.
    for max_iter in (1, 2, 63, 64, 65, 1000):
        assert_same_run(*system, max_iter)


# --- the returned pair achieves the reported delta --------------------------

def assert_pair_achieves_its_delta(at, bt, x0, max_iter):
    """max_i |(a x)_i - (b y)_i| of the returned pair is delta_star / 2.

    The images are recomputed here from the designs, so this check does
    not share alternate's reuse of the projection as the next image.
    """
    deltas, x, y, _ = alternate(at, bt, x0, max_iter)
    gap = np.max(np.abs(np.maximum.reduce(at + x[:, None], axis=0)
                        - np.maximum.reduce(bt + y[:, None], axis=0)))
    tol = scaled_tolerance(ITERATE_MATCH_TOL, at, bt, x, y)
    assert abs(gap - 0.5 * min(deltas)) <= tol


@settings(max_examples=100, deadline=None)
@given(systems())
def test_the_returned_pair_achieves_its_delta_on_random_systems(system):
    for max_iter in (1, 2, 63, 64, 65, 1000):
        assert_pair_achieves_its_delta(*system, max_iter)


@pytest.mark.parametrize("max_iter", [150, 1000])
def test_the_returned_pair_achieves_its_delta_on_tall_systems(max_iter):
    for at, bt in RATIONAL_FIT_CASES:
        assert_pair_achieves_its_delta(at, bt, np.zeros(6), max_iter)
