"""solvers.alternate against its plain form, its repeat test and its pair.

alternate reuses its buffers, stores each iterate as its residuation r
with a running shift beside it, and prefilters its repeat test by the
first coordinate; none of these may move a result. Every case compares
the delta list, the chosen delta, the returned pair and the termination
with oracles.alternate_reference, byte for byte. That reference takes
each image from the last projection and carries the same shift, as
alternate does. With a limit of -inf it adds delta / 2 to every image
instead, and a group of cases checks that this change of rounding
moves neither the half-step count, the termination nor the returned
pair. A last group checks the returned pair against images recomputed
from the designs.
"""

import math
from bisect import bisect_left

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
from tropfit import solvers
from tropfit.approx import _design
from tropfit.datasets import nonconvex_curve, nonconvex_samples
from tropfit.solvers import (
    ITERATE_MATCH_TOL,
    _repeats,
    alternate,
    scaled_tolerance,
    to_max_plus,
)
from oracles import (
    alternate_reference,
    pair_step,
    pair_tolerance,
    rational_system,
)

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
    """alternate's run equals the reference's, byte for byte: == and
    np.array_equal would let -0.0 stand for 0.0."""
    got = alternate(at, bt, x0, max_iter)
    want = alternate_reference(at, bt, x0, max_iter)
    assert list(map(float.hex, got[0])) == list(map(float.hex, want[0]))
    assert float.hex(got[1]) == float.hex(want[1])
    assert got[2].tobytes() == want[2].tobytes()
    assert got[3].tobytes() == want[3].tobytes()
    assert got[4] is want[4]
    return got


def rational_fit_case(seed, index):
    """Built as the rational-fit benchmark builds its instances: 200 noisy
    samples of g and the 6/4 class."""
    samples = SampleSet.from_reals(
        zip(*(v.tolist() for v in noisy_g(seed, index, 200))), MAX_PLUS)
    return rational_arrays(samples, NUM_6, DEN_4)


# A run that stops at the cap is cut short; the same run uncapped ends in
# a cycle.
RATIONAL_FIT_CASES = [rational_fit_case(1, k) for k in range(32)]


@pytest.mark.parametrize("max_iter, stops", [
    (150, {Termination.ITERATION_CAP, Termination.CYCLE_DETECTED}),
    (1000, {Termination.ITERATION_CAP, Termination.CYCLE_DETECTED}),
    (100000, {Termination.CYCLE_DETECTED}),
])
def test_rational_fit_instances_match_the_reference(max_iter, stops):
    terminations = {assert_same_run(at, bt, np.zeros(6), max_iter)[4]
                    for at, bt in RATIONAL_FIT_CASES}
    assert terminations == stops


def test_a_negative_zero_in_x0_survives_in_the_returned_x():
    # One half step returns x0's own row, which the store keeps with
    # -0.0 beside it: x0 + 0.0 would turn each -0.0 into 0.0.
    at, bt = RATIONAL_FIT_CASES[0]
    x0 = np.array([-0.0, 0.0, -0.0, 1.5, -0.0, -2.0])
    x = assert_same_run(at, bt, x0, 1)[2]
    assert x.tobytes() == x0.tobytes()
    assert math.copysign(1.0, x[0]) == -1.0


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
    deltas, _, x_star, y_star, termination = alternate_reference(
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
        assert abs(min(solution.deltas) - default.delta_star) <= 1e-15
        deltas = solution.deltas
        tol = pair_tolerance(deltas, np.array(a.entries), np.array(b.entries))
        assert solution.delta_star == deltas[pair_step(deltas, tol)]
        assert min(deltas) <= solution.delta_star <= min(deltas) + tol
        assert solution.termination is Termination.CYCLE_DETECTED


def shift_crossings(deltas, limit):
    """How often alternate's running shift passed limit in a run with
    these deltas: it adds delta / 2 per half step, and is reset to 0.0
    when it passes limit, unless the run stops at that half step."""
    shift, count = -0.0, 0
    for delta in deltas[:-1]:
        shift += 0.5 * delta
        if shift > limit:
            shift, count = 0.0, count + 1
    return count


@pytest.mark.parametrize("offset, seed, crossings", [
    (0.0, 7, 3),  # entries in [0, 1]: the shift passes 1 three times
    (1e6, 1, 0),  # entries near 1e6: 1000 half steps stay below the bound
])
def test_the_running_shift_is_renormalised_past_the_data(offset, seed,
                                                          crossings):
    rng = np.random.default_rng(seed)
    at = offset + rng.uniform(0.0, 1.0, (4, 30))
    bt = offset + rng.uniform(0.0, 1.0, (3, 30))
    deltas = assert_same_run(at, bt, np.zeros(4), 1000)[0]
    limit = max(np.abs(at).max(), np.abs(bt).max())
    assert shift_crossings(deltas, limit) == crossings
    assert len(deltas) == (10 if crossings else 1000)


# --- the returned pair follows the run, not its rounding --------------------

#: How far the returned delta and pair may move, in max-plus units, when
#: only the rounding of a run changes; scaled_tolerance raises it.
PAIR_AGREEMENT_TOL = 1e-11


def shift_free_runs(at, bt, max_iter=150):
    """alternate's run and that of its shift-free form from x0 = 0: the
    reference with a limit of -inf, which adds delta / 2 to every image."""
    x0 = np.zeros(len(at))
    return (alternate(at, bt, x0, max_iter),
            alternate_reference(at, bt, x0, max_iter, -math.inf))


def pair_stability_problem(at, bt, got, want):
    """None if the runs got and want on at, bt agree, else what differs.

    Their deltas differ by rounding, so they must stop after the same
    half step for the same reason, pick the same k* and return a delta
    and a pair within PAIR_AGREEMENT_TOL.
    """
    if len(got[0]) != len(want[0]) or got[4] is not want[4]:
        return (f"{len(got[0])} half steps, {got[4]}, against "
                f"{len(want[0])}, {want[4]}")
    steps = [pair_step(run[0], pair_tolerance(run[0], at, bt))
             for run in (got, want)]
    if steps[0] != steps[1]:
        return f"k* {steps[0]} against {steps[1]}"
    gap = max(abs(got[1] - want[1]), np.abs(got[2] - want[2]).max(),
              np.abs(got[3] - want[3]).max())
    tol = scaled_tolerance(PAIR_AGREEMENT_TOL, at, bt, got[2], got[3])
    if not gap <= tol:
        return f"the delta and pair move by {gap!r}, above {tol!r}"
    return None


def test_the_pair_does_not_move_with_the_rounding_of_the_run():
    # tests/pair_stability.py runs the same check on the 768 instances of
    # rational-fit seeds 1 to 3.
    moved = 0
    for at, bt in RATIONAL_FIT_CASES + [rational_fit_case(1, k)
                                        for k in range(32, 64)]:
        got, want = shift_free_runs(at, bt)
        assert pair_stability_problem(at, bt, got, want) is None
        # The first half step at the smallest delta moves with rounding.
        moved += got[0].index(min(got[0])) != want[0].index(min(want[0]))
    assert moved > 0


# --- the iterate store and its prefiltered repeat test ----------------------

class History:
    """One side's store as alternate keeps it, for probing _repeats.

    It drives _repeats, the part of the repeat test that alternate calls
    only when the window of a first coordinate holds a stored one. The
    finite check, the window bisect and the empty-window insertion run
    inline in alternate; History repeats them here, and the window tests
    further down reach alternate's own through its runs.

    rows holds (r, shift) pairs, r an (n, 1) column and shift the running
    shift of its half step, whose iterate is r + shift; firsts is the
    sorted list of the finite first coordinates of the iterates and order
    the row of each.
    """

    def __init__(self, tol):
        self.rows, self.firsts, self.order = [], [], []
        self.tol = tol

    def verdict(self, row, firsts, order):
        """alternate's verdict on row: the inline window, then _repeats."""
        r, shift = row
        first = r.item(0) + shift
        if not math.isfinite(first):
            return False
        low = bisect_left(firsts, first - 2 * self.tol)
        if low == len(firsts) or firsts[low] > first + 2 * self.tol:
            firsts.insert(low, first)
            order.insert(low, row)
            return False
        return _repeats(firsts, order, low, row, first, self.tol)

    def repeats(self, r, shift):
        """The verdict on r + shift; the store is unchanged."""
        return self.verdict((r[:, None], shift), list(self.firsts),
                            list(self.order))

    def store(self, r, shift):
        row = (r[:, None].copy(), shift)
        self.rows.append(row)
        assert not self.verdict(row, self.firsts, self.order)
        assert self.firsts == sorted(self.firsts)
        assert [h[0].item(0) + h[1] for h in self.order] == self.firsts


def brute_repeats(history, r, shift):
    """The full scan over every stored iterate, formed as r + shift."""
    stored = np.array([row[:, 0] + h for row, h in history.rows])
    with np.errstate(invalid="ignore"):
        gaps = np.maximum.reduce(
            np.abs(stored.reshape(-1, len(r)) - (r + shift)), axis=1)
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
    history = History(tol)
    checked = matched = unmatched_r = 0

    def check(r, shift):
        nonlocal checked, matched
        verdict = history.repeats(r, shift)
        assert verdict == brute_repeats(history, r, shift)
        checked += 1
        matched += verdict
        return verdict

    for scale in (1e-3, 1.0, 1e6, 1e20):
        for _ in range(12):
            r = rng.uniform(-1, 1, 4) * scale
            shift = rng.uniform(0.5, 1.0) * scale
            if history.rows and rng.integers(2):
                # Half the time take the first coordinate of r and the
                # shift of a stored row, so the prefilter window is
                # not empty.
                stored, shift = history.rows[rng.integers(len(history.rows))]
                r[0] = stored.item(0)
            for probe in probes(r, tol, rng):
                check(probe, shift)
            history.store(r, shift)
            for probe in probes(r, tol, rng):
                check(probe, shift)
            # The stored r itself beside other shifts: its first
            # coordinate stays in the window, but the iterate moves by
            # 1.5 tol, 0.5 tol or one ulp, so comparing r alone would
            # match where the iterates do not.
            for other in (shift + 1.5 * tol, shift - 1.5 * tol,
                          shift + 0.5 * tol, math.nextafter(shift, math.inf)):
                unmatched_r += not check(r, other)
    # Non-finite iterates are stored too and never match.
    with np.errstate(invalid="ignore"):
        for bad in (math.nan, math.inf, -math.inf):
            v = np.array([bad, 1.0, 2.0, 3.0])
            history.store(v, 0.25)
            assert not history.repeats(v, 0.25)
            w = np.array([1.0, 2.0, bad, 3.0])
            history.store(w, 0.25)
            assert not history.repeats(w, 0.25)
    assert len(history.rows) == 54
    assert 0 < matched < checked
    assert unmatched_r > 0


def test_the_repeat_window_reaches_rounded_gaps_and_inserts_in_order():
    # The first coordinates -a and b differ by tol plus a quarter ulp of
    # tol, which rounds to tol and matches, yet -a lies outside
    # [b - tol, b + tol]: the window must reach 2 tol.
    tol = 1e-9
    b = 0.7 * tol
    a = (tol - b) + math.ulp(tol) / 4
    assert a + b == tol and -a < b - tol
    history = History(tol)
    history.store(np.array([-a, 1.0]), 0.0)
    assert brute_repeats(history, np.array([b, 1.0]), 0.0)
    assert history.repeats(np.array([b, 1.0]), 0.0)
    # First coordinates inside the window of a stored one, above and
    # below it, that repeat nothing: store checks that firsts stays
    # sorted and that order follows it.
    history.store(np.array([-a + 1.5 * tol, 5.0]), 0.0)
    history.store(np.array([-a - 1.5 * tol, 7.0]), 0.0)
    history.store(np.array([-a + 0.5 * tol, 9.0]), 0.0)
    assert len(history.firsts) == 4


def test_history_keeps_columns_when_it_grows():
    # alternate's store grows by one row per half step; these 70 rows
    # hold the iterates (k, -k).
    history = History(1e-9)
    for k in range(70):
        history.store(np.array([float(k), -float(k)]) - 0.25, 0.25)
    assert len(history.rows) == 70
    assert [r.item(0) + shift for r, shift in history.rows] == list(
        np.arange(70.0))
    assert history.repeats(np.array([33.0, -33.0]), 0.0)
    assert not history.repeats(np.array([33.0, -34.0]), 0.0)
    # Row 0 is (0, 0): a gap of exactly tol matches, the next float not.
    assert history.repeats(np.array([0.0, 1e-9]), 0.0)
    assert not history.repeats(np.array([0.0, math.nextafter(1e-9, 1.0)]),
                               0.0)


# --- alternate's own window, reached through its runs ----------------------

@pytest.fixture
def windows(monkeypatch):
    """The verdict of every _repeats call of alternate, which makes one
    only when the window of a first coordinate holds a stored one.

    Each call checks the side's store that alternate's inline part
    built: firsts sorted, order in step with it, and firsts[low] the
    first stored coordinate within 2 tol.
    """
    verdicts = []

    def spy(firsts, order, low, row, first, tol):
        assert firsts == sorted(firsts)
        assert [r.item(0) + shift for r, shift in order] == firsts
        assert first - 2 * tol <= firsts[low] <= first + 2 * tol
        assert low == 0 or firsts[low - 1] < first - 2 * tol
        verdicts.append(_repeats(firsts, order, low, row, first, tol))
        return verdicts[-1]

    monkeypatch.setattr(solvers, "_repeats", spy)
    return verdicts


def test_a_run_fills_empty_windows_and_indexes_unmatched_iterates(windows):
    # Uniform [0, 1] entries: of 8 half steps, two pass the running shift
    # past the data (renormalise), three find an occupied window whose
    # stored iterates lie beyond tol, and the last one repeats.
    rng = np.random.default_rng(38)
    at, bt = rng.uniform(0.0, 1.0, (4, 30)), rng.uniform(0.0, 1.0, (3, 30))
    deltas = assert_same_run(at, bt, np.zeros(4), 1000)[0]
    assert len(deltas) == 8
    assert shift_crossings(deltas, max(at.max(), bt.max())) == 2
    assert windows == [False] * 3 + [True]


def test_a_run_repeats_x0_at_half_step_1(windows):
    # One term a side: the x iterate of half step 1 is x0 again, found
    # in the window that x0's first coordinate opened before the loop.
    at, bt = np.array([[0.0, 1.0, 2.0]]), np.zeros((1, 3))
    deltas, _, _, _, termination = assert_same_run(at, bt, np.zeros(1), 10)
    assert deltas == [2.0, 2.0]
    assert termination is Termination.CYCLE_DETECTED
    assert windows == [True]


def test_rational_fit_runs_open_their_windows_in_place(windows):
    # Every iterate of these runs but the repeating ones finds its window
    # empty and is indexed inline; the repeat is found among them.
    for at, bt in RATIONAL_FIT_CASES[:8]:
        windows.clear()
        got = assert_same_run(at, bt, np.zeros(6), 100000)
        assert got[4] is Termination.CYCLE_DETECTED
        assert windows[-1] and len(windows) < len(got[0]) / 10


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
    # Cap 1 returns x0's own row; odd and even caps stop on either side.
    for max_iter in (1, 2, 63, 64, 65, 1000):
        assert_same_run(*system, max_iter)


# --- the returned pair achieves the reported delta --------------------------

def assert_pair_achieves_its_delta(at, bt, x0, max_iter):
    """max_i |(a x)_i - (b y)_i| of the returned pair is delta_star / 2.

    The images are recomputed here from the designs, so this check does
    not share alternate's reuse of the projection as the next image.
    """
    _, delta, x, y, _ = alternate(at, bt, x0, max_iter)
    gap = np.max(np.abs(np.maximum.reduce(at + x[:, None], axis=0)
                        - np.maximum.reduce(bt + y[:, None], axis=0)))
    tol = scaled_tolerance(ITERATE_MATCH_TOL, at, bt, x, y)
    assert abs(gap - 0.5 * delta) <= tol


@settings(max_examples=100, deadline=None)
@given(systems())
def test_the_returned_pair_achieves_its_delta_on_random_systems(system):
    for max_iter in (1, 2, 63, 64, 65, 1000):
        assert_pair_achieves_its_delta(*system, max_iter)


@pytest.mark.parametrize("max_iter", [150, 1000])
def test_the_returned_pair_achieves_its_delta_on_tall_systems(max_iter):
    for at, bt in RATIONAL_FIT_CASES:
        assert_pair_achieves_its_delta(at, bt, np.zeros(6), max_iter)
