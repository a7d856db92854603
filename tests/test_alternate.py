"""solvers.alternate against its plain form, its repeat test and its pair.

alternate runs its half steps in batches whose deltas it takes at once
and whose rules it then replays, stores each iterate as its residuation
r with a running shift beside it, and tests for a repeat against the
side's previous iterate only, prefiltered by the first coordinate; none
of these may move a result. Every case compares the delta list, the
chosen delta, the returned pair and the termination with
oracles.alternate_reference, byte for byte. That reference runs one
half step at a time, takes each image from the last projection and
carries the same shift, as alternate does. A group of cases stops runs
by each rule at the edges of batches. With a limit of -inf the
reference adds delta / 2 to every image instead, and a group of cases
checks that this change of rounding moves neither the half-step count,
the termination nor the returned pair. A last group checks the returned
pair against images recomputed from the designs.
"""

import math
import sys
import tracemalloc

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
    one_sided,
    scaled_tolerance,
    to_max_plus,
)
import oracles
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


def renormalisations(deltas, limit):
    """The half steps after which alternate's running shift passed limit
    in a run with these deltas: it adds delta / 2 per half step, and is
    reset to 0.0 when it passes limit. A run's last half step is left
    out by the caller when the run stopped there."""
    shift, steps = -0.0, []
    for k, delta in enumerate(deltas):
        shift += 0.5 * delta
        if shift > limit:
            shift = 0.0
            steps.append(k)
    return steps


@pytest.mark.parametrize("offset, seed, crossings, steps", [
    (0.0, 7, 3, 10),  # entries in [0, 1]: the shift passes 1 three times
    (0.0, 38, 2, 8),  # twice, and the run repeats at half step 7
    (1e6, 1, 0, 1000),  # entries near 1e6: 1000 half steps stay below it
])
def test_the_running_shift_is_renormalised_past_the_data(offset, seed,
                                                          crossings, steps):
    rng = np.random.default_rng(seed)
    at = offset + rng.uniform(0.0, 1.0, (4, 30))
    bt = offset + rng.uniform(0.0, 1.0, (3, 30))
    deltas = assert_same_run(at, bt, np.zeros(4), 1000)[0]
    limit = max(np.abs(at).max(), np.abs(bt).max())
    assert len(renormalisations(deltas[:-1], limit)) == crossings
    assert len(deltas) == steps


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


# --- the repeat test against the side's previous iterate -------------------

def repeats(h, h_shift, r, shift, tol=1e-9):
    """_repeats on the iterates h + h_shift and r + shift, as columns."""
    return _repeats(np.array(h)[:, None], h_shift, np.array(r)[:, None],
                    shift, tol)


def test_a_gap_of_exactly_tol_repeats_and_the_next_float_does_not():
    tol = 1e-9
    for place in (0, 1):
        at_tol, past = [0.0, 0.0], [0.0, 0.0]
        at_tol[place], past[place] = tol, math.nextafter(tol, 1.0)
        assert repeats([0.0, 0.0], 0.0, at_tol, 0.0, tol)
        assert not repeats([0.0, 0.0], 0.0, past, 0.0, tol)
    # Coordinates -a and b that differ by tol plus a quarter ulp of tol:
    # the gap rounds to tol and repeats.
    b = 0.7 * tol
    a = (tol - b) + math.ulp(tol) / 4
    assert a + b == tol and -a < b - tol
    assert repeats([-a, 1.0], 0.0, [b, 1.0], 0.0, tol)


def test_a_stored_r_beside_another_shift_is_not_a_repeat():
    # The iterates are formed before they are compared: r itself beside a
    # shift 1.5 tol or one ulp away stands for another iterate.
    r = [0.25, -3.0, 7.5]
    assert repeats(r, 2.0, r, 2.0)
    for shift in (2.0 + 1.5e-9, 2.0 - 1.5e-9):
        assert not repeats(r, 2.0, r, shift)
    assert not repeats(r, 2e9, r, math.nextafter(2e9, math.inf), 1e-7)


def test_nan_and_inf_never_repeat():
    v = [1.0, 2.0, 3.0, 4.0]
    with np.errstate(invalid="ignore"):
        for bad in (math.nan, math.inf, -math.inf):
            for place in (0, 3):
                w = list(v)
                w[place] = bad
                # Neither beside itself nor beside the finite iterate.
                assert not repeats(w, 0.25, w, 0.25)
                assert not repeats(v, 0.25, w, 0.25)
                assert not repeats(w, 0.25, v, 0.25)


@pytest.mark.parametrize("tol, stop", [
    # The gap between the side's last two iterates at half step 3 is
    # largest in a coordinate other than 0, at half step 4 in coordinate 0.
    (0.006960257726102093, 3),
    (0.0034801288630511573, 4),
])
def test_a_run_stops_at_a_gap_of_exactly_its_match_tolerance(monkeypatch,
                                                              tol, stop):
    # No earlier pair of same-side iterates of this run lies within tol.
    rng = np.random.default_rng(0)
    rows, n, l = (int(rng.integers(*bounds)) for bounds in ((3, 12), (2, 5),
                                                            (2, 4)))
    at, bt = rng.uniform(0.0, 1.0, (n, rows)), rng.uniform(0.0, 1.0, (l, rows))
    for match_tol in (tol, math.nextafter(tol, 0.0)):
        monkeypatch.setattr(solvers, "ITERATE_MATCH_TOL", match_tol)
        monkeypatch.setattr(oracles, "ITERATE_MATCH_TOL", match_tol)
        deltas, _, _, _, termination = assert_same_run(at, bt, np.zeros(n),
                                                       1000)
        assert termination is Termination.CYCLE_DETECTED
        assert (len(deltas) == stop + 1) == (match_tol == tol)


def test_a_run_repeats_x0_at_half_step_1():
    # One term a side: the x iterate of half step 1 is x0 again, the
    # side's previous row, stored before the loop.
    at, bt = np.array([[0.0, 1.0, 2.0]]), np.zeros((1, 3))
    deltas, _, _, _, termination = assert_same_run(at, bt, np.zeros(1), 10)
    assert deltas == [2.0, 2.0]
    assert termination is Termination.CYCLE_DETECTED


def best_one_term_start(at, bt):
    """x0 of the best one-term-denominator fit: the balanced one-sided
    solution theta_d of X theta = row d of Y Z with the least delta (the
    first on a tie), shifted to a largest entry of 0."""
    fits = [one_sided(at, row) for row in bt]
    theta = min(fits, key=lambda fit: fit[1])[0]
    return theta - theta.max()


def test_a_run_whose_first_coordinate_stays_put_matches_the_reference():
    # From this start, rational-fit seed 2 instance 49 keeps coordinates
    # 0-3 of x within 2e-14 over its last 100 iterates while 4 and 5
    # drift, and cycles after 11,389 half steps: a repeat test keyed on
    # x_0 alone would compare each iterate with every stored one.
    at, bt = rational_fit_case(2, 49)
    deltas, _, _, _, termination = assert_same_run(
        at, bt, best_one_term_start(at, bt), 100000)
    assert len(deltas) == 11389
    assert termination is Termination.CYCLE_DETECTED


# --- batches of half steps ---------------------------------------------------

@pytest.fixture
def batches(monkeypatch):
    """The half steps of each batch that alternate computes, recorded from
    the subtract of adjacent image rows that takes a batch's deltas."""
    sizes = []

    def subtract(a, b, out):
        if a.ndim == 2:
            sizes.append(len(a))
        return np.subtract(a, b, out)

    monkeypatch.setattr(solvers, "_subtract", subtract)
    return sizes


def uncut_sizes():
    """The sizes of alternate's first three batches when no stop,
    renormalisation or cap cuts them short."""
    sizes = [solvers._BATCH_FIRST]
    while len(sizes) < 3:
        sizes.append(min(2 * sizes[-1], solvers._BATCH_MOST))
    return sizes


#: The first, a middle and the last half step of each of those batches.
PLACES = [(batch, place) for batch in range(3)
          for place in ("first", "middle", "last")]


def boundary(batch, place):
    """The half step at place in uncut batch batch."""
    sizes = uncut_sizes()
    offset = {"first": 0, "middle": sizes[batch] // 2,
              "last": sizes[batch] - 1}[place]
    return sum(sizes[:batch]) + offset


def batch_starts(sizes, renormalised):
    """The first half step of each batch of these sizes, a batch ending at
    the first of the renormalised half steps in it."""
    starts, start = [], 0
    for size in sizes:
        starts.append(start)
        cut = [k for k in renormalised if start <= k < start + size]
        start = cut[0] + 1 if cut else start + size
    return starts


def first_case(batches, values_of, step):
    """(at, bt, values) of the first of the 64 rational-fit cases of seed
    1 whose first three batches run uncut and whose values, values_of(at,
    bt, max_iter) per half step, fall below every earlier one at step."""
    for at, bt in RATIONAL_FIT_CASES + [rational_fit_case(1, k)
                                        for k in range(32, 64)]:
        batches.clear()
        values = values_of(at, bt, sum(uncut_sizes()))
        if (batches == uncut_sizes()
                and all(value > values[step] for value in values[:step])):
            return at, bt, values
    raise AssertionError(f"no case falls at half step {step}")


def deltas_of(at, bt, max_iter):
    return alternate(at, bt, np.zeros(6), max_iter)[0]


def same_side_gaps(monkeypatch, at, bt, max_iter):
    """Each half step's gap to the side's previous iterate, as _repeats
    forms it (inf at half step 0, whose side has none):
    ITERATE_MATCH_TOL at inf sends every one to _repeats."""
    gaps = [math.inf]

    def gap(h, h_shift, r, shift, tol):
        gaps.append(float(np.max(np.abs((h + h_shift) - (r + shift)))))
        return False

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_repeats", gap)
        patch.setattr(solvers, "ITERATE_MATCH_TOL", math.inf)
        alternate(at, bt, np.zeros(6), max_iter)
    return gaps


@pytest.mark.parametrize("batch, place", PLACES)
def test_an_exact_stop_drops_the_rest_of_its_batch(monkeypatch, batches,
                                                   batch, place):
    # With DELTA_UNIT_TOL at a delta below every earlier one, the run
    # stops at that half step as at an exact solution.
    step = boundary(batch, place)
    at, bt, deltas = first_case(batches, deltas_of, step)
    for module in (solvers, oracles):
        monkeypatch.setattr(module, "DELTA_UNIT_TOL", deltas[step])
    batches.clear()
    got = assert_same_run(at, bt, np.zeros(6), 1000)
    assert len(got[0]) == step + 1
    assert got[4] is Termination.EXACT_SOLUTION
    assert batches == uncut_sizes()[:batch + 1]


@pytest.mark.parametrize("batch, place", PLACES[1:])
def test_a_repeat_drops_the_rest_of_its_batch(monkeypatch, batches, batch,
                                              place):
    # Half step 0 has no earlier iterate on its side. With
    # ITERATE_MATCH_TOL at the gap of a half step's iterate to its side's
    # previous one, below every earlier such gap, the run stops there.
    step = boundary(batch, place)
    at, bt, gaps = first_case(
        batches, lambda *run: same_side_gaps(monkeypatch, *run), step)
    for module in (solvers, oracles):
        monkeypatch.setattr(module, "ITERATE_MATCH_TOL", gaps[step])
    batches.clear()
    got = assert_same_run(at, bt, np.zeros(6), 1000)
    assert len(got[0]) == step + 1
    assert got[4] is Termination.CYCLE_DETECTED
    assert batches == uncut_sizes()[:batch + 1]


@pytest.mark.parametrize("batch, place", PLACES)
def test_the_cap_cuts_its_batch(batches, batch, place):
    step = boundary(batch, place)
    at, bt = RATIONAL_FIT_CASES[0]
    got = assert_same_run(at, bt, np.zeros(6), step + 1)
    assert len(got[0]) == step + 1
    assert got[4] is Termination.ITERATION_CAP
    sizes = uncut_sizes()[:batch + 1]
    assert batches == sizes[:-1] + [step + 1 - sum(sizes[:-1])]


def shifted_system(seed):
    """A random system with entries in [c, 1 + c] for a c in [-0.6, 0]:
    its running shift passes limit every few half steps."""
    rng = np.random.default_rng(seed)
    m, n, l = (int(rng.integers(*bounds)) for bounds in ((2, 30), (1, 7),
                                                          (1, 5)))
    at, bt = rng.uniform(0.0, 1.0, (n, m)), rng.uniform(0.0, 1.0, (l, m))
    c = rng.uniform(-0.6, 0.0)
    return at + c, bt + c


@pytest.mark.parametrize("seed, batch, place", [
    (2, 0, "first"), (0, 0, "middle"), (4, 0, "last"),
    # After the first batch, a batch ends no later than the half step at
    # which the shift can first pass limit, as the deltas never increase:
    # there a renormalisation is at the last half step, which is the
    # first when the batch has one.
    (2, 1, "first"), (0, 1, "last"), (20, 2, "first"), (0, 2, "last"),
])
def test_a_renormalisation_restarts_the_next_batch(batches, seed, batch,
                                                   place):
    at, bt = shifted_system(seed)
    deltas = assert_same_run(at, bt, np.zeros(len(at)), 60)[0]
    limit = max(np.abs(at).max(), np.abs(bt).max())
    renormalised = renormalisations(deltas[:-1], limit)
    start = batch_starts(batches, renormalised)[batch]
    end = start + batches[batch] - 1
    k = min(k for k in renormalised if k >= start)
    assert k <= end
    assert place == ("first" if k == start else "last" if k == end
                     else "middle")


@pytest.mark.parametrize("t, step, batch", [
    (0.875, 0, 0), (0.984375, 3, 1), (1.25, 6, 2)])
def test_an_overflow_raises_at_the_start_of_a_batch(batches, t, step,
                                                    batch):
    # Data near 2**1020 and x0 within t limit of the largest float: the
    # image of x0 overflows, or the image plus the shift at the first
    # renormalisation. A non-finite delta needs such an image, as the
    # deltas never increase, and every image after a batch's first is
    # the projection of a finite one.
    at, bt = (2.0**1020 * part for part in shifted_system(1))
    limit = max(np.abs(at).max(), np.abs(bt).max())
    x0 = np.full(len(at), sys.float_info.max - t * limit)
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = assert_same_run(at, bt, x0, step)[0] if step else []
        delta = alternate_reference(at, bt, x0, step + 1)[0][step]
        assert not math.isfinite(delta)
        batches.clear()
        with pytest.raises(ValueError) as error:
            alternate(at, bt, x0, 1000)
    assert str(error.value) == ("the data leave the float range: "
                                "their differences overflow")
    starts = batch_starts(batches, renormalisations(deltas, limit))
    assert len(starts) == batch + 1 and starts[batch] == step


def test_the_batch_buffers_stay_within_their_budget():
    # At 100,000 samples _BATCH_ELEMENTS floats hold batches of 2; from
    # 104,858 samples on a batch has one half step.
    rng = np.random.default_rng(0)
    at, bt = rng.uniform(0.0, 1.0, (2, 10**5)), rng.uniform(0.0, 1.0,
                                                            (2, 10**5))
    tracemalloc.start()
    try:
        alternate(at, bt, np.zeros(2), 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Beside the batch buffers: one scratch array per span, and the rows.
    assert peak <= 8 * (solvers._BATCH_ELEMENTS + at.size + bt.size) + 2**16


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
