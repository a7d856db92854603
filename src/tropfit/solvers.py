"""Best approximate solutions of tropical linear vector equations.

The one-sided equation a x = b has a closed-form best solution through
residuation. The two-sided equation a x = b y is solved by alternating
projections: the image of the iterate under one matrix is projected
onto the column span of the other, at non-increasing squared distances.

All arithmetic runs in max-plus on float arrays. This module owns that
number format: max-times values map in through the logarithm and out
through the exponential (to_max_plus / from_max_plus), and every value
leaving the core goes through the checked map-out, from_max_plus with
a name, which raises ValueError for the first reading out of range by
the one range rule (out_of_range).

The array core (_residuate_into, one_sided, alternate) takes every
matrix transposed, as (n_terms, n_samples) C-contiguous arrays: with
few terms and many samples, a reduction over terms is then a max of a
few contiguous sample rows, and one over samples runs along a row.
_residuate_into is the one projection: one_sided calls it, and each
half step of alternate runs its first three lines inline.

The tuple API (one_sided_solve, two_sided_solve) keeps the usual
samples x terms orientation and transposes once at its boundary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# perfbench/tracer.py wraps conjugate, dot, mat_vec_mul, scale, vec_mat_mul.
from .linalg import (  # noqa: F401
    DimensionMismatch,
    SemifieldMismatch,
    TropicalMatrix,
    TropicalVector,
    _same_semifield,
    conjugate,
    dot,
    mat_vec_mul,
    scale,
    vec_mat_mul,
)
from .semifield import MaxTimes, Semifield, TropicalError

#: Squared error at or below which a system counts as solved exactly.
#: Measured in max-plus units, so an absolute bound in max-plus and a
#: relative one in max-times.
DELTA_UNIT_TOL = 1e-9

#: Elementwise tolerance, in max-plus units, for recognizing a repeated
#: iterate; scaled_tolerance raises it for large-magnitude data.
ITERATE_MATCH_TOL = 1e-9

#: Squared-distance tolerance, in max-plus units, above a run's smallest
#: delta within which alternate returns the pair of the first half step;
#: scaled_tolerance raises it for large-magnitude data. Deltas of a run
#: that differ by rounding alone pick the same pair.
PAIR_DELTA_TOL = 1e-13

#: Units in the last place of the largest magnitude involved that a
#: scale-aware tolerance allows. Below magnitudes of about 5e5 the
#: absolute tolerances above are the larger bound.
TOL_ULPS = 16

DEFAULT_MAX_ITER = 1000

# The ufuncs of a half step, bound once: every lookup of a reduce method
# makes a new bound method object.
_add, _subtract, _copyto = np.add, np.subtract, np.copyto
_max_reduce, _min_reduce = np.maximum.reduce, np.minimum.reduce

# alternate's batches: the half steps of the first and of the longest,
# and the floats that the images and gaps of one batch may hold.
_BATCH_FIRST, _BATCH_MOST, _BATCH_ELEMENTS = 4, 16, 2**19


class NonRegularInput(TropicalError):
    """A matrix or vector containing the zero reached a solver."""


class Termination(Enum):
    """Why a solve stopped."""

    EXACT_SOLUTION = "exact-solution"
    CYCLE_DETECTED = "cycle-detected"
    ITERATION_CAP = "iteration-cap"
    ONE_SHOT = "one-shot"


@dataclass(frozen=True)
class OneSidedSolution:
    """Result of solving a x = b.

    delta is the squared best error (>= the unit), error its semifield
    square root, and x_star the minimizing vector: the residuation scaled
    by sqrt(delta), whose pointwise error is error. exact is True when
    the system is consistent, delta at the unit within DELTA_UNIT_TOL.
    """

    delta: float
    error: float
    x_star: TropicalVector
    exact: bool


@dataclass(frozen=True)
class TwoSidedSolution:
    """Result of solving a x = b y.

    delta_star is the squared distance of the first half step within
    PAIR_DELTA_TOL (scaled to the data) of the smallest, x_star / y_star
    its pair. deltas, kept for diagnostics, is non-increasing up to
    floating point noise and unchecked: one above the float range is inf.
    """

    delta_star: float
    x_star: TropicalVector
    y_star: TropicalVector
    iterations: int
    termination: Termination
    deltas: tuple[float, ...]


# ---------------------------------------------------------------------------
# Number format


def to_max_plus(values, semifield: Semifield) -> np.ndarray:
    """Max-plus reading of conventional semifield values, as floats.

    Identity for max-plus and the natural logarithm for max-times, where
    0 maps to -inf (the max-plus zero) and negative values to nan.
    """
    array = np.asarray(values, dtype=float)
    if isinstance(semifield, MaxTimes):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(array)
    return array


def out_of_range(readings, semifield: Semifield) -> np.ndarray:
    """Where max-plus readings have no float value in the semifield.

    A reading is out of range when it is not finite and, in max-times,
    also when its exponential overflows to inf or underflows below the
    normal floats: a subnormal keeps fewer significant bits (as few as
    one), so a model written with it no longer has the error it
    reports. In max-plus 0.0 is the unit, a value like any other.
    """
    return _map_out(readings, semifield)[1]


def _map_out(readings, semifield: Semifield) -> tuple[np.ndarray, np.ndarray]:
    """from_max_plus of readings and out_of_range's mask, from one exp."""
    readings = np.asarray(readings, dtype=float)
    if not isinstance(semifield, MaxTimes):
        return readings, ~np.isfinite(readings)
    with np.errstate(over="ignore"):
        values = np.exp(readings)
    return values, ~((values >= sys.float_info.min) & (values < math.inf))


def from_max_plus(values, semifield: Semifield, what: str) -> np.ndarray:
    """Inverse of to_max_plus: identity for max-plus, exp for max-times.

    The map-out is checked, without a numpy warning: the first reading
    out of range raises ValueError("<what> leaves the float range:
    exp(<reading>) underflows to 0", "underflows to a subnormal" or
    "overflows to inf"; "<reading> is not finite" in max-plus), what
    formatted with the reading's flat index; readings from 1e6 up read
    in exponent form (2.0723e+307), not with every digit.
    """
    max_times = isinstance(semifield, MaxTimes)
    mapped, outside = _map_out(values, semifield)
    if outside.any():
        i = int(np.argmax(outside))
        reading = float(np.asarray(values, dtype=float).flat[i])
        text = f"{reading:.1f}" if abs(reading) < 1e6 else f"{reading:.4e}"
        cause = (f"{text} is not finite" if not max_times
                 else f"exp({text}) " + (
                     "overflows to inf" if reading > 0 else
                     "is nan" if math.isnan(reading) else
                     "underflows to 0" if math.exp(reading) == 0 else
                     "underflows to a subnormal"))
        raise ValueError(f"{what.format(i)} leaves the float range: {cause}")
    return mapped


def residuation_in_range(a_lo, a_hi, b_lo, b_hi) -> bool | np.ndarray:
    """Whether residuating b by a stays in the float range, from extremes.

    The map-in rule, beside out_of_range. For finite a and b with entries
    in [a_lo, a_hi] and [b_lo, b_hi], every entry of b - a, r, a r, the
    slack b - a r and the balanced r + delta / 2 lies between bounds
    computed from the extremes in the same rounded operations, which are
    monotone. Finite bounds so mean a finite residuation and balance.
    Broadcasts over arrays of extremes, which overflow with numpy's
    warning unless the caller mutes it; Python floats never warn, and
    the check on them runs in Python.
    """
    r_lo, r_hi = b_lo - a_hi, b_hi - a_lo
    # Every other bound, and every extreme, lies on the path of one of
    # these two, and + and - carry inf and nan through.
    low = r_lo + 0.5 * (b_lo - (a_hi + r_hi))
    high = r_hi + 0.5 * (b_hi - (a_lo + r_lo))
    return (abs(low) < math.inf) & (abs(high) < math.inf)


def _extremes(array: np.ndarray) -> tuple[float, float]:
    """The smallest and the largest entry of array, as floats."""
    return float(_min_reduce(array, None)), float(_max_reduce(array, None))


def check_residuation(a: tuple[float, float], b: tuple[float, float]) -> None:
    """Raise ValueError unless residuation_in_range holds for extremes a, b."""
    if not residuation_in_range(*a, *b):
        raise ValueError(
            "the data leave the float range: their differences overflow")


def delta_and_error(delta: float, semifield: Semifield) -> tuple[
        float, float]:
    """Checked semifield values of a max-plus delta and of delta / 2.

    The second is in range whenever the first is.
    """
    return tuple(from_max_plus((delta, 0.5 * delta), semifield,
                               "delta_star").tolist())


def tropical_vector(values: np.ndarray,
                    semifield: Semifield) -> TropicalVector:
    """Vector of the semifield values of max-plus coefficient readings."""
    return TropicalVector(
        from_max_plus(values, semifield, "coefficient {}").tolist(),
        semifield)


def scaled_tolerance(base: float, *arrays: np.ndarray | float) -> float:
    """base, or TOL_ULPS ulps of the largest magnitude in arrays if larger.

    Rounding in data of large magnitude moves results by a few ulps of
    that magnitude, which can exceed a fixed absolute tolerance. A float
    counts as an array of one value and is read in Python.
    """
    largest = max(abs(a) if isinstance(a, float) else float(np.max(np.abs(a)))
                  for a in arrays)
    return max(base, TOL_ULPS * math.ulp(largest))


# ---------------------------------------------------------------------------
# Max-plus array core


def _residuate_into(at: np.ndarray, b: np.ndarray, scratch: np.ndarray,
                    under: np.ndarray, slack: np.ndarray) -> tuple[
                        np.ndarray, float]:
    """Greatest r with a r <= b and the squared distance delta: (r, delta).

    at is the transposed matrix a, terms by samples:
    r_j = min_i (b_i - at_ji) and delta = max_i (b_i - max_j (at_ji + r_j)),
    all in max-plus. Scaling r by the square root delta / 2 balances the
    one-sided slack into the metric-best solution (balance).

    scratch has the shape of at, and under and slack have the shape of
    b. r is a new (n_terms, 1) column, allocated by its reduction. under
    ends up holding the projection a r and slack the slack b - a r; slack
    may be under or b itself. Positional out buffers parse faster.

    delta is never below the unit 0: rounding can leave a consistent
    system's slack a few ulps negative, and such a delta reads 0.0.
    """
    _subtract(b, at, scratch)
    r = _min_reduce(scratch, 1, None, None, True)
    _max_reduce(_add(at, r, scratch), 0, None, under)
    delta = float(_max_reduce(_subtract(b, under, slack)))
    return r, 0.0 if delta <= 0.0 else delta


def one_sided(at: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Array form of one_sided_solve: (x_star, delta, exact) in max-plus.

    at is the transposed matrix a (terms by samples), as for
    _residuate_into. Data outside residuation_in_range raise ValueError.
    """
    check_residuation(_extremes(at), _extremes(b))
    slack = np.empty(b.shape)
    r, delta = _residuate_into(at, b, np.empty(at.shape), slack, slack)
    x_star, exact = balance(r[:, 0], delta)
    return x_star, delta, bool(exact)


def balance(r: np.ndarray, delta: float | np.ndarray) -> tuple[
        np.ndarray, bool | np.ndarray]:
    """Best solution (x_star, exact) from the residuation r and its delta.

    r has one row of coefficients per delta, any leading axes being a
    batch of systems. x_star is r scaled by sqrt(delta), that is
    r + delta / 2 in max-plus, for every delta, so the pointwise error
    of x_star is the reported one. exact labels a delta at the unit within
    DELTA_UNIT_TOL, a consistent system.
    """
    exact = np.abs(delta) <= DELTA_UNIT_TOL
    return r + 0.5 * np.asarray(delta)[..., None], exact


def _repeats(h: np.ndarray, h_shift: float, r: np.ndarray, shift: float,
             tol: float) -> bool:
    """Whether the iterate r + shift repeats the stored h + h_shift:
    max_j |(h_j + h_shift) - (r_j + shift)| <= tol.

    Both iterates are formed before the subtraction, so a stored r
    beside another shift is compared as the iterate it stands for. A
    gap of nan or inf never passes; the caller mutes numpy's warnings.
    """
    return bool(_max_reduce(np.abs((h + h_shift) - (r + shift)), None) <= tol)


def alternate(at: np.ndarray, bt: np.ndarray, x0: np.ndarray,
              max_iter: int) -> tuple[list[float], float, np.ndarray,
                                      np.ndarray, Termination]:
    """Alternating projections for a x = b y on max-plus float arrays.

    at and bt are a and b transposed, terms by samples. Returns the delta
    of every half step, the delta of half step k*, its pair (x, y) and
    the reason for stopping, by the rules of two_sided_solve. The entry
    check bounds the spans, not the iterates, which can drift out of the
    float range: a half step whose delta is not finite raises the same
    ValueError. The caller mutes numpy's overflow and invalid warnings.

    Half step k (from 0) writes side (k + 1) % 2, side 0 being x with x0
    as its first row. Its iterate is the residuation r plus a running
    shift s, -0.0 beside x0 plus delta / 2 per half step: the map is
    additively homogeneous, so the next image is r's projection itself.
    A half step is four numpy calls, _residuate_into's first three lines
    with the projection written to the next row of images. Half steps
    run in batches (_BATCH_FIRST doubling to _BATCH_MOST, within
    _BATCH_ELEMENTS floats, the cap and the half steps before s can pass
    limit, the spans' largest magnitude), and one subtract of adjacent
    rows and one max give a batch's deltas. A replay applies each half
    step's rules in order: clamp and range check, s += delta / 2, the row
    (r, s), the exact test, the repeat test and, once s passes limit, the
    renormalisation: the next batch starts from the projection plus s,
    with s = 0.0. A stop or a renormalisation drops the later half steps.

    The repeat test compares v with the side's previous iterate only:
    coordinate 0 first, cached per side (the same rounded gap as the
    array compare's), then whole iterates (_repeats). As the deltas never
    increase, two half steps give v_{k+1} >= v_k - (d - d') / 2, so on a
    cycle (equal deltas) v_k <= v_{k+1} <= ... <= v_{k+p} = v_k, a fixed
    point. The tests' reference scans every stored iterate.

    The returned pair is that of k*, the first half step whose delta is
    within PAIR_DELTA_TOL (scaled as match_tol is) of the smallest: row
    (k* + 1) // 2 of side 0 and row k* // 2 of side 1.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    # Each span is residuated against images of the other.
    a, b = _extremes(at), _extremes(bt)
    check_residuation(a, b)
    check_residuation(b, a)
    # The largest magnitude in the spans scales the tolerances and bounds
    # the running shift.
    limit = max(map(abs, a + b))
    match_tol = scaled_tolerance(ITERATE_MATCH_TOL, limit)
    n = at.shape[1]
    most = max(1, min(_BATCH_MOST, max_iter, (_BATCH_ELEMENTS // n - 1) // 2))
    images, gaps = np.empty((most + 1, n)), np.empty((most, n))
    views = list(images)
    # Span and scratch per side, in half step order from side 0.
    spans = ((at, np.empty(at.shape)), (bt, np.empty(bt.shape)))
    order = list(spans) * (most // 2 + 1)
    shift, x_rows, y_rows = -0.0, [(x0[:, None], -0.0)], []
    # Next side and other side: rows, v_0 of the last iterate (nan: none).
    rows, others, previous, other = y_rows, x_rows, math.nan, x0.item(0) + -0.0
    deltas, termination = [], Termination.ITERATION_CAP
    _max_reduce(_add(at, x0[:, None], spans[0][1]), 0, None, views[0])
    size, delta = min(_BATCH_FIRST, most), 0.0
    while len(deltas) < max_iter:
        # As the deltas never increase, s passes limit no sooner than this.
        count = min(size, max_iter - len(deltas),
                    (limit - shift) // (0.5 * delta) + 1 if delta else size)
        count, size = int(count), min(2 * size, most)
        batch = []
        for image, under, (span, scratch) in zip(
                views, views[1:count + 1], order[(len(deltas) + 1) % 2:]):
            _subtract(image, span, scratch)
            r = _min_reduce(scratch, 1, None, None, True)
            _max_reduce(_add(span, r, scratch), 0, None, under)
            batch.append(r)
        gap = _max_reduce(_subtract(images[:count], images[1:count + 1],
                                    gaps[:count]), 1).tolist()
        for under, r, delta in zip(views[1:], batch, gap):
            if delta <= 0.0:
                delta = 0.0
            elif not delta < math.inf:
                raise ValueError("the data leave the float range: "
                                 "their differences overflow")
            shift += 0.5 * delta
            rows.append((r, shift))
            deltas.append(delta)
            if delta <= DELTA_UNIT_TOL:  # delta is finite and >= 0 here
                termination = Termination.EXACT_SOLUTION
                break
            first = r.item(0) + shift
            if (abs(previous - first) <= match_tol
                    and _repeats(*rows[-2], r, shift, match_tol)):
                termination = Termination.CYCLE_DETECTED
                break
            rows, others, previous, other = others, rows, other, first
            if shift > limit:
                _add(under, shift, views[0])
                shift = 0.0
                break
        else:
            _copyto(views[0], under)
        if termination is not Termination.ITERATION_CAP:
            break
    low = min(deltas)
    bound = low + scaled_tolerance(PAIR_DELTA_TOL, low, limit)
    for best, delta in enumerate(deltas):
        if delta <= bound:
            break
    (x, x_shift), (y, y_shift) = x_rows[(best + 1) // 2], y_rows[best // 2]
    return deltas, delta, x[:, 0] + x_shift, y[:, 0] + y_shift, termination


# ---------------------------------------------------------------------------
# Tuple API


def _transposed(matrix: TropicalMatrix) -> np.ndarray:
    """Max-plus reading of a tuple matrix, terms by samples, contiguous."""
    return np.ascontiguousarray(
        to_max_plus(matrix.entries, matrix.semifield).T)


def _require_regular(value, label: str) -> None:
    if not value.is_regular:
        raise NonRegularInput(f"{label} must be regular (no zero entries)")


def one_sided_solve(a: TropicalMatrix, b: TropicalVector) -> OneSidedSolution:
    """Best approximate solution of the one-sided equation a x = b.

    Residuation gives the greatest vector r with a r <= b, namely
    r = conj(conj(b) a). Its image a r is the nearest point of the
    column span of a lying below b, the squared distance to b is
    delta = conj(a r) b, and scaling r by sqrt(delta) balances the
    one-sided slack into the metric-best solution. No regular x can
    achieve a distance below sqrt(delta).

    Requires a and b regular with matching row counts.
    """
    sf = _same_semifield(a, b)
    if a.rows != len(b):
        raise DimensionMismatch(
            f"matrix has {a.rows} rows, vector has {len(b)} elements")
    _require_regular(a, "the coefficient matrix")
    _require_regular(b, "the right-hand side")

    x_star, delta, exact = one_sided(_transposed(a),
                                     to_max_plus(b.elements, sf))
    x_star = tropical_vector(x_star, sf)
    return OneSidedSolution(*delta_and_error(delta, sf), x_star, exact)


def two_sided_solve(a: TropicalMatrix,
                    b: TropicalMatrix,
                    x0: Optional[TropicalVector] = None,
                    max_iter: int = DEFAULT_MAX_ITER) -> TwoSidedSolution:
    """Best approximate solution of the two-sided equation a x = b y.

    Starting from x0 (all units by default), the solver alternates
    one-sided projections between the column spans of a and b, each half
    step giving a squared distance delta and the projection's
    coefficients scaled by sqrt(delta). The distances are invariant under
    common scaling of the iterate, but at a large scale (1e17 in
    max-plus) a x0 absorbs the data and the first half step reads a false
    exact solution. So the solver runs from x0 scaled to a largest entry
    of the unit, and any common scaling of the units gives the default
    start's run bit for bit.

    Stopping follows three rules, checked in order after every half
    step: the unit delta (exact solution found), a repeat of the previous
    iterate on the same side (a fixed point; as the deltas never
    increase, every cycle is one), or the max_iter cap on the number of
    deltas. The reported triple is that of the first half step whose
    delta is within PAIR_DELTA_TOL of the smallest, so a plateau of
    deltas equal up to rounding returns its first pair.
    """
    sf = _same_semifield(a, b)
    if a.rows != b.rows:
        raise DimensionMismatch(
            f"matrices have {a.rows} and {b.rows} rows")
    _require_regular(a, "the left matrix")
    _require_regular(b, "the right matrix")
    if x0 is None:
        start = np.zeros(a.cols)
    else:
        if x0.semifield is not sf:
            raise SemifieldMismatch("x0 belongs to a different semifield")
        if len(x0) != a.cols:
            raise DimensionMismatch(
                f"x0 has {len(x0)} elements, left matrix has {a.cols} columns")
        _require_regular(x0, "x0")
        # An entry more than the float range below the largest maps to
        # the zero, -inf.
        start = to_max_plus(x0.elements, sf)
        with np.errstate(over="ignore"):
            start = start - start.max()

    # Every value out of the float range is reported below, so numpy's
    # warnings are muted.
    with np.errstate(over="ignore", invalid="ignore"):
        deltas, delta, x_star, y_star, termination = alternate(
            _transposed(a), _transposed(b), start, max_iter)
    x_star, y_star = tropical_vector(x_star, sf), tropical_vector(y_star, sf)
    delta_star, _ = delta_and_error(delta, sf)
    return TwoSidedSolution(
        delta_star, x_star, y_star, len(deltas), termination,
        tuple(_map_out(deltas, sf)[0].tolist()))
