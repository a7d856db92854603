"""Best approximate solutions of tropical linear vector equations.

Two problems are handled here. The one-sided equation a x = b has a
closed-form best solution obtained through residuation. The two-sided
equation a x = b y is solved numerically by alternating projections:
the image of the current iterate under one matrix is projected onto
the column span of the other, and the achieved squared distances form
a non-increasing sequence.

All arithmetic runs in max-plus on float arrays. This module owns that
number format: max-times values are mapped in through the logarithm
and out through the exponential (to_max_plus / from_max_plus), which
turns max-times products into max-plus sums. It also owns the one
range rule (out_of_range). Every value leaving the core
goes through the checked map-out, from_max_plus with a name, which
raises ValueError for the first reading out of range.

The array core (_residuate_into, one_sided, alternate) takes every
matrix transposed, as (n_terms, n_samples) C-contiguous arrays.
_residuate_into is its one projection, and one_sided and alternate both
call it. Designs have many samples and few terms, so with terms on the
leading axis a reduction over terms is an elementwise max of a few
contiguous sample rows, and a reduction over samples runs along one
contiguous row, instead of either one reducing many short inner rows of
4 to 6 terms.

The tuple API (one_sided_solve, two_sided_solve) keeps the usual
samples x terms orientation and transposes once at its boundary.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
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
_add, _subtract = np.add, np.subtract
_max_reduce, _min_reduce = np.maximum.reduce, np.minimum.reduce


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
    PAIR_DELTA_TOL (scaled to the data) of the smallest one seen, with
    x_star / y_star the pair that achieved it. The full delta sequence
    is kept for diagnostics; it is non-increasing up to floating point
    noise, and unchecked, so a delta above the float range reads inf
    there.
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
    formatted with the reading's flat index.
    """
    max_times = isinstance(semifield, MaxTimes)
    mapped, outside = _map_out(values, semifield)
    if outside.any():
        i = int(np.argmax(outside))
        reading = float(np.asarray(values, dtype=float).flat[i])
        cause = (f"{reading:.1f} is not finite" if not max_times
                 else f"exp({reading:.1f}) " + (
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
    all in max-plus. The min runs along the contiguous sample row of each
    term, the inner max is an elementwise max of the term rows. Scaling r
    by the square root delta / 2 balances the one-sided slack into the
    metric-best solution (balance).

    scratch has the shape of at, and under and slack have the shape of
    b. r is a new (n_terms, 1) column, allocated by its reduction. under
    ends up holding the projection a r and slack the slack b - a r; slack
    may be under or b itself. The out buffers go positionally, which
    numpy parses faster than keywords.

    delta is never below the unit 0: rounding can leave a consistent
    system's slack a few ulps negative, and such a delta (or -0.0) is
    read as 0.0. A nan is kept, for alternate's range check to see.
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


def _repeats(rows: list[tuple[np.ndarray, float]], firsts: list[float],
             order: list[int], tol: float) -> bool:
    """Whether the iterate of the last row repeats an earlier one; if not,
    index it.

    rows holds one side's iterates as alternate stores them: pairs of an
    (n, 1) residuation r and the running shift s of its half step, the
    iterate being r + s, formed by the add that forms it everywhere.
    Shifts are at most the data's largest magnitude plus one delta / 2,
    so tol, scaled to the data, keeps its meaning. firsts is
    the sorted list of the finite first coordinates of the iterates
    before the last, and order the row of each. A repeat is a row h
    among them with max_j |h_j - v_j| <= tol. Only the rows whose first
    coordinate lies in the window [v_0 - 2 tol, v_0 + 2 tol] are tested,
    and the verdict is that of testing them all: a match needs
    fl(|h_0 - v_0|) <= tol, so |h_0 - v_0| is at most tol plus half an
    ulp of tol, and since rounding is monotone, h_0 lies inside the
    rounded window. The same window holds the insertion point of v_0. A
    gap of nan or inf never passes (inf - inf elsewhere in a row is a nan
    gap), so a non-finite v_0 matches nothing and is not indexed.
    """
    r, shift = rows[-1]
    first = r.item(0) + shift
    if not math.isfinite(first):
        return False
    low = bisect_left(firsts, first - 2 * tol)
    high = bisect_right(firsts, first + 2 * tol, low)
    if low < high:
        hits = order[low:high]
        stored = np.array([rows[h][0] for h in hits])
        stored += np.array([rows[h][1] for h in hits])[:, None, None]
        if (_max_reduce(np.abs(stored - (r + shift)), 1) <= tol).any():
            return True
        low = bisect_right(firsts, first, low, high)
    firsts.insert(low, first)
    order.insert(low, len(rows) - 1)
    return False


def alternate(at: np.ndarray, bt: np.ndarray, x0: np.ndarray,
              max_iter: int) -> tuple[list[float], float, np.ndarray,
                                      np.ndarray, Termination]:
    """Alternating projections for a x = b y on max-plus float arrays.

    at and bt are a and b transposed, terms by samples, so the image of
    an iterate is an elementwise max of its term rows and the projection
    back (_residuate_into) reduces along contiguous sample rows. Returns
    the delta of every half step, the delta of half step k*, its pair
    (x, y) and the reason for stopping. The rules are those of
    two_sided_solve. The entry check (check_residuation, on
    Python floats) bounds the spans, not the iterates, which can drift
    out of the float range: a half step whose delta is not finite raises
    the same ValueError, and numpy's overflow warnings are muted in the
    loop.

    Half step k (from 0) writes side (k + 1) % 2, side 0 being x with x0
    as its first row. After the image a x0, a half step makes six numpy
    calls, out buffers positional, in _residuate_into, whose reduction
    allocates r; the image and projection buffers are allocated once per
    call. The iterate is r plus a running shift s, a Python float: -0.0
    beside x0 (x0 + -0.0 is x0 bit for bit), plus delta / 2 at every half
    step. The next image is the projection of r itself, and the two
    buffers swap: that projection is the image of the iterate r + s less
    s. When s passes limit, the largest magnitude among the spans'
    extremes, the image becomes the projection plus s (one more numpy
    call) and s is reset to 0.0, so images never drift from the data by
    more than the data's magnitude. The store keeps each iterate as r
    with its s beside it, and r + s is formed only where an iterate is
    read: in the repeat test (_repeats), which looks only at the stored
    iterates whose first coordinate is within 2 match_tol of the new
    one's, and in the returned pair. That pair is the one of k*, the
    first half step whose delta is within PAIR_DELTA_TOL (scaled to the
    smallest delta and the extremes, as match_tol is) of the smallest:
    row (k* + 1) // 2 of side 0 and row k* // 2 of side 1.
    Half steps take nearly all of a rational fit's time, hence so few
    calls. The map is additively homogeneous (b + c residuates to r + c,
    and B (r + c) = B r + c): the shift equals scaling up to rounding.
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
    image, under = np.empty(at.shape[1]), np.empty(at.shape[1])
    # Per side: the span, its scratch, its iterates as (r, shift) and
    # the sorted finite first coordinates with the row of each.
    shift = -0.0
    x_rows, y_rows = [(x0[:, None], shift)], []
    other = (at, np.empty(at.shape), x_rows, [], [])
    this = (bt, np.empty(bt.shape), y_rows, [], [])
    _repeats(x_rows, other[3], other[4], match_tol)
    deltas: list[float] = []
    isfinite = math.isfinite
    with np.errstate(over="ignore", invalid="ignore"):
        _max_reduce(_add(at, x_rows[0][0], other[1]), 0, None, image)
        while True:
            span, scratch, rows, firsts, order = this
            # The slack goes over the image, which is not read again.
            r, delta = _residuate_into(span, image, scratch, under, image)
            if not isfinite(delta):
                raise ValueError("the data leave the float range: "
                                 "their differences overflow")
            shift += 0.5 * delta
            rows.append((r, shift))
            deltas.append(delta)
            if delta <= DELTA_UNIT_TOL:  # delta is finite and >= 0 here
                termination = Termination.EXACT_SOLUTION
                break
            if _repeats(rows, firsts, order, match_tol):
                termination = Termination.CYCLE_DETECTED
                break
            if len(deltas) >= max_iter:
                termination = Termination.ITERATION_CAP
                break
            if shift > limit:
                _add(under, shift, image)
                shift = 0.0
            else:
                image, under = under, image
            this, other = other, this
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
    one-sided projections between the column spans of a and b. Each half
    step computes the squared distance delta from the current image to
    the other span and the coefficient vector of the projection, scaled
    by sqrt(delta). The achieved distances are invariant under common
    scaling of the iterate, but at a large scale (1e17 in max-plus) a x0
    absorbs the data and the first half step reads a false exact
    solution. So the solver runs from x0 scaled to a largest entry of
    the unit, and any common scaling of the units gives the default
    start's run bit for bit.

    Stopping follows three rules, checked in order after every half
    step: the unit delta (exact solution found), a repeat of an earlier
    iterate on the same side (a cycle, so no further progress), or the
    max_iter cap on the number of computed deltas. The reported triple
    is that of the first half step whose delta is within PAIR_DELTA_TOL
    of the smallest observed, so a plateau of deltas equal up to
    rounding returns its first pair whatever the last bits are.
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

    deltas, delta, x_star, y_star, termination = alternate(
        _transposed(a), _transposed(b), start, max_iter)
    x_star, y_star = tropical_vector(x_star, sf), tropical_vector(y_star, sf)
    delta_star, _ = delta_and_error(delta, sf)
    return TwoSidedSolution(
        delta_star, x_star, y_star, len(deltas), termination,
        tuple(_map_out(deltas, sf)[0].tolist()))
