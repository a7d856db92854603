"""Best approximate solutions of tropical linear vector equations.

Two problems are handled here. The one-sided equation a x = b has a
closed-form best solution obtained through residuation. The two-sided
equation a x = b y is solved numerically by alternating projections:
the image of the current iterate under one matrix is projected onto
the column span of the other, and the achieved squared distances form
a non-increasing sequence whose minimum is reported.

All arithmetic runs in max-plus on float arrays. This module owns that
number format: max-times values are mapped in through the logarithm
and out through the exponential (to_max_plus / from_max_plus), which
turns max-times products into max-plus sums. It also owns the one
range rule (out_of_range): a reading has a float value when it is
finite and, in max-times, its exponential is neither 0 nor inf. Every
value leaving the core goes through the checked map-out, from_max_plus
with a name, which raises ValueError for the first reading out of range.

The array core (residuate, one_sided, alternate) takes every matrix
transposed, as (..., n_terms, n_samples) C-contiguous arrays. Designs
have many samples and few terms, so with terms on the leading axis a
reduction over terms is an elementwise max of a few contiguous sample
rows, and a reduction over samples runs along one contiguous row,
instead of either one reducing many short inner rows of 4 to 6 terms.
alternate reuses its buffers in every half step and prefilters its
repeat test, without changing a floating-point operation or a verdict.

The tuple API (one_sided_solve, two_sided_solve) keeps the usual
samples x terms orientation and transposes once at its boundary.
"""

from __future__ import annotations

import bisect
import math
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

#: Units in the last place of the largest magnitude involved that a
#: scale-aware tolerance allows. Below magnitudes of about 5e5 the
#: absolute tolerances above are the larger bound.
TOL_ULPS = 16

DEFAULT_MAX_ITER = 1000


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
    square root, and x_star the minimizing vector. When the system is
    consistent (delta at the unit within DELTA_UNIT_TOL), exact is True
    and x_star is the greatest exact solution.
    """

    delta: float
    error: float
    x_star: TropicalVector
    exact: bool


@dataclass(frozen=True)
class TwoSidedSolution:
    """Result of solving a x = b y.

    delta_star is the smallest squared distance seen across all
    iterations, with x_star / y_star the pair that achieved it. The
    full delta sequence is kept for diagnostics; it is non-increasing
    up to floating point noise, and unchecked, so a delta above the
    float range reads inf there.
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
    also when its exponential underflows to 0 or overflows to inf. In
    max-plus 0.0 is the unit, a value like any other.
    """
    readings = np.asarray(readings, dtype=float)
    if not isinstance(semifield, MaxTimes):
        return ~np.isfinite(readings)
    with np.errstate(over="ignore"):
        values = np.exp(readings)
    return ~((values > 0) & (values < math.inf))


def from_max_plus(values, semifield: Semifield,
                  what: Optional[str] = None) -> np.ndarray:
    """Inverse of to_max_plus: identity for max-plus, exp for max-times.

    Given what, the map-out is checked, without a numpy warning: the
    first reading out of range raises ValueError("<what> leaves the
    float range: exp(<reading>) underflows to 0" or "overflows to inf";
    "<reading> is not finite" in max-plus), what formatted with the
    reading's flat index.
    """
    array = np.asarray(values, dtype=float)
    max_times = isinstance(semifield, MaxTimes)
    if what is not None and out_of_range(array, semifield).any():
        i = int(np.argmax(out_of_range(array, semifield)))
        reading = float(array.flat[i])
        cause = (f"{reading:.1f} is not finite" if not max_times
                 else f"exp({reading:.1f}) " + (
                     "underflows to 0" if reading < 0 else
                     "overflows to inf" if reading > 0 else "is nan"))
        raise ValueError(f"{what.format(i)} leaves the float range: {cause}")
    return np.exp(array) if max_times else array


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


def scaled_tolerance(base: float, *arrays: np.ndarray) -> float:
    """base, or TOL_ULPS ulps of the largest magnitude in arrays if larger.

    Rounding in data of large magnitude moves results by a few ulps of
    that magnitude, which can exceed a fixed absolute tolerance.
    """
    largest = max(float(np.max(np.abs(a))) for a in arrays)
    return max(base, TOL_ULPS * math.ulp(largest))


# ---------------------------------------------------------------------------
# Max-plus array core


def residuate(at: np.ndarray, b: np.ndarray, *,
              scratch: Optional[np.ndarray] = None,
              r: Optional[np.ndarray] = None,
              image: Optional[np.ndarray] = None) -> tuple[
        np.ndarray, float | np.ndarray]:
    """Greatest r with a r <= b, and the squared distance of a r to b.

    at is the transposed matrix a, terms by samples:
    r_j = min_i (b_i - at_ji) and delta = max_i (b_i - max_j (at_ji + r_j)),
    all in max-plus. The min runs along the contiguous sample row of each
    term, the inner max is an elementwise max of the term rows. Scaling r
    by the square root delta / 2 balances the one-sided slack into the
    metric-best solution.

    Leading axes of at are a batch of independent systems, each solved
    against b: at of shape (..., n, m) gives r of shape (..., n) and an
    array of deltas of shape (...). A single system gives a float delta.

    The keyword buffers, when given, receive the intermediate results so
    that a caller in a loop allocates nothing: scratch the shape of at,
    r the shape of r, image the shape of b (it ends up holding the
    slack b - a r). The arithmetic is the same either way.
    """
    scratch = np.subtract(b[..., None, :], at, out=scratch)
    r = np.minimum.reduce(scratch, axis=-1, out=r)
    scratch = np.add(at, r[..., None], out=scratch)
    image = np.maximum.reduce(scratch, axis=-2, out=image)
    delta = np.maximum.reduce(np.subtract(b, image, out=image), axis=-1)
    return r, (float(delta) if at.ndim == 2 else delta)


def one_sided(at: np.ndarray, b: np.ndarray) -> tuple[
        np.ndarray, float | np.ndarray, bool | np.ndarray]:
    """Array form of one_sided_solve: (x_star, delta, exact) in max-plus.

    at is the transposed matrix a (terms by samples), as for residuate,
    and so are leading batch axes: a single system gives a float delta
    and a bool exact, a batch arrays of them.
    """
    r, delta = residuate(at, b)
    x_star, exact = balance(r, delta)
    return x_star, delta, (bool(exact) if at.ndim == 2 else exact)


def balance(r: np.ndarray, delta: float | np.ndarray) -> tuple[
        np.ndarray, bool | np.ndarray]:
    """Best solution (x_star, exact) from the residuation r and its delta.

    r has one row of coefficients per delta (leading axes as in
    residuate). A system whose delta is the unit within DELTA_UNIT_TOL is
    consistent: its greatest exact solution r is returned unscaled, since
    sqrt(delta) is the unit there anyway. Otherwise r is scaled by
    sqrt(delta), that is r + delta / 2 in max-plus.
    """
    exact = np.abs(delta) <= DELTA_UNIT_TOL
    half = 0.5 * np.asarray(delta)[..., None]
    return np.where(np.asarray(exact)[..., None], r, r + half), exact


class _History:
    """Earlier iterates of one side of alternate, and their repeat test.

    The iterates are the first count columns of an (n, capacity) array
    that doubles when full; alternate computes each new iterate straight
    into the free column (free_column) and keeps it with store. Beside
    the array, firsts is the sorted list of the stored iterates' first
    coordinates and order the column of each, so the repeat test only
    looks at the columns whose first coordinate is near.
    """

    __slots__ = ("columns", "count", "firsts", "order", "tol")

    def __init__(self, n: int, tol: float):
        self.columns = np.empty((n, 32))
        self.count = 0
        self.firsts: list[float] = []
        self.order: list[int] = []
        self.tol = tol

    def free_column(self) -> np.ndarray:
        """The column the next iterate goes into; grows the array if full."""
        if self.count == self.columns.shape[1]:
            self.columns = np.concatenate(
                [self.columns, np.empty_like(self.columns)], axis=1)
        return self.columns[:, self.count]

    def repeats(self, v: np.ndarray) -> bool:
        """Whether a stored column h has max_j |h_j - v_j| <= tol.

        Only the columns whose first coordinate lies in
        [v_0 - 2 tol, v_0 + 2 tol] are tested, and the verdict is that
        of testing them all: a match needs fl(|h_0 - v_0|) <= tol, so
        |h_0 - v_0| is at most tol plus half an ulp of tol, and since
        rounding is monotone, h_0 lies inside the rounded window. A gap
        of nan or inf never passes, so a non-finite v_0 matches nothing.
        """
        first = float(v[0])
        if not math.isfinite(first):
            return False
        low = bisect.bisect_left(self.firsts, first - 2 * self.tol)
        high = bisect.bisect_right(self.firsts, first + 2 * self.tol, low)
        if low == high:
            return False
        near = self.columns[:, self.order[low:high]]
        # inf - inf elsewhere in a column is a nan gap, which fails.
        with np.errstate(invalid="ignore"):
            gaps = np.maximum.reduce(np.abs(near - v[:, None]), axis=0)
        return bool((gaps <= self.tol).any())

    def store(self) -> None:
        """Keep the iterate in the free column.

        An iterate with a non-finite first coordinate never matches, so
        it is kept in the array but not in firsts.
        """
        first = float(self.columns[0, self.count])
        if math.isfinite(first):
            at = bisect.bisect_right(self.firsts, first)
            self.firsts.insert(at, first)
            self.order.insert(at, self.count)
        self.count += 1


def alternate(at: np.ndarray, bt: np.ndarray, x0: np.ndarray,
              max_iter: int) -> tuple[list[float], np.ndarray, np.ndarray,
                                      Termination]:
    """Alternating projections for a x = b y on max-plus float arrays.

    at and bt are a and b transposed, terms by samples, so the image of
    an iterate is an elementwise max of its term rows and the projection
    back (residuate) reduces along contiguous sample rows. Returns the
    delta of every half step, the pair (x, y) that first reached the
    smallest delta, and the reason for stopping. The rules are those of
    two_sided_solve.

    Every buffer is allocated once per call: per side an (n, m) scratch
    and the residuation r, plus the image and the second image (m). A
    half step writes into them with out=, in the same floating-point
    operations as residuate without buffers, and adds delta / 2 to r
    straight into the free column of its side's history (_History),
    where earlier iterates are kept. The repeat test looks only at the
    stored iterates whose first coordinate is within 2 match_tol of the
    new one's, which gives the verdict of testing them all.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    match_tol = scaled_tolerance(ITERATE_MATCH_TOL, at, bt)
    spans = (at, bt)
    histories = (_History(len(at), match_tol), _History(len(bt), match_tol))
    scratch = (np.empty(at.shape), np.empty(bt.shape))
    reached = (np.empty(len(at)), np.empty(len(bt)))
    image, projection = np.empty(at.shape[1]), np.empty(at.shape[1])
    current = [histories[0].free_column(), None]
    current[0][:] = x0
    histories[0].store()
    # The column of each side's current iterate, in its history.
    columns = [0, None]
    deltas: list[float] = []
    best = None
    side = 0
    while True:
        other = 1 - side
        np.maximum.reduce(
            np.add(spans[side], current[side][:, None], out=scratch[side]),
            axis=0, out=image)
        _, delta = residuate(spans[other], image, scratch=scratch[other],
                             r=reached[other], image=projection)
        history = histories[other]
        current[other] = np.add(reached[other], 0.5 * delta,
                                out=history.free_column())
        columns[other] = history.count
        deltas.append(delta)
        if best is None or delta < best[0]:
            best = (delta, columns[0], columns[1])
        if abs(delta) <= DELTA_UNIT_TOL:
            termination = Termination.EXACT_SOLUTION
            break
        if history.repeats(current[other]):
            termination = Termination.CYCLE_DETECTED
            break
        history.store()
        if len(deltas) >= max_iter:
            termination = Termination.ITERATION_CAP
            break
        side = other
    return (deltas, histories[0].columns[:, best[1]].copy(),
            histories[1].columns[:, best[2]].copy(), termination)


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
    sf = a.semifield
    if sf is not b.semifield:
        raise SemifieldMismatch(
            f"cannot mix {sf.name} and {b.semifield.name} values")
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

    Starting from x0 (all units by default, which is as good as any
    start since the achieved distances are invariant under common
    scaling of the iterate), the solver alternates one-sided projections
    between the column spans of a and b. Each half step computes the
    squared distance delta from the current image to the other span and
    the coefficient vector of the projection, scaled by sqrt(delta).

    Stopping follows three rules, checked in order after every half
    step: the unit delta (exact solution found), a repeat of an earlier
    iterate on the same side (a cycle, so no further progress), or the
    max_iter cap on the number of computed deltas. The reported triple
    is the best one observed, which for a non-increasing sequence is
    the last one up to floating point noise.
    """
    sf = a.semifield
    if sf is not b.semifield:
        raise SemifieldMismatch(
            f"cannot mix {sf.name} and {b.semifield.name} values")
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
        start = to_max_plus(x0.elements, sf)

    deltas, x_star, y_star, termination = alternate(
        _transposed(a), _transposed(b), start, max_iter)
    x_star, y_star = tropical_vector(x_star, sf), tropical_vector(y_star, sf)
    delta_star, _ = delta_and_error(min(deltas), sf)
    with np.errstate(over="ignore"):
        trace = tuple(from_max_plus(deltas, sf).tolist())
    return TwoSidedSolution(delta_star, x_star, y_star, len(deltas),
                            termination, trace)
