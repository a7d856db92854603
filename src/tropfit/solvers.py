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
turns max-times products into max-plus sums.

The array core (residuate, one_sided, alternate) takes every matrix
transposed, as (..., n_terms, n_samples) C-contiguous arrays. Designs
have many samples and few terms, so with terms on the leading axis a
reduction over terms is an elementwise max of a few contiguous sample
rows, and a reduction over samples runs along one contiguous row,
instead of either one reducing many short inner rows of 4 to 6 terms.
The tuple API (one_sided_solve, two_sided_solve) keeps the usual
samples x terms orientation and transposes once at its boundary.
"""

from __future__ import annotations

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
    up to floating point noise.
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


def from_max_plus(values, semifield: Semifield) -> np.ndarray:
    """Inverse of to_max_plus: identity for max-plus, exp for max-times."""
    array = np.asarray(values, dtype=float)
    return np.exp(array) if isinstance(semifield, MaxTimes) else array


def tropical_vector(values: np.ndarray,
                    semifield: Semifield) -> TropicalVector:
    """Vector of the semifield values whose max-plus readings are given."""
    return TropicalVector(from_max_plus(values, semifield).tolist(), semifield)


def scaled_tolerance(base: float, *arrays: np.ndarray) -> float:
    """base, or TOL_ULPS ulps of the largest magnitude in arrays if larger.

    Rounding in data of large magnitude moves results by a few ulps of
    that magnitude, which can exceed a fixed absolute tolerance.
    """
    largest = max(float(np.max(np.abs(a))) for a in arrays)
    return max(base, TOL_ULPS * math.ulp(largest))


# ---------------------------------------------------------------------------
# Max-plus array core


def residuate(at: np.ndarray,
              b: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
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
    """
    r = np.minimum.reduce(b[..., None, :] - at, axis=-1)
    image = np.maximum.reduce(at + r[..., None], axis=-2)
    delta = np.maximum.reduce(b - image, axis=-1)
    return r, (float(delta) if at.ndim == 2 else delta)


def one_sided(at: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Array form of one_sided_solve: (x_star, delta, exact) in max-plus.

    at is the transposed matrix a (terms by samples), as for residuate.
    """
    r, delta = residuate(at, b)
    exact = abs(delta) <= DELTA_UNIT_TOL
    # For a consistent system the greatest exact solution is returned
    # unscaled; sqrt(delta) is the unit there anyway.
    return (r if exact else r + 0.5 * delta), delta, exact


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

    Earlier iterates of each side are kept as the columns of an
    (n, capacity) array that doubles when full, so the repeat test is an
    elementwise max over the n rows of the stored columns.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    match_tol = scaled_tolerance(ITERATE_MATCH_TOL, at, bt)
    spans = (at, bt)
    current = [x0, None]
    seen = [np.empty((len(at), 32)), np.empty((len(bt), 32))]
    seen[0][:, 0] = x0
    count = [1, 0]
    deltas: list[float] = []
    best = None
    side = 0
    while True:
        other = 1 - side
        image = np.maximum.reduce(spans[side] + current[side][:, None],
                                  axis=0)
        reached, delta = residuate(spans[other], image)
        current[other] = reached + 0.5 * delta
        deltas.append(delta)
        if best is None or delta < best[0]:
            best = (delta, current[0], current[1])
        if abs(delta) <= DELTA_UNIT_TOL:
            termination = Termination.EXACT_SOLUTION
            break
        history = seen[other][:, :count[other]]
        gaps = np.maximum.reduce(np.abs(history - current[other][:, None]),
                                 axis=0)
        if (gaps <= match_tol).any():
            termination = Termination.CYCLE_DETECTED
            break
        if count[other] == seen[other].shape[1]:
            seen[other] = np.concatenate(
                [seen[other], np.empty_like(seen[other])], axis=1)
        seen[other][:, count[other]] = current[other]
        count[other] += 1
        if len(deltas) >= max_iter:
            termination = Termination.ITERATION_CAP
            break
        side = other
    return deltas, best[1], best[2], termination


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
    return OneSidedSolution(delta=float(from_max_plus(delta, sf)),
                            error=float(from_max_plus(0.5 * delta, sf)),
                            x_star=tropical_vector(x_star, sf), exact=exact)


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
    return TwoSidedSolution(
        delta_star=float(from_max_plus(min(deltas), sf)),
        x_star=tropical_vector(x_star, sf),
        y_star=tropical_vector(y_star, sf),
        iterations=len(deltas),
        termination=termination,
        deltas=tuple(from_max_plus(deltas, sf).tolist()),
    )
