"""References for the solver and fitting tests.

The grid oracles work in conventional max-plus arithmetic on numpy
arrays and never call into the package, so oracle and implementation
cannot share a bug. The per-scalar references below are built on the
package's public tuple products (linalg and the semifield methods),
which compute one scalar at a time in the semifield itself; the
package's max-plus float-array core is compared against them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from tropfit import (
    Termination,
    TropicalMatrix,
    TropicalVector,
    build_poly_matrix,
    conjugate,
    dot,
    full,
    mat_mul,
    mat_vec_mul,
    scale,
    vec_mat_mul,
)

#: Unit and iterate match tolerances of the per-scalar two-sided
#: reference. The package's match tolerance grows for data above about
#: 5e5 in magnitude; the reference is only run where both are 1e-9.
REFERENCE_UNIT_TOL = 1e-9
REFERENCE_MATCH_TOL = 1e-9


def maxplus_apply(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Conventional reading of a max-plus matrix-vector product."""
    return np.max(matrix + x[None, :], axis=1)


def chebyshev_error(matrix: np.ndarray, x: np.ndarray,
                    rhs: np.ndarray) -> float:
    return float(np.abs(maxplus_apply(matrix, x) - rhs).max())


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(count)


def grid_min_one_sided(matrix, rhs, lo=-10.0, hi=10.0, step=0.1) -> float:
    """Minimum Chebyshev error of (matrix) x vs rhs over a full grid in x.

    Supports 1 to 3 unknowns; the three-unknown case sweeps the first
    coordinate in a Python loop over a vectorized plane to stay fast.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    g = _axis(lo, hi, step)
    m, n = a.shape
    if n == 1:
        values = a[:, 0][:, None] + g[None, :]
        return float(np.abs(values - b[:, None]).max(axis=0).min())
    if n == 2:
        err = None
        for i in range(m):
            row = np.maximum(a[i, 0] + g[:, None], a[i, 1] + g[None, :])
            term = np.abs(row - b[i])
            err = term if err is None else np.maximum(err, term)
        return float(err.min())
    if n == 3:
        planes = [np.maximum(a[i, 1] + g[:, None], a[i, 2] + g[None, :])
                  for i in range(m)]
        best = np.inf
        for x1 in g:
            err = None
            for i in range(m):
                row = np.maximum(a[i, 0] + x1, planes[i])
                term = np.abs(row - b[i])
                err = term if err is None else np.maximum(err, term)
            best = min(best, float(err.min()))
        return best
    raise ValueError("grid oracle handles at most 3 unknowns")


def _image_cloud(matrix: np.ndarray, g: np.ndarray) -> np.ndarray:
    """All max-plus images of grid coefficient vectors, one per row."""
    m, n = matrix.shape
    if n == 1:
        return (matrix[:, 0][None, :] + g[:, None])
    if n == 2:
        cloud = np.maximum(
            matrix[:, 0][None, None, :] + g[:, None, None],
            matrix[:, 1][None, None, :] + g[None, :, None])
        return cloud.reshape(-1, m)
    raise ValueError("two-sided grid oracle handles at most 2 unknowns a side")


def grid_min_two_sided(left, right, lo=-6.0, hi=6.0, step=0.2) -> float:
    """Minimum Chebyshev distance between the two image clouds."""
    a = np.asarray(left, dtype=float)
    b = np.asarray(right, dtype=float)
    g = _axis(lo, hi, step)
    u = _image_cloud(a, g)
    v = _image_cloud(b, g)
    m = a.shape[0]
    best = np.inf
    chunk = 1024
    for start in range(0, u.shape[0], chunk):
        block = u[start:start + chunk]
        dist = np.abs(block[:, None, 0] - v[None, :, 0])
        for k in range(1, m):
            np.maximum(dist, np.abs(block[:, None, k] - v[None, :, k]),
                       out=dist)
        best = min(best, float(dist.min()))
    return best


# --- per-scalar references on the public tuple products ---------------------

def _matches_previous(vec: TropicalVector,
                      history: list[TropicalVector]) -> bool:
    for old in history:
        if all(abs(p - q) <= REFERENCE_MATCH_TOL
               for p, q in zip(vec.elements, old.elements)):
            return True
    return False


def two_sided_reference(a: TropicalMatrix, b: TropicalMatrix,
                        x0: Optional[TropicalVector] = None,
                        max_iter: int = 1000):
    """Alternating projections for a x = b y, one scalar at a time.

    Same start, half steps and stopping rules as two_sided_solve:
    project onto the other side's span, then stop on the unit delta, on
    a repeat of an earlier iterate of the same side, or at max_iter
    half steps. Returns (deltas, x_star, y_star, termination).
    """
    sf = a.semifield
    x0 = full(a.cols, sf.one, sf) if x0 is None else x0

    def half_step(image: TropicalVector, target: TropicalMatrix):
        reached = conjugate(vec_mat_mul(conjugate(image), target))
        projection = mat_vec_mul(target, reached)
        delta = dot(conjugate(projection), image)
        return delta, scale(sf.sqrt(delta), reached)

    seen_x = [x0]
    seen_y: list[TropicalVector] = []
    deltas: list[float] = []
    best_delta = None
    best_x = best_y = None
    x_current = x0
    while True:
        delta, y_next = half_step(mat_vec_mul(a, x_current), b)
        deltas.append(delta)
        if best_delta is None or delta < best_delta:
            best_delta, best_x, best_y = delta, x_current, y_next
        if sf.is_one(delta, REFERENCE_UNIT_TOL):
            return deltas, best_x, best_y, Termination.EXACT_SOLUTION
        if _matches_previous(y_next, seen_y):
            return deltas, best_x, best_y, Termination.CYCLE_DETECTED
        seen_y.append(y_next)
        if len(deltas) >= max_iter:
            return deltas, best_x, best_y, Termination.ITERATION_CAP

        delta, x_next = half_step(mat_vec_mul(b, y_next), a)
        deltas.append(delta)
        if delta < best_delta:
            best_delta, best_x, best_y = delta, x_next, y_next
        if sf.is_one(delta, REFERENCE_UNIT_TOL):
            return deltas, best_x, best_y, Termination.EXACT_SOLUTION
        if _matches_previous(x_next, seen_x):
            return deltas, best_x, best_y, Termination.CYCLE_DETECTED
        seen_x.append(x_next)
        x_current = x_next
        if len(deltas) >= max_iter:
            return deltas, best_x, best_y, Termination.ITERATION_CAP


def one_sided_reference(a: TropicalMatrix, b: TropicalVector):
    """Residuation solve of a x = b, one scalar at a time: (delta, x_star)."""
    sf = a.semifield
    reached = conjugate(vec_mat_mul(conjugate(b), a))
    delta = dot(conjugate(mat_vec_mul(a, reached)), b)
    if sf.is_one(delta, REFERENCE_UNIT_TOL):
        return delta, reached
    return delta, scale(sf.sqrt(delta), reached)


def eval_reference(model, x):
    """Value of a polynomial or rational model at x, one scalar at a time.

    A polynomial is the product of its coefficient row with the column
    of monomial values x^p; a rational model is the quotient of two.
    """
    if hasattr(model, "numerator"):
        sf = model.semifield
        return sf.mul(eval_reference(model.numerator, x),
                      sf.inv(eval_reference(model.denominator, x)))
    sf = model.semifield
    powers = TropicalVector(tuple(sf.pow(x, p) for p in model.degrees), sf)
    return dot(model.coefficients, powers)


def rational_system(samples, num_degrees, den_degrees):
    """The tuple matrices X and Y Z of a rational fit, via linalg.mat_mul."""
    y = TropicalMatrix.diagonal(samples.outputs.elements, samples.semifield)
    return (build_poly_matrix(samples, num_degrees),
            mat_mul(y, build_poly_matrix(samples, den_degrees)))
