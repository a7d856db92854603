"""References for the solver and fitting tests.

The grid oracles work in conventional max-plus arithmetic on numpy
arrays and never call into the package, so oracle and implementation
cannot share a bug. The per-scalar references below are built on the
package's public tuple products (linalg and the semifield methods),
which compute one scalar at a time in the semifield itself; the
package's max-plus float-array core is compared against them.

alternate_reference is the plain form of solvers.alternate: fresh
arrays every half step and a repeat test that scans every stored
iterate; alternate must match it bit for bit. Both references, like
alternate, take the next image from the projection that measured
delta, not from the new iterate, and carry the scaling of the iterates
as a running shift that is applied to the image only when it passes
the data's largest magnitude; both return the pair of the first half
step within pair_tolerance of the smallest delta. milp_rational
computes the exact Chebyshev optimum of a small rational fit as a
mixed-integer program (it needs scipy).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from tropfit import (
    MaxTimes,
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
from tropfit.solvers import (
    DELTA_UNIT_TOL,
    ITERATE_MATCH_TOL,
    PAIR_DELTA_TOL,
    scaled_tolerance,
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


def _reading(value: float, sf) -> float:
    """The max-plus reading of a semifield scalar."""
    return math.log(value) if isinstance(sf, MaxTimes) else value


def two_sided_reference(a: TropicalMatrix, b: TropicalMatrix,
                        x0: Optional[TropicalVector] = None,
                        max_iter: int = 1000):
    """Alternating projections for a x = b y, one scalar at a time.

    Same start, half steps, stopping rules and returned pair as
    two_sided_solve: project onto the other side's span, then stop on
    the unit delta, on a repeat of an earlier iterate of the same side,
    or at max_iter half steps, and return the pair of the first half
    step whose delta is within pair_tolerance of the smallest. Returns
    (deltas, x_star, y_star, termination).
    """
    sf = a.semifield
    x0 = full(a.cols, sf.one, sf) if x0 is None else x0
    entries = [_reading(v, sf) for m in (a, b) for row in m.entries
               for v in row]
    limit = max(map(abs, entries))
    shift = sf.one

    def half_step(image: TropicalVector, target: TropicalMatrix):
        """(delta, next iterate, next image): the iterate is the
        residuation scaled by the running shift times sqrt(delta), and
        the image is the projection itself, scaled by the shift only
        when the shift's reading exceeds limit, which resets it."""
        nonlocal shift
        reached = conjugate(vec_mat_mul(conjugate(image), target))
        projection = mat_vec_mul(target, reached)
        delta = dot(conjugate(projection), image)
        shift = sf.mul(shift, sf.sqrt(delta))
        iterate = scale(shift, reached)
        if _reading(shift, sf) > limit:
            projection, shift = scale(shift, projection), sf.one
        return delta, iterate, projection

    seen_x = [x0]
    seen_y: list[TropicalVector] = []
    deltas: list[float] = []
    pairs = []
    x_current = x0
    image = mat_vec_mul(a, x0)

    def result(termination):
        readings = [_reading(d, sf) for d in deltas]
        best = pair_step(readings, pair_tolerance(readings, *entries))
        return (deltas, *pairs[best], termination)

    while True:
        delta, y_next, image = half_step(image, b)
        deltas.append(delta)
        pairs.append((x_current, y_next))
        if sf.is_one(delta, REFERENCE_UNIT_TOL):
            return result(Termination.EXACT_SOLUTION)
        if _matches_previous(y_next, seen_y):
            return result(Termination.CYCLE_DETECTED)
        seen_y.append(y_next)
        if len(deltas) >= max_iter:
            return result(Termination.ITERATION_CAP)

        delta, x_next, image = half_step(image, a)
        deltas.append(delta)
        pairs.append((x_next, y_next))
        if sf.is_one(delta, REFERENCE_UNIT_TOL):
            return result(Termination.EXACT_SOLUTION)
        if _matches_previous(x_next, seen_x):
            return result(Termination.CYCLE_DETECTED)
        seen_x.append(x_next)
        x_current = x_next
        if len(deltas) >= max_iter:
            return result(Termination.ITERATION_CAP)


def one_sided_reference(a: TropicalMatrix, b: TropicalVector):
    """Residuation solve of a x = b, one scalar at a time: (delta, x_star)."""
    sf = a.semifield
    reached = conjugate(vec_mat_mul(conjugate(b), a))
    delta = dot(conjugate(mat_vec_mul(a, reached)), b)
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


# --- the plain array loop of alternate --------------------------------------

def _residuate_reference(at: np.ndarray, b: np.ndarray):
    """(r, a r, delta): the residuation, its projection and delta."""
    r = np.minimum.reduce(b - at, axis=1)
    projection = np.maximum.reduce(at + r[:, None], axis=0)
    return r, projection, float(np.maximum.reduce(b - projection))


def pair_step(deltas, tol: float) -> int:
    """k*, the first half step whose delta is within tol of the smallest."""
    low = min(deltas)
    return next(k for k, delta in enumerate(deltas) if delta <= low + tol)


def pair_tolerance(deltas, *arrays) -> float:
    """The tolerance of pair_step for max-plus deltas of a run on arrays."""
    return scaled_tolerance(PAIR_DELTA_TOL, min(deltas), *arrays)


def alternate_reference(at: np.ndarray, bt: np.ndarray, x0: np.ndarray,
                        max_iter: int, limit: Optional[float] = None):
    """solvers.alternate with fresh arrays per half step and a full
    repeat test over every stored iterate: (deltas, delta, x, y,
    termination).

    The next image is the projection itself, and the iterate is the
    residuation plus a running shift, -0.0 beside x0 plus delta / 2 per
    half step. When the shift exceeds limit (by default the largest
    magnitude in at and bt), the shift is added to the image and reset
    to 0.0. A limit of -inf adds delta / 2 on every half step, the
    arithmetic of a solver that keeps no shift.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    match_tol = scaled_tolerance(ITERATE_MATCH_TOL, at, bt)
    if limit is None:
        limit = float(max(np.abs(at).max(), np.abs(bt).max()))
    spans = (at, bt)
    current = [x0, None]
    seen = [np.empty((len(at), 32)), np.empty((len(bt), 32))]
    seen[0][:, 0] = x0
    count = [1, 0]
    deltas: list[float] = []
    pairs = []
    shift = -0.0
    side = 0
    image = np.maximum.reduce(at + x0[:, None], axis=0)
    while True:
        other = 1 - side
        reached, image, delta = _residuate_reference(spans[other], image)
        shift += 0.5 * delta
        current[other] = reached + shift
        if shift > limit:
            image = image + shift
            shift = 0.0
        deltas.append(delta)
        pairs.append((current[0], current[1]))
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
    best = pair_step(deltas, pair_tolerance(deltas, at, bt))
    return deltas, deltas[best], *pairs[best], termination


# --- exact rational optimum as a mixed-integer program ----------------------

def _values(coefficients: np.ndarray, degrees: np.ndarray,
            x: np.ndarray) -> np.ndarray:
    """max_j (c_j + p_j x_i) for every sample i."""
    return np.max(coefficients[None, :] + np.outer(x, degrees), axis=1)


def _greatest(values: np.ndarray, degrees: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """Greatest coefficients c with max_j (c_j + p_j x_i) <= values_i."""
    return np.min(values[:, None] - np.outer(x, degrees), axis=0)


def milp_rational(x, y, num_degrees, den_degrees, time_limit: float = 60.0):
    """Exact best Chebyshev error of a max-plus rational fit, by MILP.

    Minimises t subject to |u_i - w_i - y_i| <= t, where
    u_i = max_j (theta_j + p_j x_i) and w_i = max_k (sigma_k + q_k x_i).
    Each max is exact through one binary per sample and term that picks
    the active term (big-M), and theta_0 = 0 fixes the common shift.
    Solved with scipy.optimize.milp (HiGHS) at a zero relative gap,
    without presolve, which is about three times faster on these sizes.

    Bounds, from the data range: with U_p = max |p_j x_i|,
    U_q = max |q_k x_i|, Y = max |y_i| and T the error of all-zero
    coefficients (an upper bound of the optimum t), take an optimal pair
    and make it greatest on each side in turn: sigma from u, theta from
    w, shifted to theta_0 = 0, then sigma again. That pair is still
    optimal, and u_i >= p_0 x_i >= -U_p and w_i + y_i + t >= u_i give
    |theta_j| <= 2 U_p and
    -U_p - U_q - Y <= sigma_k <= 3 U_p + U_q + Y + T.
    Boxing the coefficients there, widened by 1, keeps an optimum, and
    M_ij is the largest gap u_i - (theta_j + p_j x_i) the box allows.

    Returns (error, theta, sigma): the pair is that greatest form of
    the solver's pair, error its Chebyshev error recomputed with numpy.
    Raises AssertionError when the solve fails, when a coefficient of
    the returned pair touches the box (a bound is active), or when the
    recomputed error is off the solver's objective by more than 1e-6.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    p = np.asarray([float(d) for d in num_degrees])
    q = np.asarray([float(d) for d in den_degrees])
    m, n, d = len(x), len(p), len(q)
    y_max = float(np.max(np.abs(y)))
    u_p = float(np.max(np.abs(np.outer(x, p))))
    u_q = float(np.max(np.abs(np.outer(x, q))))
    zero_error = float(np.max(np.abs(_values(np.zeros(n), p, x)
                                     - _values(np.zeros(d), q, x) - y)))
    low = np.concatenate([np.full(n, -2 * u_p),
                          np.full(d, -u_p - u_q - y_max)]) - 1
    high = np.concatenate([np.full(n, 2 * u_p),
                           np.full(d, 3 * u_p + u_q + y_max + zero_error)]) + 1
    low[0] = high[0] = 0.0
    # Variables: theta (n), sigma (d), t, u (m), w (m), z (m, n), v (m, d).
    theta, sigma, t = 0, n, n + d
    u, w = t + 1, t + 1 + m
    z, v = w + m, w + m + m * n
    size = v + m * d
    rows, lower, upper = [], [], []

    def constrain(entries, lo, hi):
        row = np.zeros(size)
        for index, value in entries:
            row[index] += value
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    for coeff, degrees, value, pick, count in ((theta, p, u, z, n),
                                               (sigma, q, w, v, d)):
        box = slice(coeff, coeff + count)
        for i in range(m):
            terms = degrees * x[i]
            top = float(np.max(high[box] + terms))
            for j in range(count):
                # value_i >= coeff_j + p_j x_i, with equality where picked.
                big_m = top - float(low[coeff + j] + terms[j])
                constrain([(value + i, 1), (coeff + j, -1)],
                          terms[j], terms[j] + big_m)
                constrain([(value + i, 1), (coeff + j, -1),
                           (pick + i * count + j, big_m)],
                          -np.inf, terms[j] + big_m)
            constrain([(pick + i * count + j, 1) for j in range(count)], 1, 1)
    for i in range(m):
        constrain([(u + i, 1), (w + i, -1), (t, -1)], -np.inf, y[i])
        constrain([(u + i, 1), (w + i, -1), (t, 1)], y[i], np.inf)

    lb = np.full(size, -np.inf)
    ub = np.full(size, np.inf)
    lb[:t], ub[:t] = low, high
    lb[t] = 0.0
    lb[z:], ub[z:] = 0.0, 1.0
    integrality = np.zeros(size)
    integrality[z:] = 1
    cost = np.zeros(size)
    cost[t] = 1.0
    result = milp(cost, constraints=LinearConstraint(np.array(rows), lower,
                                                     upper),
                  integrality=integrality, bounds=Bounds(lb, ub),
                  options={"mip_rel_gap": 0.0, "presolve": False,
                           "time_limit": time_limit})
    assert result.success, f"MILP failed: {result.message}"

    def error_of(num, den):
        return float(np.max(np.abs(_values(num, p, x) - _values(den, q, x)
                                   - y)))

    num, den = result.x[theta:sigma], result.x[sigma:t]
    error = error_of(num, den)
    den = _greatest(_values(num, p, x) - y + error, q, x)
    num = _greatest(_values(den, q, x) + y + error, p, x)
    den = den - num[0]
    num = num - num[0]
    den = _greatest(_values(num, p, x) - y + error, q, x)
    error = error_of(num, den)
    pair = np.concatenate([num, den])[1:]
    margin = 1e-6 * (high - low)[1:]
    assert ((pair > low[1:] + margin) & (pair < high[1:] - margin)).all(), \
        "a coefficient bound is active"
    assert math.isclose(error, result.fun, rel_tol=0, abs_tol=1e-6), \
        f"recomputed error {error!r} is off the MILP objective {result.fun!r}"
    return error, num, den
