"""Fitting of tropical polynomial and rational models to sample data.

A polynomial model max_j (coeff_j + p_j * x) in max-plus reading is fit
by stacking the monomial values of the sample abscissas into a design
matrix and solving the resulting one-sided equation; the rational model
numerator/denominator pair leads to a two-sided equation whose right
matrix couples the denominator design with the sample ordinates.

Fits and evaluation run on float arrays in max-plus; max-times samples
and models pass through the logarithm on the way in and the
exponential on the way out, where solvers applies its range rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

# perfbench/tracer.py wraps distance, mat_mul, one/two_sided_solve here.
from .linalg import (  # noqa: F401
    TropicalMatrix,
    TropicalVector,
    distance,
    mat_mul,
)
from .semifield import ZERO, Rational, Scalar, Semifield, TropicalError
from .solvers import (  # noqa: F401
    DEFAULT_MAX_ITER,
    NonRegularInput,
    Termination,
    alternate,
    balance,
    delta_and_error,
    from_max_plus,
    one_sided,
    one_sided_solve,
    out_of_range,
    scaled_tolerance,
    to_max_plus,
    tropical_vector,
    two_sided_solve,
)


class ZeroAbscissa(TropicalError):
    """A sample x equal to the semifield zero cannot enter a design matrix."""


class ZeroArgument(TropicalError):
    """Models cannot be evaluated at the semifield zero."""


class ErrorCheckFailed(TropicalError, ArithmeticError):
    """The pointwise error of a fitted model disagrees with the solver's."""


#: Slack allowed between the solver error of a rational fit and the
#: pointwise error of the recovered model, in max-plus units; larger
#: gaps mean a bug. scaled_tolerance raises it for large magnitudes.
RATIONAL_ERROR_CHECK_TOL = 1e-9


class DegreeVector:
    """Strictly increasing rational exponents of a polynomial.

    Degrees are stored as exact fractions and sorted ascending on
    construction; duplicates are rejected rather than dropped, so a
    caller mistake cannot silently change the model class. Floats are
    accepted and convert exactly to their binary fraction. exponents
    holds the degrees as a read-only float array; a degree beyond the
    float range raises ValueError.
    """

    __slots__ = ("degrees", "exponents")

    def __init__(self, degrees: Iterable[Union[Rational, float, str]]):
        normalized = tuple(sorted(Fraction(d) for d in degrees))
        if not normalized:
            raise ValueError("at least one degree is required")
        for left, right in zip(normalized, normalized[1:]):
            if left == right:
                raise ValueError(f"duplicate degree {left}")
        try:
            exponents = np.array([float(d) for d in normalized])
        except OverflowError:
            raise ValueError("a degree overflows the float range") from None
        self.degrees = normalized
        self.exponents = _read_only(exponents)

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.degrees)

    def __getitem__(self, index: int) -> Fraction:
        return self.degrees[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeVector):
            return NotImplemented
        return self.degrees == other.degrees

    def __hash__(self) -> int:
        return hash(self.degrees)

    def __repr__(self) -> str:
        return f"DegreeVector({', '.join(str(d) for d in self.degrees)})"


class MalformedRow(TropicalError):
    """A sample row could not be parsed or holds a value its semifield
    rejects; carries its 1-based line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line


def _check_pair(x, y, semifield: Semifield) -> None:
    """Raise the error of a sample pair that is not two nonzero scalars."""
    if x is ZERO:
        raise ZeroAbscissa("sample abscissas must be nonzero")
    if y is ZERO:
        raise NonRegularInput("sample ordinates must be nonzero")
    if not (semifield.contains(float(x)) and semifield.contains(float(y))):
        raise ValueError(
            f"({x!r}, {y!r}) is not a pair of {semifield.name} scalars")


def check_reals(x, y, semifield: Semifield, lines=None) -> np.ndarray:
    """Raise from_real's error for the first row with a value it rejects.

    x and y hold conventional reals. The rows are located with array
    checks: from_real rejects non-finite values and values whose
    max-plus reading is nan (negative in max-times). Only those rows go
    through from_real, in row order. With lines given, the error is a
    MalformedRow on the row's line. Returns the indices of the rows that
    hold a semifield zero, which from_real accepts.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xs, ys = to_max_plus(x, semifield), to_max_plus(y, semifield)
    rejected = ~(np.isfinite(x) & np.isfinite(y)) | np.isnan(xs) | np.isnan(ys)
    for i in np.flatnonzero(rejected).tolist():
        try:
            semifield.from_real(float(x[i]))
            semifield.from_real(float(y[i]))
        except ValueError as exc:
            if lines is None:
                raise
            raise MalformedRow(lines[i], str(exc)) from None
    return np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))


class SampleSet:
    """Ordered samples (x_i, y_i) of an unknown function, all nonzero.

    The samples are stored once, as two read-only float arrays x and y
    of conventional values; xs and ys are their max-plus readings, and
    points, inputs and outputs their tuple forms. The set is immutable.
    """

    __slots__ = ("x", "y", "semifield")

    def __init__(self, points: Iterable[tuple[Scalar, Scalar]],
                 semifield: Semifield):
        """Samples from pairs of scalars; the first faulty pair raises."""
        pairs = tuple(points)
        if not pairs:
            raise ValueError("at least one sample is required")
        x = np.array([math.nan if a is ZERO else a for a, _ in pairs],
                     dtype=float)
        y = np.array([math.nan if b is ZERO else b for _, b in pairs],
                     dtype=float)
        # A finite max-plus reading is exactly what contains accepts.
        irregular = ~(np.isfinite(to_max_plus(x, semifield))
                      & np.isfinite(to_max_plus(y, semifield)))
        for i in np.flatnonzero(irregular).tolist():
            _check_pair(*pairs[i], semifield)
        self._store(x, y, semifield)

    @classmethod
    def from_columns(cls, x, y, semifield: Semifield,
                     lines=None) -> "SampleSet":
        """Build a sample set from columns of conventional reals.

        The first row holding a value that from_real rejects raises its
        error, as a MalformedRow on its line when lines is given (see
        check_reals). Only then does the first row holding a zero raise:
        ZeroAbscissa for x, NonRegularInput for y.
        """
        x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be flat arrays of one length")
        if not len(x):
            raise ValueError("at least one sample is required")
        zeros = check_reals(x, y, semifield, lines)
        if len(zeros):
            i = zeros[0]
            _check_pair(semifield.from_real(float(x[i])),
                        semifield.from_real(float(y[i])), semifield)
        samples = cls.__new__(cls)
        samples._store(x, y, semifield)
        return samples

    @classmethod
    def from_reals(cls, pairs: Iterable[tuple[float, float]],
                   semifield: Semifield) -> "SampleSet":
        """Build a sample set from pairs of conventional reals."""
        xy = np.array(list(pairs), dtype=float)
        if len(xy) and xy.shape[1:] != (2,):
            raise ValueError("samples must be (x, y) pairs")
        xy = xy.reshape(-1, 2)
        return cls.from_columns(xy[:, 0], xy[:, 1], semifield)

    def _store(self, x: np.ndarray, y: np.ndarray,
               semifield: Semifield) -> None:
        object.__setattr__(self, "x", _read_only(x))
        object.__setattr__(self, "y", _read_only(y))
        object.__setattr__(self, "semifield", semifield)

    def __setattr__(self, name, value):
        raise AttributeError("sample sets are immutable")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def xs(self) -> np.ndarray:
        """Max-plus readings of the abscissas (logarithms in max-times)."""
        return _read_only(to_max_plus(self.x, self.semifield))

    @property
    def ys(self) -> np.ndarray:
        """Max-plus readings of the ordinates (logarithms in max-times)."""
        return _read_only(to_max_plus(self.y, self.semifield))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.x.tolist(), self.y.tolist()))

    @property
    def inputs(self) -> tuple[float, ...]:
        return tuple(self.x.tolist())

    @property
    def outputs(self) -> TropicalVector:
        return TropicalVector(tuple(self.y.tolist()), self.semifield)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PolynomialModel:
    """A degree vector with its fitted coefficients."""

    degrees: DegreeVector
    coefficients: TropicalVector

    def __post_init__(self):
        if len(self.degrees) != len(self.coefficients):
            raise ValueError(
                f"{len(self.degrees)} degrees but "
                f"{len(self.coefficients)} coefficients")
        if not self.coefficients.is_regular:
            raise ValueError("polynomial coefficients must be nonzero")

    @property
    def semifield(self) -> Semifield:
        return self.coefficients.semifield


@dataclass(frozen=True)
class RationalModel:
    """Quotient of two polynomial models over the same semifield."""

    numerator: PolynomialModel
    denominator: PolynomialModel

    def __post_init__(self):
        if self.numerator.semifield is not self.denominator.semifield:
            raise ValueError(
                "numerator and denominator use different semifields")

    @property
    def semifield(self) -> Semifield:
        return self.numerator.semifield


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: achieved error, model, and solver diagnostics."""

    delta_star: float
    error: float
    model: Union[PolynomialModel, RationalModel]
    iterations: int
    termination: Termination


def build_poly_matrix(samples: SampleSet,
                      degrees: DegreeVector) -> TropicalMatrix:
    """Design matrix with entry (i, j) = x_i to the power degrees[j].

    The tuple form of the design, computed in the samples' semifield;
    the fits build theirs on arrays in max-plus.
    """
    sf = samples.semifield
    return TropicalMatrix(tuple(tuple(sf.pow(x, p) for p in degrees)
                                for x in samples.inputs), sf)


def _finite(matrix: np.ndarray) -> np.ndarray:
    if not np.isfinite(matrix).all():
        raise ValueError("a design matrix entry overflows the float range")
    return matrix


def _design(x: np.ndarray, degrees: DegreeVector) -> np.ndarray:
    """Transposed max-plus design matrix: entry (j, i) = degrees[j] * x_i.

    Terms by samples, the layout of the solvers' array core. An entry
    that overflows is reported by _finite, so numpy's warning is muted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(degrees.exponents[:, None] * x)


def fit_polynomial(samples: SampleSet, degrees: DegreeVector) -> FitReport:
    """Best polynomial fit for a fixed degree vector.

    The coefficients solve the one-sided equation (design) theta = y in
    the best approximate sense, so the reported error is the smallest
    achievable pointwise distance for this degree class.
    """
    sf = samples.semifield
    theta, delta, exact = one_sided(_design(samples.xs, degrees), samples.ys)
    model = PolynomialModel(degrees, tropical_vector(theta, sf))
    termination = (Termination.EXACT_SOLUTION if exact
                   else Termination.ONE_SHOT)
    return FitReport(*delta_and_error(delta, sf), model=model, iterations=1,
                     termination=termination)


#: Degree rows whose slack score_polynomials gathers at once. A block of
#: b rows over n terms and m samples gathers one n x b x m float array;
#: 64 rows amortise the per-call numpy overhead while that array stays
#: small (53,760 bytes for the 21 samples and 5 terms of the bundled f
#: data).
SCORE_BLOCK = 64


def score_polynomials(samples: SampleSet, rows: np.ndarray) -> np.ndarray:
    """fit_polynomial(samples, row).delta_star for every row of degrees.

    rows is an int array with one degree class per row. The residual
    r_p = min_i (y_i - p x_i) of a degree p does not depend on the row
    it is drawn into, so it is computed once for each distinct degree,
    with the slack s_pi = y_i - (p x_i + r_p). The delta of a row is
    max_i min_{p in row} s_pi: the same float as the residuation of the
    row's design, since y - v rounds monotonically in v. Rows are
    gathered SCORE_BLOCK at a time. Where fit_polynomial would raise for
    some row (its design overflows, or a coefficient or delta_star is
    out of range by solvers.out_of_range), the error of the first such
    row is raised.
    """
    sf = samples.semifield
    x, y = samples.xs, samples.ys
    degrees, index = np.unique(rows, return_inverse=True)
    # numpy versions differ in the shape of the inverse.
    index = index.reshape(rows.shape)
    delta = np.empty(len(rows))
    with np.errstate(all="ignore"):
        terms = degrees[:, None] * x
        r = np.minimum.reduce(y - terms, axis=1)
        slack = y - (terms + r[:, None])
        for start in range(0, len(rows), SCORE_BLOCK):
            # Terms x rows x samples: the min over a row's terms is an
            # elementwise min of contiguous sample rows.
            block = np.take(slack, index[start:start + SCORE_BLOCK].T, axis=0)
            np.maximum.reduce(np.minimum.reduce(block, axis=0), axis=1,
                              out=delta[start:start + SCORE_BLOCK])
        theta, _ = balance(r[index], delta)
        scores = from_max_plus(delta, sf)
        fits = (np.isfinite(terms).all(axis=1)[index].all(axis=1)
                & ~out_of_range(theta, sf).any(axis=1)
                & ~out_of_range(delta, sf))
    if not fits.all():
        # Fitting the first failing row on its own raises its error.
        fit_polynomial(samples, DegreeVector(rows[np.argmin(fits)].tolist()))
    return scores


def fit_rational(samples: SampleSet,
                 num_degrees: DegreeVector,
                 den_degrees: DegreeVector,
                 max_iter: int = DEFAULT_MAX_ITER) -> FitReport:
    """Best rational fit for fixed numerator and denominator degrees.

    With design matrices X (numerator) and Z (denominator) and the
    diagonal matrix Y of sample ordinates, the fitting conditions read
    X theta = Y Z sigma, a two-sided equation solved by alternating
    projections. In max-plus, Y Z is Z with y_i added to row i (to
    column i of the transposed designs the solvers take).
    Coefficient pairs are only determined up to a common scalar factor,
    which does not change the fitted function.

    The pointwise error of the recovered model provably equals the
    solver's error; this is re-checked on every fit and a mismatch
    raises ErrorCheckFailed.
    """
    sf = samples.semifield
    x, y = samples.xs, samples.ys
    num_design = _design(x, num_degrees)
    den_design = _design(x, den_degrees)
    with np.errstate(over="ignore"):
        right = _finite(y + den_design)
    deltas, theta, sigma, termination = alternate(
        num_design, right, np.zeros(len(num_degrees)), max_iter)
    delta = min(deltas)
    _check_rational_error(
        np.maximum.reduce(theta[:, None] + num_design, axis=0),
        np.maximum.reduce(sigma[:, None] + den_design, axis=0),
        y, 0.5 * delta)
    model = RationalModel(
        PolynomialModel(num_degrees, tropical_vector(theta, sf)),
        PolynomialModel(den_degrees, tropical_vector(sigma, sf)))
    return FitReport(*delta_and_error(delta, sf), model=model,
                     iterations=len(deltas), termination=termination)


def _check_rational_error(numerator: np.ndarray, denominator: np.ndarray,
                          y: np.ndarray, error: float) -> None:
    """Compare max_i |numerator_i - denominator_i - y_i| with error.

    All values are max-plus readings; the tolerance grows with their
    magnitude.
    """
    worst = float(np.max(np.abs(numerator - denominator - y)))
    tol = scaled_tolerance(RATIONAL_ERROR_CHECK_TOL, numerator, denominator, y)
    if not abs(worst - error) <= tol:
        raise ErrorCheckFailed(
            "pointwise model error disagrees with the solver error "
            f"({worst!r} vs {error!r} in max-plus units)")


def _poly_values(model: PolynomialModel, x: np.ndarray) -> np.ndarray:
    coefficients = to_max_plus(model.coefficients.elements, model.semifield)
    return np.maximum.reduce(coefficients[:, None] + _design(x, model.degrees),
                             axis=0)


def evaluate(model: Union[PolynomialModel, RationalModel],
             points) -> np.ndarray:
    """Values of a polynomial or rational model at many points at once.

    Points and values are conventional reals of the model's semifield.
    A point at the semifield zero raises ZeroArgument, any other value
    outside the semifield ValueError, and so does a model value out of
    the float range (solvers.out_of_range), overflow or underflow.
    """
    sf = model.semifield
    x = to_max_plus(points, sf)
    if np.isneginf(x).any():
        raise ZeroArgument("models are evaluated at nonzero points")
    if not np.isfinite(x).all():
        raise ValueError(f"evaluation points must be {sf.name} scalars")
    # A value out of range is reported below, so numpy's warning is muted.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, RationalModel):
            values = (_poly_values(model.numerator, x)
                      - _poly_values(model.denominator, x))
        else:
            values = _poly_values(model, x)
    return from_max_plus(values, sf, "a model value")


def eval_polynomial(model: PolynomialModel, x: Scalar) -> float:
    """Value of the polynomial at a nonzero point."""
    if x is ZERO:
        raise ZeroArgument("polynomials are evaluated at nonzero points")
    return float(evaluate(model, [x])[0])


def eval_rational(model: RationalModel, x: Scalar) -> float:
    """Value of the rational function at a nonzero point."""
    if x is ZERO:
        raise ZeroArgument("rational functions are evaluated at nonzero points")
    return float(evaluate(model, [x])[0])
