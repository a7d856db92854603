"""Fitting of tropical polynomial and rational models to sample data.

A polynomial model max_j (coeff_j + p_j * x) in max-plus reading is fit
by stacking the monomial values of the sample abscissas into a design
matrix and solving the resulting one-sided equation; the rational model
numerator/denominator pair leads to a two-sided equation whose right
matrix couples the denominator design with the sample ordinates.

Fits and evaluation run on float arrays in max-plus; max-times samples
and models pass through the logarithm on the way in and the
exponential on the way out.
"""

from __future__ import annotations

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
    DELTA_UNIT_TOL,
    NonRegularInput,
    Termination,
    alternate,
    from_max_plus,
    one_sided,
    one_sided_solve,
    residuate,
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
    accepted and convert exactly to their binary fraction.
    """

    __slots__ = ("degrees",)

    def __init__(self, degrees: Iterable[Union[Rational, float, str]]):
        normalized = tuple(sorted(Fraction(d) for d in degrees))
        if not normalized:
            raise ValueError("at least one degree is required")
        for left, right in zip(normalized, normalized[1:]):
            if left == right:
                raise ValueError(f"duplicate degree {left}")
        self.degrees = normalized

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.degrees)

    def __getitem__(self, index: int) -> Fraction:
        return self.degrees[index]

    @property
    def exponents(self) -> np.ndarray:
        """The degrees as a float array."""
        return np.array([float(d) for d in self.degrees])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeVector):
            return NotImplemented
        return self.degrees == other.degrees

    def __hash__(self) -> int:
        return hash(self.degrees)

    def __repr__(self) -> str:
        return f"DegreeVector({', '.join(str(d) for d in self.degrees)})"


@dataclass(frozen=True)
class SampleSet:
    """Ordered samples (x_i, y_i) of an unknown function, all nonzero."""

    points: tuple[tuple[Scalar, Scalar], ...]
    semifield: Semifield

    def __post_init__(self):
        if not self.points:
            raise ValueError("at least one sample is required")
        cleaned = []
        for x, y in self.points:
            if x is ZERO:
                raise ZeroAbscissa("sample abscissas must be nonzero")
            if y is ZERO:
                raise NonRegularInput("sample ordinates must be nonzero")
            xv, yv = float(x), float(y)
            if not self.semifield.contains(xv) or not self.semifield.contains(yv):
                raise ValueError(
                    f"({x!r}, {y!r}) is not a pair of {self.semifield.name} scalars")
            cleaned.append((xv, yv))
        object.__setattr__(self, "points", tuple(cleaned))

    @classmethod
    def from_reals(cls, pairs: Iterable[tuple[float, float]],
                   semifield: Semifield) -> "SampleSet":
        """Build a sample set from conventional reals via the embedding."""
        converted = tuple((semifield.from_real(x), semifield.from_real(y))
                          for x, y in pairs)
        return cls(converted, semifield)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def xs(self) -> np.ndarray:
        """Max-plus readings of the abscissas (logarithms in max-times)."""
        return to_max_plus([x for x, _ in self.points], self.semifield)

    @property
    def ys(self) -> np.ndarray:
        """Max-plus readings of the ordinates (logarithms in max-times)."""
        return to_max_plus([y for _, y in self.points], self.semifield)

    @property
    def inputs(self) -> tuple[Scalar, ...]:
        return tuple(x for x, _ in self.points)

    @property
    def outputs(self) -> TropicalVector:
        return TropicalVector(tuple(y for _, y in self.points), self.semifield)


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
    rows = []
    for x in samples.inputs:
        if x is ZERO:
            raise ZeroAbscissa("sample abscissas must be nonzero")
        rows.append(tuple(sf.pow(x, p) for p in degrees))
    return TropicalMatrix(tuple(rows), sf)


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
    return FitReport(delta_star=float(from_max_plus(delta, sf)),
                     error=float(from_max_plus(0.5 * delta, sf)),
                     model=model, iterations=1, termination=termination)


#: Degree rows that score_polynomials residuates together. A block of b
#: rows over n terms and m samples holds a few b x n x m float arrays at
#: once; 64 rows amortise the per-call numpy overhead while each array
#: stays small (53,760 bytes for the 21 samples and 5 terms of the
#: bundled f data).
SCORE_BLOCK = 64


def score_polynomials(samples: SampleSet, rows: np.ndarray) -> np.ndarray:
    """fit_polynomial(samples, row).delta_star for every row of degrees.

    rows is an int array with one degree class per row. Each block of
    SCORE_BLOCK rows is solved with one residuation. Where
    fit_polynomial would raise for some row (its design overflows, or a
    coefficient leaves the semifield), the error of the first such row
    is raised.
    """
    sf = samples.semifield
    x, y = samples.xs, samples.ys
    scores = []
    for start in range(0, len(rows), SCORE_BLOCK):
        block = rows[start:start + SCORE_BLOCK]
        with np.errstate(all="ignore"):
            design = block[:, :, None] * x
            r, delta = residuate(design, y)
            # The coefficients of one_sided, mapped out and back in: a
            # value outside the semifield comes back non-finite.
            theta = r + np.where(np.abs(delta) <= DELTA_UNIT_TOL, 0.0,
                                 0.5 * delta)[:, None]
            fits = (np.isfinite(design).all(axis=(1, 2))
                    & np.isfinite(to_max_plus(from_max_plus(theta, sf),
                                              sf)).all(axis=1))
        if not fits.all():
            # Fitting the first failing row on its own raises its error.
            fit_polynomial(samples,
                           DegreeVector(block[np.argmin(fits)].tolist()))
        scores.append(from_max_plus(delta, sf))
    return np.concatenate(scores)


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
    return FitReport(delta_star=float(from_max_plus(delta, sf)),
                     error=float(from_max_plus(0.5 * delta, sf)),
                     model=model, iterations=len(deltas),
                     termination=termination)


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
    outside the semifield ValueError.
    """
    sf = model.semifield
    x = to_max_plus(points, sf)
    if np.isneginf(x).any():
        raise ZeroArgument("models are evaluated at nonzero points")
    if not np.isfinite(x).all():
        raise ValueError(f"evaluation points must be {sf.name} scalars")
    if isinstance(model, RationalModel):
        values = (_poly_values(model.numerator, x)
                  - _poly_values(model.denominator, x))
    else:
        values = _poly_values(model, x)
    return from_max_plus(values, sf)


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
