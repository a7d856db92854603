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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

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
    _map_out,
    alternate,
    balance,
    delta_and_error,
    from_max_plus,
    one_sided,
    one_sided_solve,
    out_of_range,
    residuation_in_range,
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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class DegreeVector:
    """Strictly increasing rational exponents of a polynomial.

    Degrees are stored as exact fractions and sorted ascending on
    construction; duplicates are rejected rather than dropped, so a
    caller mistake cannot silently change the model class. Floats are
    accepted and convert exactly to their binary fraction, and strings
    such as "-1/3" are parsed here (_degree), the one parser of degree
    text: a zero denominator raises ValueError naming the degree.
    exponents holds the degrees as a read-only float array; a degree
    beyond the float range raises ValueError. The vector is immutable.
    """

    degrees: tuple[Fraction, ...]
    exponents: np.ndarray = field(compare=False)

    def __init__(self, degrees: Iterable[Union[Rational, float, str]]):
        # Fraction(inf) and float() of a degree beyond the float range
        # raise OverflowError.
        try:
            # Python ints sort and compare natively, far faster than Fractions.
            values = sorted(d if type(d) is int else _degree(d)
                            for d in degrees)
            if not values:
                raise ValueError("at least one degree is required")
            for left, right in zip(values, values[1:]):
                if left == right:
                    raise ValueError(f"duplicate degree {left}")
            exponents = np.array([float(d) for d in values])
        except OverflowError:
            raise ValueError("a degree overflows the float range") from None
        object.__setattr__(self, "degrees", tuple(map(Fraction, values)))
        object.__setattr__(self, "exponents", _read_only(exponents))

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.degrees)

    def __getitem__(self, index: int) -> Fraction:
        return self.degrees[index]

    def __repr__(self) -> str:
        return f"DegreeVector({', '.join(str(d) for d in self.degrees)})"


def _degree(degree: Union[Rational, float, str]) -> Fraction:
    """Fraction(degree), with a ValueError for a zero denominator."""
    try:
        return Fraction(degree)
    except ZeroDivisionError:
        raise ValueError(f"degree {degree} has a zero denominator") from None


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


def check_reals(x, y, semifield: Semifield,
                lines=None) -> tuple[np.ndarray, np.ndarray]:
    """Raise from_real's error for the first row with a value it rejects.

    x and y hold conventional reals. The rows are located with array
    checks: from_real rejects non-finite values and values whose
    max-plus reading is nan (negative in max-times). Only those rows go
    through from_real, in row order. With lines given, the error is a
    MalformedRow on the row's line. Returns the max-plus readings
    (xs, ys), where a semifield zero, which from_real accepts, reads
    -inf.
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
    return xs, ys


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class SampleSet:
    """Ordered samples (x_i, y_i) of an unknown function, all nonzero.

    The samples are stored once, as four read-only float arrays: x and y
    hold the conventional values, xs and ys their max-plus readings
    (logarithms in max-times), mapped in once on construction. points
    and outputs are their tuple forms. The set is immutable.
    """

    x: np.ndarray
    y: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    semifield: Semifield

    def __init__(self, points: Iterable[tuple[Scalar, Scalar]],
                 semifield: Semifield):
        """Samples from pairs of scalars; the first faulty pair raises."""
        pairs = tuple(points)
        if not pairs:
            raise ValueError("at least one sample is required")
        try:
            x, y = np.array(tuple(zip(*pairs, strict=True)), dtype=float)
        except (TypeError, ValueError, ArithmeticError):
            # A ZERO, or a pair that is not two numbers: checked one by one.
            for a, b in pairs:
                _check_pair(a, b, semifield)
            raise
        xs, ys = to_max_plus(x, semifield), to_max_plus(y, semifield)
        # Readings are finite exactly where the semifield contains a value.
        faulty = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))
        if len(faulty):
            _check_pair(*pairs[faulty[0]], semifield)
        self._store(x, y, xs, ys, semifield)

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
        xs, ys = check_reals(x, y, semifield, lines)
        zeros = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))
        if len(zeros):
            i = zeros[0]
            _check_pair(semifield.from_real(float(x[i])),
                        semifield.from_real(float(y[i])), semifield)
        samples = cls.__new__(cls)
        samples._store(x, y, xs, ys, semifield)
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

    def _store(self, x: np.ndarray, y: np.ndarray, xs: np.ndarray,
               ys: np.ndarray, semifield: Semifield) -> None:
        for name, array in zip(("x", "y", "xs", "ys"), (x, y, xs, ys)):
            object.__setattr__(self, name, _read_only(array))
        object.__setattr__(self, "semifield", semifield)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.x.tolist(), self.y.tolist()))

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
                                for x in samples.x.tolist()), sf)


def _finite(matrix: np.ndarray) -> np.ndarray:
    if not np.isfinite(matrix).all():
        raise ValueError("a design matrix entry overflows the float range")
    return matrix


def _design(x: np.ndarray, degrees: DegreeVector) -> np.ndarray:
    """Transposed max-plus design matrix: entry (j, i) = degrees[j] * x_i.

    Terms by samples, the layout of the solvers' array core. An entry
    that overflows is reported by _finite, so the caller mutes numpy's
    warning.
    """
    return _finite(degrees.exponents[:, None] * x)


def fit_polynomial(samples: SampleSet, degrees: DegreeVector) -> FitReport:
    """Best polynomial fit for a fixed degree vector.

    The coefficients solve the one-sided equation (design) theta = y in
    the best approximate sense, so the reported error is the smallest
    achievable pointwise distance for this degree class.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        design = _design(samples.xs, degrees)
    theta, delta, exact = one_sided(design, samples.ys)
    return _polynomial_report(samples.semifield, degrees, theta, delta, exact)


def _polynomial_report(sf: Semifield, degrees: DegreeVector,
                       theta: np.ndarray, delta: float,
                       exact: bool) -> FitReport:
    """FitReport of a polynomial fit from its max-plus solution."""
    model = PolynomialModel(degrees, tropical_vector(theta, sf))
    termination = (Termination.EXACT_SOLUTION if exact
                   else Termination.ONE_SHOT)
    return FitReport(*delta_and_error(delta, sf), model=model, iterations=1,
                     termination=termination)


#: Floats that score_polynomials gathers at once. b rows over n terms and
#: m samples gather one n x b x m array, so a gather holds
#: SCORE_ELEMENTS // (n m) rows (at least one) in at most 512 KiB: a
#: 500-draw search over the 5 terms and 21 samples of the bundled f data
#: is one gather.
SCORE_ELEMENTS = 1 << 16


def _degree_index(terms: np.ndarray,
                  low: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(terms, return_inverse=True) shifted by low, the index
    shaped as terms (nonempty). A span no wider than terms is indexed by
    an offset table instead of a sort, and with four or more terms per
    integer (about e**-4 of it undrawn, for uniform draws) the degrees
    are the whole span and the index the offsets.
    """
    first = int(terms.min())
    span = int(terms.max()) - first + 1
    if span > terms.size:
        degrees, index = np.unique(terms, return_inverse=True)
        # numpy versions differ in the shape of the inverse.
        return degrees + low, index.reshape(terms.shape)
    offsets = terms - first
    if 4 * span <= terms.size:
        return np.arange(first + low, first + low + span), offsets
    drawn = np.zeros(span, bool)
    drawn[offsets] = True
    present = np.flatnonzero(drawn)
    table = np.empty(span, np.intp)
    table[present] = np.arange(len(present))
    return present + (first + low), table[offsets]


def score_polynomials(samples: SampleSet, rows: np.ndarray) -> tuple[
        np.ndarray, Optional[FitReport]]:
    """fit_polynomial(samples, row) for every row of degrees, in one pass.

    rows is an int array with one degree class per row, in any order
    within the row. Returns the delta_star of every row, math.inf where
    the row's fit would raise (a repeated degree, no degree, or a value
    out of the float range), and the FitReport of the first row with the
    smallest finite one (None without rows), equal to fit_polynomial's
    for that row. When every row fails, the first row's fit raises its
    own error; fit_polynomial is not called otherwise.
    """
    # Rows without a degree fail, all of them, so the first one's
    # DegreeVector raises its error before any table is built.
    if len(rows) and not rows.shape[1]:
        DegreeVector([])
    repeats = (np.diff(np.sort(rows, axis=1), axis=1) == 0).any(axis=1)
    return _score_terms(samples, rows.T, 0, repeats if repeats.any() else None)


def _score_terms(samples: SampleSet, terms: np.ndarray, low: int = 0,
                 failed=None) -> tuple[np.ndarray, Optional[FitReport]]:
    """score_polynomials of the classes low + terms[:, j]; terms x draws.

    failed, when given, marks classes known to fail: score_polynomials'
    rows that repeat a degree (search draws do not). The residual
    r_p = min_i (y_i - p x_i) of a degree p does not depend on its class,
    so it is computed once per degree, with the slack
    s_pi = y_i - (p x_i + r_p). A class's delta is max_i min_{p in class}
    s_pi: the same float as the residuation of its design, since y - v
    rounds monotonically in v, for any order of its terms. The tables
    share one degrees x samples buffer, gathered SCORE_ELEMENTS floats
    at a time. fl(p x) is monotone in p and in x, so all terms lie
    between products of the end degrees (sorted) and abscissas, and the
    range rule is checked once, on those and on all coefficients and
    deltas. Only when that fails, or failed is given, is each class
    judged on its own (fit_polynomial's verdict), from p min x and
    p max x of its degrees, its coefficients and delta; a failing class
    scores math.inf.
    """
    sf = samples.semifield
    x, y = samples.xs, samples.ys
    n_rows = terms.shape[1]
    if not n_rows:
        return np.empty(0), None
    degrees, index = _degree_index(terms, low)
    x_ends, (y_lo, y_hi) = ((float(a.min()), float(a.max())) for a in (x, y))
    corners = [float(p) * e for p in (degrees[0], degrees[-1]) for e in x_ends]
    delta = np.empty(n_rows)
    step = max(1, SCORE_ELEMENTS // (len(terms) * len(x)))
    table = np.empty((len(degrees), len(x)))
    with np.errstate(all="ignore"):
        # One table holds the terms p x_i, then y - terms (reduced to r),
        # then the terms again and the slack.
        np.multiply(degrees[:, None], x, out=table)
        r = np.minimum.reduce(np.subtract(y, table, out=table), axis=1)
        np.multiply(degrees[:, None], x, out=table)
        slack = np.subtract(y, np.add(table, r[:, None], out=table),
                            out=table)
        for start in range(0, n_rows, step):
            # Terms x classes x samples: a min over a class's terms is an
            # elementwise min of contiguous sample rows, and the max over
            # samples one of contiguous rows of a samples x classes copy.
            gather = np.take(slack, index[:, start:start + step], axis=0)
            mins = np.minimum.reduce(gather, axis=0)
            np.maximum.reduce(mins.T.copy(), axis=0,
                              out=delta[start:start + step])
        # The clamp of solvers._residuate_into: no delta below the unit.
        np.maximum(delta, 0.0, out=delta)
        theta, exact = balance(r[index.T], delta)
        scores, delta_out = _map_out(delta, sf)
        theta_out = out_of_range(theta, sf)
        fits = (residuation_in_range(min(corners), max(corners), y_lo, y_hi)
                and not theta_out.any() and not delta_out.any())
        if not fits or failed is not None:
            ends = np.multiply.outer(degrees, x_ends)
            lo, hi = ends.min(1)[index].min(0), ends.max(1)[index].max(0)
            failed = (theta_out.any(1) | delta_out
                      | ~residuation_in_range(lo, hi, y_lo, y_hi)
                      | (False if failed is None else failed))
            scores[failed] = math.inf
    # argmin takes the first smallest delta_star, as the strict < of a
    # row-by-row search does; it is inf only when every class fails, and
    # then the first class's fit raises its error.
    best = int(np.argmin(scores))
    row = terms[:, best] + low
    winner = DegreeVector(row.tolist())
    if scores[best] == math.inf:
        fit_polynomial(samples, winner)
    # DegreeVector sorts the degrees; the coefficients follow them.
    order = np.argsort(row, kind="stable")
    return scores, _polynomial_report(sf, winner, theta[best][order],
                                      float(delta[best]), bool(exact[best]))


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
    # Every value out of the float range is reported below, so numpy's
    # warnings are muted, once per fit.
    with np.errstate(over="ignore", invalid="ignore"):
        num_design = num_degrees.exponents[:, None] * x
        den_design = den_degrees.exponents[:, None] * x
        right = y + den_design
        try:
            deltas, delta, theta, sigma, termination = alternate(
                num_design, right, np.zeros(len(num_degrees)), max_iter)
        except ValueError:
            # Name a design entry that overflows first (in right: x is finite).
            _finite(num_design), _finite(right)
            raise
        _check_rational_error(theta, num_design, sigma, den_design, y,
                              0.5 * delta)
    # One map-out; on a value out of range the checked ones name it.
    values, outside = _map_out(
        np.concatenate((theta, sigma, (delta, 0.5 * delta))), sf)
    if outside.any():
        tropical_vector(theta, sf), tropical_vector(sigma, sf)
        delta_and_error(delta, sf)
    values, n = values.tolist(), len(theta)
    model = RationalModel(
        PolynomialModel(num_degrees, TropicalVector(values[:n], sf)),
        PolynomialModel(den_degrees, TropicalVector(values[n:-2], sf)))
    return FitReport(*values[-2:], model=model, iterations=len(deltas),
                     termination=termination)


def _check_rational_error(theta: np.ndarray, num_design: np.ndarray,
                          sigma: np.ndarray, den_design: np.ndarray,
                          y: np.ndarray, error: float) -> None:
    """Compare the pointwise error of the fitted model with error.

    All values are max-plus readings, the designs transposed. The core
    solves against y + den_design, so the model's own values can still
    overflow; a residual that does raises ValueError. The sums forming
    the model values can cancel, so the tolerance grows with the largest
    magnitude among the coefficients, design entries, values and y.
    The caller mutes numpy's overflow warnings.
    """
    numerator = _values(theta, num_design)
    denominator = _values(sigma, den_design)
    worst = float(np.maximum.reduce(np.abs(numerator - denominator - y)))
    if not math.isfinite(worst):
        raise ValueError("the data leave the float range: "
                         "the model's residuals overflow")
    gap = abs(worst - error)
    if not (gap <= RATIONAL_ERROR_CHECK_TOL
            or gap <= scaled_tolerance(RATIONAL_ERROR_CHECK_TOL, numerator,
                                       denominator, y, theta, sigma,
                                       num_design, den_design)):
        raise ErrorCheckFailed(
            "pointwise model error disagrees with the solver error "
            f"({worst!r} vs {error!r} in max-plus units)")


def _values(coefficients: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """max_j (coefficients_j + terms_ji) for each i, on max-plus readings."""
    return np.maximum.reduce(coefficients[:, None] + terms, 0)


def evaluate(model: Union[PolynomialModel, RationalModel],
             points) -> np.ndarray:
    """Values of a polynomial or rational model at many points at once.

    Points and values are conventional reals of the model's semifield.
    A point at the semifield zero raises ZeroArgument, any other value
    outside the semifield ValueError, and so does a model value, not a
    term p x in it, out of the float range (solvers.out_of_range).
    """
    sf = model.semifield
    x = to_max_plus(points, sf)
    if np.isneginf(x).any():
        raise ZeroArgument("models are evaluated at nonzero points")
    if not np.isfinite(x).all():
        raise ValueError(f"evaluation points must be {sf.name} scalars")
    parts = ((model.numerator, model.denominator)
             if isinstance(model, RationalModel) else (model,))
    # A value out of range is reported below, so numpy's warning is muted.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.subtract.reduce([
            _values(to_max_plus(part.coefficients.elements, sf),
                    part.degrees.exponents[:, None] * x) for part in parts])
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
