"""Dense vectors and matrices over an idempotent semifield.

All values are immutable and every operation returns a fresh value, so
concurrent reads are always safe. Storage is nested tuples and every
product works one scalar at a time through the semifield's methods.
This is the public tuple form of the algebra and the reference that
the tests compare the max-plus float-array core in solvers against;
fitting and evaluation run on that core, not on these products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .semifield import ZERO, Scalar, Semifield, TropicalError


class DimensionMismatch(TropicalError):
    """Operand shapes are incompatible."""


class ZeroVector(TropicalError):
    """The all-zero vector was passed where a nonzero vector is required."""


class SemifieldMismatch(TropicalError):
    """Operands belong to different semifields."""


def _checked_elements(elements: Iterable[Scalar],
                      semifield: Semifield) -> tuple[Scalar, ...]:
    out = []
    for e in elements:
        if e is ZERO:
            out.append(ZERO)
            continue
        v = float(e)
        if not semifield.contains(v):
            raise ValueError(f"{e!r} is not a {semifield.name} scalar")
        out.append(v)
    return tuple(out)


def _same_semifield(a, b) -> Semifield:
    if a.semifield is not b.semifield:
        raise SemifieldMismatch(
            f"cannot mix {a.semifield.name} and {b.semifield.name} values")
    return a.semifield


@dataclass(frozen=True)
class TropicalVector:
    """Column vector of scalars tied to one semifield."""

    elements: tuple[Scalar, ...]
    semifield: Semifield

    def __post_init__(self):
        cleaned = _checked_elements(self.elements, self.semifield)
        if not cleaned:
            raise ValueError("a vector needs at least one element")
        object.__setattr__(self, "elements", cleaned)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.elements)

    def __getitem__(self, index: int) -> Scalar:
        return self.elements[index]

    @property
    def is_regular(self) -> bool:
        """True when no element is the semifield zero."""
        return all(e is not ZERO for e in self.elements)


@dataclass(frozen=True)
class TropicalMatrix:
    """Rectangular row-major matrix of scalars tied to one semifield."""

    entries: tuple[tuple[Scalar, ...], ...]
    semifield: Semifield

    def __post_init__(self):
        cleaned = tuple(_checked_elements(row, self.semifield)
                        for row in self.entries)
        if not cleaned or not cleaned[0]:
            raise ValueError("a matrix needs at least one row and one column")
        width = len(cleaned[0])
        if any(len(row) != width for row in cleaned):
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "entries", cleaned)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i]

    @property
    def is_regular(self) -> bool:
        """True when no entry is the semifield zero."""
        return all(e is not ZERO for row in self.entries for e in row)

    @staticmethod
    def diagonal(values: Sequence[Scalar],
                 semifield: Semifield) -> "TropicalMatrix":
        """Square matrix with the given diagonal and ZERO elsewhere."""
        n = len(values)
        rows = tuple(
            tuple(values[i] if i == j else ZERO for j in range(n))
            for i in range(n))
        return TropicalMatrix(rows, semifield)


def full(length: int, value: Scalar, semifield: Semifield) -> TropicalVector:
    """Vector of the given length with every element equal to value."""
    return TropicalVector((value,) * length, semifield)


def support(vec: TropicalVector) -> frozenset[int]:
    """Indices (0-based) of the elements that are not the zero."""
    return frozenset(i for i, e in enumerate(vec.elements) if e is not ZERO)


def conjugate(vec: TropicalVector) -> TropicalVector:
    """Multiplicative conjugate: elementwise inverse, ZERO staying ZERO.

    The result is a row vector by convention; it is only consumed by
    the products below that expect row semantics on the left.
    """
    sf = vec.semifield
    if all(e is ZERO for e in vec.elements):
        raise ZeroVector("the zero vector has no conjugate")
    return TropicalVector(
        tuple(ZERO if e is ZERO else sf.inv(e) for e in vec.elements), sf)


def scale(factor: Scalar, vec: TropicalVector) -> TropicalVector:
    """Scalar multiple of a vector."""
    sf = vec.semifield
    return TropicalVector(tuple(sf.mul(factor, e) for e in vec.elements), sf)


def mat_vec_mul(matrix: TropicalMatrix, vec: TropicalVector) -> TropicalVector:
    """Matrix times column vector under the semifield operations."""
    sf = _same_semifield(matrix, vec)
    if matrix.cols != len(vec):
        raise DimensionMismatch(
            f"matrix has {matrix.cols} columns, vector has {len(vec)} elements")
    out = []
    for row in matrix.entries:
        acc: Scalar = ZERO
        for a, x in zip(row, vec.elements):
            acc = sf.add(acc, sf.mul(a, x))
        out.append(acc)
    return TropicalVector(tuple(out), sf)


def vec_mat_mul(vec: TropicalVector, matrix: TropicalMatrix) -> TropicalVector:
    """Row vector times matrix; vec is taken with row semantics."""
    sf = _same_semifield(vec, matrix)
    if len(vec) != matrix.rows:
        raise DimensionMismatch(
            f"vector has {len(vec)} elements, matrix has {matrix.rows} rows")
    out = []
    for j in range(matrix.cols):
        acc: Scalar = ZERO
        for i in range(matrix.rows):
            acc = sf.add(acc, sf.mul(vec.elements[i], matrix.entries[i][j]))
        out.append(acc)
    return TropicalVector(tuple(out), sf)


def dot(row: TropicalVector, col: TropicalVector) -> Scalar:
    """Row vector times column vector, a single scalar."""
    sf = _same_semifield(row, col)
    if len(row) != len(col):
        raise DimensionMismatch(
            f"vectors have lengths {len(row)} and {len(col)}")
    acc: Scalar = ZERO
    for a, b in zip(row.elements, col.elements):
        acc = sf.add(acc, sf.mul(a, b))
    return acc


def mat_mul(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Matrix product under the semifield operations."""
    sf = _same_semifield(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"left has {a.cols} columns, right has {b.rows} rows")
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc: Scalar = ZERO
            for k in range(a.cols):
                acc = sf.add(acc, sf.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return TropicalMatrix(tuple(rows), sf)


@dataclass(frozen=True)
class Distance:
    """Value of the vector metric: a finite scalar >= the unit, or infinite.

    The infinite case marks vectors with different supports; it is a
    separate state rather than a large scalar so that callers must
    branch on it explicitly.
    """

    value: Optional[float]

    @staticmethod
    def infinite() -> "Distance":
        return Distance(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None


def distance(a: TropicalVector, b: TropicalVector) -> Distance:
    """Generalized metric d(a, b) = conj(b) a + conj(a) b.

    Both terms are evaluated over the common support. The result is
    infinite when the supports differ, and the unit when both vectors
    are the zero vector. In max-plus, for regular vectors, the value
    equals the conventional Chebyshev distance max_i |a_i - b_i|.
    """
    sf = _same_semifield(a, b)
    if len(a) != len(b):
        raise DimensionMismatch(
            f"vectors have lengths {len(a)} and {len(b)}")
    supp = support(a)
    if supp != support(b):
        return Distance.infinite()
    if not supp:
        return Distance(sf.one)
    acc: Scalar = ZERO
    for i in supp:
        ai, bi = a.elements[i], b.elements[i]
        term = sf.add(sf.mul(ai, sf.inv(bi)), sf.mul(sf.inv(ai), bi))
        acc = sf.add(acc, term)
    return Distance(acc)
