"""Monte Carlo search over integer degree classes.

Degree vectors are drawn without replacement from a discrete uniform
range using numpy's seedable PCG64 generator, each draw is fitted, and
the class with the smallest squared error wins. Draws are generated
up front from a single stream in step order, so run i of a longer
search sees exactly the draws of a shorter one (prefix stability), and
ties are broken by draw index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .approx import (
    DegreeVector,
    FitReport,
    SampleSet,
    fit_polynomial,
    fit_rational,
    score_polynomials,
)
from .semifield import TropicalError
from .solvers import DEFAULT_MAX_ITER


class RangeTooNarrow(TropicalError):
    """The integer degree range cannot supply enough distinct values."""


@dataclass(frozen=True)
class SearchConfig:
    """Settings for one random search run.

    Leaving n_terms_denominator unset searches polynomial classes;
    setting it searches rational classes, with independent numerator
    and denominator draws (numerator first) at every step.
    """

    n_terms_numerator: int
    degree_min: int
    degree_max: int
    n_samples: int
    rng_seed: int
    n_terms_denominator: Optional[int] = None
    max_iter_two_sided: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if self.n_terms_numerator < 1:
            raise ValueError("n_terms_numerator must be at least 1")
        if self.n_terms_denominator is not None and self.n_terms_denominator < 1:
            raise ValueError("n_terms_denominator must be at least 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.max_iter_two_sided < 1:
            raise ValueError("max_iter_two_sided must be at least 1")
        width = self.degree_max - self.degree_min + 1
        needed = max(self.n_terms_numerator, self.n_terms_denominator or 1)
        if width < needed:
            raise RangeTooNarrow(
                f"range [{self.degree_min}, {self.degree_max}] holds {width} "
                f"integers, fewer than the {needed} required")

    @property
    def is_rational(self) -> bool:
        return self.n_terms_denominator is not None


@dataclass(frozen=True)
class SearchReport:
    """Winner of a search plus the per-draw error trace.

    error_trace holds one (draw index, squared error) pair per draw,
    with math.inf marking draws whose fit failed and was skipped.
    """

    best: FitReport
    best_degrees: DegreeVector
    best_denominator_degrees: Optional[DegreeVector]
    samples_evaluated: int
    error_trace: tuple[tuple[int, float], ...]


def sample_degree_rows(low: int, high: int, count: int, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """n draws of sample_degree_vector, as the rows of an int array.

    Each row takes one rng.choice call, in row order, so the stream is
    the same as that of n sample_degree_vector calls.
    """
    width = high - low + 1
    if width < count:
        raise RangeTooNarrow(
            f"range [{low}, {high}] holds {width} integers, "
            f"fewer than the {count} required")
    choice = rng.choice
    rows = np.array([choice(width, size=count, replace=False)
                     for _ in range(n)])
    rows.sort(axis=1)
    rows += low
    return rows


def sample_degree_vector(low: int, high: int, count: int,
                         rng: np.random.Generator) -> DegreeVector:
    """Draw count distinct integers uniformly from [low, high], sorted."""
    row = sample_degree_rows(low, high, count, 1, rng)[0]
    return DegreeVector(row.tolist())


def random_search(samples: SampleSet, config: SearchConfig,
                  threads: int = 1) -> SearchReport:
    """Fit every drawn degree class and keep the best.

    Deterministic for a fixed config: the winner depends only on the
    seed and the samples. Polynomial draws are scored in array blocks
    (score_polynomials) and only the winner is fitted into a FitReport;
    rational draws are fitted one at a time. Everything runs on the
    calling thread; threads is accepted for compatibility and has no
    effect.
    """
    rng = np.random.default_rng(config.rng_seed)
    if not config.is_rational:
        rows = sample_degree_rows(config.degree_min, config.degree_max,
                                  config.n_terms_numerator, config.n_samples,
                                  rng)
        trace = score_polynomials(samples, rows)
        # argmin takes the first smallest delta_star, as the strict < of
        # a draw-by-draw search does.
        winner = DegreeVector(rows[np.argmin(trace)].tolist())
        return SearchReport(
            best=fit_polynomial(samples, winner),
            best_degrees=winner,
            best_denominator_degrees=None,
            samples_evaluated=config.n_samples,
            error_trace=tuple(enumerate(trace.tolist())),
        )
    draws = [(sample_degree_vector(config.degree_min, config.degree_max,
                                   config.n_terms_numerator, rng),
              sample_degree_vector(config.degree_min, config.degree_max,
                                   config.n_terms_denominator, rng))
             for _ in range(config.n_samples)]

    trace: list[tuple[int, float]] = []
    best: Optional[FitReport] = None
    best_draw = None
    for index, (num, den) in enumerate(draws):
        try:
            report = fit_rational(samples, num, den,
                                  max_iter=config.max_iter_two_sided)
        except TropicalError:
            trace.append((index, math.inf))
            continue
        trace.append((index, report.delta_star))
        if best is None or report.delta_star < best.delta_star:
            best, best_draw = report, (num, den)
    if best is None:
        raise TropicalError("every sampled degree class failed to fit")
    return SearchReport(
        best=best,
        best_degrees=best_draw[0],
        best_denominator_degrees=best_draw[1],
        samples_evaluated=len(draws),
        error_trace=tuple(trace),
    )
