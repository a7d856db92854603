"""Monte Carlo search over integer degree classes.

Degree vectors are drawn without replacement from a discrete uniform
range using a seeded numpy Generator. Polynomial draws are scored all
at once (as approx.score_polynomials scores rows), rational draws are
fitted one at a time, and the class with the smallest error wins.
Draws are generated up front from a single stream in step order, so
run i of a longer search sees exactly the draws of a shorter one
(prefix stability), and ties are broken by draw index. The draws
equal per-class rng.choice calls (_choice_block), so seeded results do
not depend on how they are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# perfbench/tracer.py wraps fit_polynomial here.
from .approx import (  # noqa: F401
    DegreeVector,
    FitReport,
    SampleSet,
    _score_terms,
    fit_polynomial,
    fit_rational,
)
from .semifield import TropicalError
from .solvers import DEFAULT_MAX_ITER


_INT64 = np.iinfo(np.int64)

#: Largest class _choice_block draws in its block, below numpy's tail
#: shuffle (count > width // 50 >= 200); rng.choice draws larger ones.
BLOCK_COUNT = 128


class RangeTooNarrow(TropicalError):
    """The integer degree range cannot supply enough distinct values."""


def _check_width(low: int, high: int, needed: int) -> None:
    width = high - low + 1
    if not all(_INT64.min <= v <= _INT64.max for v in (low, high, width)):
        raise ValueError("the degree bounds and the range width must "
                         "lie within the int64 range")
    if width < needed:
        raise RangeTooNarrow(f"range [{low}, {high}] holds {width} integers, "
                             f"fewer than the {needed} required")


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
        for name, least in (
                ("n_terms_numerator", 1), ("n_terms_denominator", 1),
                ("n_samples", 1), ("rng_seed", 0), ("max_iter_two_sided", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}")
        _check_width(self.degree_min, self.degree_max,
                     max(self.n_terms_numerator, self.n_terms_denominator or 1))

    @property
    def is_rational(self) -> bool:
        return self.n_terms_denominator is not None


@dataclass(frozen=True)
class SearchReport:
    """Winner of a search plus the per-draw error trace.

    error_trace holds one (draw index, delta_star) pair per draw. A
    draw of either kind whose fit would raise ValueError or TropicalError
    (a value out of the float range, a failed post-fit check) scores
    math.inf, and the search goes on; when every draw fails, the search
    raises the first draw's error.
    """

    best: FitReport
    best_degrees: DegreeVector
    best_denominator_degrees: Optional[DegreeVector]
    samples_evaluated: int
    error_trace: tuple[tuple[int, float], ...]


def _choice_block(rng: np.random.Generator, width: int,
                  counts: tuple[int, ...], n: int) -> list[np.ndarray]:
    """n rounds of [rng.choice(width, size=c, replace=False) for c in counts].

    Returns one C-contiguous (c, n) int64 block per count, terms x draws:
    column j holds the values of the j-th round's call for that count,
    unsorted, and rng is left as those calls would leave it. Each call
    draws Floyd's values, then shuffles them, with numpy's bounded
    integers (Lemire's method), the same routine that rng.integers uses
    for an int64 array of bounds. So all rounds take one _bounded call,
    and Floyd's steps then run one block row at a time over every draw.
    Rounds with a class of over BLOCK_COUNT terms call rng.choice instead.
    """
    # Step t compares its draws with the t earlier rows, so a large
    # class costs count**2 per draw where rng.choice costs about count.
    if max(counts, default=0) > BLOCK_COUNT:
        blocks = [np.empty((c, n), np.int64) for c in counts]
        for draw in range(n):
            for block, c in zip(blocks, counts):
                block[:, draw] = rng.choice(width, size=c, replace=False)
        return blocks
    # Per call: Floyd draws in [0, j] for j = width - c .. width - 1,
    # then the shuffle's draws in [0, i] for i = c - 1 .. 1, whose
    # values the unordered classes do not need. A bound of 0 takes no word.
    bounds = np.concatenate([
        part for c in counts
        for part in (np.arange(width - c, width), np.arange(c - 1, 0, -1))])
    draws = _bounded(rng, bounds, n)
    blocks, start = [], 0
    for c in counts:
        block = draws[:, start:start + c].T.copy()
        start += max(2 * c - 1, 0)
        # Floyd's step t keeps its draw, or takes its bound width - c + t
        # when an earlier step of the same call took that value.
        for t in range(1, c):
            step = block[t]
            step[(block[:t] == step).any(axis=0)] = width - c + t
        blocks.append(block)
    return blocks


def _bounded(rng: np.random.Generator, bounds: np.ndarray,
             n: int) -> np.ndarray:
    """rng.integers(0, bounds, size=(n, len(bounds)), endpoint=True).

    numpy maps a 32-bit word w to (w s) >> 32, s = bound + 1 (Lemire's
    method), and redraws when (w s) mod 2**32 < (2**32 - s) mod s. For
    bounds 1 to 2**32 - 1, unless a rejected word is expected, one fill
    draws the words (one 32-bit output each, for any bit generator). A
    rejected word rewinds rng to the broadcast call, as other bounds take.
    """
    size = (n, len(bounds))
    if len(bounds) and 0 < bounds.min() and bounds.max() < 2**32:
        s = (bounds + 1).astype(np.uint64)
        floor = (2**32 - s) % s
        if n * int(floor.sum()) < 2**32:
            state = rng.bit_generator.state
            words = rng.integers(2**32, size=size, dtype=np.int64)
            scaled = words.view(np.uint64)
            scaled *= s
            if not ((scaled & 0xFFFFFFFF) < floor).any():
                scaled >>= 32
                return words
            rng.bit_generator.state = state
    return rng.integers(0, bounds, size=size, endpoint=True)


def sample_degree_vector(low: int, high: int, count: int,
                         rng: np.random.Generator) -> DegreeVector:
    """Draw count distinct integers uniformly from [low, high], sorted.

    One rng.choice(high - low + 1, size=count, replace=False) call, so n
    calls consume the stream of an n-class _choice_block, which makes the
    same call for classes over BLOCK_COUNT terms. A negative count, or
    bounds or a width outside int64, raise ValueError before any draw.
    """
    if count < 0:
        raise ValueError("count must not be negative")
    _check_width(low, high, count)
    drawn = rng.choice(high - low + 1, size=count, replace=False)
    return DegreeVector((drawn + low).tolist())


def random_search(samples: SampleSet, config: SearchConfig,
                  threads: int = 1) -> SearchReport:
    """Fit every drawn degree class and keep the best.

    Deterministic for a fixed config: the winner depends only on the
    seed and the samples. Every class is drawn up front in one block.
    Polynomial draws are scored from per-degree residuals, as drawn
    (approx._score_terms), whose tables also give the winner's FitReport;
    rational draws are fitted one at a time. A draw that cannot be fitted
    scores math.inf, as SearchReport says. Everything runs on the calling
    thread; threads is accepted for compatibility and has no effect.
    """
    rng = np.random.default_rng(config.rng_seed)
    low = config.degree_min
    counts = (config.n_terms_numerator,)
    if config.is_rational:
        counts += (config.n_terms_denominator,)
    blocks = _choice_block(rng, config.degree_max - low + 1, counts,
                           config.n_samples)
    if not config.is_rational:
        # A class's delta is a max of mins over its terms, so its draws
        # score unsorted; the winner's DegreeVector sorts them.
        scores, best = _score_terms(samples, blocks[0], low)
        trace = scores.tolist()
    else:
        trace, best, first = [], None, None
        for num, den in zip(*((block.T + low).tolist() for block in blocks)):
            try:
                report = fit_rational(samples, DegreeVector(num),
                                      DegreeVector(den),
                                      max_iter=config.max_iter_two_sided)
            except (TropicalError, ValueError) as exc:
                first = first or exc
                trace.append(math.inf)
                continue
            trace.append(report.delta_star)
            if best is None or report.delta_star < best.delta_star:
                best = report
        if best is None:
            raise first
    num, den = ((best.model.numerator, best.model.denominator)
                if config.is_rational else (best.model, None))
    return SearchReport(
        best=best,
        best_degrees=num.degrees,
        best_denominator_degrees=None if den is None else den.degrees,
        samples_evaluated=len(trace),
        error_trace=tuple(enumerate(trace)),
    )
