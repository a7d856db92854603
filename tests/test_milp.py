"""fit_rational against the exact optimum of a mixed-integer program.

Alternating projections are a local method; oracles.milp_rational
solves the same Chebyshev problem globally. On these 4/2 classes the
fit reaches the optimum. The larger 6/4 classes take seconds each and
are checked by tests/milp_large.py instead.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")

from tropfit import (  # noqa: E402
    MAX_PLUS,
    DegreeVector,
    SampleSet,
    fit_rational,
)
from tropfit.datasets import nonconvex_curve, nonconvex_samples  # noqa: E402
from oracles import milp_rational  # noqa: E402

REL_TOL = 1e-6


def assert_fit_reaches_the_optimum(samples, num, den):
    optimum = milp_rational(samples.xs, samples.ys, num, den)[0]
    report = fit_rational(samples, DegreeVector(num), DegreeVector(den))
    assert report.error == pytest.approx(optimum, rel=REL_TOL, abs=0)


def test_g_four_two_class_reaches_the_optimum():
    assert_fit_reaches_the_optimum(nonconvex_samples(), [-3, -2, 1, 2],
                                   [-5, -2])


def _noisy_g(seed, size):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.05, 2.0, size))
    y = np.array([nonconvex_curve(v) for v in x.tolist()])
    return SampleSet.from_reals(
        zip(x.tolist(), (y + rng.normal(0.0, 0.02, size)).tolist()), MAX_PLUS)


def _random_classes(seed, count):
    """count 4/2 classes of distinct degrees drawn from [-5, 5]."""
    rng = np.random.default_rng(seed)
    classes = []
    for _ in range(count):
        degrees = rng.choice(np.arange(-5, 6), 6, replace=False)
        classes.append((sorted(degrees[:4].tolist()),
                        sorted(degrees[4:].tolist())))
    return classes


@pytest.mark.parametrize("num, den", _random_classes(11, 3))
def test_random_four_two_classes_reach_the_optimum(num, den):
    assert_fit_reaches_the_optimum(_noisy_g(11, 25), num, den)
