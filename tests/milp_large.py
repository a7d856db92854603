"""fit_rational against the MILP optimum on 6/4 classes, outside tier-1.

Each MILP here takes seconds, so pytest does not collect this file. Run
it from the repository root:

    PYTHONPATH=src:tests python tests/milp_large.py

It prints one line per class and exits 1 if a fit's error is more than
relative 1e-6 off the optimum.
"""

import sys
import time

import numpy as np

from tropfit import MAX_PLUS, DegreeVector, SampleSet, fit_rational
from tropfit.datasets import nonconvex_curve, nonconvex_samples
from oracles import milp_rational

REL_TOL = 1e-6
DEN = [-5, -3, -2, 0]


def noisy_g(seed, size):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.05, 2.0, size))
    y = np.array([nonconvex_curve(v) for v in x.tolist()])
    return SampleSet.from_reals(
        zip(x.tolist(), (y + rng.normal(0.0, 0.02, size)).tolist()), MAX_PLUS)


def cases():
    g = nonconvex_samples()
    # The 6/4 class of acceptance criterion 4 and its -1 variant.
    yield "g", g, [-3, -2, 0, 1, 2, 4], DEN
    yield "g", g, [-3, -2, -1, 0, 2, 4], DEN
    rng = np.random.default_rng(4)
    samples = noisy_g(4, 30)
    for _ in range(2):
        degrees = rng.choice(np.arange(-5, 6), 10, replace=False)
        yield ("noisy g", samples, sorted(degrees[:6].tolist()),
               sorted(degrees[6:].tolist()))


def main() -> int:
    failed = 0
    for label, samples, num, den in cases():
        start = time.perf_counter()
        optimum = milp_rational(samples.xs, samples.ys, num, den)[0]
        elapsed = time.perf_counter() - start
        error = fit_rational(samples, DegreeVector(num),
                             DegreeVector(den)).error
        gap = (error - optimum) / optimum
        ok = abs(gap) <= REL_TOL
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'} {label} {num}/{den}: fit "
              f"{error:.12f}, MILP {optimum:.12f} (relative {gap:.1e}, "
              f"{elapsed:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
