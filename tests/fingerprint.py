"""Print a fingerprint of seeded tropfit results, outside tier-1.

Each group of seeded fits, searches, scores, solves and evaluations is
reduced to the first 16 hex digits of a sha256 over its results: deltas
and errors as float.hex, coefficients, degrees, error traces, iteration
counts, terminations and model values. A last line covers every group.
Two versions of the package that print the same lines give the same
results bit for bit.
np.log and np.exp may round differently on another machine or numpy
build, so compare two versions on one machine. pytest does not collect
this file. Run it from the repository root:

    PYTHONPATH=src python tests/fingerprint.py
"""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np

from tropfit import (
    MAX_PLUS,
    MAX_TIMES,
    DegreeVector,
    RationalModel,
    SampleSet,
    SearchConfig,
    Termination,
    TropicalMatrix,
    fit_polynomial,
    fit_rational,
    random_search,
    two_sided_solve,
)
from tropfit.approx import evaluate, score_polynomials
from tropfit.cli import parse_grid
from tropfit.datasets import convex_samples, nonconvex_curve, nonconvex_samples


def words(value):
    """The tokens hashed for a result: floats as float.hex, in order."""
    if isinstance(value, float):
        yield float.hex(value)
    elif isinstance(value, (int, str, Fraction)) or value is None:
        yield str(value)
    elif isinstance(value, Termination):
        yield value.value
    else:
        for item in value:
            yield from words(item)


def fit_result(report):
    model = report.model
    parts = ((model.numerator, model.denominator)
             if isinstance(model, RationalModel) else (model,))
    return (report.delta_star, report.error, report.iterations,
            report.termination,
            [(part.degrees, part.coefficients) for part in parts])


def search_result(report):
    return (fit_result(report.best), report.best_degrees,
            report.best_denominator_degrees, report.samples_evaluated,
            report.error_trace)


def readme_fits():
    yield fit_result(fit_polynomial(
        convex_samples(), DegreeVector([-14, -1, 1, 2, 3])))
    yield fit_result(fit_rational(
        nonconvex_samples(), DegreeVector([-3, -2, 1, 2]),
        DegreeVector([-5, -2])))


def readme_searches():
    yield search_result(random_search(
        convex_samples(), SearchConfig(5, -15, 5, 10000, 7)))
    yield search_result(random_search(
        nonconvex_samples(), SearchConfig(4, -10, 10, 300, 7,
                                          n_terms_denominator=2)))


def f_max_times():
    """f mapped to max-times, x = e^(t+1) and y = e^y."""
    return SampleSet.from_reals(
        [(math.exp(t + 1), math.exp(y)) for t, y in convex_samples().points],
        MAX_TIMES)


def max_times_probes():
    # Draws partly fail.
    samples = f_max_times()
    for width in (300, 600):
        for numerator, denominator in ((3, None), (2, 1)):
            yield search_result(random_search(samples, SearchConfig(
                numerator, -width, width, 200, 1,
                n_terms_denominator=denominator)))


def scoring_result(samples, rows):
    scores, best = score_polynomials(samples, rows)
    return scores.tolist(), fit_result(best)


def poly_scoring(count=2000):
    # Every 5-term class of the README space, rows drawn with replacement
    # (most repeat a degree) and 3-term rows on f in max-times, some of
    # which leave the float range.
    samples = convex_samples()
    yield scoring_result(samples, np.array(
        list(itertools.combinations(range(-15, 6), 5))))
    rng = np.random.default_rng(31)
    yield scoring_result(samples, rng.integers(-15, 6, (count, 5)))
    yield scoring_result(f_max_times(), rng.integers(-300, 301, (count, 3)))


def two_sided_systems(count=300):
    for k in range(count):
        rng = np.random.default_rng([28, k])
        rows = int(rng.integers(2, 9))
        a = rng.uniform(-5.0, 5.0, (rows, int(rng.integers(1, 5))))
        b = rng.uniform(-5.0, 5.0, (rows, int(rng.integers(1, 5))))
        sf = MAX_TIMES if k % 2 else MAX_PLUS
        if sf is MAX_TIMES:
            a, b = np.exp(a), np.exp(b)
        solution = two_sided_solve(TropicalMatrix(a.tolist(), sf),
                                   TropicalMatrix(b.tolist(), sf),
                                   max_iter=300)
        yield (solution.delta_star, solution.x_star, solution.y_star,
               solution.iterations, solution.termination, solution.deltas)


def noisy_g_fits(count=64):
    # Shaped like the rational-fit benchmark: 200 noisy samples of g, 6/4.
    num = DegreeVector([-3, -2, 0, 1, 2, 4])
    den = DegreeVector([-5, -3, -2, 0])
    for k in range(count):
        rng = np.random.default_rng([1, k])
        x = np.sort(rng.uniform(0.05, 2.0, 200))
        y = np.array([nonconvex_curve(v) for v in x.tolist()])
        y = y + rng.normal(0.0, 0.02, 200)
        samples = SampleSet.from_columns(x, y, MAX_PLUS)
        yield fit_result(fit_rational(samples, num, den, max_iter=150))


def evaluation():
    # The README fits' models, f with 5 terms and g with 4/2 and 6/4, in
    # both semifields, on the 6,001-point grid of the cli-maxtimes
    # benchmark; g is mapped to max-times by x = e^t and y = e^y.
    g_max_times = SampleSet.from_reals(
        [(math.exp(t), math.exp(y)) for t, y in nonconvex_samples().points],
        MAX_TIMES)
    grid = parse_grid("1:7:0.001")
    for f, g in ((convex_samples(), nonconvex_samples()),
                 (f_max_times(), g_max_times)):
        models = [fit_polynomial(f, DegreeVector([-14, -1, 1, 2, 3])).model]
        for num, den in (([-3, -2, 1, 2], [-5, -2]),
                         ([-3, -2, 0, 1, 2, 4], [-5, -3, -2, 0])):
            models.append(fit_rational(g, DegreeVector(num),
                                       DegreeVector(den)).model)
        for model in models:
            yield evaluate(model, grid).tolist()


GROUPS = {
    "readme-fits": readme_fits,
    "readme-searches": readme_searches,
    "max-times-probes": max_times_probes,
    "poly-scoring": poly_scoring,
    "two-sided-systems": two_sided_systems,
    "noisy-g-fits": noisy_g_fits,
    "evaluation": evaluation,
}


def main() -> None:
    everything = hashlib.sha256()
    for name, group in GROUPS.items():
        digest = hashlib.sha256()
        for token in words(group()):
            digest.update(token.encode() + b"\n")
        everything.update(digest.digest())
        print(f"{digest.hexdigest()[:16]} {name}")
    print(f"{everything.hexdigest()[:16]} all")


if __name__ == "__main__":
    main()
