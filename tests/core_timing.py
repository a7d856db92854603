"""Time the two-sided core, solvers.alternate, outside the benchmark.

The benchmark's tracer wraps names of the tuple API, so no traced metric
sees alternate itself. This script times it on the 64 rational-fit
instances of seed 1 (200 noisy samples of g, 6/4 class) that tier-1's
tests/test_alternate.py builds, and prints one JSON line:

- half_step_us: microseconds per half step of alternate, the best of
  REPEATS runs of each instance at cap 150 less its best at cap 1, over
  the half steps after the first;
- half_steps and terminations: the counts of those capped runs;
- fit_us_at_max_iter_1: microseconds per fit_rational at max_iter=1,
  the best of REPEATS_AT_1 per instance, averaged: a fit's cost outside
  its half steps, plus one.

There is no threshold; compare two versions on one machine. pytest does
not collect this file. Run it from the repository root:

    PYTHONPATH=src:tests python tests/core_timing.py

With --base DIR it compares the src/ under DIR with this checkout's, in
ROUNDS rounds of four fresh interpreters, base, change, base, change, so
that a drift of the machine reaches both sides alike. It prints one JSON
line: per side the medians of half_step_us and fit_us_at_max_iter_1 over
all runs, with the half-step and termination counts, and the median over
the rounds of each round's change / base ratio of the two timings, from
each side's faster run in the round, so that one run slowed by the
machine does not set the ratio of its round:

    PYTHONPATH=src:tests python tests/core_timing.py --base ../parent
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tropfit import MAX_PLUS, SampleSet, fit_rational
from tropfit.solvers import alternate
from test_alternate import DEN_4, NUM_6, noisy_g, rational_fit_case

SEED = 1
INSTANCES = 64
MAX_ITER = 150
REPEATS = 7
REPEATS_AT_1 = 50
ROUNDS = 5
TIMINGS = ("half_step_us", "fit_us_at_max_iter_1")


def best_us(call, repeats: int) -> float:
    """The fastest of repeats calls, in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def main() -> None:
    x0 = np.zeros(len(NUM_6))
    capped = first = fits = 0.0
    steps, terminations = 0, Counter()
    for index in range(INSTANCES):
        at, bt = rational_fit_case(SEED, index)
        deltas, _, _, _, termination = alternate(at, bt, x0, MAX_ITER)
        steps += len(deltas)
        terminations[termination.value] += 1
        capped += best_us(lambda: alternate(at, bt, x0, MAX_ITER), REPEATS)
        first += best_us(lambda: alternate(at, bt, x0, 1), REPEATS)
        samples = SampleSet.from_reals(
            zip(*(v.tolist() for v in noisy_g(SEED, index, 200))), MAX_PLUS)
        fits += best_us(lambda: fit_rational(samples, NUM_6, DEN_4, 1),
                        REPEATS_AT_1)
    print(json.dumps({
        "instances": INSTANCES,
        "max_iter": MAX_ITER,
        "half_step_us": round((capped - first) / (steps - INSTANCES), 3),
        "half_steps": steps,
        "terminations": dict(sorted(terminations.items())),
        "fit_us_at_max_iter_1": round(fits / INSTANCES, 2),
    }))


def run(src: Path) -> dict:
    """This script's JSON line, run on src in a fresh interpreter."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(tests))))
    done = subprocess.run([sys.executable, __file__], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def interleaved(base: Path) -> None:
    """Print the comparison of base's src/ with this checkout's."""
    sides = {"base": base / "src",
             "change": Path(__file__).resolve().parent.parent / "src"}
    runs = {side: [] for side in sides}
    ratios = {timing: [] for timing in TIMINGS}
    for _ in range(ROUNDS):
        round_runs = {side: [] for side in sides}
        for _ in range(2):
            for side, src in sides.items():
                round_runs[side].append(run(src))
        for timing in TIMINGS:
            ratios[timing].append(
                min(line[timing] for line in round_runs["change"])
                / min(line[timing] for line in round_runs["base"]))
        for side in sides:
            runs[side] += round_runs[side]
    summary = {"rounds": ROUNDS}
    for side, lines in runs.items():
        summary[side] = {timing: round(statistics.median(
            line[timing] for line in lines), 3) for timing in TIMINGS}
        for count in ("half_steps", "terminations"):
            summary[side][count] = lines[0][count]
    for timing, values in ratios.items():
        summary[f"{timing}_ratio"] = round(statistics.median(values), 4)
    print(json.dumps(summary))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path,
                        help="a directory holding the src/ to compare with")
    base = parser.parse_args().base
    if base is None:
        main()
    else:
        interleaved(base.resolve())
