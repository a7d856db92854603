"""The benchmark workloads: seeded inputs, one closed-loop call, output checks.

Each workload builds every input from the workload seed when it is
constructed (this is set-up), then runs one call at a time. ``call`` returns
an ``Outcome`` that counts attempted and failed operations; ``check``
recomputes the reported error of every fit with numpy from the returned
coefficients and returns a list of problems, empty when the outputs are
right. ``reference`` runs the fixed cases whose results are recorded in
``reference.json``; they do not depend on the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from tropfit import approx, cli, datasets, search, semifield

#: Seed of the recorded reference cases run during set-up.
REFERENCE_SEED = 0

#: Relative tolerance between a reported error and its numpy recomputation.
ERROR_RTOL = 1e-9


@dataclass
class Outcome:
    """What one call did, before its outputs are checked."""

    attempted: int
    fits: int = 0
    failures: Counter = field(default_factory=Counter)
    result: object = None
    # Seconds spent in, and model points written by, the call's
    # `tropfit eval` commands (cli-maxtimes only).
    eval_s: float = 0.0
    eval_points: int = 0


def _failed(attempted: int, exc: Exception) -> Outcome:
    return Outcome(attempted, failures=Counter({type(exc).__name__: attempted}))


def _poly(part, x) -> np.ndarray:
    """max_j (c_j + p_j x) at every x, for part = (coefficients c, degrees p)."""
    coeffs, degrees = (np.asarray(v, dtype=float) for v in part)
    return np.max(coeffs[None, :] + degrees[None, :] * x[:, None], axis=1)


def _max_plus_error(x, y, num, den=None) -> float:
    """max_i |R(x_i) - y_i| of a max-plus polynomial or rational model."""
    value = _poly(num, x) if den is None else _poly(num, x) - _poly(den, x)
    return float(np.max(np.abs(value - y)))


def _part(model) -> tuple[list[float], list[float]]:
    return ([float(c) for c in model.coefficients],
            [float(d) for d in model.degrees])


def _error_problem(label: str, recomputed: float, reported: float) -> list[str]:
    if abs(recomputed - reported) <= ERROR_RTOL * abs(reported):
        return []
    return [f"{label}: recomputed error {recomputed!r} != reported {reported!r}"]


def noisy_g(seed: int, index: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Samples of the bundled g curve at seeded x in [0.05, 2], noise sd 0.02."""
    rng = np.random.default_rng([seed, index])
    x = np.sort(rng.uniform(0.05, 2.0, size))
    y = np.array([datasets.nonconvex_curve(v) for v in x.tolist()])
    return x, y + rng.normal(0.0, 0.02, size)


class PolySearch:
    """random_search over polynomial classes on the bundled f data."""

    name = "poly-search"
    #: Traced calls per second of --seconds, and calls with counters on.
    traced_calls_per_s = 1.0
    counted_calls = 2
    draws = 500

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.samples = datasets.convex_samples()
        points = self.samples.points
        self.x = np.array([p[0] for p in points])
        self.y = np.array([p[1] for p in points])

    def _search(self, rng_seed: int) -> Outcome:
        config = search.SearchConfig(n_terms_numerator=5, degree_min=-15,
                                     degree_max=5, n_samples=self.draws,
                                     rng_seed=rng_seed)
        try:
            # One thread: with two, the fits contend for the GIL, and on a
            # shared 2-vCPU VM the spread of fits_per_s across seeds went
            # past its bound. One thread is also faster.
            report = search.random_search(self.samples, config, threads=1)
        except Exception as exc:  # every failure is counted, none is retried
            return _failed(self.draws, exc)
        failed = sum(1 for _, d in report.error_trace if math.isinf(d))
        return Outcome(self.draws, fits=self.draws - failed,
                       failures=Counter({"inf-draw": failed} if failed else {}),
                       result=report)

    def call(self, index: int) -> Outcome:
        return self._search(self.seed + index)

    def check(self, outcome: Outcome) -> list[str]:
        report = outcome.result
        if report is None:
            return []
        recomputed = _max_plus_error(self.x, self.y, _part(report.best.model))
        return _error_problem(f"{self.name} winner", recomputed,
                              report.best.error)

    def reference(self) -> tuple[list[Outcome], dict]:
        outcome = self._search(REFERENCE_SEED)
        report = outcome.result
        if report is None:
            return [outcome], {"failures": dict(outcome.failures)}
        return [outcome], {
            "best_degrees": [str(d) for d in report.best_degrees],
            "delta_star": report.best.delta_star,
            "failed_draws": outcome.attempted - outcome.fits,
        }


class RationalFit:
    """fit_rational with the 6/4 class on 200 noisy samples of g."""

    name = "rational-fit"
    traced_calls_per_s = 1.0
    counted_calls = 2
    num = approx.DegreeVector([-3, -2, 0, 1, 2, 4])
    den = approx.DegreeVector([-5, -3, -2, 0])
    size = 200
    #: Half-step cap. Uncapped, the half-step count of these instances
    #: ranges from about 30 to over 1000 with a median near 190, so the
    #: median call time over the ~100 instances of one run moved by about
    #: 12% from seed to seed. At 150 about two thirds of the fits hit the
    #: cap and the rest end in a cycle, which keeps both paths measured.
    max_iter = 150
    #: Distinct instances built per run; calls cycle through them.
    pool_size = 256

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.pool = [self._instance(seed, k) for k in range(self.pool_size)]

    def _instance(self, seed: int, index: int):
        x, y = noisy_g(seed, index, self.size)
        samples = approx.SampleSet.from_reals(zip(x.tolist(), y.tolist()),
                                              semifield.MAX_PLUS)
        return samples, x, y

    def _fit(self, instance) -> Outcome:
        samples, x, y = instance
        try:
            report = approx.fit_rational(samples, self.num, self.den,
                                         max_iter=self.max_iter)
        except Exception as exc:  # includes ArithmeticError from the post-fit check
            return _failed(1, exc)
        return Outcome(1, fits=1, result=(report, x, y))

    def call(self, index: int) -> Outcome:
        return self._fit(self.pool[index % self.pool_size])

    def check(self, outcome: Outcome) -> list[str]:
        if outcome.result is None:
            return []
        report, x, y = outcome.result
        model = report.model
        recomputed = _max_plus_error(x, y, _part(model.numerator),
                                     _part(model.denominator))
        return _error_problem(self.name, recomputed, report.error)

    def reference(self) -> tuple[list[Outcome], list]:
        outcomes, records = [], []
        for index in (0, 1):
            outcome = self._fit(self._instance(REFERENCE_SEED, index))
            outcomes.append(outcome)
            if outcome.result is None:
                records.append({"failures": dict(outcome.failures)})
                continue
            report = outcome.result[0]
            records.append({"delta_star": report.delta_star,
                            "half_steps": report.iterations,
                            "termination": report.termination.value})
        return outcomes, records


class CliMaxTimes:
    """fit, eval --grid and eval --input through tropfit.cli.main, max-times."""

    name = "cli-maxtimes"
    # About 19,000 spans per call, mostly per-point eval spans.
    traced_calls_per_s = 0.5
    counted_calls = 2
    size = 200
    grid = "1:7:0.001"
    grid_points = 6001
    #: CSV files written per run; calls cycle through them. The fit's
    #: half-step count is heavy-tailed (median 9, 99th percentile over
    #: 100), so a small pool would make the slow tail depend on how many
    #: slow files the seed happens to draw.
    pool_size = 128
    num_degrees = [-3, -2, 1, 2]
    den_degrees = [-5, -2]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.model = os.path.join(workdir, "model.json")
        self.grid_out = os.path.join(workdir, "grid.tsv")
        self.input_out = os.path.join(workdir, "residuals.tsv")
        self.pool = [self._write_csv(seed, k) for k in range(self.pool_size)]
        self._stderr = io.StringIO()

    def _write_csv(self, seed: int, index: int):
        x, y = noisy_g(seed, index, self.size)
        x, y = np.exp(x), np.exp(y)
        path = os.path.join(self.dir, f"samples-{seed}-{index}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("x,y\n")
            handle.writelines(f"{a!r},{b!r}\n"
                              for a, b in zip(x.tolist(), y.tolist()))
        return path, x, y

    def _commands(self, csv: str) -> list[list[str]]:
        return [
            ["fit", "--semifield", "max-times", "--kind", "rational",
             "--num-degrees", ",".join(map(str, self.num_degrees)),
             "--den-degrees", ",".join(map(str, self.den_degrees)),
             "--input", csv, "--output", self.model],
            ["eval", "--model", self.model, "--grid", self.grid,
             "--output", self.grid_out],
            ["eval", "--model", self.model, "--input", csv,
             "--output", self.input_out],
        ]

    def _round_trip(self, instance) -> Outcome:
        csv, x, y = instance
        outcome = Outcome(3, result=instance)
        self._stderr.seek(0)
        self._stderr.truncate()
        for step, argv in enumerate(self._commands(csv)):
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(self._stderr):
                    code = cli.main(argv)
            except Exception as exc:
                outcome.failures[type(exc).__name__] += 3 - step
                outcome.result = None
                break
            if code != 0:
                outcome.failures[f"exit-{code}"] += 3 - step
                outcome.result = None
                break
            if step == 0:
                outcome.fits = 1
            else:
                outcome.eval_s += time.perf_counter() - start
                outcome.eval_points += (self.grid_points if step == 1
                                        else self.size)
        return outcome

    def call(self, index: int) -> Outcome:
        return self._round_trip(self.pool[index % self.pool_size])

    def check(self, outcome: Outcome) -> list[str]:
        if outcome.result is None:
            return []
        _, x, y = outcome.result
        with open(self.model, encoding="utf-8") as handle:
            doc = json.load(handle)
        # A max-times model is the max-plus model of (log x, log y).
        parts = [(np.log(doc[k]["coefficients"]),
                  [float(Fraction(d)) for d in doc[k]["degrees"]])
                 for k in ("numerator", "denominator")]
        log_x, log_y = np.log(x), np.log(y)
        problems = _error_problem(
            f"{self.name} fit (log space)",
            _max_plus_error(log_x, log_y, *parts), math.log(doc["error"]))
        with open(self.input_out, encoding="utf-8") as handle:
            rows = np.array(handle.read().split(), dtype=float).reshape(-1, 4)
        problems += _error_problem(
            f"{self.name} eval --input (log space)",
            float(np.max(np.abs(np.log(rows[:, 1]) - np.log(rows[:, 2])))),
            math.log(doc["error"]))
        with open(self.grid_out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if len(lines) != self.grid_points:
            problems.append(f"{self.name} eval --grid wrote {len(lines)} rows,"
                            f" expected {self.grid_points}")
        else:
            probe = np.array([lines[i].split("\t") for i in
                              range(0, self.grid_points, 1000)], dtype=float)
            log_probe = np.log(probe[:, 0])
            want = _poly(parts[0], log_probe) - _poly(parts[1], log_probe)
            got = np.log(probe[:, 1])
            if not np.allclose(got, want, rtol=ERROR_RTOL, atol=ERROR_RTOL):
                problems.append(f"{self.name} eval --grid values disagree "
                                "with the model")
        return problems

    def reference(self) -> tuple[list[Outcome], dict]:
        outcome = self._round_trip(self._write_csv(REFERENCE_SEED, 0))
        if outcome.result is None:
            return [outcome], {"failures": dict(outcome.failures)}
        with open(self.model, encoding="utf-8") as handle:
            doc = json.load(handle)
        with open(self.grid_out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        return [outcome], {
            "delta_star": doc["delta_star"],
            "error": doc["error"],
            "grid_rows": len(lines),
            "grid_probe": [float(lines[i].split("\t")[1])
                           for i in range(0, len(lines), 1000)],
        }


WORKLOADS = {w.name: w for w in (PolySearch, RationalFit, CliMaxTimes)}
