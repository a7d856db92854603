"""Command line interface: fit models, evaluate them, regenerate datasets.

Exit codes are part of the contract: 0 on success, 2 on malformed
input (CSV, flags, degrees, model files), on a failed post-fit check
and on a request too large to allocate, 3 when a solver rejects
non-regular data.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
# perfbench/tracer.py wraps eval_polynomial and eval_rational here.
from .approx import (  # noqa: F401
    DegreeVector,
    MalformedRow,
    PolynomialModel,
    RationalModel,
    SampleSet,
    _degree,
    check_reals,
    eval_polynomial,
    eval_rational,
    evaluate,
    fit_polynomial,
    fit_rational,
)
from .datasets import DATASET_NAMES, dataset_csv
from .linalg import TropicalVector
from .search import SearchConfig, random_search
from .semifield import MAX_PLUS, Semifield, TropicalError, by_name
from .solvers import DEFAULT_MAX_ITER, NonRegularInput


class EmptyFile(TropicalError):
    """The samples file contains no data rows."""


class MalformedModel(TropicalError):
    """A model document failed to parse or validate."""


# ---------------------------------------------------------------------------
# Samples CSV


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def parse_samples(path: str, semifield: Semifield = MAX_PLUS) -> SampleSet:
    """Read a two-column CSV of (x, y) rows.

    A single header line is allowed and detected by a non-numeric first
    field on the first line. LF and CRLF both work; blank lines are
    skipped. The first malformed line in file order raises MalformedRow
    with its 1-based line number: a wrong field count, a non-number, or
    a value the semifield rejects. Only when no line is malformed does
    the first row holding a zero raise (see SampleSet.from_columns).
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        text = handle.read()
    x, y, lines = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split(",")
        try:
            # float() ignores surrounding whitespace, as strip() would.
            first, second = fields
            pair = float(first), float(second)
        except ValueError as exc:
            if not line.strip() or (lineno == 1 and not _is_number(fields[0])):
                continue  # a blank line or the header
            # A value the semifield rejects on an earlier line comes first.
            check_reals(x, y, semifield, lines)
            raise MalformedRow(lineno, "expected two comma-separated values"
                               if len(fields) != 2 else str(exc)) from None
        x.append(pair[0])
        y.append(pair[1])
        lines.append(lineno)
    if not lines:
        raise EmptyFile(f"{path}: no data rows found")
    return SampleSet.from_columns(x, y, semifield, lines)


# ---------------------------------------------------------------------------
# Model documents

@dataclass(frozen=True)
class ModelDocument:
    """A fitted model with its errors and provenance, as files hold it."""

    model: Union[PolynomialModel, RationalModel]
    delta_star: float
    error: float
    provenance: dict

    @property
    def kind(self) -> str:
        return ("rational" if isinstance(self.model, RationalModel)
                else "polynomial")


def _poly_payload(model: PolynomialModel) -> dict:
    return {
        "degrees": [str(d) for d in model.degrees],
        "coefficients": list(model.coefficients),
    }


def serialize_model(doc: ModelDocument) -> str:
    """Render a model document as stable, byte-reproducible JSON text.

    Two-space indented JSON with an LF after the closing brace. Floats
    are written as their shortest round-trip repr, as eval and datasets
    write them, so parsing and re-serializing a file tropfit wrote
    reproduces the text. JSON has no inf or nan: a non-finite float
    raises ValueError.
    """
    model = doc.model
    rational = doc.kind == "rational"
    payload = {
        "semifield": model.semifield.name,
        "kind": doc.kind,
        "numerator": _poly_payload(model.numerator if rational else model),
        "denominator": _poly_payload(model.denominator) if rational else None,
        "delta_star": doc.delta_star,
        "error": doc.error,
        "provenance": doc.provenance,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, label: str) -> float:
    """A JSON number as a finite float; anything else is malformed.

    A bool is not a number, and NaN, Infinity and numbers beyond the
    float range have no finite float, so no model file may hold them.
    """
    if not _is_json_number(value):
        raise MalformedModel(f"{label} must be a number, not {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise MalformedModel(f"{label} is not a finite float")
    return number


def _array(data: dict, key: str) -> list:
    if not isinstance(data.get(key), list):
        raise MalformedModel(f"{key} must be an array")
    return data[key]


def _parse_polynomial(data, semifield: Semifield) -> PolynomialModel:
    """A polynomial part of a model document as a model. Its terms may
    come in any order: sorting them in pairs keeps each coefficient with
    its own degree."""
    if not isinstance(data, dict):
        raise MalformedModel("polynomial part must be an object")
    degrees = _array(data, "degrees")
    if not all(isinstance(d, str) or _is_json_number(d) for d in degrees):
        raise MalformedModel("degrees must be strings or numbers")
    coefficients = [_number(c, "a coefficient")
                    for c in _array(data, "coefficients")]
    if len(degrees) != len(coefficients):
        raise MalformedModel("degrees and coefficients differ in length")
    # A degree is parsed as DegreeVector parses it, with its error text.
    try:
        terms = sorted(zip(map(_degree, map(str, degrees)), coefficients))
        return PolynomialModel(
            DegreeVector(d for d, _ in terms),
            TropicalVector(tuple(c for _, c in terms), semifield))
    except ValueError as exc:
        raise MalformedModel(str(exc)) from None


def parse_model(text: str) -> ModelDocument:
    """Parse a model document; raises MalformedModel on any defect."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedModel(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedModel("top level must be an object")
    try:
        name = str(data["semifield"])
        kind = str(data["kind"])
        numerator = data["numerator"]
        denominator = data.get("denominator")
        delta_star = _number(data["delta_star"], "delta_star")
        error = _number(data["error"], "error")
        provenance = data.get("provenance", {})
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedModel(f"bad model document: {exc}") from None
    try:
        semifield = by_name(name)
    except ValueError as exc:
        raise MalformedModel(str(exc)) from None
    if kind not in ("polynomial", "rational"):
        raise MalformedModel(f"unknown kind {kind!r}")
    model = _parse_polynomial(numerator, semifield)
    if kind == "rational":
        if denominator is None:
            raise MalformedModel("rational models need a denominator")
        model = RationalModel(model, _parse_polynomial(denominator, semifield))
    elif denominator is not None:
        raise MalformedModel("polynomial models take no denominator")
    if not isinstance(provenance, dict):
        raise MalformedModel("provenance must be an object")
    return ModelDocument(model, delta_star, error, provenance)


# ---------------------------------------------------------------------------
# Flag plumbing

# Values of these flags regularly start with "-" (negative degrees or grid
# bounds), which this Python's argparse refuses when passed as a separate
# token. Fold the value into a --flag=value form before parsing.
_LEADING_DASH_FLAGS = {"--degrees", "--num-degrees", "--den-degrees",
                       "--range", "--grid"}


def _merge_flag_values(argv: Sequence[str]) -> list[str]:
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token in _LEADING_DASH_FLAGS:
            value = next(tokens, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"{token}={value}")
        else:
            out.append(token)
    return out


def _parse_degree_list(text: str, flag: str) -> DegreeVector:
    try:
        return DegreeVector(part.strip() for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError("--range must look like min:max")
    try:
        low, high = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("--range bounds must be integers") from None
    if high < low:
        raise ValueError("--range upper bound is below the lower bound")
    return low, high


def parse_grid(spec: str) -> list[float]:
    """Expand "start:stop:step" into points, inclusive of both ends.

    The last point is kept when it lands within step/2 of the stop
    value, which absorbs floating point drift in the step count. Point k
    is start + k * step, computed in one array operation; a point that
    overflows to inf is left to evaluate to reject.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("--grid must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError("--grid parts must be numbers") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("--grid start, stop and step must be finite")
    if step <= 0:
        raise ValueError("--grid step must be positive")
    if stop < start:
        raise ValueError("--grid stop is below start")
    steps = (stop - start) / step + 0.5
    if not math.isfinite(steps):
        raise ValueError("--grid has too many points")
    count = int(math.floor(steps)) + 1
    with np.errstate(over="ignore"):
        return (start + np.arange(count) * step).tolist()


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Subcommands


# The flags each mode of `tropfit fit` takes, keyed by (kind, searched).
_FIT_FLAGS = {
    ("polynomial", False): ("degrees",),
    ("rational", False): ("num_degrees", "den_degrees"),
    ("polynomial", True): ("terms", "range", "samples", "seed"),
    ("rational", True): ("num_terms", "den_terms", "range", "samples", "seed"),
}
_SEARCH_FLAGS = set(_FIT_FLAGS["polynomial", True]
                    + _FIT_FLAGS["rational", True])
# The least value of each count flag of `tropfit fit`. SearchConfig checks
# the same bounds under its field names; this names the flag.
_LEAST = {"terms": 1, "num_terms": 1, "den_terms": 1, "samples": 1,
          "max_iter": 1, "seed": 0}


def _flag_names(flags) -> str:
    *names, last = ["--" + flag.replace("_", "-") for flag in flags]
    return f"{', '.join(names)} and {last}" if names else last


def _fit_mode(args) -> bool:
    """Check the fit flags against _FIT_FLAGS; True for a search.

    A flag counts as given when it is on the command line at all, even
    with an empty value, which its own parser then rejects.
    """
    given = {flag for flags in _FIT_FLAGS.values() for flag in flags
             if getattr(args, flag) is not None}
    if not given:
        raise ValueError("nothing to fit: give degrees or search flags")
    searched = bool(given & _SEARCH_FLAGS)
    if searched and not given <= _SEARCH_FLAGS:
        raise ValueError(
            "give either explicit degrees or search flags, not both")
    mode = "searches" if searched else "fits"
    flags = _FIT_FLAGS[args.kind, searched]
    if not given <= set(flags):
        other = "rational" if args.kind == "polynomial" else "polynomial"
        foreign = [f for f in _FIT_FLAGS[other, searched] if f not in flags]
        verb = "apply" if foreign[1:] else "applies"
        raise ValueError(
            f"{_flag_names(foreign)} {verb} to {other} {mode} only")
    missing = [flag for flag in flags if flag not in given]
    if missing:
        raise ValueError(f"{args.kind} {mode} need {_flag_names(missing)}")
    return searched


def _strs(degrees) -> list[str]:
    return [str(d) for d in degrees]


def cmd_fit(args) -> int:
    samples = parse_samples(args.input, by_name(args.semifield))
    searched = _fit_mode(args)
    for flag, least in _LEAST.items():
        if getattr(args, flag) is not None and getattr(args, flag) < least:
            raise ValueError(f"{_flag_names([flag])} must be at least {least}")
    config = {"kind": args.kind, "semifield": args.semifield}
    if searched:
        low, high = _parse_range(args.range)
        n_num, n_den = ((args.num_terms, args.den_terms)
                        if args.kind == "rational" else (args.terms, None))
        result = random_search(samples, SearchConfig(
            n_terms_numerator=n_num,
            degree_min=low,
            degree_max=high,
            n_samples=args.samples,
            rng_seed=args.seed,
            n_terms_denominator=n_den,
            max_iter_two_sided=args.max_iter,
        ), threads=args.threads)
        report = result.best
        config.update(terms=n_num if n_den is None else [n_num, n_den],
                      range=f"{low}:{high}", samples=args.samples,
                      max_iter=args.max_iter,
                      best_degrees=_strs(result.best_degrees))
        if result.best_denominator_degrees is not None:
            config["best_den_degrees"] = _strs(result.best_denominator_degrees)
    elif args.kind == "rational":
        num = _parse_degree_list(args.num_degrees, "--num-degrees")
        den = _parse_degree_list(args.den_degrees, "--den-degrees")
        report = fit_rational(samples, num, den, max_iter=args.max_iter)
        config.update(num_degrees=_strs(num), den_degrees=_strs(den),
                      max_iter=args.max_iter)
    else:
        degrees = _parse_degree_list(args.degrees, "--degrees")
        report = fit_polynomial(samples, degrees)
        config["degrees"] = _strs(degrees)
    provenance = {
        "seed": args.seed,
        "config": config,
        "tool_version": __version__,
    }
    doc = ModelDocument(report.model, report.delta_star, report.error,
                        provenance)
    _write_output(serialize_model(doc), args.output)
    print(f"delta_star = {report.delta_star:.4f}", file=sys.stderr)
    print(f"error = {report.error:.4f}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    with open(args.model, encoding="utf-8") as handle:
        model = parse_model(handle.read()).model
    if (args.grid is None) == (args.input is None):
        raise ValueError("give exactly one of --grid or --input")
    # Values go out as Python floats: repr of a numpy float is not a number.
    if args.input is not None:
        samples = parse_samples(args.input, model.semifield)
        values = evaluate(model, samples.x).tolist()
        lines = [f"{x!r}\t{value!r}\t{y!r}\t{value - y!r}"
                 for x, y, value in zip(samples.x.tolist(),
                                        samples.y.tolist(), values)]
    else:
        xs = parse_grid(args.grid)
        values = evaluate(model, xs).tolist()
        lines = [f"{x!r}\t{value!r}" for x, value in zip(xs, values)]
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_datasets(args) -> int:
    _write_output(dataset_csv(args.name), args.output)
    return 0


# ---------------------------------------------------------------------------
# Entry point


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The tropfit argument parser, built once per process.

    Parsing leaves no state on the parser, so main reuses it for every
    call instead of paying for a new one each time.
    """
    parser = argparse.ArgumentParser(
        prog="tropfit",
        description="Fit tropical (max-plus) polynomial and rational "
                    "functions to sampled data.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to CSV samples")
    fit.add_argument("--input", required=True, help="samples CSV path")
    fit.add_argument("--output", help="write the model JSON here "
                                      "instead of stdout")
    fit.add_argument("--semifield", choices=["max-plus", "max-times"],
                     default="max-plus")
    fit.add_argument("--kind", choices=["polynomial", "rational"],
                     default="polynomial")
    fit.add_argument("--degrees",
                     help="comma-separated degrees for a polynomial fit, "
                          "integers or fractions like 1/3")
    fit.add_argument("--num-degrees", help="numerator degrees (rational fit)")
    fit.add_argument("--den-degrees",
                     help="denominator degrees (rational fit)")
    fit.add_argument("--terms", type=int,
                     help="number of monomials for a polynomial search")
    fit.add_argument("--num-terms", type=int,
                     help="numerator monomials for a rational search")
    fit.add_argument("--den-terms", type=int,
                     help="denominator monomials for a rational search")
    fit.add_argument("--range", help="integer degree range min:max "
                                     "for searches")
    fit.add_argument("--samples", type=int,
                     help="number of random degree draws")
    fit.add_argument("--seed", type=int, help="search RNG seed (PCG64)")
    fit.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                     help="two-sided solver iteration cap")
    fit.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility and has no effect: "
                          "searches score polynomial draws in array blocks "
                          "and fit rational draws one at a time, on one "
                          "thread")

    ev = sub.add_parser("eval", help="tabulate a fitted model as TSV")
    ev.add_argument("--model", required=True, help="model JSON path")
    ev.add_argument("--grid", help="evaluation points start:stop:step")
    ev.add_argument("--input",
                    help="samples CSV; evaluates at its x values and adds "
                         "y and residual columns")
    ev.add_argument("--output", help="write the TSV here instead of stdout")

    ds = sub.add_parser("datasets",
                        help="print a bundled demo dataset as CSV")
    ds.add_argument("name", choices=list(DATASET_NAMES))
    ds.add_argument("--output", help="write the CSV here instead of stdout")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_merge_flag_values(raw))
    try:
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_datasets(args)
    except NonRegularInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TropicalError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
