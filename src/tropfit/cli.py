"""Command line interface: fit models, evaluate them, regenerate datasets.

Exit codes are part of the contract: 0 on success, 2 on malformed
input (CSV, flags, degrees, model files) and on a failed post-fit
check, 3 when a solver rejects non-regular data.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
# perfbench/tracer.py wraps eval_polynomial and eval_rational here.
from .approx import (  # noqa: F401
    DegreeVector,
    FitReport,
    MalformedRow,
    PolynomialModel,
    RationalModel,
    SampleSet,
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


def _malformed(lineno: int, fields: list[str]) -> MalformedRow:
    """The error of a stripped data line that is not two numbers."""
    if len(fields) != 2:
        return MalformedRow(lineno, "expected two comma-separated values")
    try:
        float(fields[0]), float(fields[1])
    except ValueError as exc:
        return MalformedRow(lineno, str(exc))
    raise AssertionError(f"line {lineno} parses")


def parse_samples(path: str, semifield: Semifield = MAX_PLUS) -> SampleSet:
    """Read a two-column CSV of (x, y) rows.

    A single header line is allowed and detected by a non-numeric first
    field on the first line. LF and CRLF both work; blank lines are
    skipped. The first malformed line in file order raises MalformedRow
    with its 1-based line number: a wrong field count, a non-number, or
    a value the semifield rejects. Only when no line is malformed does
    the first row holding a zero raise (see SampleSet.from_columns).
    """
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    x, y, lines = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split(",")
        try:
            # float() ignores surrounding whitespace, as strip() would.
            first, second = fields
            pair = float(first), float(second)
        except ValueError:
            fields = [f.strip() for f in fields]
            if fields == [""] or (lineno == 1 and not _is_number(fields[0])):
                continue  # a blank line or the header
            # A value the semifield rejects on an earlier line comes first.
            check_reals(x, y, semifield, lines)
            raise _malformed(lineno, fields) from None
        x.append(pair[0])
        y.append(pair[1])
        lines.append(lineno)
    if not lines:
        raise EmptyFile(f"{path}: no data rows found")
    return SampleSet.from_columns(x, y, semifield, lines)


# ---------------------------------------------------------------------------
# Model documents

@dataclass(frozen=True)
class PolynomialDoc:
    degrees: tuple[Fraction, ...]
    coefficients: tuple[float, ...]


@dataclass(frozen=True, eq=True)
class ModelDocument:
    """Serializable form of a fitted model plus its provenance."""

    semifield: str
    kind: str
    numerator: PolynomialDoc
    denominator: Optional[PolynomialDoc]
    delta_star: float
    error: float
    provenance: dict


def _fmt_float(x: float) -> str:
    # JSON has no inf or nan, so a model file never holds one.
    if not math.isfinite(x):
        raise ValueError(f"{float(x)!r} cannot be written as a JSON number")
    # 17 significant digits round-trip any double; force a decimal point
    # so the value parses back as a float, not an int.
    s = f"{float(x):.17g}"
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _to_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(
            "  " * (indent + 1) + _to_json(v, indent + 1) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{"  " * (indent + 1)}{json.dumps(str(k))}: '
            f'{_to_json(v, indent + 1)}'
            for k, v in value.items())
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _poly_payload(doc: PolynomialDoc) -> dict:
    return {
        "degrees": [str(d) for d in doc.degrees],
        "coefficients": list(doc.coefficients),
    }


def serialize_model(doc: ModelDocument) -> str:
    """Render a model document as stable, byte-reproducible JSON text."""
    payload = {
        "semifield": doc.semifield,
        "kind": doc.kind,
        "numerator": _poly_payload(doc.numerator),
        "denominator": (None if doc.denominator is None
                        else _poly_payload(doc.denominator)),
        "delta_star": doc.delta_star,
        "error": doc.error,
        "provenance": doc.provenance,
    }
    return _to_json(payload) + "\n"


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


def _parse_poly_doc(data) -> PolynomialDoc:
    if not isinstance(data, dict):
        raise MalformedModel("polynomial part must be an object")
    degrees = _array(data, "degrees")
    if not all(isinstance(d, str) or _is_json_number(d) for d in degrees):
        raise MalformedModel("degrees must be strings or numbers")
    coefficients = tuple(_number(c, "a coefficient")
                         for c in _array(data, "coefficients"))
    try:
        degrees = tuple(Fraction(str(d)) for d in degrees)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedModel(f"bad polynomial part: {exc}") from None
    if len(degrees) != len(coefficients):
        raise MalformedModel("degrees and coefficients differ in length")
    return PolynomialDoc(degrees, coefficients)


def parse_model(text: str) -> ModelDocument:
    """Parse a model document; raises MalformedModel on any defect."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedModel(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedModel("top level must be an object")
    try:
        semifield = str(data["semifield"])
        kind = str(data["kind"])
        numerator = _parse_poly_doc(data["numerator"])
        denominator_data = data.get("denominator")
        delta_star = _number(data["delta_star"], "delta_star")
        error = _number(data["error"], "error")
        provenance = data.get("provenance", {})
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedModel(f"bad model document: {exc}") from None
    try:
        by_name(semifield)
    except ValueError as exc:
        raise MalformedModel(str(exc)) from None
    if kind not in ("polynomial", "rational"):
        raise MalformedModel(f"unknown kind {kind!r}")
    if kind == "rational":
        if denominator_data is None:
            raise MalformedModel("rational models need a denominator")
        denominator = _parse_poly_doc(denominator_data)
    else:
        if denominator_data is not None:
            raise MalformedModel("polynomial models take no denominator")
        denominator = None
    if not isinstance(provenance, dict):
        raise MalformedModel("provenance must be an object")
    return ModelDocument(semifield=semifield, kind=kind, numerator=numerator,
                         denominator=denominator, delta_star=delta_star,
                         error=error, provenance=provenance)


def _poly_doc(model: PolynomialModel) -> PolynomialDoc:
    return PolynomialDoc(tuple(model.degrees),
                         tuple(float(c) for c in model.coefficients))


def document_from_report(report: FitReport, semifield_name: str,
                         provenance: dict) -> ModelDocument:
    model = report.model
    if isinstance(model, RationalModel):
        return ModelDocument(semifield_name, "rational",
                             _poly_doc(model.numerator),
                             _poly_doc(model.denominator),
                             float(report.delta_star), float(report.error),
                             provenance)
    return ModelDocument(semifield_name, "polynomial", _poly_doc(model), None,
                         float(report.delta_star), float(report.error),
                         provenance)


def model_from_document(doc: ModelDocument):
    sf = by_name(doc.semifield)
    try:
        numerator = PolynomialModel(
            DegreeVector(doc.numerator.degrees),
            TropicalVector(doc.numerator.coefficients, sf))
        if doc.kind == "polynomial":
            return numerator
        denominator = PolynomialModel(
            DegreeVector(doc.denominator.degrees),
            TropicalVector(doc.denominator.coefficients, sf))
        return RationalModel(numerator, denominator)
    except (ValueError, TropicalError) as exc:
        raise MalformedModel(str(exc)) from None


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
        return DegreeVector(Fraction(part.strip())
                            for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
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
    value, which absorbs floating point drift in the step count.
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
    return [start + k * step for k in range(count)]


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def _fit_direct(args, samples: SampleSet) -> tuple[FitReport, dict]:
    if args.kind == "rational":
        if not (args.num_degrees and args.den_degrees):
            raise ValueError(
                "rational fits need both --num-degrees and --den-degrees")
        if args.degrees:
            raise ValueError("--degrees applies to polynomial fits only")
        num = _parse_degree_list(args.num_degrees, "--num-degrees")
        den = _parse_degree_list(args.den_degrees, "--den-degrees")
        report = fit_rational(samples, num, den, max_iter=args.max_iter)
        config = {
            "kind": "rational",
            "semifield": args.semifield,
            "num_degrees": [str(d) for d in num],
            "den_degrees": [str(d) for d in den],
            "max_iter": args.max_iter,
        }
    else:
        if not args.degrees:
            raise ValueError("polynomial fits need --degrees")
        if args.num_degrees or args.den_degrees:
            raise ValueError(
                "--num-degrees/--den-degrees apply to rational fits only")
        degrees = _parse_degree_list(args.degrees, "--degrees")
        report = fit_polynomial(samples, degrees)
        config = {
            "kind": "polynomial",
            "semifield": args.semifield,
            "degrees": [str(d) for d in degrees],
        }
    return report, config


def _fit_search(args, samples: SampleSet) -> tuple[FitReport, dict]:
    if args.range is None or args.samples is None or args.seed is None:
        raise ValueError("search fits need --range, --samples and --seed")
    low, high = _parse_range(args.range)
    if args.kind == "rational":
        if args.terms is not None:
            raise ValueError(
                "rational searches use --num-terms/--den-terms, not --terms")
        if args.num_terms is None or args.den_terms is None:
            raise ValueError(
                "rational searches need --num-terms and --den-terms")
        n_num, n_den = args.num_terms, args.den_terms
    else:
        n_num = args.terms if args.terms is not None else args.num_terms
        if n_num is None:
            raise ValueError("polynomial searches need --terms")
        if args.den_terms is not None:
            raise ValueError("--den-terms applies to rational searches only")
        n_den = None
    config = SearchConfig(
        n_terms_numerator=n_num,
        degree_min=low,
        degree_max=high,
        n_samples=args.samples,
        rng_seed=args.seed,
        n_terms_denominator=n_den,
        max_iter_two_sided=args.max_iter,
    )
    result = random_search(samples, config, threads=args.threads)
    echo = {
        "kind": args.kind,
        "semifield": args.semifield,
        "terms": n_num if n_den is None else [n_num, n_den],
        "range": f"{low}:{high}",
        "samples": args.samples,
        "max_iter": args.max_iter,
        "best_degrees": [str(d) for d in result.best_degrees],
    }
    if result.best_denominator_degrees is not None:
        echo["best_den_degrees"] = [
            str(d) for d in result.best_denominator_degrees]
    return result.best, echo


def cmd_fit(args) -> int:
    semifield = by_name(args.semifield)
    samples = parse_samples(args.input, semifield)
    direct = bool(args.degrees or args.num_degrees or args.den_degrees)
    searching = (args.terms is not None or args.num_terms is not None
                 or args.den_terms is not None or args.range is not None
                 or args.samples is not None or args.seed is not None)
    if direct and searching:
        raise ValueError(
            "give either explicit degrees or search flags, not both")
    if not direct and not searching:
        raise ValueError("nothing to fit: give degrees or search flags")
    if direct:
        report, config = _fit_direct(args, samples)
        seed = None
    else:
        report, config = _fit_search(args, samples)
        seed = args.seed
    provenance = {
        "seed": seed,
        "config": config,
        "tool_version": __version__,
    }
    doc = document_from_report(report, args.semifield, provenance)
    _write_output(serialize_model(doc), args.output)
    print(f"delta_star = {report.delta_star:.4f}", file=sys.stderr)
    print(f"error = {report.error:.4f}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    with open(args.model, encoding="utf-8") as handle:
        doc = parse_model(handle.read())
    model = model_from_document(doc)
    semifield = by_name(doc.semifield)
    if (args.grid is None) == (args.input is None):
        raise ValueError("give exactly one of --grid or --input")
    # Values go out as Python floats: repr of a numpy float is not a number.
    if args.input is not None:
        samples = parse_samples(args.input, semifield)
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
    fit.add_argument("--threads", type=int, default=os.cpu_count() or 1,
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
    except (TropicalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
