import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import tropfit
import tropfit.approx
import tropfit.solvers
from tropfit.cli import (
    EmptyFile,
    MalformedModel,
    MalformedRow,
    ModelDocument,
    main,
    parse_grid,
    parse_model,
    parse_samples,
    serialize_model,
)
from tropfit.approx import (
    DegreeVector,
    PolynomialModel,
    RationalModel,
    ZeroAbscissa,
)
from tropfit.datasets import GRID, convex_curve, dataset_csv, nonconvex_curve
from tropfit.linalg import TropicalVector
from tropfit.semifield import MAX_TIMES, by_name
from tropfit.solvers import NonRegularInput, scaled_tolerance, to_max_plus


def document(semifield, numerator, denominator=None, delta_star=0.0,
             error=0.0, provenance=None):
    """A model document from (degrees, coefficients) parts."""
    sf = by_name(semifield)

    def part(degrees, coefficients):
        return PolynomialModel(DegreeVector(degrees),
                               TropicalVector(tuple(coefficients), sf))

    model = part(*numerator)
    if denominator is not None:
        model = RationalModel(model, part(*denominator))
    return ModelDocument(model, delta_star, error,
                         {} if provenance is None else provenance)


@pytest.fixture
def f_csv(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(dataset_csv("f"), encoding="utf-8")
    return str(path)


@pytest.fixture
def g_csv(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(dataset_csv("g"), encoding="utf-8")
    return str(path)


# --- samples parsing --------------------------------------------------------

def test_parse_samples_with_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x,y\n0,2.5\n0.1,1.1175\n", encoding="utf-8")
    ss = parse_samples(str(path))
    assert len(ss) == 2
    assert ss.points[0] == (0.0, 2.5)


def test_parse_samples_without_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,2.5\n", encoding="utf-8")
    assert len(parse_samples(str(path))) == 1


def test_parse_samples_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"x,y\r\n1,2\r\n\r\n3,4\r\n")
    ss = parse_samples(str(path))
    assert [p[0] for p in ss.points] == [1.0, 3.0]


def test_parse_samples_skips_a_byte_order_mark(tmp_path):
    # A BOM before a headerless first row must not make it a header.
    path = tmp_path / "s.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2\n2,3\n3,5\n")
    assert parse_samples(str(path)).points == ((1.0, 2.0), (2.0, 3.0),
                                               (3.0, 5.0))
    path.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n2,3\n")
    assert parse_samples(str(path)).points == ((1.0, 2.0), (2.0, 3.0))


def test_parse_samples_malformed_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,abc\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as info:
        parse_samples(str(path))
    assert info.value.line == 1

    path.write_text("x,y\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as info:
        parse_samples(str(path))
    assert info.value.line == 3

    path.write_text("1,inf\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        parse_samples(str(path))


def test_parse_samples_empty(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyFile):
        parse_samples(str(path))
    path.write_text("x,y\n", encoding="utf-8")
    with pytest.raises(EmptyFile):
        parse_samples(str(path))


def test_parse_samples_max_times_negative(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1,-2\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        parse_samples(str(path), MAX_TIMES)


@pytest.mark.parametrize("text, error, code, message", [
    ("1,0\n2,-1\n", MalformedRow, 2,
     "line 2: max-times scalars must be finite and >= 0, got -1.0"),
    ("1,0\n2,abc\n", MalformedRow, 2,
     "line 2: could not convert string to float: 'abc'"),
    ("1,0\n2, abc\n", MalformedRow, 2,
     "line 2: could not convert string to float: ' abc'"),
    ("1,-1\n2,abc\n", MalformedRow, 2,
     "line 1: max-times scalars must be finite and >= 0, got -1.0"),
    ("1,0\n3\n", MalformedRow, 2,
     "line 2: expected two comma-separated values"),
    ("1,0\n0,1\n", NonRegularInput, 3, "sample ordinates must be nonzero"),
    ("0,1\n1,0\n", ZeroAbscissa, 2, "sample abscissas must be nonzero"),
    ("-0,1\n", ZeroAbscissa, 2, "sample abscissas must be nonzero"),
])
def test_first_faulty_row_decides_the_error(text, error, code, message,
                                            tmp_path, capsys):
    # A malformed line anywhere beats a zero row; among malformed lines,
    # or among zero rows, the first in file order wins.
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as info:
        parse_samples(str(path), MAX_TIMES)
    assert str(info.value) == message
    assert main(["fit", "--semifield", "max-times", "--degrees", "0,1",
                 "--input", str(path)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


# --- grid --------------------------------------------------------------------

def test_parse_grid_inclusive():
    points = parse_grid("0:2:0.1")
    assert len(points) == 21
    assert points[0] == 0.0
    assert points[-1] == pytest.approx(2.0, abs=1e-12)
    assert parse_grid("1:1:0.5") == [1.0]
    # stop short of the next step when it overshoots by more than step/2
    assert parse_grid("0:1:0.3") == pytest.approx([0.0, 0.3, 0.6, 0.9])
    with pytest.raises(ValueError):
        parse_grid("0:2")
    with pytest.raises(ValueError):
        parse_grid("0:2:-1")


NON_FINITE_GRIDS = ["-inf:0:1", "0:inf:1", "0:1:inf", "nan:1:0.5",
                    "0:nan:1", "0:1:nan"]


@pytest.mark.parametrize("spec", NON_FINITE_GRIDS)
def test_parse_grid_rejects_non_finite_parts(spec):
    with pytest.raises(ValueError, match="must be finite"):
        parse_grid(spec)


@pytest.mark.parametrize("spec", NON_FINITE_GRIDS)
def test_eval_non_finite_grid_exits_2(spec, tmp_path, capsys):
    model = document("max-plus", ([0], [0.0]))
    path = tmp_path / "unit.json"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["eval", "--model", str(path), f"--grid={spec}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --grid start, stop and step must be finite\n")


@pytest.mark.parametrize("spec", ["0:1e308:1e-308", "-1e308:1e308:1"])
def test_eval_grid_with_too_many_points_exits_2(spec, tmp_path, capsys):
    # The point count is inf: (stop - start) / step overflows, or
    # stop - start already does.
    model = document("max-plus", ([0], [0.0]))
    path = tmp_path / "unit.json"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["eval", "--model", str(path), "--grid", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --grid has too many points\n"


def test_eval_grid_point_past_the_float_range_exits_2(tmp_path, capsys):
    # The grid's last point, 0 + 2 * 1e308, overflows to inf, which no
    # semifield holds; the points overflow without a numpy warning.
    assert parse_grid("0:1.7976931348623157e308:1e308") == [
        0.0, 1e308, math.inf]
    model = document("max-plus", ([0], [0.0]))
    path = tmp_path / "unit.json"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["eval", "--model", str(path), "--grid",
                 "0:1.7976931348623157e308:1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: evaluation points must be max-plus scalars\n")


# --- model documents ---------------------------------------------------------

def sample_document():
    return document(
        "max-plus", ([-3, Fraction(1, 2)], [1.25, -0.5]), ([0], [3.0]),
        delta_star=0.25, error=0.125,
        provenance={"seed": 7, "config": {"kind": "rational"},
                    "tool_version": "0.1.0"})


def test_model_document_round_trip():
    doc = sample_document()
    text = serialize_model(doc)
    assert parse_model(text) == doc
    assert serialize_model(parse_model(text)) == text
    # the text is plain JSON with LF endings
    assert "\r" not in text and text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["numerator"]["degrees"] == ["-3", "1/2"]


#: The README polynomial fit as older versions wrote it, every float with
#: 17 significant digits; two of them are longer than their shortest repr.
OLD_README_FIT = """\
{
  "semifield": "max-plus",
  "kind": "polynomial",
  "numerator": {
    "degrees": [
      "-14",
      "-1",
      "1",
      "2",
      "3"
    ],
    "coefficients": [
      2.5680041281282557,
      0.91758522894402439,
      -0.43199587187174404,
      -1.6280626981159347,
      -3.2413170692157838
    ]
  },
  "denominator": null,
  "delta_star": 0.13600825625651192,
  "error": 0.068004128128255958,
  "provenance": {
    "seed": null,
    "config": {
      "kind": "polynomial",
      "semifield": "max-plus",
      "degrees": [
        "-14",
        "-1",
        "1",
        "2",
        "3"
      ]
    },
    "tool_version": "0.1.0"
  }
}
"""


def test_old_model_documents_read_back_as_shortest_floats():
    shortest = (OLD_README_FIT
                .replace("0.91758522894402439", "0.9175852289440244")
                .replace("0.068004128128255958", "0.06800412812825596"))
    assert shortest != OLD_README_FIT
    doc = parse_model(OLD_README_FIT)
    assert doc == parse_model(shortest)
    assert doc.model.coefficients[1] == 0.9175852289440244
    assert doc.error == 0.06800412812825596
    assert serialize_model(doc) == shortest


#: A defect in a parseable model document, and its error message.
MALFORMED_PARTS = [
    # Strings would be iterated one character at a time.
    ("degrees must be an array",
     lambda d: d["numerator"].update(degrees="12", coefficients="34")),
    ("degrees must be an array",
     lambda d: d["numerator"].update(degrees={"-3": 1, "1/2": 2})),
    ("a coefficient must be a number, not True",
     lambda d: d["numerator"]["coefficients"].__setitem__(0, True)),
    ("delta_star must be a number, not '0.5'",
     lambda d: d.update(delta_star="0.5")),
    ("degrees must be strings or numbers",
     lambda d: d["denominator"].update(degrees=[False])),
    ("a coefficient is not a finite float",
     lambda d: d["numerator"]["coefficients"].__setitem__(0, 10 ** 400)),
    ("error is not a finite float", lambda d: d.update(error=math.nan)),
    ("delta_star is not a finite float",
     lambda d: d.update(delta_star=math.inf)),
]


def test_parse_model_rejects_garbage():
    with pytest.raises(MalformedModel):
        parse_model("not json")
    with pytest.raises(MalformedModel):
        parse_model("[]")
    with pytest.raises(MalformedModel):
        parse_model(json.dumps({"semifield": "max-plus", "kind": "nope"}))
    doc = sample_document()
    text = serialize_model(doc).replace('"rational"', '"polynomial"', 1)
    with pytest.raises(MalformedModel):
        parse_model(text)  # polynomial with a denominator
    for message, edit in MALFORMED_PARTS:
        data = json.loads(serialize_model(doc))
        edit(data)
        with pytest.raises(MalformedModel) as raised:
            parse_model(json.dumps(data))
        assert str(raised.value) == message


def test_eval_malformed_model_part_prints_only_the_error_line(tmp_path):
    data = json.loads(serialize_model(sample_document()))
    data["numerator"]["coefficients"][0] = True
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data), encoding="utf-8")
    done = run_fresh(["eval", "--model", str(model), "--grid", "1:2:1"],
                     tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "error: a coefficient must be a number, not True\n")


# --- subcommands -------------------------------------------------------------

def test_datasets_subcommand(capsys):
    assert main(["datasets", "f"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "x,y"
    assert len(lines) == 22
    x, y = lines[1].split(",")
    assert float(x) == 0.0 and float(y) == 2.5
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    ys = [float(line.split(",")[1]) for line in lines[1:]]
    assert xs == [i / 10 for i in range(21)]
    assert ys == [convex_curve(x) for x in xs]


def test_datasets_g_matches_curve(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["datasets", "g", "--output", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").strip().split("\n")[1:]
    for row in rows:
        x, y = (float(c) for c in row.split(","))
        assert y == nonconvex_curve(x)


def test_fit_polynomial_command(f_csv, tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    code = main(["fit", "--semifield", "max-plus", "--kind", "polynomial",
                 "--degrees", "-14,-1,1,2,3", "--input", f_csv,
                 "--output", model_path])
    captured = capsys.readouterr()
    assert code == 0
    assert "delta_star = 0.1360" in captured.err
    assert "error = 0.0680" in captured.err
    with open(model_path, encoding="utf-8") as f:
        doc = parse_model(f.read())
    assert doc.kind == "polynomial"
    assert doc.delta_star == pytest.approx(0.1360, abs=1e-3)
    assert doc.provenance["seed"] is None
    assert [str(d) for d in doc.model.degrees] == \
        ["-14", "-1", "1", "2", "3"]


def test_fit_rational_command(g_csv, capsys):
    code = main(["fit", "--kind", "rational", "--num-degrees", "-3,-2,1,2",
                 "--den-degrees", "-5,-2", "--input", g_csv])
    captured = capsys.readouterr()
    assert code == 0
    doc = parse_model(captured.out)
    assert doc.kind == "rational"
    assert doc.delta_star == pytest.approx(0.1395, abs=2e-3)
    assert doc.model.denominator is not None


def test_fit_search_command_is_reproducible(f_csv, capsys):
    argv = ["fit", "--kind", "polynomial", "--terms", "5",
            "--range", "-15:5", "--samples", "50", "--seed", "7",
            "--input", f_csv]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = parse_model(first)
    assert doc.provenance["seed"] == 7
    assert doc.provenance["config"]["range"] == "-15:5"


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_readme_search_writes_the_recorded_model(tmp_path, capsys):
    # The README polynomial search, recorded byte for byte.
    f_csv, model = tmp_path / "f.csv", tmp_path / "model.json"
    assert main(["datasets", "f", "--output", str(f_csv)]) == 0
    assert main(["fit", "--kind", "polynomial", "--terms", "5",
                 "--range", "-15:5", "--samples", "10000", "--seed", "7",
                 "--input", str(f_csv), "--output", str(model)]) == 0
    with open(os.path.join(DATA, "readme_poly_search.json"), "rb") as f:
        assert model.read_bytes() == f.read()
    capsys.readouterr()


def test_rational_search_writes_the_recorded_model(tmp_path, capsys):
    # A seeded 4/2 rational search, recorded byte for byte: it pins the
    # interleaved numerator and denominator draws end to end.
    g_csv, model = tmp_path / "g.csv", tmp_path / "model.json"
    assert main(["datasets", "g", "--output", str(g_csv)]) == 0
    assert main(["fit", "--kind", "rational", "--num-terms", "4",
                 "--den-terms", "2", "--range", "-10:10", "--samples", "300",
                 "--seed", "7", "--input", str(g_csv),
                 "--output", str(model)]) == 0
    with open(os.path.join(DATA, "rational_search.json"), "rb") as f:
        assert model.read_bytes() == f.read()
    capsys.readouterr()


def test_readme_evals_write_the_recorded_output(tmp_path, capsys):
    # The README quick start's two evals, recorded byte for byte: the
    # polynomial model of f on --grid 0:2:0.1 and the rational model of g
    # on its samples.
    def path(name):
        return str(tmp_path / name)

    for argv in (
            ["datasets", "f", "--output", path("f.csv")],
            ["fit", "--semifield", "max-plus", "--kind", "polynomial",
             "--degrees", "-14,-1,1,2,3", "--input", path("f.csv"),
             "--output", path("model.json")],
            ["eval", "--model", path("model.json"), "--grid", "0:2:0.1",
             "--output", path("grid.tsv")],
            ["datasets", "g", "--output", path("g.csv")],
            ["fit", "--kind", "rational", "--num-degrees", "-3,-2,1,2",
             "--den-degrees", "-5,-2", "--input", path("g.csv"),
             "--output", path("rmodel.json")],
            ["eval", "--model", path("rmodel.json"), "--input", path("g.csv"),
             "--output", path("input.tsv")]):
        assert main(argv) == 0
    for written, recorded in (("grid.tsv", "readme_eval_grid.tsv"),
                              ("input.tsv", "readme_eval_input.tsv")):
        with open(os.path.join(DATA, recorded), "rb") as f:
            assert (tmp_path / written).read_bytes() == f.read()
    capsys.readouterr()


def test_fit_flag_validation(f_csv, capsys):
    # degrees and search flags together
    assert main(["fit", "--degrees", "1,2", "--terms", "3",
                 "--range", "0:5", "--samples", "5", "--seed", "1",
                 "--input", f_csv]) == 2
    # nothing to do
    assert main(["fit", "--input", f_csv]) == 2
    # rational without denominator degrees
    assert main(["fit", "--kind", "rational", "--num-degrees", "1,2",
                 "--input", f_csv]) == 2
    # duplicate degrees
    assert main(["fit", "--degrees", "1,1", "--input", f_csv]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--terms", "5", "--num-terms", "3"],
    ["--num-terms", "3"],
    ["--terms", "5", "--den-terms", "2"],
])
def test_polynomial_search_rejects_rational_term_flags(flags, f_csv, capsys):
    assert main(["fit", "--kind", "polynomial", *flags, "--range", "-15:5",
                 "--samples", "5", "--seed", "1", "--input", f_csv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --num-terms and --den-terms apply to "
                            "rational searches only\n")


FIT_FLAG_VALUES = {"--degrees": "0,1", "--num-degrees": "0,1",
                   "--den-degrees": "0", "--terms": "3", "--num-terms": "2",
                   "--den-terms": "1", "--range": "-5:5", "--samples": "5",
                   "--seed": "1"}
# The four modes of `tropfit fit`: fixed or searched degrees of each kind.
# Index ^ 1 is the same class of the other kind, index ^ 2 the other class
# of the same kind.
FIT_MODES = [
    ("polynomial", ["--degrees"]),
    ("rational", ["--num-degrees", "--den-degrees"]),
    ("polynomial", ["--terms", "--range", "--samples", "--seed"]),
    ("rational", ["--num-terms", "--den-terms", "--range", "--samples",
                  "--seed"]),
]


def fit_flag_cases():
    """(flags, exit code, texts the one error line must hold)."""
    def argv(kind, flags):
        return ["--kind", kind] + [f"{f}={FIT_FLAG_VALUES[f]}" for f in flags]

    yield [], 2, ["nothing to fit"]
    for i, (kind, flags) in enumerate(FIT_MODES):
        yield argv(kind, flags), 0, []
        for left_out in flags:
            rest = [f for f in flags if f != left_out]
            if rest:
                yield argv(kind, rest), 2, [left_out]
        other_kind = FIT_MODES[i ^ 1][1]
        for stray in other_kind:
            if stray not in flags:
                yield argv(kind, flags + [stray]), 2, [stray]
        other_class = FIT_MODES[i ^ 2][1]
        yield argv(kind, flags + other_class), 2, ["not both"]
    # An empty degree flag is given: its parser reports it.
    yield ["--degrees="], 2, ["--degrees: Invalid literal"]
    yield (["--kind=rational", "--num-degrees=", "--den-degrees=1"], 2,
           ["--num-degrees: Invalid literal"])


FIT_FLAG_CASES = list(fit_flag_cases())


@pytest.mark.parametrize("flags, code, named", FIT_FLAG_CASES,
                         ids=[" ".join(flags) or "no fit flag"
                              for flags, _, _ in FIT_FLAG_CASES])
def test_fit_flag_combinations(flags, code, named, f_csv, capsys):
    assert main(["fit", "--input", f_csv, *flags]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert parse_model(captured.out).kind == flags[1]
        return
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    for text in named:
        assert text in captured.err


@pytest.mark.parametrize("max_iter", ["0", "-5"])
@pytest.mark.parametrize("kind, flags", FIT_MODES,
                         ids=["polynomial", "rational", "polynomial search",
                              "rational search"])
def test_every_fit_mode_rejects_max_iter_below_1(kind, flags, max_iter,
                                                 f_csv, capsys):
    assert main(["fit", "--input", f_csv, "--kind", kind,
                 *[f"{f}={FIT_FLAG_VALUES[f]}" for f in flags],
                 f"--max-iter={max_iter}"]) == 2
    assert capsys.readouterr() == ("",
                                   "error: --max-iter must be at least 1\n")


def test_a_negative_seed_exits_2_naming_the_flag(f_csv, capsys):
    assert main(["fit", "--input", f_csv, "--terms", "3", "--range", "-5:5",
                 "--samples", "5", "--seed=-1"]) == 2
    assert capsys.readouterr() == ("", "error: --seed must be at least 0\n")


@pytest.mark.parametrize("flag, value, least", [
    ("--terms", "0", 1), ("--num-terms", "0", 1), ("--den-terms", "-3", 1),
    ("--samples", "0", 1), ("--seed", "-1", 0)])
def test_a_search_flag_below_its_least_value_is_named_before_the_range(
        flag, value, least, f_csv, capsys):
    kind, flags = FIT_MODES[2 if flag == "--terms" else 3]
    values = {**FIT_FLAG_VALUES, "--range": "x", flag: value}
    assert main(["fit", "--input", f_csv, "--kind", kind,
                 *[f"{f}={values[f]}" for f in flags]]) == 2
    assert capsys.readouterr() == (
        "", f"error: {flag} must be at least {least}\n")


def test_fit_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,abc\n", encoding="utf-8")
    assert main(["fit", "--degrees", "1,2", "--input", str(bad)]) == 2

    # a zero ordinate is fine to parse but the solver must reject it:
    # in max-times the real 0 embeds as the semifield zero
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("1,0\n2,1\n", encoding="utf-8")
    assert main(["fit", "--semifield", "max-times", "--degrees", "0,1",
                 "--input", str(zeros)]) == 3
    capsys.readouterr()


@pytest.fixture
def g_shifted_csv(tmp_path):
    # The g demo 2e7 higher: the solver and pointwise errors of its 4/2
    # fit differ by about 1.5e-9, under one ulp of the ordinates.
    path = tmp_path / "g_shifted.csv"
    rows = [f"{x!r},{nonconvex_curve(x) + 2e7!r}" for x in GRID]
    path.write_text("x,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


G_RATIONAL_FIT = ["fit", "--kind", "rational", "--num-degrees", "-3,-2,1,2",
                  "--den-degrees", "-5,-2"]


def test_fit_large_magnitude_passes_the_self_check(g_shifted_csv, capsys):
    assert main(G_RATIONAL_FIT + ["--input", g_shifted_csv]) == 0
    doc = parse_model(capsys.readouterr().out)
    assert doc.error == pytest.approx(0.0698, abs=1e-4)


def test_fit_failed_self_check_exits_2(g_shifted_csv, capsys, monkeypatch):
    # With every tolerance at zero the rounding above fails the check.
    monkeypatch.setattr(tropfit.approx, "RATIONAL_ERROR_CHECK_TOL", 0.0)
    monkeypatch.setattr(tropfit.solvers, "TOL_ULPS", 0)
    assert main(G_RATIONAL_FIT + ["--input", g_shifted_csv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: pointwise model error disagrees")


def test_exact_fit_of_cancelling_large_terms_passes_the_self_check(
        tmp_path, capsys):
    # The model values are about 9e214, but the coefficients and design
    # entries summed into them are about 9e216 and cancel: their
    # rounding, not the values', bounds the gap the check must allow.
    path = tmp_path / "huge.csv"
    path.write_text("-4.5613567752820786e+216,-9.172485905169307e+214\n",
                    encoding="utf-8")
    assert main(["fit", "--kind", "rational", "--num-degrees", "0,1,3",
                 "--den-degrees", "-2,1", "--input", str(path)]) == 0
    assert parse_model(capsys.readouterr().out).delta_star == 0.0


def test_eval_grid(tmp_path, capsys):
    model = document(
        "max-plus", ([-14, -1, 1, 2, 3],
                     [2.5680, 0.9176, -0.4320, -1.6281, -3.2413]),
        delta_star=0.1360, error=0.0680)
    path = tmp_path / "model.json"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["eval", "--model", str(path), "--grid", "0:2:0.1"]) == 0
    out = capsys.readouterr().out
    rows = out.strip().split("\n")
    assert len(rows) == 21
    x0, value0 = rows[0].split("\t")
    assert float(x0) == 0.0
    assert float(value0) == pytest.approx(2.5680, abs=1e-12)


def test_eval_constant_model(tmp_path, capsys):
    model = document("max-plus", ([0], [0.0]))
    path = tmp_path / "unit.json"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["eval", "--model", str(path), "--grid", "-1:1:0.5"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert all(float(r.split("\t")[1]) == 0.0 for r in rows)


def test_eval_self_quotient_is_unit(tmp_path, capsys):
    part = ([-1, 2], [1.0, -0.5])
    model = document("max-plus", part, part)
    path = tmp_path / "selfq.json"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["eval", "--model", str(path), "--grid", "0:2:0.5"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert all(float(r.split("\t")[1]) == 0.0 for r in rows)


def test_eval_max_times_grid_at_zero_exits_2(tmp_path, capsys):
    model = document("max-times", ([-1, 2], [1.0, 0.5]), delta_star=1.0,
                     error=1.0)
    path = tmp_path / "mt.json"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["eval", "--model", str(path), "--grid", "0:2:1"]) == 2
    assert "nonzero points" in capsys.readouterr().err
    assert main(["eval", "--model", str(path), "--grid", "1:2:1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert [float(r.split("\t")[1]) for r in rows] == pytest.approx(
        [1.0, 2.0], rel=1e-15)


def test_eval_with_samples_reproduces_fit_error(g_csv, tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--kind", "rational", "--num-degrees", "-3,-2,1,2",
                 "--den-degrees", "-5,-2", "--input", g_csv,
                 "--output", model_path]) == 0
    capsys.readouterr()
    with open(model_path, encoding="utf-8") as f:
        doc = parse_model(f.read())

    assert main(["eval", "--model", model_path, "--input", g_csv]) == 0
    out = capsys.readouterr().out
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert len(rows) == 21 and all(len(r) == 4 for r in rows)
    worst = max(abs(float(r[3])) for r in rows)
    assert worst == pytest.approx(doc.error, abs=1e-9)


def test_eval_needs_exactly_one_point_source(tmp_path, capsys, f_csv):
    model = document("max-plus", ([0], [0.0]))
    path = tmp_path / "m.json"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["eval", "--model", str(path)]) == 2
    assert main(["eval", "--model", str(path), "--grid", "0:1:0.5",
                 "--input", f_csv]) == 2
    capsys.readouterr()


def test_eval_malformed_model(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{broken", encoding="utf-8")
    assert main(["eval", "--model", str(path), "--grid", "0:1:1"]) == 2
    capsys.readouterr()


def write_reversed(path, doc):
    """Write doc with the terms of each polynomial part in reverse order."""
    data = json.loads(serialize_model(doc))
    for part in (data["numerator"], data["denominator"]):
        if part is not None:
            part["degrees"].reverse()
            part["coefficients"].reverse()
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_eval_unsorted_polynomial_file_keeps_each_coefficient(tmp_path,
                                                              capsys):
    # max(2x, 5), its terms listed from the highest degree down.
    path = write_reversed(tmp_path / "m.json",
                          document("max-plus", ([0, 2], [5.0, 0.0])))
    assert main(["eval", "--model", path, "--grid", "0:4:2"]) == 0
    assert capsys.readouterr().out == "0.0\t5.0\n2.0\t5.0\n4.0\t8.0\n"


def test_eval_unsorted_rational_file_equals_its_sorted_twin(tmp_path,
                                                            capsys):
    doc = document("max-plus", ([-1, 1], [2.0, 0.5]), ([0, 3], [0.25, -1.0]))
    twin = tmp_path / "sorted.json"
    twin.write_text(serialize_model(doc), encoding="utf-8")
    unsorted = write_reversed(tmp_path / "unsorted.json", doc)
    assert main(["eval", "--model", str(twin), "--grid", "-2:2:0.5"]) == 0
    expected = capsys.readouterr().out
    assert main(["eval", "--model", unsorted, "--grid", "-2:2:0.5"]) == 0
    assert capsys.readouterr().out == expected


def test_reserializing_an_unsorted_file_sorts_its_terms(tmp_path):
    doc = sample_document()
    path = write_reversed(tmp_path / "m.json", doc)
    with open(path, encoding="utf-8") as f:
        text = serialize_model(parse_model(f.read()))
    assert text == serialize_model(doc)
    assert json.loads(text)["numerator"] == {
        "degrees": ["-3", "1/2"], "coefficients": [1.25, -0.5]}


def test_eval_model_with_a_repeated_degree_exits_2(tmp_path, capsys):
    text = serialize_model(sample_document()).replace('"1/2"', '"-3"')
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    assert main(["eval", "--model", str(path), "--grid", "0:4:2"]) == 2
    assert capsys.readouterr() == ("", "error: duplicate degree -3\n")


# These requests exceed any address space, so numpy refuses them before
# allocating anything.
def test_eval_grid_too_large_to_allocate_exits_2(tmp_path, capsys):
    path = tmp_path / "unit.json"
    path.write_text(serialize_model(document("max-plus", ([0], [0.0]))),
                    encoding="utf-8")
    assert main(["eval", "--model", str(path), "--grid", "0:1e15:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: Unable to allocate 7.11 PiB for an array with shape "
        "(1000000000000001,) and data type int64\n")


def test_search_too_large_to_allocate_exits_2(f_csv, capsys):
    assert main(["fit", "--terms", "5", "--range", "-15:5", "--samples",
                 "1000000000000000", "--seed", "7", "--input", f_csv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: Unable to allocate 63.9 PiB for an array with shape "
        "(1000000000000000, 9) and data type int64\n")


# A count of 10^15 asks for more than any address space: the draws
# are refused before a block is allocated, the terms by the range.
@pytest.mark.parametrize("flags", [
    ["--terms=5", "--samples=1000000000000000"],
    ["--kind=rational", "--num-terms=3", "--den-terms=2",
     "--samples=1000000000000000"],
    ["--terms=1000000000000000", "--samples=5"],
    ["--kind=rational", "--num-terms=1000000000000000", "--den-terms=2",
     "--samples=5"],
    ["--kind=rational", "--num-terms=3", "--den-terms=1000000000000000",
     "--samples=5"],
], ids=["polynomial samples", "rational samples", "terms", "num-terms",
        "den-terms"])
def test_absurd_search_sizes_exit_2_and_write_no_model(flags, f_csv, tmp_path):
    model = tmp_path / "model.json"
    code, out, err = _run_main(["fit", "--input", f_csv, "--output",
                                str(model), "--range=-15:5", "--seed=7",
                                *flags])
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: [^\n]*\n", err)
    assert not model.exists()


@pytest.mark.parametrize("flags, message", [
    (["--degrees", "0,1e400"], "--degrees: a degree overflows the float range"),
    (["--terms", "2", "--range", "0:100000000000000000000000"],
     "the degree bounds and the range width must lie within the int64 range"),
    (["--terms", "2", "--range", "9223372036854775808:9223372036854775810"],
     "the degree bounds and the range width must lie within the int64 range"),
])
def test_out_of_range_degrees_exit_2(flags, message, f_csv, capsys):
    search = ["--samples", "1", "--seed", "1"] if "--range" in flags else []
    assert main(["fit", "--input", f_csv, *flags, *search]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_model_with_an_overflowing_degree_exits_2(tmp_path, capsys):
    text = serialize_model(sample_document()).replace('"-3"', '"1e400"')
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedModel):
        parse_model(text)
    assert main(["eval", "--model", str(path), "--grid", "0:1:1"]) == 2
    assert capsys.readouterr().err == \
        "error: a degree overflows the float range\n"


def test_a_zero_denominator_degree_exits_2(f_csv, tmp_path, capsys):
    assert main(["fit", "--degrees", "1/0,2", "--input", f_csv]) == 2
    assert capsys.readouterr() == (
        "", "error: --degrees: degree 1/0 has a zero denominator\n")
    text = serialize_model(sample_document()).replace('"-3"', '"1/0"')
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedModel):
        parse_model(text)
    assert main(["eval", "--model", str(path), "--grid", "0:1:1"]) == 2
    assert capsys.readouterr() == (
        "", "error: degree 1/0 has a zero denominator\n")


def test_a_search_skips_draws_that_cannot_be_fitted(tmp_path, capsys):
    # The f samples mapped to max-times (x = e^(t + 1), y = e^y): 46 of
    # the 200 draws have coefficients outside the float range.
    rows = [line.split(",") for line in dataset_csv("f").splitlines()[1:]]
    path = tmp_path / "fexp.csv"
    path.write_text("x,y\n" + "".join(
        f"{math.exp(float(t) + 1)!r},{math.exp(float(y))!r}\n"
        for t, y in rows), encoding="utf-8")
    search = ["fit", "--semifield", "max-times", "--terms", "3", "--seed",
              "1", "--input", str(path), "--output", str(tmp_path / "m.json")]
    assert main(search + ["--range", "-300:300", "--samples", "200"]) == 0
    assert capsys.readouterr() == ("", "delta_star = 8.7909\nerror = 2.9649\n")
    # A search whose only draw fails raises that draw's error.
    assert main(search + ["--range", "-600:600", "--samples", "1"]) == 2
    assert capsys.readouterr() == ("", "error: coefficient 2 leaves the float "
                                   "range: exp(-906.7) underflows to 0\n")


def test_degree_flags_accept_fractions(f_csv, capsys):
    assert main(["fit", "--degrees", "-1/2,1/3,2", "--input", f_csv]) == 0
    doc = parse_model(capsys.readouterr().out)
    assert [str(d) for d in doc.model.degrees] == ["-1/2", "1/3", "2"]


def test_fit_rational_search_command(g_csv, capsys):
    argv = ["fit", "--kind", "rational", "--num-terms", "4",
            "--den-terms", "2", "--range", "-10:10", "--samples", "8",
            "--seed", "3", "--max-iter", "200", "--input", g_csv]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = parse_model(first)
    assert doc.kind == "rational"
    assert doc.provenance["config"]["terms"] == [4, 2]
    assert "best_den_degrees" in doc.provenance["config"]


def test_fit_max_times_command(tmp_path, capsys):
    path = tmp_path / "mt.csv"
    path.write_text("x,y\n0.5,1.3\n1.0,1.25\n1.5,1.4\n2.0,2.1\n",
                    encoding="utf-8")
    assert main(["fit", "--semifield", "max-times", "--degrees", "0,2",
                 "--input", str(path)]) == 0
    doc = parse_model(capsys.readouterr().out)
    assert doc.model.semifield is MAX_TIMES
    assert doc.delta_star >= 1.0 - 1e-12
    assert doc.error == pytest.approx(doc.delta_star ** 0.5, rel=1e-12)


@pytest.mark.parametrize("semifield, row, unit", [
    ("max-plus", "0.6104583053465538,1.641833221386215", "0.0"),
    # The same sample mapped through exp.
    ("max-times", "1.8412750716467896,5.164628747020688", "1.0"),
])
def test_consistent_data_report_the_unit(semifield, row, unit, tmp_path,
                                         capsys):
    # Rounding leaves this one-sample fit's slack an ulp below the unit;
    # the reported delta_star and error are the unit itself.
    path = tmp_path / "one.csv"
    path.write_text(f"x,y\n{row}\n", encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--semifield", semifield, "--degrees", "-5,0,4",
                 "--input", str(path), "--output", str(model_path)]) == 0
    shown = f"{float(unit):.4f}"
    assert capsys.readouterr().err == (f"delta_star = {shown}\n"
                                       f"error = {shown}\n")
    text = model_path.read_text(encoding="utf-8")
    assert f'"delta_star": {unit},' in text
    assert f'"error": {unit},' in text


# --- fresh processes ---------------------------------------------------------

SRC_DIR = os.path.dirname(os.path.dirname(tropfit.__file__))


def run_fresh(argv, cwd):
    """tropfit.cli.main(argv) in a new interpreter, warnings shown."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=SRC_DIR if not path else SRC_DIR + os.pathsep + path)
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from tropfit.cli import main; sys.exit(main())",
         *argv],
        cwd=cwd, env=env, capture_output=True, text=True)


def test_repeated_main_calls_match_fresh_processes(f_csv, g_csv, tmp_path,
                                                  capsys):
    # main builds its parser once per process; calls that alternate
    # between subcommands, flags and a parse error must not see each
    # other's arguments.
    def commands(out):
        model = os.path.join(out, "model.json")
        grid = ["eval", "--model", model, "--grid", "0:2:0.1",
                "--output", os.path.join(out, "grid.tsv")]
        table = ["eval", "--model", model, "--input", g_csv,
                 "--output", os.path.join(out, "table.tsv")]
        bad = ["fit", "--kind", "spline", "--input", f_csv]
        return [
            ["fit", "--degrees", "-14,-1,1,2,3", "--input", f_csv,
             "--output", model], grid, table, bad,
            G_RATIONAL_FIT + ["--input", g_csv, "--output", model],
            grid, table, bad,
        ]

    def outputs(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    codes = []
    for argv_here, argv_fresh in zip(commands(str(here)),
                                     commands(str(fresh))):
        try:
            code = main(argv_here)
        except SystemExit as exc:
            code = exc.code
        assert code == run_fresh(argv_fresh, tmp_path).returncode
        assert outputs(here) == outputs(fresh)
        codes.append(code)
    assert codes == [0, 0, 0, 2] * 2
    capsys.readouterr()


@pytest.mark.parametrize("row, flags", [
    ("1e308,1", ["--degrees", "0,2"]),
    # y_i + z_i1 of the rational right side overflows, not the designs.
    ("1e308,1e308", ["--kind", "rational", "--num-degrees", "0",
                     "--den-degrees", "1"]),
])
def test_design_overflow_prints_only_the_error_line(row, flags, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(row + "\n", encoding="utf-8")
    done = run_fresh(["fit", "--input", str(path), *flags], tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == \
        "error: a design matrix entry overflows the float range\n"


@pytest.mark.parametrize("rows, flags", [
    # b - a overflows (y - p x), and in the rational fit also a r.
    ("x,y\n1e308,-1e308\n1,1e308\n", ["--degrees", "1"]),
    ("x,y\n1e308,-1e308\n1,1e308\n", ["--kind", "rational",
                                        "--num-degrees", "0,1",
                                        "--den-degrees", "0"]),
    # Every y - p x is finite; a r = p x + r overflows to -inf.
    ("x,y\n-1e308,0\n1e308,0\n", ["--degrees", "1"]),
], ids=["polynomial", "rational", "image"])
def test_residuation_overflow_prints_only_the_error_line(rows, flags,
                                                         tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(rows, encoding="utf-8")
    done = run_fresh(["fit", "--input", str(path), *flags], tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: the data leave the float range: "
                           "their differences overflow\n")


def test_coefficient_overflow_prints_only_the_error_line(tmp_path):
    # The fitted max-times coefficients leave the float range: exp
    # overflows to inf or underflows to 0, and only the error shows.
    path = tmp_path / "rows.csv"
    path.write_text("1e-300,1\n1e-200,2\n0.5,3\n", encoding="utf-8")
    done = run_fresh(["fit", "--semifield", "max-times", "--kind", "rational",
                      "--num-terms", "4", "--den-terms", "2",
                      "--range", "-10:10", "--samples", "1", "--seed", "5",
                      "--input", str(path)], tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: coefficient 0 leaves the float range: "
                           "exp(-1725.8) underflows to 0\n")


@pytest.mark.parametrize("rows, argv, reading", [
    # The error exp(delta / 2) is finite, delta_star exp(delta) is not.
    ("1e-300,1\n1e-200,2\n0.5,3\n", ["--degrees", "2,3"], "1379.1"),
    ("1e-300,1e300\n1e-200,2\n0.5,3\n",
     ["--kind", "polynomial", "--terms", "3", "--range", "-4:4",
      "--samples", "1", "--seed", "7"], "1379.8"),
])
def test_delta_star_overflow_prints_only_the_error_line(tmp_path, rows, argv,
                                                        reading):
    path = tmp_path / "rows.csv"
    path.write_text(rows, encoding="utf-8")
    model = tmp_path / "model.json"
    done = run_fresh(["fit", "--semifield", "max-times", *argv,
                      "--input", str(path), "--output", str(model)], tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: delta_star leaves the float range: "
                           f"exp({reading}) overflows to inf\n")
    assert not model.exists()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_model_documents_reject_non_finite_numbers(value):
    doc = document("max-plus", ([1], [1.0]), delta_star=value, error=1.0)
    with pytest.raises(ValueError, match="Out of range float values are not "
                                         "JSON compliant"):
        serialize_model(doc)


def test_eval_overflow_prints_only_the_error_line(tmp_path):
    # x**40 times the fitted coefficient leaves the float range at 6e8.
    path = tmp_path / "rows.csv"
    path.write_text("1,2\n2,3\n3,5\n", encoding="utf-8")
    model = tmp_path / "model.json"
    done = run_fresh(["fit", "--semifield", "max-times", "--input", str(path),
                      "--degrees", "0,40", "--output", str(model)], tmp_path)
    assert done.returncode == 0
    done = run_fresh(["eval", "--model", str(model),
                      "--grid", "1e8:1e9:5e8"], tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: a model value leaves the float range: "
                           "exp(766.4) overflows to inf\n")


def test_eval_underflow_prints_only_the_error_line(tmp_path):
    # 1e-9 ** 40 underflows to 0, the semifield zero, which is no value.
    doc = document("max-times", ([40], [1.0]), delta_star=1.0, error=1.0)
    model = tmp_path / "model.json"
    model.write_text(serialize_model(doc), encoding="utf-8")
    done = run_fresh(["eval", "--model", str(model),
                      "--grid", "1e-9:1e-9:1"], tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: a model value leaves the float range: "
                           "exp(-828.9) underflows to 0\n")


def test_eval_checks_values_not_terms(tmp_path):
    # The term -1000 x overflows to -inf at 1e306, the value x does not.
    doc = document("max-plus", ([-1000, 1], [0.0, 0.0]))
    model = tmp_path / "model.json"
    model.write_text(serialize_model(doc), encoding="utf-8")
    done = run_fresh(["eval", "--model", str(model),
                      "--grid", "1e306:1e306:1"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "1e+306\t1e+306\n", "")


# --- the fit contract as a property -----------------------------------------

# Sample cells: any float (extreme, subnormal, zero, negative, nan, inf)
# as its repr, a few hand-picked texts, and text that is no number.
_cells = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "-0.0", "5e-324", "2.2e-308", "1e308",
                     "-1.7976931348623157e308", "1e400", " 2 "]),
    st.sampled_from(["", "x", "1/2", "0x10"]))
_any_rows = st.one_of(st.tuples(_cells, _cells).map(",".join),
                      st.lists(_cells, max_size=3).map(",".join))
# Rows every semifield reads, so that a fair share of runs fit, and
# rows with a zero ordinate, which max-times rejects as non-regular.
_plain = st.floats(0.05, 20.0).map(repr)
_plain_rows = st.tuples(_plain, _plain).map(",".join)
_mixed_rows = st.one_of(_plain_rows, _plain_rows, _any_rows,
                        _plain.map(lambda x: x + ",0"))

_degree_lists = st.lists(
    st.one_of(st.integers(-6, 6).map(str), st.sampled_from(["1/2", "-1/3"])),
    min_size=1, max_size=4).map(",".join)
_counts = st.sampled_from(["1", "2", "3", "4"] * 2 + ["0", "x"])


@st.composite
def _ranges(draw):
    low = draw(st.integers(-12, 3))
    return f"{low}:{low + draw(st.integers(-1, 14))}"


_FLAG_VALUES = {
    "--degrees": _degree_lists, "--num-degrees": _degree_lists,
    "--den-degrees": _degree_lists, "--terms": _counts,
    "--num-terms": _counts, "--den-terms": _counts, "--range": _ranges(),
    "--samples": st.integers(1, 50).map(str),
    "--seed": st.integers(-1, 2**32).map(str),
}


@st.composite
def fit_runs(draw):
    """(samples text, fit argv) for any of the four fit modes."""
    rows = draw(st.lists(_mixed_rows if draw(st.booleans()) else _plain_rows,
                         min_size=1, max_size=30))
    kind, flags = draw(st.sampled_from(FIT_MODES))
    argv = ["--semifield=" + draw(st.sampled_from(["max-plus", "max-times"])),
            "--kind=" + kind]
    argv += [f"{flag}={draw(_FLAG_VALUES[flag])}" for flag in flags]
    if draw(st.booleans()):
        argv.append(f"--max-iter={draw(st.integers(-1, 200))}")
    return "\n".join(rows) + "\n", argv


def _run_main(argv):
    """Exit code, stdout and stderr of main(argv), in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _recomputed_error(doc, samples):
    """numpy's max-plus error of a model on samples, and the arrays whose
    magnitudes scale its tolerance."""
    x, y = samples.xs, samples.ys
    parts = ([doc.model] if doc.kind == "polynomial"
             else [doc.model.numerator, doc.model.denominator])
    arrays, values = [y], []
    for part in parts:
        theta = to_max_plus(part.coefficients.elements, part.semifield)
        terms = part.degrees.exponents[:, None] * x
        values.append(np.max(theta[:, None] + terms, axis=0))
        arrays += [theta, terms, values[-1]]
    residual = values[0] - y if len(values) == 1 else values[0] - values[1] - y
    return float(np.max(np.abs(residual))), arrays


def check_fit_run(directory, run):
    """The fit contract on one (samples text, fit argv) run in directory.

    fit exits 0, 2 or 3 with no output, and on 2 or 3 with one error
    line or argparse's usage message. A model it writes is the same
    with --threads=4, reads back to the same bytes, and its error is
    the max-plus error numpy computes on the samples. `eval --input` on
    the samples then exits 0 or 2 with one error line, and on 0 its
    largest max-plus residual is that error too.
    """
    text, flags = run
    path = directory / "samples.csv"
    path.write_text(text, encoding="utf-8")
    model = directory / "model.json"
    argv = ["fit", "--input", str(path), "--output", str(model), *flags]
    code, out, err = _run_main(argv + ["--threads=1"])
    assert code in (0, 2, 3) and out == ""
    if code:
        assert (re.fullmatch(r"error: [^\n]*\n", err)
                or err.startswith("usage: ") and "\ntropfit fit: error: " in err)
        return
    written = model.read_bytes()
    assert _run_main(argv + ["--threads=4"]) == (0, "", err)
    assert model.read_bytes() == written
    doc = parse_model(written.decode("utf-8"))
    assert serialize_model(doc).encode("utf-8") == written
    semifield = doc.model.semifield
    worst, arrays = _recomputed_error(doc, parse_samples(str(path), semifield))
    error = math.log(doc.error) if semifield is MAX_TIMES else doc.error
    tolerance = scaled_tolerance(1e-9, np.array([error]), *arrays)
    assert abs(worst - error) <= tolerance
    code, out, err = _run_main(["eval", "--model", str(model),
                                "--input", str(path)])
    assert code in (0, 2)
    if code:
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err)
        return
    # Columns: x, value, y and value - y in conventional units.
    table = np.array([line.split("\t") for line in out.splitlines()],
                     dtype=float)
    residual = np.abs(to_max_plus(table[:, 1], semifield)
                      - to_max_plus(table[:, 2], semifield))
    assert abs(float(np.max(residual)) - error) <= tolerance


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fit_runs())
# A zero ordinate in max-times is non-regular input; a count that is no
# integer stops argparse.
@example(("1,0\n2,1\n", ["--semifield=max-times", "--degrees=0,1"]))
@example(("1,2\n", ["--terms=x", "--range=0:5", "--samples=5", "--seed=1"]))
def test_fit_exits_0_2_or_3_and_writes_a_model_numpy_checks(tmp_path, run):
    check_fit_run(tmp_path, run)
