"""Command-line interface: exit codes, output schema, determinism."""

import argparse
import ast
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zmckit
from oracles import hessian_loops, value_and_gradient_loops
from zmckit import cli, geometry
from zmckit.cli import main
from zmckit.families import (
    MAX_LAWSON_ORDER, MAX_QUADRIC_NVARS, ads, ds2, lawson, make_poly, parse_family
)
from zmckit.isometry import apply_to_poly
from zmckit.parser import (
    MAX_COEFF_BITS, MAX_NESTING, MAX_POLY_DEGREE, MAX_POLY_TERMS, MAX_TERM_PAIRS, ParseError,
    parse_poly,
)
from zmckit.poly import Poly
from zmckit.zmc import AmbientSig, conjecture_check

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_family_pass(capsys):
    code, out, _ = run(capsys, "verify", "--family", "ads:2,3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["divides"] is True
    assert doc["h"] == "-16"
    assert doc["s"] == 2 and doc["epsilon"] == -1
    assert doc["family"] == "ads" and doc["params"] == [2, 3, 1]


def test_verify_lawson_quotient_degree(capsys):
    code, out, _ = run(capsys, "verify", "--family", "lawson:2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["divides"] is True
    assert doc["degree"] == 5


def test_verify_poly_failure_exit_one(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--poly", "x1^2+2x2^2-x3^2", "--nvars", "3", "--sig", "2,-1",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["divides"] is False
    assert doc["h"] is None
    assert doc["remainder_nterms"] == 1


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify")[0] == 2
    assert run(capsys, "verify", "--family", "nope:1")[0] == 2
    assert run(capsys, "verify", "--poly", "x1 +", "--nvars", "2", "--sig", "0,1")[0] == 2
    assert run(capsys, "verify", "--poly", "x1", "--nvars", "2")[0] == 2


def test_spectrum_pass_and_schema(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--family", "ds2:4", "--count", "6", "--seed", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["points"]) == 6
    first = doc["points"][0]
    assert set(first) >= {"point", "clusters", "metric_signature", "mean_curvature"}
    pairs = sorted(
        (c["value"], c["multiplicity"]) for c in first["clusters"]
    )
    assert [m for _, m in pairs] == [1, 4]
    assert first["expected_w"] == 4.0


def test_spectrum_lawson_gates_mean_curvature_only(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--family", "lawson:2,3", "--count", "4", "--seed", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert all("expected_clusters" not in p for p in doc["points"])


def test_spectrum_csv_output(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--family", "ads:1,1,0", "--count", "3", "--seed", "0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("point,f_residual")
    assert len(lines) == 4


def test_sample_json_schema(capsys):
    code, out, _ = run(
        capsys, "sample", "--family", "clifford:2,3", "--count", "5", "--seed", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 5
    assert set(doc[0]) == {"coords", "f_residual", "constraint_residual", "w"}
    assert len(doc[0]["coords"]) == 7


def test_classify_family_and_custom(capsys):
    code, out, _ = run(capsys, "classify", "--family", "ads:1,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["verdict"] == "matches"
    assert doc["classification"]["params"] == [1, 2, 1]

    code, out, _ = run(
        capsys,
        "classify", "--poly", "2 x1 x2 + x3^2 - x4^2", "--nvars", "4",
    )
    assert code == 0
    assert json.loads(out)["classification"]["params"] == [1, 1, 0]

    code, out, _ = run(
        capsys,
        "classify", "--poly", "x1^2 + 2 x2^2 - x3^2", "--nvars", "3",
    )
    assert code == 1


def test_report_aggregates_and_exit(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "report",
            "--family", "ads:1,1,0",
            "--family", "ds2:1",
            "--family", "lawson:1,3",
            "--count", "4",
            "--seed", "5",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["passed"] is True
    labels = [e["family"] for e in doc["families"]]
    assert labels == sorted(labels)
    ads_entry = next(e for e in doc["families"] if e["family"] == "ads:1,1,0")
    assert ads_entry["classification"]["verdict"] == "matches"
    assert ads_entry["verify"]["divides"] is True
    lawson_entry = next(e for e in doc["families"] if e["family"] == "lawson:1,3")
    assert lawson_entry["classification"] is None


def test_report_runs_each_member_once_under_its_canonical_label(capsys):
    base = ["report", "--family", "ds2:1", "--count", "2"]
    code, out, err = run(capsys, *base, "--family", "ads:1,1,0")
    assert code == 0 and err == ""
    assert [e["family"] for e in json.loads(out)["families"]] == ["ads:1,1,0", "ds2:1"]
    same = run(capsys, *base, "--family", "ads:01,1,0", "--family", "ads:1,1,0",
               "--family", "ds2:01")
    assert same == (code, out, err)
    code, out, err = run(capsys, *base, "--family", "ads:1,1,0", "--family", "ads:+1,1,0")
    assert (code, out, err) == (2, "", "error: bad family parameters in 'ads:+1,1,0'\n")
    code, out, err = run(capsys, *base, "--family", "ads:1,1,0", "--family", " ads:1,1,0")
    assert (code, out, err) == (2, "", "error: bad family selector ' ads:1,1,0'; "
                                       "expected kind:params\n")


def test_report_requires_families(capsys):
    assert run(capsys, "report")[0] == 2


# `main` parses every call with the one parser `build_parser` builds per
# process: nothing may carry over from one call to the next.


def test_the_same_verify_twice_in_one_process_prints_the_same(capsys):
    first, second = (run(capsys, "verify", "--family", "ads:2,3,1") for _ in range(2))
    assert first == second
    assert first[0] == 0 and first[1]


def test_report_families_do_not_carry_over_to_the_next_call(capsys):
    code, out, _ = run(capsys, "report", "--family", "ads:1,1,0", "--family", "lawson:1,3",
                       "--count", "2")
    assert code == 0 and len(json.loads(out)["families"]) == 2
    assert cli.build_parser().parse_args(["verify", "--family", "ds2:1"]).family == ["ds2:1"]
    code, out, err = run(capsys, "verify", "--family", "ds2:1")
    assert (code, err) == (0, "")
    assert json.loads(out)["family"] == "ds2"


def test_a_usage_error_after_a_success_exits_2_with_one_line(capsys):
    assert run(capsys, "verify", "--family", "ads:2,3,1")[0] == 0
    code, out, err = run(capsys, "verify", "--family", "nope:1")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=" ".join)
def test_help_matches_an_uncached_parser(capsys, argv):
    assert run(capsys, "verify", "--family", "ads:2,3,1")[0] == 0
    code, cached, _ = run(capsys, *argv)
    with pytest.raises(SystemExit):
        cli.build_parser.__wrapped__().parse_args(argv)
    assert code == 0 and cached and cached == capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()


def test_report_determinism(tmp_path):
    args = [
        "report",
        "--family", "ads:2,3,0",
        "--family", "ds1:1,2",
        "--count", "5",
        "--seed", "11",
    ]
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a_path)]) == 0
    assert main(args + ["--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--family", "ads:6,6,4", "--count", "20", "--seed", "7"),
        ("spectrum", "--family", "lawson:4,5", "--count", "30", "--seed", "7"),
        ("spectrum", "--family", "lawson:4,5", "--count", "10", "--seed", "3", "--format", "csv"),
        ("sample", "--family", "ds1:2,3", "--count", "10", "--seed", "7"),
        ("sample", "--family", "lawson:2,3", "--count", "10", "--seed", "0", "--format", "csv"),
        ("report", "--family", "ads:3,3,2", "--family", "clifford:2,3",
         "--family", "lawson:4,5", "--count", "10", "--seed", "7"),
    ],
    ids=["spectrum-ads", "spectrum-lawson", "spectrum-csv", "sample", "sample-csv", "report"],
)
def test_output_unchanged_with_eval_float_loops_in_place_of_term_tables(
    capsys, monkeypatch, argv
):
    """The commands print the same bytes when f, grad f and Hess f come from
    one `Poly.eval_float` per derivative polynomial instead of the term
    tables; no float is pinned, so the test holds whatever libm rounds."""
    shipped = run(capsys, *argv)
    calls = []

    def counted(reference):
        def evaluate(f, point):
            calls.append(reference)
            return reference(f, point)

        return evaluate

    monkeypatch.setattr(geometry, "value_and_gradient", counted(value_and_gradient_loops))
    monkeypatch.setattr(geometry, "hessian_float", counted(hessian_loops))
    assert run(capsys, *argv) == shipped
    assert value_and_gradient_loops in calls
    assert (hessian_loops in calls) == (argv[0] != "sample")


def test_float_rendering_17_digits(capsys):
    code, out, _ = run(
        capsys, "sample", "--family", "ads:1,1,0", "--count", "1", "--seed", "2"
    )
    assert code == 0
    # Round-tripping the rendered floats through json must be lossless.
    doc = json.loads(out)
    coords = doc[0]["coords"]
    assert any(abs(c) > 1 for c in coords)


_NESTED = {"coords": [np.float64(1.25), -0.0], "metric_signature": [np.intp(1), np.int64(2)],
           "defective": False, "failure": None, "empty": {}, "none": []}


@pytest.mark.parametrize("value,text", [
    (np.int64(-7), "-7"),
    (np.intp(3), "3"),
    (np.float64(0.1), "0.10000000000000001"),
    (np.float64(-2.5e-300), "-2.5e-300"),
    (2**70, "1180591620717411303424"),
    (-12, "-12"),
    (1 / 3, "0.33333333333333331"),
    (1e22, "1e+22"),
    (True, "true"),
    (False, "false"),
    (None, "null"),
    ("x", '"x"'),
    (_NESTED, '{\n  "coords": [\n    1.25,\n    -0\n  ],\n  "metric_signature": [\n    1,\n    2\n'
              '  ],\n  "defective": false,\n  "failure": null,\n  "empty": {},\n  "none": []\n}'),
], ids=repr)
def test_render_json_on_the_scalars_the_float_commands_emit(value, text):
    assert cli._render_json(value) == text


def test_unknown_command_usage(capsys):
    assert main(["frobnicate"]) == 2


def test_format_rejected_where_unread(capsys):
    # Only spectrum and sample can write CSV; elsewhere --format used to be
    # accepted and ignored, silently emitting JSON.
    assert run(capsys, "verify", "--family", "ads:1,1,0", "--format", "csv")[0] == 2
    assert run(capsys, "classify", "--family", "ads:1,1,0", "--format", "csv")[0] == 2
    assert run(capsys, "report", "--family", "ads:1,1,0", "--format", "csv")[0] == 2


@pytest.mark.parametrize("family", ["ads:6,6,4", "ads:5,7,3"])
def test_spectrum_ads_seed_7_regression(capsys, family):
    # The former in-house QR solver failed to converge at some of these points.
    code, out, err = run(
        capsys, "spectrum", "--family", family, "--count", "200", "--seed", "7"
    )
    assert code == 0, err
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("command", ["spectrum", "sample"])
def test_numerical_breakdown_exits_3(capsys, command):
    # Newton does not converge at these samples: a numerical breakdown, not
    # a mathematical failure (1) and not a usage error (2).
    code, out, err = run(
        capsys, command, "--family", "lawson:14,15", "--count", "5", "--seed", "0"
    )
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: no convergence within 50 Newton iterations"]


@pytest.mark.parametrize("command", ["spectrum", "sample", "report"])
def test_family_without_sampler_is_usage_error(capsys, command):
    # lawson:1,1 has no coordinate patch (k == n), so nothing can be sampled:
    # a config error (2), not a numerical breakdown (3); verify still runs.
    code, out, err = run(capsys, command, "--family", "lawson:1,1", "--count", "2")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: no patch available for k == n"]
    assert run(capsys, "verify", "--family", "lawson:1,1")[0] == 0


@pytest.mark.parametrize("command", ["spectrum", "sample", "report"])
def test_count_below_one_is_usage_error(capsys, command):
    # report used to sample nothing and record the count as a numerical
    # breakdown of the family (exit 1).
    code, out, err = run(capsys, command, "--family", "ds2:1", "--count", "0")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: --count must be >= 1"]


def _build_nothing(monkeypatch):
    """Make building a family polynomial or sampling a point fail the test."""
    def refuse(*args):
        raise AssertionError("input was built")

    for name in ("make_poly", "lawson_light_cone", "sample_points"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("argv,message", [
    (("verify", "--family", "lawson:99,103"), "lawson order k+n = 202 exceeds the cap 201"),
    (("spectrum", "--family", "lawson:99,103"), "lawson order k+n = 202 exceeds the cap 201"),
    (("verify", "--family", "ads:50,49,0"), "ads family has 101 variables, above the cap 100"),
    (("classify", "--family", "ads:50,49,0"), "ads family has 101 variables, above the cap 100"),
    (("verify", "--family", "ds1:49,49"), "ds1 family has 101 variables, above the cap 100"),
    (("sample", "--family", "ds2:98"), "ds2 family has 101 variables, above the cap 100"),
    (("report", "--family", "clifford:50,49"),
     "clifford family has 101 variables, above the cap 100"),
    (("sample", "--family", "ds2:1", "--count", "10001"), "--count must be <= 10000"),
])
def test_input_above_its_cap_is_usage_error(capsys, monkeypatch, argv, message):
    _build_nothing(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_inputs_at_their_caps_are_accepted():
    assert sum(lawson(100, 101).params) == MAX_LAWSON_ORDER
    assert ads(49, 49, 0).nvars == MAX_QUADRIC_NVARS
    args = argparse.Namespace(command="sample", count=cli.MAX_COUNT, seed=0)
    assert cli._sampled_families(args, ["ds2:1"]) == [ds2(1)]


@pytest.mark.parametrize("argv,message", [
    (("verify", "--poly", "x1^2", "--nvars", "101", "--sig", "1,1"),
     "--nvars 101 is above the cap 100"),
    (("classify", "--poly", "x1^2", "--nvars", "101"), "--nvars 101 is above the cap 100"),
])
def test_poly_nvars_above_its_cap_is_usage_error(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "parse_poly", lambda *args: pytest.fail("--poly was parsed"))
    code, out, err = run(capsys, *argv)
    assert (code, out, err.splitlines()) == (2, "", [f"error: {message}"])


_SUMS = ("+".join(f"x{i}" for i in range(1, 41)), "+".join(f"x{i}" for i in range(41, 91)))


@pytest.mark.parametrize("text,message", [
    # (x1+..+x4)^21 has 2,024 terms, one power above the term cap.
    ("(x1+x2+x3+x4)^21", "up to 2024 terms exceed the cap 2000 (at position 13)"),
    ("(x1+x2+x3+x4)^200", "up to 1373701 terms exceed the cap 2000 (at position 13)"),
    ("x1^202", "degree 202 exceeds the cap 201 (at position 2)"),
    ("x1^101 x2^101", "degree 202 exceeds the cap 201 (at position 7)"),
    ("x1^201 x2", "degree 202 exceeds the cap 201 (at position 7)"),
    ("(x1+x2+x3+x4+x5+x6+x7+x8)^4 * (x1+x2+x3)^4",
     "up to 4950 terms exceed the cap 2000 (at position 28)"),
    # A product of exactly 2,000 terms, then one more summand.
    ("({}) ({}) + x91".format(*_SUMS), "up to 2001 terms exceed the cap 2000 (at position 355)"),
    # Runs of one-term factors: the degree crosses the cap on a later factor,
    # and 123 one-term powers of 2 * 4096 pairs each overrun the pair budget.
    ("x1^100 x2 * x3^100 x2", "degree 202 exceeds the cap 201 (at position 19)"),
    (" + ".join([f"(1)^{1 << 4095}"] * 123),
     f"the input multiplies over {MAX_TERM_PAIRS} term pairs (at position 151283)"),
    # Parentheses one level past the nesting cap, and far past Python's
    # recursion limit: refused at the first '(' too deep.
    *(pytest.param("(" * depth + "x1" + ")" * depth,
                   "nesting depth 101 exceeds the cap 100 (at position 100)", id=f"{depth} nested")
      for depth in (101, 1000)),
])
def test_poly_above_a_parser_cap_is_usage_error(capsys, monkeypatch, text, message):
    # The parser checks a bound on each product and power before expanding
    # it; a power expands by repeated products, which are watched here.
    real_mul = Poly.__mul__

    def small_mul(p, q):
        assert p.num_terms() * q.num_terms() <= MAX_POLY_TERMS, "a capped product was expanded"
        return real_mul(p, q)

    monkeypatch.setattr(Poly, "__mul__", small_mul)
    for command in (["verify", "--sig", "2,-1"], ["classify"]):
        code, out, err = run(capsys, *command, "--poly", text, "--nvars", "91")
        assert (code, out, err.splitlines()) == (2, "", [f"error: {message}"])


def test_parentheses_at_the_nesting_cap_are_accepted(capsys):
    # Under pytest's own frames, and as the text without them.
    text = "2 x1 x2 + x3^2 - x4^2"
    nested = "(" * MAX_NESTING + text + ")" * MAX_NESTING
    for command in (["verify", "--sig", "2,-1"], ["classify"]):
        got = run(capsys, *command, "--poly", nested, "--nvars", "4")
        assert got == run(capsys, *command, "--poly", text, "--nvars", "4")
        assert got[0] == 0


# The product of two (cap/2 + 1)-bit literals has at least cap + 1 bits.
_HALF = str((1 << MAX_COEFF_BITS // 2) - 1 << 1)


@pytest.mark.parametrize("text,message", [
    (f"{1 << MAX_COEFF_BITS} x1^2",
     f"integer of 1234 digits exceeds the cap of {MAX_COEFF_BITS} bits (at position 0)"),
    ("x2 + " + "1" * 5000 + " x1^2",
     f"integer of 5000 digits exceeds the cap of {MAX_COEFF_BITS} bits (at position 5)"),
    (f"(3)^{MAX_COEFF_BITS} x1^2",
     f"a coefficient of at least 4097 bits exceeds the cap of {MAX_COEFF_BITS} bits (at position 3)"),
    ("(3)^100000 x1^2 x2 - x2^3 + x3^3 - x1 x2 x3",
     f"a coefficient of at least 100001 bits exceeds the cap of {MAX_COEFF_BITS} bits "
     "(at position 3)"),
    ("(2)^99999999999 x1^2",
     f"a coefficient of at least 100000000000 bits exceeds the cap of {MAX_COEFF_BITS} bits "
     "(at position 3)"),
    (f"{_HALF} {_HALF} x1^2",
     f"a coefficient of at least 4097 bits exceeds the cap of {MAX_COEFF_BITS} bits "
     f"(at position {len(_HALF) + 1})"),
    # In a run of one-term factors, on the product by the second literal.
    (f"x1 {_HALF} * x2 * {_HALF} x3",
     f"a coefficient of at least 4097 bits exceeds the cap of {MAX_COEFF_BITS} bits "
     f"(at position {len(_HALF) + 9})"),
])
def test_coefficient_above_the_bit_cap_is_usage_error(capsys, monkeypatch, text, message):
    # Refused on a bound, before any product or power is built.
    for name in ("__mul__", "__pow__"):
        monkeypatch.setattr(Poly, name, lambda *args: pytest.fail("a capped input was built"))
    code, out, err = run(capsys, "verify", "--poly", text, "--nvars", "3", "--sig", "1,1")
    assert (code, out, err.splitlines()) == (2, "", [f"error: {message}"])


def test_coefficients_at_the_bit_cap_are_accepted(capsys):
    top = (1 << MAX_COEFF_BITS) - 1
    assert parse_poly(f"{top} x1^2", 1).ints == {(2,): (top, 0)}
    # The largest power of 3 under the cap; one more factor is refused once built.
    assert parse_poly("(3)^2584 x1", 1).ints == {(1,): (3**2584, 0)}
    # Sums, products and powers whose integers pass the bound on them but
    # not the cap: refused once built, at the operator.
    a, b = (1 << 2049) - 1, (1 << 2100) - 1
    for text, bits, position in (("(3)^2585 x1", 4098, 3),
                                 (f"{a} {a >> 1} x1", 4097, len(str(a)) + 1),
                                 (f"x1 {a} x1 {a >> 1}", 4097, len(str(a)) + 7),
                                 (f"1/{b} x1 + 1/{b + 2} x1^2", 4200, len(str(b)) + 6)):
        with pytest.raises(ParseError, match=f"at least {bits} bits") as caught:
            parse_poly(text, 1)
        assert caught.value.position == position
    # Every integer verify prints fits in JSON: w and the Laplacian, and h
    # for the quadric that divides.
    for text, nvars, sig, code in (
        (f"{top} x1^2 x2 - x2^3 + x3^3 - x1 x2 x3", "3", "1,1", 1),
        (f"1/{top} x1^2 x2 - x2^3 + x3^3 - x1 x2 x3", "3", "1,1", 1),
        (f"{top >> 1} (2 x1 x2 + x3^2 - x4^2)", "4", "2,-1", 0),
    ):
        got, out, err = run(capsys, "verify", "--poly", text, "--nvars", nvars, "--sig", sig)
        assert (got, err) == (code, "")
        assert json.loads(out)["divides"] is (code == 0)


def test_one_parse_multiplies_at_most_its_budget_of_term_pairs(monkeypatch):
    # 119,130 term pairs a copy: the ninth copy is refused before it is done.
    pairs = []
    real_mul = Poly.__mul__

    def counting_mul(p, q):
        pairs.append(p.num_terms() * q.num_terms())
        return real_mul(p, q)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    copy = "(x1+x2+x3)^61"
    with pytest.raises(ParseError, match=f"over {MAX_TERM_PAIRS} term pairs") as caught:
        parse_poly(" + ".join([copy] * 40), 3)
    assert caught.value.position == 8 * len(copy + " + ") + copy.index("^")
    assert 8 * 119_130 < sum(pairs) <= MAX_TERM_PAIRS


def test_superscript_digit_is_a_syntax_error_with_its_position(capsys):
    code, out, err = run(capsys, "verify", "--poly", "x1²", "--nvars", "2", "--sig", "1,1")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: unexpected character '²' (at position 2)"]


def test_non_ascii_decimal_digit_is_a_syntax_error_with_its_position(capsys):
    # Arabic-Indic x1^2 - x2^2: decimal digits to str.isdecimal() and int(),
    # but not the grammar's ASCII ones.
    code, out, err = run(capsys, "verify", "--poly", "x١^٢ - x2^2",
                         "--nvars", "2", "--sig", "0,1")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: unexpected character '١' (at position 1)"]


def test_poly_above_the_work_cap_is_usage_error(capsys, monkeypatch):
    for name in ("conjecture_check", "classify_candidate"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("residual was computed"))
    # 1,140 terms of degree 17: the term cap passes, the residual's work does not.
    code, out, err = run(capsys, "verify", "--poly", "(x1+x2+x3+x4)^17", "--nvars", "4",
                         "--sig", "2,-1")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: --poly needs up to 13681140 term operations, above the cap 10000000"
    ]


def test_poly_inputs_at_their_caps_are_accepted():
    # Exactly MAX_POLY_TERMS terms from one product, and degree MAX_POLY_DEGREE.
    assert parse_poly("({}) ({})".format(*_SUMS), 90).num_terms() == MAX_POLY_TERMS == 2000
    assert parse_poly("x1^100 x2^101", 2).degree() == MAX_POLY_DEGREE == 201
    assert parse_poly("(x1 + x2)^201", 2).num_terms() == 202
    # The largest 4-variable power under the work cap, and --nvars at its cap.
    for text, nvars in (("(x1+x2+x3+x4)^16", 4), ("x1^2 - x100^2", MAX_QUADRIC_NVARS)):
        args = argparse.Namespace(command="verify", family=None, poly=text, nvars=nvars,
                                  sig="1,1")
        spec, f, sig = cli._resolve_input(args)
        assert spec is None and sig.nvars == nvars
        assert cli._residual_work(f) <= cli.MAX_POLY_WORK


def test_residual_work_bounds_the_residual_and_quotient():
    # min(T^2, S(2D-2)) bounds w's terms and S(2D-4) the quotient's.
    for text, nvars, sig in (("(x1+x2+x3)^4 - 7 x2^4", 3, AmbientSig(1, 1, 3)),
                             ("x1^3 x2 + x2^2 x3^2 - 2 x1 x3^3", 3, AmbientSig(1, 1, 3)),
                             ("2 x1 x2 + x3^2 - x4^2", 4, AmbientSig(2, -1, 4))):
        f = parse_poly(text, nvars)
        report = conjecture_check(f, sig)
        t, d = f.num_terms(), f.degree()
        span = [math.comb(nvars + k - 1, k) for k in (2 * d - 2, 2 * d - 4)]
        assert report.w.num_terms() <= min(t * t, span[0])
        assert report.quotient.num_terms() <= span[1]
        assert cli._residual_work(f) == t * (min(t * t, span[0]) + span[1])


def _poly_arguments(node) -> list[tuple[str, int]]:
    """(text, nvars) of each --poly in a run of string constants or a command line."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and "--poly " in node.value:
        words = shlex.split(node.value)
    elif isinstance(node, (ast.Call, ast.Tuple, ast.List)):
        items = node.args if isinstance(node, ast.Call) else node.elts
        words = [i.value for i in items if isinstance(i, ast.Constant) and isinstance(i.value, str)]
    else:
        return []
    if "--poly" not in words or "--nvars" not in words:
        return []
    text = words[words.index("--poly") + 1]
    return [] if text.startswith("--") else [(text, int(words[words.index("--nvars") + 1]))]


# --poly inputs in tests/ that are rejected on purpose.
REJECTED_POLY_INPUTS = {
    ("x1 +", 2), ("x1²", 2), ("x1^2", 101), ("(x1+x2+x3+x4)^17", 4),
    ("sqrt(1000000007) x1^2 - x2^2 + x3^2", 3), ("x١^٢ - x2^2", 2),
    ("sqrt(2) x1 + sqrt(3) x2", 2),
}


def test_every_poly_text_in_the_tests_and_the_benchmark_still_parses():
    texts = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            texts.update(_poly_arguments(node))
    texts -= REJECTED_POLY_INPUTS
    assert len(texts) >= 10
    bench = _load_perfbench_workloads()
    for seed in (7, 1000010, 2000013):
        rng = np.random.default_rng(seed)
        for label, word in bench.CERTIFY_IMAGES:
            spec = parse_family(label)
            f = apply_to_poly(make_poly(spec), bench.seeded_isometry(spec.sig, word, rng))
            texts.add((f.render(), spec.nvars))
            texts.add((conjecture_check(f, spec.sig).quotient.render(), spec.nvars))
    label, extra = bench.NON_ZMC
    spec = parse_family(label)
    texts.add(((make_poly(spec) + parse_poly(f"x1^{extra}", 4)).render(), spec.nvars))
    texts.update((text, nvars) for text in bench.NON_MEMBERS
                 for nvars in range(4, bench.CLASSIFY_MAX_TOTAL + 3))
    for text, nvars in texts:
        assert nvars <= MAX_QUADRIC_NVARS
        assert cli._residual_work(parse_poly(text, nvars)) <= cli.MAX_POLY_WORK, text


@pytest.mark.parametrize("command", ["spectrum", "sample", "report"])
def test_negative_seed_is_usage_error(capsys, command):
    # numpy would reject a negative seed only once sampling starts: a config
    # error, not a numerical breakdown (3) or a failed family in report (1).
    code, out, err = run(capsys, command, "--family", "ds2:1", "--count", "2", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: --seed must be >= 0"]


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "ads:1,1,0"),
    ("spectrum", "--family", "ds2:1", "--count", "2"),
])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: cannot write --out {path}: No such file or directory"]
    assert not path.parent.exists()


def test_residual_bound_violation_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_TOL_RESIDUAL", 1e-300)
    code, out, err = run(capsys, "sample", "--family", "ds2:4", "--count", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: projected point violates")


def test_mean_curvature_gate_miss_still_exits_1(capsys):
    code, _, err = run(
        capsys, "spectrum", "--family", "lawson:8,9", "--count", "50", "--seed", "7"
    )
    assert code == 1
    assert err.startswith("error: mean curvature")


def test_radicand_above_bound_is_usage_error(capsys):
    # Refused before trial division, which grows like the radicand's root.
    code, _, err = run(
        capsys, "verify", "--poly", "sqrt(1000000007) x1^2 - x2^2 + x3^2",
        "--nvars", "3", "--sig", "1,1",
    )
    assert code == 2
    assert err.splitlines() == [
        "error: radicand 1000000007 exceeds the bound 1000000000 (at position 5)"
    ]
    assert parse_poly("sqrt(1000000000) x1", 1) == parse_poly("10000 sqrt(10) x1", 1)


TOLERANCE_FLAGS = [
    ("spectrum", "--tol-residual", "1e-10"),
    ("spectrum", "--tol-spectrum", "1e-6"),
    ("spectrum", "--tol-newton", "1e-12"),
    ("sample", "--tol-residual", "1e-10"),
    ("sample", "--tol-newton", "1e-12"),
    ("report", "--tol-residual", "1e-10"),
    ("report", "--tol-spectrum", "1e-6"),
    ("report", "--tol-newton", "1e-12"),
]


@pytest.mark.parametrize(
    "command,flag,value", TOLERANCE_FLAGS, ids=[f"{c}:{f[2:]}" for c, f, _ in TOLERANCE_FLAGS]
)
def test_tolerance_flag_is_usage_error(capsys, command, flag, value):
    # The gates are fixed constants in geometry; no command takes a
    # tolerance, not even its old default.
    code, out, err = run(capsys, command, "--family", "ds2:1", "--count", "2", flag, value)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


def test_spectrum_calls_the_oracle_once_per_point(capsys, monkeypatch):
    calls = []

    def counting_oracle(spec):
        oracle = spectrum_oracle(spec)

        def spectrum(coords):
            calls.append(coords)
            return oracle.spectrum(coords)

        return dataclasses.replace(oracle, spectrum=spectrum)

    spectrum_oracle = cli.spectrum_oracle
    monkeypatch.setattr(cli, "spectrum_oracle", counting_oracle)
    code, _, _ = run(capsys, "spectrum", "--family", "ds1:2,3", "--count", "4", "--seed", "3")
    assert code == 0
    assert len(calls) == 4


@pytest.mark.parametrize("argv", [
    ("spectrum", "--family", "lawson:4,5", "--family", "ads:6,6,4",
     "--family", "ds1:2,3", "--count", "20", "--seed", "3"),
    ("sample", "--family", "ds2:1", "--family", "ds2:1"),
    ("verify", "--family", "ads:1,1,0", "--family", "lawson:2,3"),
    ("classify", "--family", "ads:1,1,0", "--family", "ads:2,2,1"),
], ids=lambda argv: argv[0])
def test_repeated_family_is_usage_error(capsys, argv):
    # Only report aggregates families; the others used to run the last one.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {argv[0]} takes one --family, got {argv.count('--family')}"]


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_family_and_poly_together_is_usage_error(capsys, command):
    code, out, err = run(
        capsys, command, "--family", "ads:1,1,0", "--poly", "x1^2 + x2^2", "--nvars", "2",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: give either --family or --poly, not both"]


@pytest.mark.parametrize("argv,flags", [
    (("verify", "--family", "ads:1,1,0", "--sig", "1,1", "--nvars", "9"), "--nvars and --sig"),
    (("verify", "--family", "ads:1,1,0", "--sig", "2,-1"), "--sig"),
    (("classify", "--family", "ads:1,1,0", "--nvars", "3"), "--nvars"),
], ids=["verify-both", "verify-sig", "classify-nvars"])
def test_family_with_nvars_or_sig_is_usage_error(capsys, argv, flags):
    # --nvars and --sig describe a --poly input; a family fixes both.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {flags} cannot be given with --family"]


@pytest.mark.parametrize("argv,message", [
    (("verify", "--poly", "x1^2", "--nvars", "1", "--sig", "1,1"),
     "index s=1 out of range for nvars=1"),
    (("classify", "--poly", "x1^2", "--nvars", "2"), "index s=2 out of range for nvars=2"),
    (("verify", "--poly", "x1^2", "--nvars", "2", "--sig", "1,1,1"),
     "bad --sig value '1,1,1'; expected s,eps"),
], ids=["verify-range", "classify-range", "verify-format"])
def test_sig_errors_name_the_actual_fault(capsys, argv, message):
    # A well-formed --sig out of range for --nvars, and classify's fixed
    # (2,-1), report the range, not a format error.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_classify_takes_no_sig(capsys):
    code, out, err = run(
        capsys, "classify", "--poly", "2 x1 x2 + x3^2 - x4^2", "--nvars", "4", "--sig", "2,-1",
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --sig 2,-1" in err


def test_constant_polynomial_is_not_certified(capsys):
    # A nonzero constant has an empty zero set; a degree-1 f cuts out a
    # totally geodesic hyperplane section and stays certifiable.
    code, out, err = run(capsys, "verify", "--poly", "3", "--nvars", "2", "--sig", "1,1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: conjecture check requires a polynomial of degree >= 1"]
    code, out, _ = run(capsys, "verify", "--poly", "x1", "--nvars", "2", "--sig", "1,1")
    assert code == 0
    assert json.loads(out)["divides"] is True


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "ads:1,1,0"),
    ("spectrum", "--family", "ds2:4", "--count", "3"),
], ids=lambda argv: argv[0])
def test_closed_stdout_is_usage_error(argv):
    # The read end is closed before the child starts, so its first write
    # fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(zmckit.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zmckit.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write stdout: Broken pipe"]


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(zmckit.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_importing_zmckit_and_its_cli_loads_no_numpy():
    proc = _python("import sys, zmckit, zmckit.cli; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("argv,code", [
    (("verify", "--family", "ads:2,3,1"), 0),
    (("verify", "--poly", "x1^2 + 2 x2^2 - x3^2", "--nvars", "3", "--sig", "2,-1"), 1),
    (("classify", "--family", "ads:2,3,1"), 0),
    (("classify", "--poly", "2 x1 x2 + x3^2 - x4^2", "--nvars", "4"), 0),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
def test_exact_commands_run_with_numpy_unimportable(argv, code):
    run_main = "import sys; from zmckit.cli import main; sys.exit(main(sys.argv[1:]))"
    normal = _python(run_main, *argv)
    blocked = _python("import sys; sys.modules['numpy'] = None; " + run_main, *argv)
    assert (normal.returncode, normal.stderr) == (code, "")
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (code, normal.stdout, "")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--family", "ds2:4", "--count", "2"),
    ("sample", "--family", "ds2:4", "--count", "2"),
    ("report", "--family", "ads:1,1,0", "--count", "2"),
], ids=lambda value: " ".join(value))
def test_float_commands_exit_2_with_numpy_unimportable(argv):
    run_main = "import sys; from zmckit.cli import main; sys.exit(main(sys.argv[1:]))"
    blocked = _python("import sys; sys.modules['numpy'] = None; " + run_main, *argv)
    assert (blocked.returncode, blocked.stdout) == (2, "")
    want = f"error: {argv[0]} needs numpy, which cannot be imported"
    assert blocked.stderr.splitlines() == [want]


def test_cone_quadric_actually_divides(capsys):
    # The residual of x1^2 + x2^2 - x3^2 in index 2 is exactly 32 f, so
    # verify exits 0 even though the variety misses the pseudo-sphere.
    code, out, _ = run(
        capsys,
        "verify", "--poly", "x1^2 + x2^2 - x3^2", "--nvars", "3", "--sig", "2,-1",
    )
    assert code == 0
    assert json.loads(out)["h"] == "32"


def test_sample_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "sample", "--family", "ds1:1,2", "--count", "2", "--seed", "0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,x4,x5,x6,f_residual,constraint_residual,w"
    assert len(lines) == 3


# The seed-7 `--poly` image of lawson:2,3 in perfbench's certify workload: its
# content is 4 and lc(F0) = -36450000 for its primitive part F0, and its residual
# divides, so every division step is integral (Gauss's lemma).
LAWSON_2_3_IMAGE = (
    "-1728/3125 x1^5 - 4896/3125 x1^4 x2 + 2304/3125 x1^4 x4 - 19324/15625 x1^3 x2^2 + 2304/625 "
    "x1^3 x2 x3 + 85952/15625 x1^3 x2 x4 - 108/125 x1^3 x3^2 - 4896/625 x1^3 x3 x4 - "
    "92224/15625 x1^3 x4^2 + 6260624/2109375 x1^2 x2^3 + 25024/3125 x1^2 x2^2 x3 - "
    "3522176/703125 x1^2 x2^2 x4 - 2448/625 x1^2 x2 x3^2 - 64952/3125 x1^2 x2 x3 x4 + "
    "2405024/703125 x1^2 x2 x4^2 + 1152/625 x1^2 x3^2 x4 + 25024/3125 x1^2 x3 x4^2 - "
    "1707776/2109375 x1^2 x4^3 + 30869824/10546875 x1 x2^4 - 34304/421875 x1 x2^3 x3 - "
    "142563904/10546875 x1 x2^3 x4 - 24896/3125 x1 x2^2 x3^2 - 416704/140625 x1 x2^2 x3 x4 "
    "+ 76703948/3515625 x1 x2^2 x4^2 + 44608/3125 x1 x2 x3^2 x4 + 1520896/140625 x1 x2 x3 x4^2 "
    "- 134730304/10546875 x1 x2 x4^3 - 32996/3125 x1 x3^2 x4^2 - 3721504/421875 x1 x3 x4^3 "
    "+ 25786624/10546875 x1 x4^4 - 740801792/263671875 x2^5 - 16833536/2109375 x2^4 x3 + "
    "598308608/52734375 x2^4 x4 - 2563328/421875 x2^3 x3^2 + 65296256/2109375 x2^3 x3 x4 "
    "- 1004671984/52734375 x2^3 x4^2 + 2646272/140625 x2^2 x3^2 x4 - 28036672/703125 x2^2 x3 "
    "x4^2 + 777778816/52734375 x2^2 x4^3 - 3114128/140625 x2 x3^2 x4^2 + 50682056/2109375 x2 x3 "
    "x4^3 - 277640192/52734375 x2 x4^4 + 2905472/421875 x3^2 x4^3 - 11203136/2109375 x3 x4^4 "
    "+ 185950208/263671875 x4^5"
)

# lc(f) = 3 over Q and the residual does not divide: a step is not integral.
NON_INTEGRAL_STEP = "3 x1^3 + x1^2 x2 + 2 x3^3"

# sha256 of the stdout of exact commands, which pins every h, w, Laplacian,
# remainder term count and classification they print, and of one spectrum.
EXACT_OUTPUT_SHA256 = [
    ("verify --family ads:2,3,1", 0,
     "983a7c74f5daf8dde3e9436dac5e48f43886f620615bde7c153479907f2d1eed"),
    ("verify --family ds1:1,2", 0,
     "16b5cbf008df98aefaf15a61bbffc399a7080ba0e96eafc733a180510d037944"),
    ("verify --family ds2:3", 0,
     "a7968ccf73be15c26fe52e16e0e5015a31a94d5c2139f0dead9aaab83df631c7"),
    ("verify --family clifford:2,3", 0,
     "58a36b3f00a993dff8844c51e3dda84030f1e032b088a56c622ec65e0d48b3d1"),
    ("verify --family lawson:2,3", 0,
     "b0147a26f8197b5a61cb103d063591bdec387dd64f5f1d604304577275fea122"),
    ("verify --family lawson:4,3", 0,
     "bf4aafa47dfe9c0fdab58992820f07ca5327a2480545a5e221b34a7dc96fee58"),
    # Orders past the benchmark's lawson:10,11, certified in light-cone
    # coordinates; the digests were recorded from the expanded x-form check.
    ("verify --family lawson:14,15", 0,
     "9b69c033559a274cdd0b9a60aa0546eabe01666043e5c5d2dd04562deb256f77"),
    ("verify --family lawson:20,21", 0,
     "ce6a1b64ff95e7de869f0cb1681d3ec5ceaa0405575920f27a352fcc2e3680e3"),
    ("verify --family lawson:30,31", 0,
     "ce6b5a1a8e906694a05a4991f9b441bbc19ade9a6983ec4d67a1d859baf6a805"),
    ("verify --poly x1^2*x2+x3^3-2*x4^3 --nvars 4 --sig 1,1", 1,
     "b76a97ead81a0509c5bbf7bc5d99942487ccd4d8a0f547f9da3e6f1da2b54bdf"),
    ("classify --family ads:2,1,1", 0,
     "54ec1ebf9199d9fad27fd3e758188baecdd3566491152c06be4b0bc29f73427e"),
    ("classify --family ads:6,6,4", 0,
     "500a64495da5ae4451b6dacf688b29d436bbc105b553f913bef671b8458504d4"),
    # The cone's residual divides and its form is irreducible: inconclusive.
    ('classify --poly "x1^2 + x2^2 - x3^2" --nvars 3', 1,
     "aead9f69defcd170dfbcabea34ef786e716261204c0ce70bfa0a638b548b4090"),
    # Its w has a mixed (a + b sqrt(d)) coefficient, its Laplacian is one.
    ('verify --poly "(1/2 + 3 sqrt(2)) x1^2 - x2^2 + 2/3 x3^2 - sqrt(2) x4^2"'
     " --nvars 4 --sig 1,1", 1,
     "0fa85b2b2dd1d05f78f1c47470ab76536f8aa4cab4287a99df8427d126f1179a"),
    pytest.param(
        shlex.join(["verify", "--poly", LAWSON_2_3_IMAGE, "--nvars", "4", "--sig", "2,-1"]), 0,
        "3f03072906b5bf63330ffdfe8d8a8c9e1e243289314ed1d7729bbcf6a2335a9f",
        id="verify the seed-7 certify image of lawson:2,3"),
    # NON_INTEGRAL_STEP, written out so that the scan of `--poly` texts reads it.
    ('verify --poly "3 x1^3 + x1^2 x2 + 2 x3^3" --nvars 3 --sig 1,1', 1,
     "9fa7be80431339795763a53902879920e057ecd99a195c5d31e0c5d129db864e"),
    # Float output that sums lawson's terms in `Poly.substitute`'s storage order.
    ("spectrum --family lawson:4,5 --count 100 --seed 3", 0,
     "0f40208aa0242655f0977e0f9881054717e97845b63d6a8f8a53f686cb642a8a"),
    # A definite induced metric, and one of index 1 (the `eig` path).
    ("spectrum --family ads:3,3,2 --count 20 --seed 7", 0,
     "afff2d933b172467230ad7fd24de60555e2ec532ea0a27cbfeec823afea8e1ca"),
    ("spectrum --family ds2:4 --count 20 --seed 7", 0,
     "855b04a57fba5eeade49313411a25c22db1bce986384a7439e2de48149a07740"),
    ("sample --family clifford:2,3 --count 20 --seed 7 --format csv", 0,
     "474cd8aecfc6239eccd670cfac607e6920c1ac9dc3d4b69a79661c8bd06f16b5"),
]


@pytest.mark.parametrize("command,code,digest", EXACT_OUTPUT_SHA256)
def test_exact_output_is_pinned(capsys, command, code, digest):
    got, out, _ = run(capsys, *shlex.split(command))
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_the_pinned_non_divisible_cubic_takes_a_step_that_is_not_integral():
    """f is primitive over den 1, so the division's input is its residual g
    itself and the quotient's coefficients are its steps: one with den 3
    came from a step that lc(f) = 3 does not divide."""
    f = parse_poly(NON_INTEGRAL_STEP, 3)
    assert f.den == 1 and math.gcd(*(a for a, _ in f.ints.values())) == 1
    report = conjecture_check(f, AmbientSig(1, 1, 3))
    assert not report.divides and report.quotient.den == 3


def test_a_spectrum_off_its_oracle_fails_at_the_first_point(capsys, monkeypatch):
    real = cli.spectrum_oracle

    def doubled(spec):
        oracle = real(spec)
        return dataclasses.replace(
            oracle, spectrum=lambda p: [(2 * v, m) for v, m in oracle.spectrum(p)]
        )

    monkeypatch.setattr(cli, "spectrum_oracle", doubled)
    code, out, err = run(capsys, "spectrum", "--family", "ds2:4", "--count", "3")
    doc = json.loads(out)
    first = doc["points"][0]["point"]["coords"]
    assert code == 1 and doc["passed"] is False
    assert " does not match oracle " in doc["failure"]
    assert doc["failure"].endswith(f" at {first}")
    assert err.splitlines() == [f"error: {doc['failure']}"]
    code, out, _ = run(capsys, "report", "--family", "ds2:4", "--count", "3")
    (entry,) = json.loads(out)["families"]
    assert code == 1 and entry["passed"] is False and entry["spectrum"]["passed"] is False
    assert " does not match oracle " in entry["spectrum"]["failure"]


def _raise_in_spectrum(monkeypatch, exc):
    def curvature_spectrum(p, f, sig):
        raise exc

    monkeypatch.setattr(geometry, "curvature_spectrum", curvature_spectrum)


def test_report_records_numerical_breakdown(capsys, monkeypatch):
    """A breakdown alone fails its family and exits 3, not 1."""
    _raise_in_spectrum(monkeypatch, geometry.ProjectionError("no convergence"))
    code, out, _ = run(capsys, "report", "--family", "ds2:1", "--count", "2")
    assert code == 3
    entry = json.loads(out)["families"][0]
    assert entry["spectrum"] == {"error": "no convergence"}
    assert entry["passed"] is False


def test_report_with_a_breakdown_and_a_gate_miss_exits_1(capsys, monkeypatch):
    """ds2:1 (4 variables) breaks down and ds2:4 (7) misses its oracle: the
    mathematical failure decides the exit code."""
    real_spectrum, real_oracle = geometry.curvature_spectrum, cli.spectrum_oracle

    def curvature_spectrum(p, f, sig):
        if f.nvars == 4:
            raise geometry.ProjectionError("no convergence")
        return real_spectrum(p, f, sig)

    def doubled(spec):
        oracle = real_oracle(spec)
        return dataclasses.replace(
            oracle, spectrum=lambda p: [(2 * v, m) for v, m in oracle.spectrum(p)]
        )

    monkeypatch.setattr(geometry, "curvature_spectrum", curvature_spectrum)
    monkeypatch.setattr(cli, "spectrum_oracle", doubled)
    args = ("report", "--family", "ds2:1", "--family", "ds2:4", "--count", "2")
    code, out, _ = run(capsys, *args)
    broken, missed = json.loads(out)["families"]
    assert broken["spectrum"] == {"error": "no convergence"} and broken["verify"]["divides"]
    assert missed["spectrum"]["passed"] is False
    assert " does not match oracle " in missed["spectrum"]["failure"]
    assert code == 1
    monkeypatch.setattr(cli, "spectrum_oracle", real_oracle)  # the breakdown alone
    assert run(capsys, *args)[0] == 3


def test_report_does_not_hide_program_errors(capsys, monkeypatch):
    _raise_in_spectrum(monkeypatch, KeyError("bug"))
    with pytest.raises(KeyError):
        main(["report", "--family", "ds2:1", "--count", "2"])
