"""Batch command-line front end.

Commands:

    verify    check residual divisibility for a family member or raw polynomial
    spectrum  sample points of a family and gate curvature spectra against
              the closed-form oracle (mean curvature only, where no oracle)
    sample    emit on-variety points with residuals and w values
    classify  identify a quadric in signature (2,-1) against the ads family
    report    aggregate verify + spectrum + classification over families

Each subcommand takes only the flags it reads (see `build_parser`): a flag
given to another subcommand, such as `verify --format csv`, exits 2.  Each
command takes one input, `--family` or (`verify`, `classify`) `--poly`; only
`report` takes `--family` more than once.  `--nvars` and `--sig` belong to
`--poly` and exit 2 beside `--family`; `classify` reads `--poly` in
signature (2,-1), the only one it classifies in, and has no `--sig`.
`build_parser` builds the argparse tree once per process, so repeated
`main` calls in one process (a library caller, the tests, the benchmark)
share it; a one-shot command still pays for one build.

The numeric gates are fixed: the residual bounds `families.RESIDUAL_BOUND`
on projected points, Newton's stopping tolerance `families.NEWTON_TOL`, the
mean-curvature gate `DEFAULT_MEAN_CURV_TOL` and the cluster match
`families.SPECTRUM_RTOL` against the closed-form oracle.

`verify` and `classify` are exact and load no numpy: `spectrum`, `sample`
and `report` import the float layer (`geometry`, with numpy) when they run,
and exit 2 with one line where numpy cannot be imported.

Input sizes are capped: `--count` at MAX_COUNT, a family's size at
`families.MAX_LAWSON_ORDER` and `families.MAX_QUADRIC_NVARS`, `--nvars` at
the latter, a `--poly` text at the parser's caps and its residual work at
MAX_POLY_WORK.

Exit codes: 0 pass, 1 mathematical failure, 2 usage/config error (a stdout
that cannot be written and an input above its cap included), 3 numerical
breakdown of sample -> project -> spectrum, in `report` only as the sole
failure.  Output is deterministic for a fixed config and seed: floats are
rendered with 17 significant digits and collections are assembled in sorted order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import os
import sys
from functools import lru_cache

from .families import (
    MAX_QUADRIC_NVARS, NEWTON_TOL, RESIDUAL_BOUND, SPECTRUM_RTOL, FamilySpec, ProjectionError,
    SurfacePatch, lawson_light_cone, make_poly, parse_family, sample_points, spectrum_oracle
)
from .parser import parse_poly
from .poly import Poly
from .quadform import classify_candidate
from .zmc import AmbientSig, ZmcReport, conjecture_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Numerical breakdowns of sampling, projection and spectra (lawson patch
# overflow is an ArithmeticError; LinAlgError and the residual and regularity
# checks raise ValueErrors).  Raised after the input is validated, they fail
# the run, not the mathematics.
NUMERICAL_BREAKDOWN = (ValueError, ArithmeticError, ProjectionError)

# The benchmark in perfbench/ reads the gates under these names.
DEFAULT_TOL_SPECTRUM = SPECTRUM_RTOL
DEFAULT_TOL_NEWTON = NEWTON_TOL
DEFAULT_TOL_RESIDUAL = RESIDUAL_BOUND
DEFAULT_MEAN_CURV_TOL = 1e-8

# Cap on --count: `sample --family clifford:2,3 --count 10000` takes 3 s.
MAX_COUNT = 10_000

# Cap on the residual work of a --poly input (see `_residual_work`), set so
# that the slowest accepted input measured takes under 20 s.
MAX_POLY_WORK = 10**7


def _render_json(value, indent: int = 0) -> str:
    """Deterministic JSON writer: floats use 17 significant digits."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_render_json(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    # numpy registers its integer and float scalar types with these ABCs.
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format(float(value), ".17g")
    return json.dumps(value)


def _write_output(text: str, path: str | None) -> None:
    """Write `text` to `path`, or to stdout when no path is given; a path
    or a stdout that cannot be written is a usage error (ValueError, exit 2)."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {path}: {exc.strerror or exc}") from exc
        return
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # Send the unwritten buffer to devnull, or the interpreter's flush at
        # exit fails again and prints "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _parse_sig(text: str, nvars: int) -> AmbientSig:
    try:
        s, eps = (int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --sig value {text!r}; expected s,eps") from exc
    return AmbientSig(s, eps, nvars)


def _one_family(args) -> list[str]:
    """The --family value of a one-input command, as a list of at most one."""
    labels = args.family or []
    if len(labels) > 1:
        raise ValueError(f"{args.command} takes one --family, got {len(labels)}")
    return labels


def _resolve_input(args) -> tuple[FamilySpec | None, Poly | None, AmbientSig]:
    """Turn CLI flags into (spec, poly, sig); spec is None for --poly."""
    labels = _one_family(args)
    sig_text = getattr(args, "sig", None)  # classify has no --sig
    if labels:
        if args.poly is not None:
            raise ValueError("give either --family or --poly, not both")
        extra = [flag for flag, value in (("--nvars", args.nvars), ("--sig", sig_text))
                 if value is not None]
        if extra:
            raise ValueError(f"{' and '.join(extra)} cannot be given with --family")
        spec = parse_family(labels[0])
        return spec, None, spec.sig
    if args.poly is None or args.nvars is None:
        raise ValueError("either --family or both --poly and --nvars are required")
    if args.nvars > MAX_QUADRIC_NVARS:
        raise ValueError(f"--nvars {args.nvars} is above the cap {MAX_QUADRIC_NVARS}")
    f = parse_poly(args.poly, args.nvars)
    if (work := _residual_work(f)) > MAX_POLY_WORK:
        raise ValueError(f"--poly needs up to {work} term operations, above the cap "
                         f"{MAX_POLY_WORK}")
    if args.command == "classify":
        return None, f, AmbientSig(2, -1, args.nvars)
    if sig_text is None:
        raise ValueError("--sig s,eps is required with --poly")
    return None, f, _parse_sig(sig_text, args.nvars)


def _residual_work(f: Poly) -> int:
    """A bound on the term operations of f's residual and its division.

    f has T terms of degree D in m variables, and S(d) monomials of degree d
    exist in m variables.  w then has at most min(T^2, S(2D-2)) terms, each
    multiplied by up to T terms of f's derivatives, and the division takes at
    most S(2D-4) steps of T terms each.
    """
    t, used = f.num_terms(), sum(1 for column in zip(*f.ints) if any(column))
    if not used:
        return 0

    def span(d: int) -> int:
        return math.comb(used + d - 1, d) if d >= 0 else 0

    return t * (min(t * t, span(2 * f.degree() - 2)) + span(2 * f.degree() - 4))


def _certify(spec: FamilySpec) -> ZmcReport:
    """conjecture_check of a family member; a lawson member is checked in
    light-cone coordinates y = L x, where it stays small, and pulled back."""
    if spec.kind != "lawson":
        return conjecture_check(make_poly(spec), spec.sig)
    F, form, rows = lawson_light_cone(*spec.params)
    return conjecture_check(F, spec.sig, form).substitute(rows)


def cmd_verify(args) -> int:
    spec, f, sig = _resolve_input(args)
    if spec is None:
        report, family, params, degree = conjecture_check(f, sig), None, None, f.degree()
    else:
        report, family, params, degree = _certify(spec), spec.kind, spec.params, spec.degree
    doc = report.to_dict(family=family, params=params, sig=sig, degree=degree)
    _write_output(_render_json(doc), args.out)
    return EXIT_PASS if report.divides else EXIT_FAIL


def _sampled_families(args, labels: list[str]) -> list[FamilySpec]:
    """Parse and check the families and --count of a sampling command.

    A missing --family, a family without a sampler (lawson:k,k), a count
    outside 1..MAX_COUNT, a negative seed and a numpy that cannot be
    imported are config errors (exit 2), raised before anything is sampled,
    not numerical breakdowns (3).
    """
    if not labels:
        raise ValueError(f"{args.command} requires --family")
    specs = [parse_family(label) for label in labels]
    for spec in specs:
        if spec.kind == "lawson":
            SurfacePatch(*spec.params)
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.count > MAX_COUNT:
        raise ValueError(f"--count must be <= {MAX_COUNT}")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    try:
        from . import geometry  # numpy loads with the float layer
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ValueError(f"{args.command} needs numpy, which cannot be imported") from exc
    return specs


def _projected_points(f: Poly, spec: FamilySpec, seed: int, count: int):
    """Sampled points Newton-projected onto f = 0, within the residual bounds."""
    from . import geometry  # the float layer, and numpy with it

    for coords in sample_points(spec, count, seed):
        point = geometry.newton_project(f, spec.sig, coords)
        geometry.check_residuals(point, spec.degree, DEFAULT_TOL_RESIDUAL)
        yield point


def _spectrum_rows(f: Poly, spec: FamilySpec, seed: int, count: int):
    """Per-point geometry of one family member, gated as it is built: one row
    dict per sample and the first gate miss in point order (None when every
    point passes).  Families without an oracle gate mean curvature only."""
    from . import geometry

    try:
        oracle = spectrum_oracle(spec)
    except ValueError:
        oracle = None
    rows, failure = [], None
    for point in _projected_points(f, spec, seed, count):
        spectrum = geometry.curvature_spectrum(point, f, spec.sig)
        row = {
            "point": point.to_dict(),
            "clusters": [
                {"value": c.value, "multiplicity": c.multiplicity, "causal": c.causal}
                for c in spectrum.clusters
            ],
            "metric_signature": list(spectrum.metric_signature),
            "mean_curvature": spectrum.mean_curvature,
            "defective": spectrum.defective_flag,
        }
        if failure is None and abs(spectrum.mean_curvature) > DEFAULT_MEAN_CURV_TOL:
            failure = (
                f"mean curvature {spectrum.mean_curvature:.3e} exceeds "
                f"{DEFAULT_MEAN_CURV_TOL} at {point.coords.tolist()}"
            )
        if oracle is not None:
            expected = oracle.spectrum(point.coords)
            row["expected_clusters"] = [
                {"value": v, "multiplicity": m} for v, m in expected
            ]
            row["expected_w"] = oracle.expected_w(point.coords)
            if failure is None and not geometry.match_spectrum(spectrum, expected):
                failure = (
                    f"spectrum {spectrum.cluster_pairs()} does not match oracle "
                    f"{sorted(expected)} at {point.coords.tolist()}"
                )
        rows.append(row)
    return rows, failure


def _csv(header: list[str], rows) -> str:
    """CSV text: floats with 17 significant digits, short rows padded with
    empty cells."""
    lines = [",".join(header)]
    for row in rows:
        cells = [format(v, ".17g") if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells + [""] * (len(header) - len(cells))))
    return "\n".join(lines) + "\n"


def _spectrum_csv(rows) -> str:
    max_clusters = max((len(row["clusters"]) for row in rows), default=0)
    header = ["point", "f_residual", "constraint_residual", "w", "mean_curvature"]
    for i in range(1, max_clusters + 1):
        header += [f"cluster{i}_value", f"cluster{i}_mult"]
    table = []
    for idx, row in enumerate(rows):
        point = row["point"]
        cells = [idx, point["f_residual"], point["constraint_residual"], point["w"],
                 row["mean_curvature"]]
        for cluster in row["clusters"]:
            cells += [cluster["value"], cluster["multiplicity"]]
        table.append(cells)
    return _csv(header, table)


def _breakdown(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_spectrum(args) -> int:
    (spec,) = _sampled_families(args, _one_family(args))
    f = make_poly(spec)
    try:
        rows, failure = _spectrum_rows(f, spec, args.seed, args.count)
    except NUMERICAL_BREAKDOWN as exc:
        return _breakdown(exc)
    doc = {
        "family": spec.kind,
        "params": list(spec.params),
        "count": args.count,
        "seed": args.seed,
        "passed": failure is None,
        "failure": failure,
        "points": rows,
    }
    _write_output(_spectrum_csv(rows) if args.format == "csv" else _render_json(doc), args.out)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def cmd_sample(args) -> int:
    (spec,) = _sampled_families(args, _one_family(args))
    f = make_poly(spec)
    try:
        points = list(_projected_points(f, spec, args.seed, args.count))
    except NUMERICAL_BREAKDOWN as exc:
        return _breakdown(exc)
    if args.format == "csv":
        header = [f"x{i}" for i in range(1, spec.nvars + 1)]
        header += ["f_residual", "constraint_residual", "w"]
        table = [
            [*p.coords, p.f_residual, p.constraint_residual, p.w_value] for p in points
        ]
        _write_output(_csv(header, table), args.out)
    else:
        _write_output(_render_json([p.to_dict() for p in points]), args.out)
    return EXIT_PASS


def cmd_classify(args) -> int:
    spec, f, sig = _resolve_input(args)
    result = classify_candidate(f if spec is None else make_poly(spec), sig)
    doc = {"classification": dataclasses.asdict(result), "family": spec.kind if spec else None,
           "params": list(spec.params) if spec else None}
    _write_output(_render_json(doc), args.out)
    return EXIT_PASS if result.verdict == "matches" else EXIT_FAIL


def _report_one(spec: FamilySpec, index: int, args) -> tuple[dict, int]:
    """One family's report entry and exit code: 1 for a failed certificate,
    spectrum gate or classification, 3 for a numerical breakdown alone."""
    f = make_poly(spec)
    report = _certify(spec)
    code = EXIT_PASS if report.divides else EXIT_FAIL
    try:
        rows, failure = _spectrum_rows(f, spec, args.seed + index, args.count)
        spectrum = {
            "count": args.count,
            "passed": failure is None,
            "failure": failure,
            "mean_curvature_max": max(abs(row["mean_curvature"]) for row in rows),
        }
        if failure is not None:
            code = EXIT_FAIL
    except NUMERICAL_BREAKDOWN as exc:
        # Fails this family only; other exceptions are bugs.
        spectrum = {"error": str(exc)}
        code = code or EXIT_NUMERIC
    result = classify_candidate(f, spec.sig) if spec.kind == "ads" else None
    if result is not None and result.verdict != "matches":
        code = EXIT_FAIL
    entry = {
        "family": spec.label,
        "params": list(spec.params),
        "verify": report.to_dict(family=spec.kind, params=spec.params, sig=spec.sig,
                                 degree=spec.degree),
        "passed": code == EXIT_PASS,
        "spectrum": spectrum,
        "classification": dataclasses.asdict(result) if result is not None else None,
    }
    return entry, code


def cmd_report(args) -> int:
    specs = _sampled_families(args, sorted(args.family or []))
    # One entry per member, in the order its first selector was parsed.
    entries, codes = zip(*(_report_one(spec, i, args)
                           for i, spec in enumerate(dict.fromkeys(specs))))
    doc = {
        "seed": args.seed,
        "count": args.count,
        "families": list(entries),
        "passed": not any(codes),
    }
    _write_output(_render_json(doc), args.out)
    # A failed check exits 1; numerical breakdowns alone exit 3.
    return EXIT_FAIL if EXIT_FAIL in codes else max(codes)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command, built once per process: `main`
    parses each call's argv with the same parser, which keeps no state
    between calls (each `parse_args` fills a new namespace)."""
    parser = argparse.ArgumentParser(
        prog="zmckit",
        description="verify and explore algebraic ZMC hypersurfaces in pseudo-spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", action="append")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.set_defaults(func=func)
        return p

    for name, func, help_text in (
        ("verify", cmd_verify, "check residual divisibility"),
        ("classify", cmd_classify, "identify an ads-family quadric in sig (2,-1)"),
    ):
        p = command(name, func, help_text)
        p.add_argument("--poly")
        p.add_argument("--nvars", type=int)
        if name == "verify":
            p.add_argument("--sig")

    for name, func, help_text, count in (
        ("spectrum", cmd_spectrum, "sample points and gate spectra", 50),
        ("sample", cmd_sample, "emit on-variety points", 10),
        ("report", cmd_report, "aggregate verify/spectrum/classify", 20),
    ):
        p = command(name, func, help_text)
        p.add_argument("--count", type=int, default=count)
        p.add_argument("--seed", type=int, default=0)
        if name != "report":
            p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
