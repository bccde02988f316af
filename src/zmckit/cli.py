"""Batch command-line front end.

Commands:

    verify    check residual divisibility for a family member or raw polynomial
    spectrum  sample points of a family and gate curvature spectra against
              the closed-form oracle (mean curvature only, where no oracle)
    sample    emit on-variety points with residuals and w values
    classify  identify a quadric in signature (2,-1) against the ads family
    report    aggregate verify + spectrum + classification over families

Each subcommand takes only the flags it reads (see `build_parser`): a flag
given to another subcommand, such as `verify --format csv`, exits 2.

Exit codes: 0 pass, 1 mathematical failure, 2 usage/config error, 3 numerical
breakdown of the sample -> project -> spectrum pipeline.  Output is
deterministic for a fixed config and seed: floats are rendered with 17
significant digits and collections are assembled in sorted order.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import geometry
from .families import (
    FamilySpec, make_poly, parse_family, sample_points, spectrum_oracle, surface_patch
)
from .parser import ParseError, parse_poly
from .poly import Poly
from .quadform import classify_candidate
from .zmc import AmbientSig, conjecture_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Numerical breakdowns of sampling, projection and spectra (LinAlgError and
# InfeasibleSampleError are ValueErrors, patch overflow an ArithmeticError).
# Raised after the input is validated, they fail the run, not the mathematics.
NUMERICAL_BREAKDOWN = (ValueError, ArithmeticError, geometry.ProjectionError)

DEFAULT_TOL_SPECTRUM = 1e-6
DEFAULT_TOL_NEWTON = 1e-12
DEFAULT_TOL_RESIDUAL = geometry.RESIDUAL_BOUND
DEFAULT_MEAN_CURV_TOL = 1e-8


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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return json.dumps(value)


def _write_output(text: str, path: str | None) -> None:
    """Write `text` to `path`, or to stdout when no path is given; a path
    that cannot be written is a usage error (ValueError, exit 2)."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_sig(text: str, nvars: int) -> AmbientSig:
    try:
        s_txt, eps_txt = text.split(",")
        return AmbientSig(int(s_txt), int(eps_txt), nvars)
    except ValueError as exc:
        raise ValueError(f"bad --sig value {text!r}; expected s,eps") from exc


def _resolve_input(args) -> tuple[Poly, AmbientSig, str | None, tuple[int, ...] | None]:
    """Turn CLI flags into (poly, sig, family_label, params)."""
    if args.family:
        spec = parse_family(args.family)
        return make_poly(spec), spec.sig, spec.kind, spec.params
    if args.poly is None or args.nvars is None:
        raise ValueError("either --family or both --poly and --nvars are required")
    f = parse_poly(args.poly, args.nvars)
    if args.sig is None:
        raise ValueError("--sig s,eps is required with --poly")
    return f, _parse_sig(args.sig, args.nvars), None, None


def cmd_verify(args) -> int:
    f, sig, family, params = _resolve_input(args)
    report = conjecture_check(f, sig)
    doc = report.to_dict(family=family, params=params, sig=sig, degree=f.degree())
    _write_output(_render_json(doc), args.out)
    return EXIT_PASS if report.divides else EXIT_FAIL


def _sampled_families(args, labels: list[str]) -> list[FamilySpec]:
    """Parse and check the families and --count of a sampling command.

    A missing --family, a family without a sampler (lawson:k,k), a count
    below one and a negative seed are config errors (exit 2), raised before
    anything is sampled, not numerical breakdowns (3).
    """
    if not labels:
        raise ValueError(f"{args.command} requires --family")
    specs = [parse_family(label) for label in labels]
    for spec in specs:
        if spec.kind == "lawson":
            surface_patch(spec)
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    return specs


def _projected_points(f: Poly, spec: FamilySpec, seed: int, args):
    """Sampled points Newton-projected onto f = 0, within the residual bounds."""
    for coords in sample_points(spec, args.count, seed):
        point = geometry.newton_project(f, spec.sig, coords, tol=args.tol_newton)
        geometry.check_residuals(point, spec.degree, args.tol_residual)
        yield point


def _spectrum_rows(f: Poly, spec: FamilySpec, seed: int, args):
    """Per-point geometry for one family member: the oracle (None where the
    family has none) and one (point, spectrum, row dict) per sample."""
    try:
        oracle = spectrum_oracle(spec)
    except ValueError:
        oracle = None
    rows = []
    for point in _projected_points(f, spec, seed, args):
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
        if oracle is not None:
            row["expected_clusters"] = [
                {"value": v, "multiplicity": m}
                for v, m in oracle.spectrum(point.coords)
            ]
            row["expected_w"] = oracle.expected_w(point.coords)
        rows.append((point, spectrum, row))
    return oracle, rows


def _gate_spectrum_rows(oracle, rows, tol_spectrum: float) -> tuple[bool, str]:
    for point, spectrum, row in rows:
        if abs(spectrum.mean_curvature) > DEFAULT_MEAN_CURV_TOL:
            return False, (
                f"mean curvature {spectrum.mean_curvature:.3e} exceeds "
                f"{DEFAULT_MEAN_CURV_TOL} at {point.coords.tolist()}"
            )
        if oracle is None:
            continue
        expected = oracle.spectrum(point.coords)
        if not geometry.match_spectrum(spectrum, expected, rtol=tol_spectrum):
            return False, (
                f"spectrum {spectrum.cluster_pairs()} does not match oracle "
                f"{sorted(expected)} at {point.coords.tolist()}"
            )
    return True, ""


def _csv(header: list[str], rows) -> str:
    """CSV text: floats with 17 significant digits, short rows padded with
    empty cells."""
    lines = [",".join(header)]
    for row in rows:
        cells = [format(v, ".17g") if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells + [""] * (len(header) - len(cells))))
    return "\n".join(lines) + "\n"


def _spectrum_csv(rows) -> str:
    max_clusters = max((len(row["clusters"]) for _, _, row in rows), default=0)
    header = ["point", "f_residual", "constraint_residual", "w", "mean_curvature"]
    for i in range(1, max_clusters + 1):
        header += [f"cluster{i}_value", f"cluster{i}_mult"]
    table = []
    for idx, (point, spectrum, row) in enumerate(rows):
        cells = [idx, point.f_residual, point.constraint_residual, point.w_value,
                 spectrum.mean_curvature]
        for cluster in row["clusters"]:
            cells += [cluster["value"], cluster["multiplicity"]]
        table.append(cells)
    return _csv(header, table)


def _breakdown(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_spectrum(args) -> int:
    (spec,) = _sampled_families(args, [args.family] if args.family else [])
    f = make_poly(spec)
    try:
        oracle, rows = _spectrum_rows(f, spec, args.seed, args)
    except NUMERICAL_BREAKDOWN as exc:
        return _breakdown(exc)
    passed, reason = _gate_spectrum_rows(oracle, rows, args.tol_spectrum)
    doc = {
        "family": spec.kind,
        "params": list(spec.params),
        "count": args.count,
        "seed": args.seed,
        "passed": passed,
        "failure": reason or None,
        "points": [row for _, _, row in rows],
    }
    if args.format == "csv":
        _write_output(_spectrum_csv(rows), args.out)
    else:
        _write_output(_render_json(doc), args.out)
    if not passed:
        print(f"error: {reason}", file=sys.stderr)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_sample(args) -> int:
    (spec,) = _sampled_families(args, [args.family] if args.family else [])
    f = make_poly(spec)
    try:
        points = list(_projected_points(f, spec, args.seed, args))
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
    f, sig, family, params = _resolve_input(args)
    result = classify_candidate(f, sig)
    doc = {"classification": result.to_dict(), "family": family,
           "params": list(params) if params else None}
    _write_output(_render_json(doc), args.out)
    return EXIT_PASS if result.verdict == "matches" else EXIT_FAIL


def _report_one(label: str, spec: FamilySpec, index: int, args) -> dict:
    f = make_poly(spec)
    sig = spec.sig
    entry: dict = {"family": label, "params": list(spec.params)}
    report = conjecture_check(f, sig)
    entry["verify"] = report.to_dict(
        family=spec.kind, params=spec.params, sig=sig, degree=f.degree()
    )
    entry["passed"] = report.divides
    try:
        oracle, rows = _spectrum_rows(f, spec, args.seed + index, args)
        passed, reason = _gate_spectrum_rows(oracle, rows, args.tol_spectrum)
        entry["spectrum"] = {
            "count": args.count,
            "passed": passed,
            "failure": reason or None,
            "mean_curvature_max": max(
                abs(s.mean_curvature) for _, s, _ in rows
            ),
        }
        entry["passed"] = entry["passed"] and passed
    except NUMERICAL_BREAKDOWN as exc:
        # Fails this family only; other exceptions are bugs.
        entry["spectrum"] = {"error": str(exc)}
        entry["passed"] = False
    if spec.kind == "ads":
        result = classify_candidate(f, sig)
        entry["classification"] = result.to_dict()
        entry["passed"] = entry["passed"] and result.verdict == "matches"
    else:
        entry["classification"] = None
    return entry


def cmd_report(args) -> int:
    labels = sorted(set(args.family or []))
    specs = _sampled_families(args, labels)
    entries = [
        _report_one(label, spec, i, args)
        for i, (label, spec) in enumerate(zip(labels, specs))
    ]
    doc = {
        "seed": args.seed,
        "count": args.count,
        "families": entries,
        "passed": all(e["passed"] for e in entries),
    }
    _write_output(_render_json(doc), args.out)
    return EXIT_PASS if doc["passed"] else EXIT_FAIL


# Output and tolerance flags; each subcommand registers the ones it reads.
_FLAGS = {
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--tol-residual": {"type": float, "default": DEFAULT_TOL_RESIDUAL},
    "--tol-spectrum": {"type": float, "default": DEFAULT_TOL_SPECTRUM},
    "--tol-newton": {"type": float, "default": DEFAULT_TOL_NEWTON},
}


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("--out", help="output path (stdout when omitted)")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmckit",
        description="verify and explore algebraic ZMC hypersurfaces in pseudo-spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check residual divisibility")
    p_verify.add_argument("--family")
    p_verify.add_argument("--poly")
    p_verify.add_argument("--nvars", type=int)
    p_verify.add_argument("--sig")
    _add_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_spec = sub.add_parser("spectrum", help="sample points and gate spectra")
    p_spec.add_argument("--family")
    p_spec.add_argument("--count", type=int, default=50)
    p_spec.add_argument("--seed", type=int, default=0)
    _add_flags(p_spec, "--format", "--tol-residual", "--tol-spectrum", "--tol-newton")
    p_spec.set_defaults(func=cmd_spectrum)

    p_sample = sub.add_parser("sample", help="emit on-variety points")
    p_sample.add_argument("--family")
    p_sample.add_argument("--count", type=int, default=10)
    p_sample.add_argument("--seed", type=int, default=0)
    _add_flags(p_sample, "--format", "--tol-residual", "--tol-newton")
    p_sample.set_defaults(func=cmd_sample)

    p_cls = sub.add_parser("classify", help="identify an ads-family quadric")
    p_cls.add_argument("--family")
    p_cls.add_argument("--poly")
    p_cls.add_argument("--nvars", type=int)
    p_cls.add_argument("--sig", default="2,-1")
    _add_flags(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_rep = sub.add_parser("report", help="aggregate verify/spectrum/classify")
    p_rep.add_argument("--family", action="append")
    p_rep.add_argument("--count", type=int, default=20)
    p_rep.add_argument("--seed", type=int, default=0)
    _add_flags(p_rep, "--tol-residual", "--tol-spectrum", "--tol-newton")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    for name in ("tol_residual", "tol_spectrum", "tol_newton"):
        if getattr(args, name, 1.0) <= 0:
            print(f"error: --{name.replace('_', '-')} must be positive", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
