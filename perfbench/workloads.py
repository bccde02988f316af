"""Inputs, ops and output checks of the three zmckit benchmark workloads.

Every workload is a list of steps built from the seed alone; zmckit receives
only the generated inputs.  A step's `run` is timed and may raise; its
`check` runs after the timed loop and returns a failure kind (or None), and
its `summary` is the canonical text of its result, used to show that tracing
changes no result.

  certify   exact `zmckit verify` runs through `cli.main`: sparse family
            members, many-variable quadrics, two seeded isometry images
            passed as `--poly` text and one polynomial that is not ZMC.
  classify  `isometry.apply_to_poly` then `quadform.classify_candidate` on
            ads members under seeded isometries, plus two non-members.
  spectrum  Newton projection, curvature spectrum and the gates of
            `zmckit spectrum` at 200 sampled points of eight families.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from zmckit import cli, eigen, families, geometry, isometry, parser, quadform, zmc

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_HASHES = os.path.join(HERE, "expected", "certify_sha256.json")


@dataclass
class Step:
    """One timed unit: an op, or a preparation that counts in wall_s only."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None] = lambda result: None
    summary: Callable[[object], str] = repr
    is_op: bool = True


# Workloads whose time goes mostly to float work on small numpy arrays; their
# calibration kernel adds an array part (see calibrate.py).  The exact
# workloads keep the Fraction kernel alone, which tracks them more closely.
FLOAT_WORKLOADS = ("spectrum",)


# -- failure kinds ----------------------------------------------------------------

# Numerical breakdowns the float pipeline reports for itself; any other
# exception from an op is a defect of the program or of the benchmark.
NUMERIC_ERRORS = (
    geometry.ProjectionError,
    eigen.QRConvergenceError,
    ValueError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


class ResidualBoundError(ValueError):
    """A projected point breaks the residual bounds `zmckit spectrum` enforces."""


def failure_kind(workload: str, exc: BaseException) -> str:
    """Failure kind of an exception raised by a step of `workload`."""
    if isinstance(exc, ResidualBoundError):
        return "residual_bound"
    if workload == "spectrum" and isinstance(exc, NUMERIC_ERRORS):
        return type(exc).__name__
    return f"exception:{type(exc).__name__}"


def tolerated(workload: str, kind: str) -> bool:
    """True for the failures the float pipeline reports for itself (numerical
    breakdowns and gate misses); they count against ok_ratio but not as
    wrong output, so not in the result's `failed`.  Every failure of the
    exact workloads is a wrong result."""
    return workload == "spectrum" and not kind.startswith("exception:")


# -- certify ------------------------------------------------------------------------

CERTIFY_MEMBERS = (
    "lawson:2,3", "lawson:4,3", "lawson:4,5", "lawson:6,7", "lawson:8,9",
    "lawson:10,11", "ads:20,20,10", "ds1:8,8", "ds2:20", "clifford:10,10",
)
CERTIFY_MEMBERS_SMALL = ("lawson:2,3", "lawson:4,3", "ds1:8,8", "clifford:10,10")

# Isometry words for the dense `--poly` images: (kind, axis i, axis j, a, b).
# The seed picks t among the parameters of equal height (+-a/b, and +-b/a for
# rotations), so every seed yields a different polynomial of the same size
# and coefficient height.  A free choice of axes (as random_exact_isometry
# makes) swings the cost of the lawson:4,5 image between 0.2 s and 9 s.
CERTIFY_IMAGES = (
    ("lawson:2,3", (("rotation", 1, 2, 1, 3), ("boost", 2, 4, 1, 4))),
    ("lawson:4,5", (("rotation", 1, 2, 2, 7),)),
)
NON_ZMC = ("lawson:8,9", 17)
NON_ZMC_SMALL = ("lawson:2,3", 5)


def seeded_isometry(sig, word, rng: np.random.Generator) -> isometry.ExactMatrix:
    out = isometry.identity_exact(sig.nvars)
    for kind, i, j, a, b in word:
        choices = [(a, b), (-a, b)]
        if kind == "rotation":
            choices += [(b, a), (-b, a)]
        num, den = choices[int(rng.integers(len(choices)))]
        make = isometry.rotation_exact if kind == "rotation" else isometry.boost_exact
        out = isometry.matmul_exact(out, make(sig, i, j, Fraction(num, den)))
    return out


def _sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _verify_step(label, argv, out_path, check, summary) -> Step:
    return Step(label, lambda: cli.main([*argv, "--out", out_path]), check, summary)


def certify_steps(seed: int, small: bool, workdir: str) -> list[Step]:
    with open(EXPECTED_HASHES, encoding="utf-8") as handle:
        expected = json.load(handle)
    steps = []
    for index, label in enumerate(CERTIFY_MEMBERS_SMALL if small else CERTIFY_MEMBERS):
        out_path = os.path.join(workdir, f"{index:02d}.json")

        def check(rc, label=label, out_path=out_path):
            if rc != cli.EXIT_PASS:
                return "exit_code"
            return None if _sha256_file(out_path) == expected[label] else "hash_mismatch"

        steps.append(_verify_step(
            label, ["verify", "--family", label], out_path, check,
            lambda rc, out_path=out_path: f"{rc} {_sha256_file(out_path)}",
        ))

    rng = np.random.default_rng(seed)
    polys = []
    for label, word in CERTIFY_IMAGES[:1] if small else CERTIFY_IMAGES:
        spec = families.parse_family(label)
        m = seeded_isometry(spec.sig, word, rng)
        polys.append((f"image {label}", isometry.apply_to_poly(families.make_poly(spec), m), spec.sig, True))
    label, extra = NON_ZMC_SMALL if small else NON_ZMC
    spec = families.parse_family(label)
    bump = parser.parse_poly(f"x1^{extra}", spec.nvars)
    polys.append((f"{label} + x1^{extra}", families.make_poly(spec) + bump, spec.sig, False))

    for index, (label, f, sig, divides) in enumerate(polys, start=len(steps)):
        out_path = os.path.join(workdir, f"{index:02d}.json")
        argv = ["verify", "--poly", f.render(), "--nvars", str(sig.nvars),
                "--sig", f"{sig.s},{sig.epsilon}"]

        def check(rc, f=f, sig=sig, divides=divides, out_path=out_path):
            if rc != (cli.EXIT_PASS if divides else cli.EXIT_FAIL):
                return "exit_code"
            with open(out_path, encoding="utf-8") as handle:
                doc = json.load(handle)
            if doc["divides"] is not divides:
                return "verdict"
            if divides:
                h = parser.parse_poly(doc["h"], sig.nvars)
                if h * f != zmc.zmc_residual(f, sig):
                    return "h_times_f"
            return None

        steps.append(_verify_step(
            label, argv, out_path, check,
            lambda rc, out_path=out_path: f"{rc} {_sha256_file(out_path)}",
        ))
    return steps


def record_certify_hashes(workdir: str) -> dict[str, str]:
    """sha256 of each fixed member's `verify` output, for the expected file."""
    hashes = {}
    for label in CERTIFY_MEMBERS:
        out_path = os.path.join(workdir, "member.json")
        cli.main(["verify", "--family", label, "--out", out_path])
        hashes[label] = _sha256_file(out_path)
    return hashes


# -- classify ------------------------------------------------------------------------

CLASSIFY_MAX_TOTAL = 5
CLASSIFY_ISOMETRIES = 10
NON_MEMBERS = ("2 x1 x2", "x1^2 + x3^2 + 2 x4^2")  # rank 2; residual does not divide
NON_MEMBER_ISOMETRIES = 5


def _classify_step(label, f, sig, m, expected) -> Step:
    def check(result):
        if result.verdict != expected[0]:
            return "verdict"
        return None if result.params == expected[1] else "params"

    return Step(
        label,
        lambda: quadform.classify_candidate(isometry.apply_to_poly(f, m), sig),
        check,
        lambda r: f"{r.verdict} {r.params}",
    )


def classify_steps(seed: int, small: bool) -> list[Step]:
    rng = np.random.default_rng(seed)
    max_total = 3 if small else CLASSIFY_MAX_TOTAL
    steps = []
    for total in range(2, max_total + 1):
        for m in range(1, total):
            for n in range(1, total - m + 1):
                spec = families.ads(m, n, total - m - n)
                f = families.make_poly(spec)
                for _ in range(2 if small else CLASSIFY_ISOMETRIES):
                    iso = isometry.random_exact_isometry(spec.sig, rng, steps=4)
                    steps.append(_classify_step(
                        spec.label, f, spec.sig, iso, ("matches", spec.params)
                    ))
    for nvars in range(4, max_total + 3):
        sig = zmc.AmbientSig(2, -1, nvars)
        for text in NON_MEMBERS:
            f = parser.parse_poly(text, nvars)
            for _ in range(1 if small else NON_MEMBER_ISOMETRIES):
                iso = isometry.random_exact_isometry(sig, rng, steps=4)
                steps.append(_classify_step(
                    f"{text} in {nvars} vars", f, sig, iso, ("not in family", None)
                ))
    return steps


# -- spectrum ------------------------------------------------------------------------

SPECTRUM_FAMILIES = (
    "ads:3,3,2", "ads:6,6,4", "ds1:2,3", "ds2:4",
    "clifford:2,3", "lawson:2,3", "lawson:4,5", "lawson:8,9",
)
SPECTRUM_POINTS = 200


class _Family:
    """Per-family state that the timed preparation step fills in."""

    def __init__(self, label: str, count: int, seed: int):
        self.spec = families.parse_family(label)
        self.count = count
        self.seed = seed
        self.error: BaseException | None = None

    def prepare(self):
        try:
            self.f = families.make_poly(self.spec)
            try:
                self.oracle = families.spectrum_oracle(self.spec)
            except ValueError:  # lawson members have no closed-form oracle
                self.oracle = None
            self.points = families.sample_points(self.spec, self.count, self.seed)
        except BaseException as exc:
            self.error = exc
            raise

    def project_and_measure(self, index: int):
        if self.error is not None:
            raise self.error
        sig = self.spec.sig
        point = geometry.newton_project(
            self.f, sig, self.points[index], tol=cli.DEFAULT_TOL_NEWTON
        )
        _check_residuals(point, self.spec.degree, cli.DEFAULT_TOL_RESIDUAL)
        return point, geometry.curvature_spectrum(point, self.f, sig)

    def gate(self, result) -> str | None:
        point, spectrum = result
        if abs(spectrum.mean_curvature) > cli.DEFAULT_MEAN_CURV_TOL:
            return "mean_curvature_gate"
        if self.oracle is not None and not geometry.match_spectrum(
            spectrum, self.oracle.spectrum(point.coords), rtol=cli.DEFAULT_TOL_SPECTRUM
        ):
            return "oracle_gate"
        return None


def _check_residuals(point, degree: int, tol: float) -> None:
    """The residual bounds `zmckit spectrum` applies to each projected point."""
    norm = float(np.linalg.norm(point.coords))
    if abs(point.f_residual) > tol * (1.0 + norm**degree):
        raise ResidualBoundError(f"|f| = {point.f_residual:.3e}")
    if abs(point.constraint_residual) > tol * (1.0 + norm * norm):
        raise ResidualBoundError(f"|<Bx,x> - eps| = {point.constraint_residual:.3e}")


def _spectrum_summary(result) -> str:
    point, spectrum = result
    clusters = " ".join(
        f"{c.value:.17g}x{c.multiplicity}:{c.causal}" for c in spectrum.clusters
    )
    return (
        f"{' '.join(format(c, '.17g') for c in point.coords)} | {clusters} | "
        f"{spectrum.mean_curvature:.17g} {spectrum.metric_signature} {spectrum.defective_flag}"
    )


def spectrum_steps(seed: int, small: bool) -> list[Step]:
    count = 10 if small else SPECTRUM_POINTS
    steps = []
    for label in SPECTRUM_FAMILIES:
        family = _Family(label, count, seed)
        steps.append(Step(f"prepare {label}", family.prepare, is_op=False))
        for index in range(count):
            steps.append(Step(
                f"{label} #{index}",
                lambda family=family, index=index: family.project_and_measure(index),
                family.gate,
                _spectrum_summary,
            ))
    return steps


def build(workload: str, seed: int, small: bool, workdir: str) -> list[Step]:
    if workload == "certify":
        return certify_steps(seed, small, workdir)
    if workload == "classify":
        return classify_steps(seed, small)
    if workload == "spectrum":
        return spectrum_steps(seed, small)
    raise ValueError(f"unknown workload {workload!r}")
