"""Command-line interface: exit codes, output schema, determinism."""

import hashlib
import json
import shlex

import pytest

from zmckit import geometry
from zmckit.cli import main


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


def test_report_requires_families(capsys):
    assert run(capsys, "report")[0] == 2


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


def test_float_rendering_17_digits(capsys):
    code, out, _ = run(
        capsys, "sample", "--family", "ads:1,1,0", "--count", "1", "--seed", "2"
    )
    assert code == 0
    # Round-tripping the rendered floats through json must be lossless.
    doc = json.loads(out)
    coords = doc[0]["coords"]
    assert any(abs(c) > 1 for c in coords)


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


def test_residual_bound_violation_exits_3(capsys):
    code, out, err = run(
        capsys, "sample", "--family", "ds2:4", "--count", "3", "--tol-residual", "1e-300"
    )
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
    # Trial division of a 13-digit prime; a 20-digit one would take minutes.
    code, _, err = run(
        capsys, "verify", "--poly", "sqrt(1000000000039) x1^2 - x2^2 + x3^2",
        "--nvars", "3", "--sig", "1,1",
    )
    assert code == 2
    assert "exceeds the bound" in err


def test_nonpositive_tolerance_rejected(capsys):
    code = main(["spectrum", "--family", "ds2:1", "--tol-spectrum", "0"])
    assert code == 2


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


# sha256 of the stdout of exact commands, which pins every h, w, Laplacian,
# remainder term count and classification they print.
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
]


@pytest.mark.parametrize("command,code,digest", EXACT_OUTPUT_SHA256)
def test_exact_output_is_pinned(capsys, command, code, digest):
    got, out, _ = run(capsys, *shlex.split(command))
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _raise_in_spectrum(monkeypatch, exc):
    def curvature_spectrum(p, f, sig):
        raise exc

    monkeypatch.setattr(geometry, "curvature_spectrum", curvature_spectrum)


def test_report_records_numerical_breakdown(capsys, monkeypatch):
    _raise_in_spectrum(monkeypatch, geometry.ProjectionError("no convergence"))
    code, out, _ = run(capsys, "report", "--family", "ds2:1", "--count", "2")
    assert code == 1
    entry = json.loads(out)["families"][0]
    assert entry["spectrum"] == {"error": "no convergence"}
    assert entry["passed"] is False


def test_report_does_not_hide_program_errors(capsys, monkeypatch):
    _raise_in_spectrum(monkeypatch, KeyError("bug"))
    with pytest.raises(KeyError):
        main(["report", "--family", "ds2:1", "--count", "2"])
