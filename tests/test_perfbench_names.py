"""Every zmckit name the benchmark in `perfbench/` uses still exists, and
the benchmark's copy of the residual bounds still agrees with the package.

`perfbench/tracer.py` wraps the functions in its TRACED table and
`perfbench/workloads.py` calls zmckit by module attribute; a rename or
deletion in the package would only surface when the benchmark runs.  Both
files are read here, never changed.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np

from zmckit.geometry import VarietyPoint, check_residuals

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "eigen", "families", "geometry", "isometry", "parser", "quadform", "zmc")


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    tracer = _load("tracer")
    assert tracer.TRACED
    for module, path, *_ in tracer.TRACED:
        assert callable(_resolve(module, path)), f"{module}.{path}"


def test_workload_attributes_and_keywords_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    seen = 0
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
        ):
            _resolve(f"zmckit.{node.value.id}", node.attr)
            seen += 1
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func
            if isinstance(target.value, ast.Name) and target.value.id in MODULES:
                params = inspect.signature(
                    _resolve(f"zmckit.{target.value.id}", target.attr)
                ).parameters
                for keyword in node.keywords:
                    assert keyword.arg in params, f"{target.value.id}.{target.attr}({keyword.arg}=)"
    assert seen > 0


def _accepts(check, point, degree, tol) -> bool:
    try:
        check(point, degree, tol)
    except ValueError:
        return False
    return True


def test_workload_residual_bounds_match_the_package():
    """`workloads._check_residuals` repeats `geometry.check_residuals`; both
    must reject exactly the same points, probed on and just past each bound."""
    bench_check = _load("workloads")._check_residuals
    outcomes = set()
    for coords in ([0.0, 0.0, 0.0], [0.6, -0.8, 0.0], [3.0, 1.5, -2.0, 0.25]):
        x = np.array(coords)
        norm = float(np.linalg.norm(x))
        for degree in (0, 2, 5, 9):
            for tol in (1e-12, 1e-8, 1e-3):
                f_bound = tol * (1.0 + norm**degree)
                c_bound = tol * (1.0 + norm * norm)
                for edge in (f_bound, c_bound):
                    for value in (edge, math.nextafter(edge, math.inf)):
                        for sign in (1.0, -1.0):
                            for f_res, c_res in ((sign * value, 0.0), (0.0, sign * value)):
                                p = VarietyPoint(x, f_res, c_res, 1.0, np.ones_like(x))
                                ok = _accepts(check_residuals, p, degree, tol)
                                assert ok == _accepts(bench_check, p, degree, tol), (
                                    coords, degree, tol, f_res, c_res
                                )
                                outcomes.add(ok)
    assert outcomes == {True, False}
