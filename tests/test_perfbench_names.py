"""Every zmckit name the benchmark in `perfbench/` uses still exists.

`perfbench/tracer.py` wraps the functions in its TRACED table and
`perfbench/workloads.py` calls zmckit by module attribute; a rename or
deletion in the package would only surface when the benchmark runs.  Both
files are read here, never changed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "eigen", "families", "geometry", "isometry", "parser", "quadform", "zmc")


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
