"""Span tracer for the zmckit benchmark, installed from outside the package.

`install` replaces each traced zmckit function with a wrapper, both where it
is defined and wherever another zmckit module imported it by name (so
`zmc.divide`, `geometry.eigen.eigvals` and `QuadExtScalar.__mul__` are all
covered).  A wrapper records nothing unless the tracer is active, so the
benchmark's own input generation and output checks leave no spans.

A span is one call: name, start, end, parent span and op id, plus an optional
count (division steps, residual terms) and the exception type if the call
raised.  Scalar arithmetic and float evaluation are called millions of times;
recording each call would cost more memory than the program under test, so
these leaf calls are rolled up into their parent span as (calls, seconds)
per name.  A leaf never has traced children: scalar operations that call
other scalar operations (subtraction calls addition, division calls
multiplication) count once, as the outermost operation.

Spans stay in memory; after the pass `calibrate` converts their times to
calibrated seconds (see calibrate.py) and `write_jsonl` writes them out;
`layer_totals` derives call counts and self times (span time minus the time
covered by child spans and rolled-up leaves) from those same records.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute path, span name, leaf, counter) for every traced function.
# `counter` turns a call's return value into the span's count.
TRACED = (
    ("zmckit.scalars", "QuadExtScalar.__mul__", "scalars.mul", True, None),
    ("zmckit.scalars", "QuadExtScalar.__add__", "scalars.add", True, None),
    ("zmckit.scalars", "QuadExtScalar.__sub__", "scalars.add", True, None),
    ("zmckit.scalars", "QuadExtScalar.__rsub__", "scalars.add", True, None),
    ("zmckit.scalars", "QuadExtScalar.__truediv__", "scalars.div", True, None),
    ("zmckit.scalars", "QuadExtScalar.__rtruediv__", "scalars.div", True, None),
    ("zmckit.poly", "Poly.eval_float", "poly.eval_float", True, None),
    ("zmckit.poly", "Poly.__mul__", "poly.mul", False, None),
    ("zmckit.poly", "Poly.diff", "poly.diff", False, None),
    ("zmckit.poly", "Poly.substitute", "poly.substitute", False, None),
    ("zmckit.poly", "divide", "poly.divide", False,
     lambda qr: qr[0].num_terms() + qr[1].num_terms()),
    ("zmckit.parser", "parse_poly", "parser.parse_poly", False, None),
    ("zmckit.zmc", "w_poly", "zmc.w_poly", False, None),
    ("zmckit.zmc", "laplacian_sig", "zmc.laplacian_sig", False, None),
    ("zmckit.zmc", "zmc_residual", "zmc.zmc_residual", False, lambda g: g.num_terms()),
    ("zmckit.zmc", "conjecture_check", "zmc.conjecture_check", False, None),
    ("zmckit.isometry", "apply_to_poly", "isometry.apply_to_poly", False, None),
    ("zmckit.families", "make_poly", "families.make_poly", False, None),
    ("zmckit.families", "sample_points", "families.sample_points", False, None),
    ("zmckit.families", "spectrum_oracle", "families.spectrum_oracle", False, None),
    ("zmckit.eigen", "eigvals", "eigen.eigvals", False, None),
    ("zmckit.geometry", "newton_project", "geometry.newton_project", False, None),
    ("zmckit.geometry", "curvature_spectrum", "geometry.curvature_spectrum", False, None),
    ("zmckit.quadform", "exact_rank", "quadform.exact_rank", False, None),
    ("zmckit.quadform", "char_poly_exact", "quadform.char_poly_exact", False, None),
    ("zmckit.quadform", "classify_candidate", "quadform.classify_candidate", False, None),
    ("zmckit.cli", "main", "cli.main", False, None),
)

# Span record fields (a list per span, mutated while the span is open).
NAME, START, END, PARENT, OP, COUNT, ERROR, LEAVES = range(8)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._current = -1
        self._in_leaf = False
        self._op = -1

    # -- spans opened by the benchmark around each op ---------------------------

    def begin(self, name: str, op: int) -> None:
        self._op = op
        self._current = self._open(name)
        self.active = True

    def end(self) -> None:
        self.active = False
        self.spans[self._current][END] = perf_counter()
        self._current = -1

    def _open(self, name: str) -> int:
        self.spans.append([name, perf_counter(), 0.0, self._current, self._op, None, None, None])
        return len(self.spans) - 1

    # -- wrappers ---------------------------------------------------------------

    def _wrap_span(self, fn, name, counter):
        def traced(*args, **kwargs):
            if not self.active or self._in_leaf:
                return fn(*args, **kwargs)
            parent = self._current
            index = self._open(name)
            record = self.spans[index]
            self._current = index
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    record[COUNT] = counter(out)
                return out
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = perf_counter()
                self._current = parent

        return traced

    def _wrap_leaf(self, fn, name):
        def traced(*args, **kwargs):
            if not self.active or self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_leaf = False
                record = self.spans[self._current]
                leaves = record[LEAVES]
                if leaves is None:
                    leaves = record[LEAVES] = {}
                acc = leaves.get(name)
                if acc is None:
                    leaves[name] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED at its definition and import sites."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("zmckit")]
        for module_name, path, name, leaf, counter in TRACED:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if leaf:
                wrapper = self._wrap_leaf(original, name)
            else:
                wrapper = self._wrap_span(original, name, counter)
            # Aliases such as __rmul__ = __mul__ share the function object.
            for holder in [owner, *loaded]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    # -- output -------------------------------------------------------------------

    def calibrate(self, clock) -> None:
        """Rewrite span times in the calibrated seconds of `clock` (see
        calibrate.py).  Rolled-up leaf times scale with their parent span."""
        for rec in self.spans:
            raw = rec[END] - rec[START]
            rec[START] = clock.calibrated(rec[START])
            rec[END] = clock.calibrated(rec[END])
            if rec[LEAVES]:
                scale = (rec[END] - rec[START]) / raw if raw > 0 else 1.0
                for acc in rec[LEAVES].values():
                    acc[1] *= scale

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, rec in enumerate(self.spans):
                line = {
                    "id": index,
                    "name": rec[NAME],
                    "start": rec[START],
                    "end": rec[END],
                    "parent": rec[PARENT],
                    "op": rec[OP],
                }
                if rec[COUNT] is not None:
                    line["count"] = rec[COUNT]
                if rec[ERROR] is not None:
                    line["error"] = rec[ERROR]
                if rec[LEAVES]:
                    line["leaves"] = rec[LEAVES]
                handle.write(json.dumps(line) + "\n")


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, count (summed) and failures."""
    covered = [0.0] * len(spans)
    for rec in spans:
        parent = rec[PARENT]
        if parent >= 0:
            covered[parent] += rec[END] - rec[START]
    totals: dict[str, dict[str, float]] = {}

    def entry(name):
        out = totals.get(name)
        if out is None:
            out = totals[name] = {"calls": 0, "self_s": 0.0, "count": 0, "failures": 0}
        return out

    for index, rec in enumerate(spans):
        leaf_time = 0.0
        for leaf_name, (calls, seconds) in (rec[LEAVES] or {}).items():
            leaf = entry(leaf_name)
            leaf["calls"] += calls
            leaf["self_s"] += seconds
            leaf_time += seconds
        out = entry(rec[NAME])
        out["calls"] += 1
        out["self_s"] += rec[END] - rec[START] - covered[index] - leaf_time
        if rec[COUNT] is not None:
            out["count"] += rec[COUNT]
        if rec[ERROR] is not None:
            out["failures"] += 1
    return totals
