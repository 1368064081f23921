"""Outside-in tracer: wraps dworklab's public functions and records spans.

The library is not changed.  `install` replaces each traced function in every
dworklab module namespace that binds it (modules that did `from .laurent
import coefficient_of_power` hold their own reference), and each traced
dunder method on its class under every name that binds it (`__radd__` is the
same function as `__add__`).  `uninstall` puts the originals back.

Spans are kept in memory as parallel arrays (metric name, parent span, start,
end).  A layer's self time is its span durations minus the time its direct
child spans cover; nothing runs concurrently, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path


def _tpoly_det_degree_bound(args, kwargs, result):
    # the interpolation size: sum over rows of the largest entry degree
    return sum(max(e.degree() for e in row) for row in args[0])


def _expansion_size(args, kwargs, result):
    return len(result.coeffs)


def _laurent_terms(args, kwargs, result):
    return len(getattr(result, "terms", ()))


# (module, attribute path, metric name, work counter name, counter)
TARGETS = (
    ("laurent", "coefficient_of_power", "laurent.coefficient_of_power", "m_sum",
     lambda a, k, r: a[1]),
    ("laurent", "power_mod", "laurent.power_mod", None, None),
    ("laurent", "LaurentPoly.__mul__", "laurent.LaurentPoly.mul", "terms_out",
     _laurent_terms),
    ("zeta", "count_torus_points", "zeta.count_torus_points", "points",
     lambda a, k, r: (a[1] ** a[2] - 1) ** a[0].n),
    ("zeta", "asd_alpha", "zeta.asd_alpha", None, None),
    ("hasse_witt", "beta_matrix", "hasse_witt.beta_matrix", None, None),
    ("hasse_witt", "lambda_unit_root", "hasse_witt.lambda_unit_root", None, None),
    ("hasse_witt", "higher_hw_matrix", "hasse_witt.higher_hw_matrix", None, None),
    ("linalg", "tpoly_det", "linalg.tpoly_det", "degree_sum", _tpoly_det_degree_bound),
    ("linalg", "mat_inv_mod", "linalg.modular_solve", "rows", lambda a, k, r: len(a[0])),
    ("linalg", "solve_mod", "linalg.modular_solve", "rows", lambda a, k, r: len(a[0])),
    ("linalg", "solve_mod_multi", "linalg.modular_solve", "rows", lambda a, k, r: len(a[0])),
    ("linalg", "tmat_inv_series", "linalg.modular_solve", "rows", lambda a, k, r: len(a[0])),
    ("cartier", "expand_vertex", "cartier.expand_vertex", "coeffs_out", _expansion_size),
    ("cartier", "expand_origin", "cartier.expand_origin", "coeffs_out", _expansion_size),
    ("cartier", "interpolate_cartier", "cartier.interpolate_cartier", None, None),
    ("cartier", "cartier_via_formula", "cartier.cartier_via_formula", None, None),
    ("arith", "TPoly.__mul__", "arith.TPoly.mul", None, None),
    ("arith", "TPoly.__add__", "arith.TPoly.add", None, None),
    ("arith", "TruncatedSeries.__mul__", "arith.TruncatedSeries.mul", None, None),
    ("cy", "standard_solutions", "cy.standard_solutions", None, None),
    ("cy", "canonical_coordinate", "cy.canonical_coordinate", None, None),
    ("cy", "yukawa_and_instantons", "cy.yukawa_and_instantons", None, None),
    ("cy", "frobenius_lambda0", "cy.frobenius_lambda0", None, None),
    ("cy", "excellent_lift_check", "cy.excellent_lift_check", None, None),
    ("polytope", "newton_polytope", "polytope.newton_polytope", None, None),
    ("polytope", "lattice_points_in_dilate", "polytope.lattice_points_in_dilate", None, None),
) + tuple(
    ("harness", name, "harness.suite", None, None)
    for name in ("suite_hhw", "suite_generalized_dwork", "suite_asd", "suite_gauss",
                 "suite_dwork", "suite_super")
)

# metric name -> work counter names reported for it (besides calls and self_s)
WORK = {}
for _module, _attr, _metric, _work, _ in TARGETS:
    WORK.setdefault(_metric, [])
    if _work and _work not in WORK[_metric]:
        WORK[_metric].append(_work)
METRICS = tuple(WORK)


COUNTING = "trace.counting"


class Tracer:
    def __init__(self):
        self.names = list(METRICS) + [COUNTING]
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = {}  # (metric, counter) -> total
        self.complete = 0  # certified-complete coefficients out of expand_vertex
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, metric, work_name, counter):
        index = self.names.index(metric)
        counting = self.names.index(COUNTING)
        stack, name, parent, start, end = (
            self._stack, self.name, self.parent, self.start, self.end)
        work = self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if counter is not None:
                # counting is tracer work: a span of its own keeps it out of
                # the caller's self time
                name.append(counting)
                parent.append(stack[-1] if stack else -1)
                start.append(clock())
                key = (metric, work_name)
                work[key] = work.get(key, 0) + counter(args, kwargs, result)
                if metric == "cartier.expand_vertex":
                    self.complete += len(result.complete_indices())
                end.append(clock())
            return result

        return traced

    def reset(self):
        """Drop the spans and counts recorded so far."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.work.clear()
        self.complete = 0

    # -- patching ---------------------------------------------------------

    def install(self):
        for module, *_ in TARGETS:
            importlib.import_module(f"dworklab.{module}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dworklab" or n.startswith("dworklab.")]
        for module, attr, metric, work_name, counter in TARGETS:
            owner = sys.modules[f"dworklab.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                namespaces = [cls]
            else:
                original = getattr(owner, attr)
                namespaces = modules
            wrapper = self._wrap(original, metric, work_name, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per metric: calls, self_s and work counts over the recorded spans."""
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        child = [0.0] * len(self.name)
        for span in range(len(self.name)):
            dur = self.end[span] - self.start[span]
            calls[self.name[span]] += 1
            total[self.name[span]] += dur
            up = self.parent[span]
            if up >= 0:
                child[up] += dur
        for span in range(len(self.name)):
            total[self.name[span]] -= child[span]
        out = {}
        for i, metric in enumerate(self.names):
            if metric == COUNTING:
                out[metric] = {"calls": calls[i], "self_s": total[i]}
                continue
            out[metric] = {"calls": calls[i], "self_s": total[i]}
            for work_name in WORK[metric]:
                out[metric][work_name] = self.work.get((metric, work_name), 0)
        coeffs = out["cartier.expand_vertex"]["coeffs_out"]
        out["cartier.expand_vertex"]["complete_ratio"] = (
            self.complete / coeffs if coeffs else 0.0)
        return out

    def write(self, path: Path):
        """Spans as four native-order arrays after a one-line JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.name),
                  "byteorder": sys.byteorder,
                  "arrays": [f"{n}:{a.typecode}:{a.itemsize}" for n, a in (
                      ("name", self.name), ("parent", self.parent),
                      ("start", self.start), ("end", self.end))]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
