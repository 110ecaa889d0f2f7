"""In-memory span recorder for the traced benchmark run.

The tracer replaces public potdeg functions by timing wrappers at run time.
potdeg modules import each other's functions by name, so a function is
patched in every module namespace that binds it; BINDINGS lists them.  The
program's own files are not touched, and `uninstall` restores the originals.

Each call becomes one span: name, start, end, parent span and op id.  Spans
stay in memory until `dump` writes them out at the end of the run.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> (module, attribute path) bindings that all point at one function
BINDINGS = {
    "geometry.make_unit_sphere": [("geometry", "make_unit_sphere")],
    "geometry.volume_grid_from_mesh": [("geometry", "volume_grid_from_mesh")],
    # volume_grid_from_mesh imports it from potentials at call time
    "potentials.winding_solid_angle": [("potentials", "winding_solid_angle")],
    "potentials.mean_curvature": [("potentials", "mean_curvature")],
    "potentials.adjoint_kernel_matrix": [("potentials", "adjoint_kernel_matrix"),
                                         ("bie", "adjoint_kernel_matrix")],
    "potentials.double_layer_matrix": [("potentials", "double_layer_matrix"),
                                       ("bie", "double_layer_matrix"),
                                       ("solver", "double_layer_matrix")],
    "potentials.single_layer_matrix": [("potentials", "single_layer_matrix"),
                                       ("solver", "single_layer_matrix")],
    "potentials.grad_single_layer_matrix": [("potentials", "grad_single_layer_matrix"),
                                            ("solver", "grad_single_layer_matrix")],
    "potentials.grad_double_layer_matrix": [("potentials", "grad_double_layer_matrix"),
                                            ("solver", "grad_double_layer_matrix")],
    "potentials.newton_matrix": [("potentials", "newton_matrix"),
                                 ("solver", "newton_matrix")],
    "potentials.grad_newton_matrices": [("potentials", "grad_newton_matrices"),
                                        ("solver", "grad_newton_matrices")],
    "potentials.adjoint_volume_matrix": [("potentials", "adjoint_volume_matrix"),
                                         ("bie", "adjoint_volume_matrix"),
                                         ("solver", "adjoint_volume_matrix")],
    "potentials.single_layer": [("potentials", "single_layer"), ("bie", "single_layer")],
    "potentials.double_layer": [("potentials", "double_layer"), ("bie", "double_layer")],
    "bie.assemble_neumann_system": [("bie", "assemble_neumann_system"),
                                    ("solver", "assemble_neumann_system")],
    "bie.lu_factor": [("bie", "lu_factor")],
    "bie.g02_normal_derivative": [("bie", "g02_normal_derivative"),
                                  ("solver", "g02_normal_derivative")],
    "bie.solve_neumann_data": [("bie", "solve_neumann_data")],
    "bie.evaluate_representation": [("bie", "evaluate_representation")],
    "solver.source_to_field_matrices": [("solver", "Workspace.source_to_field_matrices")],
    "solver.solve_semilinear": [("solver", "solve_semilinear")],
    "solver.contraction_certificate": [("solver", "contraction_certificate")],
    "funcspace.mollify": [("funcspace", "mollify"), ("solver", "mollify")],
    "funcspace.negative_norm": [("funcspace", "negative_norm"), ("solver", "negative_norm")],
    "symbols.build_symbol_matrices": [("symbols", "build_symbol_matrices")],
    "symbols.symbolic_det_and_inverse_factor": [("symbols", "symbolic_det_and_inverse_factor")],
    "symbols.check_conditions": [("symbols", "check_conditions")],
    "hammerstein.estimate_tau": [("hammerstein", "estimate_tau"), ("degree", "estimate_tau")],
    "hammerstein.picard_solve": [("hammerstein", "picard_solve")],
    "hammerstein.multi_start_picard": [("hammerstein", "multi_start_picard"),
                                       ("degree", "multi_start_picard")],
    "degree.fit_polynomial_approximation": [("degree", "fit_polynomial_approximation")],
    "degree.brouwer_degree": [("degree", "brouwer_degree")],
    "degree.leray_schauder_degree": [("degree", "leray_schauder_degree")],
    "degree.existence_from_degree": [("degree", "existence_from_degree")],
}

# span name -> counter of the items in the span's returned array
RESULT_COUNTS = {"potentials.winding_solid_angle": "potentials.winding_solid_angle.points"}

# counter name -> bindings counted without a span (called thousands of times per op)
COUNTED = {
    "degree.field_evals": [("degree", "FiniteMap.field"),
                           ("degree", "FiniteMap.field_extended")],
}


def _owner(module, path):
    obj = importlib.import_module(f"potdeg.{module}")
    *parents, attr = path.split(".")
    for p in parents:
        obj = getattr(obj, p)
    return obj, attr


class Tracer:
    """Records spans and counts while installed; a no-op `span` otherwise."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op = "setup"
        self.installed = False
        self._stack = []
        self._saved = []

    def _begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        """Span around benchmark code; records nothing unless installed."""
        if not self.installed:
            yield
            return
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def _timed(self, name, fn):
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
            if counter:
                self.counts[counter] += len(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Patch every binding in BINDINGS and COUNTED."""
        for table, make in ((BINDINGS, self._timed), (COUNTED, self._counted)):
            for name, bindings in table.items():
                for module, path in bindings:
                    owner, attr = _owner(module, path)
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))
        self.installed = True

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.installed = False

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self) -> dict:
        """Span name -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)

    def dump(self, path, extra=None):
        """Write every span (times relative to the first) and the counts as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": t0 - origin, "end": t1 - origin,
                 "parent": p, "op": op} for n, t0, t1, p, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": rows, "counts": dict(self.counts), **(extra or {})}, f)
            f.write("\n")
