"""Per-layer spans recorded from outside the program.

The tracer replaces each measured function where the calling module binds it
(``sif_lab.extraction.solve_psi``, ``sif_lab.fem.splu``, ...) with a wrapper
that records a span, and puts every original back on exit.  Nothing under
``src/`` is touched.  A name listed here that the package no longer has is
reported as absent instead of failing the run.

A layer's ``.s`` is the time spent inside its outermost spans; ``.self_s``
subtracts the part covered by spans of other layers started inside them.  A
call made from inside a span of the same layer is folded into that span.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from contextlib import contextmanager
from functools import wraps


def _mesh_attrs(rec, args, kwargs, out):
    rec.peak("tris", len(out.tris))


def _assemble_attrs(rec, args, kwargs, out):
    rec.peak("nnz", out.K.nnz)


def _factor_attrs(rec, args, kwargs, out):
    A = args[0]
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(A.shape).encode())
    for arr in (A.indptr, A.indices, A.data):
        h.update(arr.tobytes())
    rec.keys.add(h.digest())
    rec.peak("ndof", A.shape[0])
    rec.peak("fill", out.L.nnz + out.U.nnz)


def _solve_attrs(rec, args, kwargs, out):
    rec.peak("residual_max", out.residual)


def _table_attrs(rec, args, kwargs, out):
    rec.keys.add((out.family, out.omega, out.C))


def _nodes_attrs(rec, args, kwargs, out):
    rec.keys.add(tuple(args) + tuple(sorted(kwargs.items())))


_SPECTRAL = ("lame_exponents", "stokes_exponents")

# layer -> (bindings "module:attr" or "module:Class.method", attribute recorder)
LAYERS = {
    "geometry.mesh": (["geometry:generate_lshape_mesh",
                       "harness:generate_lshape_mesh"], _mesh_attrs),
    "fem.space": (["fem:P2Space.__init__"], None),
    "fem.assemble": (["fem:assemble", "harness:assemble"], _assemble_attrs),
    "fem.dirichlet": (["fem:apply_dirichlet", "harness:apply_dirichlet"], None),
    "fem.factor": (["fem:splu"], _factor_attrs),
    "fem.solve": (["fem:solve", "harness:solve"], _solve_attrs),
    "fem.psi": (["fem:solve_psi", "extraction:solve_psi"], None),
    "fem.norms": (["fem:norms", "fem:diff_norms", "harness:diff_norms"], None),
    "spectral.tables": ([f"{m}:{f}" for m in ("spectral", "angular",
                                              "extraction", "harness")
                         for f in _SPECTRAL], _table_attrs),
    "angular.gamma": (["angular:gamma_lame", "angular:gamma_stokes",
                       "extraction:gamma_lame", "extraction:gamma_stokes"], None),
    "angular.gauss_nodes": (["angular:gauss_nodes", "extraction:gauss_nodes"],
                            _nodes_attrs),
    "modes.eval": ([f"modes:SingularMode.{m}" for m in (
        "eval", "eval_xy", "eval_grad", "eval_div_scaled", "eval_pressure")], None),
    "extraction.extract": ([f"{m}:extract_sifs_{f}" for m in ("extraction", "harness")
                            for f in ("penalized", "stokes")], None),
    "extraction.functionals": (["extraction:_ci_terms", "extraction:_cstar_terms"]
                               + [f"extraction:compute_{k}_{f}" for k in ("Ci", "Cstar")
                                  for f in ("penalized", "stokes")], None),
    "extraction.regular_part": (["extraction:regular_part",
                                 "harness:regular_part"], None),
    "expr.eval": (["expr:evaluate"], None),
    "harness.run": (["harness:run_manufactured", "harness:run_eps_sweep",
                     "harness:manufactured_fields"], None),
}


class LayerRecord:
    """Counts, times and sizes gathered for one layer."""

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.keys: set = set()
        self.attrs: dict = {}

    def peak(self, key, value):
        self.attrs[key] = max(self.attrs.get(key, value), value)

    def metrics(self, name: str) -> dict:
        out = {f"{name}.calls": self.calls, f"{name}.s": self.s,
               f"{name}.self_s": self.self_s}
        out.update({f"{name}.{k}": v for k, v in self.attrs.items()})
        if self.keys:
            out[f"{name}.unique_ratio"] = len(self.keys) / self.calls
        return out


class Tracer:
    """Installs the layer wrappers; records spans while installed."""

    def __init__(self):
        self.layers = {name: LayerRecord() for name in LAYERS}
        self.absent: list[str] = []
        self._stack: list[list] = []     # open spans: [layer, child seconds]
        self._patched: list[tuple] = []  # (owner, attr, original)
        self.not_restored: list[str] = []

    def _wrap(self, layer: str, fn, recorder):
        rec = self.layers[layer]
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, 0.0]
            stack.append(span)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                rec.calls += 1
                rec.s += dt
                rec.self_s += dt - span[1]
                if stack:
                    stack[-1][1] += dt
            if recorder is not None:
                recorder(rec, args, kwargs, out)
            return out
        return wrapper

    def install(self):
        for layer, (bindings, recorder) in LAYERS.items():
            for binding in bindings:
                modname, path = binding.split(":")
                *outer, attr = path.split(".")
                try:
                    owner = importlib.import_module(f"sif_lab.{modname}")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    if binding not in self.absent:
                        self.absent.append(binding)
                    continue
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, recorder))

    def restore(self) -> list[str]:
        """Put every original back; returns bindings that did not come back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
               if getattr(o, a) is not orig]
        self._patched.clear()
        return bad

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.not_restored = self.restore()

    def metrics(self) -> dict:
        out = {}
        for name, rec in self.layers.items():
            out.update(rec.metrics(name))
        return out
