"""Per-layer spans recorded from outside the library.

Every public function of a layer module, and the public and arithmetic
methods of the classes it defines, are replaced by wrappers in every
``minrep`` namespace that binds them.  The library resolves names such as
``specfun.itilde_complex`` or ``kernel.b_eval`` at call time, so its
internal calls go through the wrappers as well.

A span is opened only where control crosses into a layer from another
layer (or from the benchmark); calls that stay inside the current layer
are counted but not timed, which keeps the overhead bounded.  Spans are
kept in memory as (name, start, end, parent) and written out at the end;
a layer's self time is its span time minus the time of its child spans,
which always belong to other layers.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("algebra", "bessel", "specfun", "diffop", "kernel", "radial", "cli")

# dunders that carry the arithmetic of the exact-algebra classes
_DUNDERS = frozenset(
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ "
    "__rtruediv__ __neg__ __pow__ __call__".split()
)

# calls whose arguments or results feed the layer-specific counters
_COUNTED = {
    "bessel.itilde_complex": "complex",
    "bessel.ktilde_complex": "complex",
    "specfun.lambda_table": "table",
    "radial.lambda_basis_table": "basis",
    "radial.expand": "expand",
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_layer = array("i")
        self.calls = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_name = array("i")
        self.failed = array("b")
        self.outermost = array("b")
        self.layer_depth = [0] * len(LAYERS)
        self.stack: list = []
        self.enabled = False
        self.extra = {"complex_points": 0, "table_values": 0, "basis_in_expand": 0,
                      "quad_points": 0, "polys_built": 0}
        self.expand_depth = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the imported minrep package; idempotent per process."""
        wrapped: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"minrep.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, (enum.Enum, BaseException))
                ):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "minrep" and not modname.startswith("minrep."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        self._count_polynomials()
        self.enabled = True

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, qual)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, qual)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, qual))

    def _count_polynomials(self) -> None:
        # the ring operations build results through Polynomial.__new__ and
        # skip __init__, so constructions are counted at __new__
        from minrep.algebra import Polynomial

        extra = self.extra

        def counting_new(cls, *args, **kwargs):
            extra["polys_built"] += 1
            return object.__new__(cls)

        Polynomial.__new__ = staticmethod(counting_new)

    def _wrap(self, fn, layer: str, qual: str):
        lid = LAYERS.index(layer)
        nid = len(self.names)
        self.names.append(qual)
        self.name_layer.append(lid)
        self.calls.append(0)
        counted = _COUNTED.get(qual)
        tracer = self
        calls = self.calls
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if counted is not None:
                tracer._count(counted, args, kwargs)
            if stack and stack[-1][0] == lid:
                if counted == "expand":
                    return tracer._in_expand(fn, args, kwargs)
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.start.append(clock())
            tracer.end.append(0.0)
            tracer.parent.append(stack[-1][1] if stack else -1)
            tracer.span_name.append(nid)
            tracer.failed.append(0)
            depth = tracer.layer_depth
            tracer.outermost.append(1 if depth[lid] == 0 else 0)
            depth[lid] += 1
            stack.append((lid, idx))
            try:
                if counted == "expand":
                    return tracer._in_expand(fn, args, kwargs)
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = 1
                raise
            finally:
                tracer.end[idx] = clock()
                stack.pop()
                depth[lid] -= 1

        return wrapper

    def _in_expand(self, fn, args, kwargs):
        self.expand_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self.expand_depth -= 1

    def _count(self, what: str, args, kwargs) -> None:
        extra = self.extra
        if what == "complex":
            z = args[1] if len(args) > 1 else kwargs.get("z")
            extra["complex_points"] += int(np.size(z))
        elif what == "table":
            jmax = args[2] if len(args) > 2 else kwargs["jmax"]
            xs = args[3] if len(args) > 3 else kwargs["xs"]
            extra["table_values"] += (int(jmax) + 1) * int(np.size(xs))
        elif what == "basis" and self.expand_depth > 0:
            xs = args[2] if len(args) > 2 else kwargs["xs"]
            extra["basis_in_expand"] += 1
            extra["quad_points"] += int(np.size(xs))

    # -- results ----------------------------------------------------------------

    def stop(self) -> None:
        self.enabled = False

    def _calls_of(self, qual: str) -> int:
        return self.calls[self.names.index(qual)] if qual in self.names else 0

    def metrics(self, interval=None) -> dict:
        """Per-layer numbers for the spans recorded so far.

        interval(start, end) gives a span's length and the factor its times
        are divided by (common.SpeedSampler.interval); by default
        (end - start, 1).  Self time is taken from the lengths and then
        divided by the span's own factor, so it is never negative.
        """
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        span_name = np.frombuffer(self.span_name, dtype=np.int32)
        failed = np.frombuffer(self.failed, dtype=np.int8)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        dur, factor = end - start, np.ones(len(start))
        if interval is not None and len(start):
            dur, factor = (np.array(v) for v in zip(
                *(interval(s, e) for s, e in zip(start.tolist(), end.tolist()))))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = (dur - child) / factor
        dur = dur / factor
        layer = np.frombuffer(self.name_layer, dtype=np.int32)[span_name] if len(dur) else np.zeros(0, int)
        out: dict = {}
        for lid, name in enumerate(LAYERS):
            sel = layer == lid
            out[f"{name}.calls"] = int(np.count_nonzero(sel))
            out[f"{name}.total_s"] = float(np.sum(dur[sel & outer]))
            out[f"{name}.self_s"] = float(np.sum(self_t[sel]))
            out[f"{name}.failures"] = int(np.count_nonzero(failed[sel]))
        ex = self.extra
        out["algebra.polys_built"] = ex["polys_built"]
        bessel_calls = self._calls_of("bessel.itilde_complex") + self._calls_of("bessel.ktilde_complex")
        out["bessel.complex_points"] = ex["complex_points"]
        out["bessel.points_per_call"] = ex["complex_points"] / bessel_calls if bessel_calls else 0.0
        values = self._calls_of("specfun.mano_genfun") + self._calls_of("specfun.lambda_eval")
        passes = self._calls_of("specfun.genfun_coeff")
        out["specfun.cauchy_passes_per_value"] = passes / values if values else 0.0
        out["specfun.table_values"] = ex["table_values"]
        expands = self._calls_of("radial.expand")
        out["radial.table_passes_per_expand"] = ex["basis_in_expand"] / expands if expands else 0.0
        out["radial.quad_points"] = ex["quad_points"]
        kvalues = self._calls_of("kernel.phi_eval_detailed")
        out["kernel.b_evals_per_value"] = self._calls_of("kernel.b_eval") / kvalues if kvalues else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans as name table plus (name, start, end, parent, failed) arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )
