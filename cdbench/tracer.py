"""Spans and counts at the boundaries of the package's public functions.

``Tracer.install`` wraps each target on every name it is bound to (module
globals, re-exports, class attributes such as ``__radd__``), because
modules look functions up by the name they imported.  A wrapper records
one span per call: layer name, start, end, parent span, op id and one
observed value (term count of a product, 1 for a nonzero pairing or an
exact division, the number of witnesses in a report).  Spans stay in
memory as typed arrays until ``write``.  ``uninstall`` puts every original
back.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns


def _terms(result):
    return len(getattr(result, "terms", ()))


def _nonzero(result):
    return 1 if result else 0


def _returned(result):
    return 0 if result is None else 1


def _witnesses(report):
    return sum(len(c.witnesses) for c in report.conditions)


# (layer, module, attribute path, observer of the result)
TARGETS = (
    ("symexpr.mul", "symexpr", "ScalarExpr.__mul__", _terms),
    ("symexpr.add", "symexpr", "ScalarExpr.__add__", None),
    ("symexpr.differentiate", "symexpr", "ScalarExpr.differentiate", None),
    ("symexpr.parse", "symexpr", "parse", None),
    ("symexpr.str", "symexpr", "ScalarExpr.__str__", None),
    ("fractionfield.divide_exact", "fractionfield", "divide_exact", _returned),
    ("fractionfield.ratexpr_add", "fractionfield", "RatExpr.__add__", None),
    ("fractionfield.rat_inverse", "fractionfield", "rat_inverse", None),
    ("fractionfield.determinant", "fractionfield", "determinant", None),
    ("tensorcalc.courant_bracket", "tensorcalc", "courant_bracket", None),
    ("tensorcalc.pairing_plus", "tensorcalc", "pairing_plus", _nonzero),
    ("tensorcalc.schouten", "tensorcalc", "schouten", None),
    ("tensorcalc.lie_derivative", "tensorcalc", "lie_derivative", None),
    ("tensorcalc.contract", "tensorcalc", "contract", None),
    ("fibered.coordinate_curvature", "fibered", "coordinate_curvature", None),
    ("fibered.d_gamma", "fibered", "d_gamma", None),
    ("fibered.hor", "fibered", "Connection.hor", None),
    ("coupling.check_integrability", "coupling", "check_integrability",
     _witnesses),
    ("coupling.build_dirac", "coupling", "build_dirac", None),
    ("coupling.verify_isotropy", "coupling", "verify_isotropy", _witnesses),
    ("coupling.verify_closure", "coupling", "verify_closure", _witnesses),
    ("coupling.extract_poisson", "coupling", "extract_poisson", None),
    ("coupling.decompose_coupling", "coupling", "decompose_coupling", None),
    ("constructions.cartan_data", "constructions", "cartan_data", None),
    ("constructions.yang_mills_data", "constructions", "yang_mills_data", None),
    ("constructions.chb_data", "constructions", "chb_data", None),
    ("constructions.fat_check", "constructions", "fat_check", None),
    ("cli.run", "cli", "run", None),
    ("cli.manifest_load", "cli", "Manifest.from_document", None),
    ("cli.dumps", "cli", "dumps", None),
)
LAYERS = tuple(t[0] for t in TARGETS)
WITNESS_LAYERS = ("coupling.check_integrability", "coupling.verify_isotropy",
                  "coupling.verify_closure")
PACKAGE = "couplingdirac"


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [("symexpr.mul.peak_terms", "count"),
            ("fractionfield.divide_exact.exact_ratio", "ratio"),
            ("tensorcalc.pairing_plus.nonzero_ratio", "ratio"),
            ("coupling.verify_closure.pairings_per_call", "count"),
            ("coupling.witnesses", "count"),
            ("trace.overhead", "ratio")]
    return out


class Tracer:
    def __init__(self):
        self.layer = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self.op_id = -1  # spans are recorded only while this is >= 0
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original, installed)

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, layer_id, fn, observe):
        tracer = self
        stack = self._stack
        layer, parent, op, start, end, value = (
            self.layer, self.parent, self.op, self.start, self.end,
            self.value)

        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            idx = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0)
            value.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                value[idx] = observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.traced_layer = LAYERS[layer_id]
        return wrapper

    def install(self, extra_modules=()):
        """Wrap every target in the package's modules and classes and in
        ``extra_modules`` (input generators that import functions by
        name)."""
        owners = _owners(extra_modules)
        for layer_id, (_, module, path, observe) in enumerate(TARGETS):
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                installed = classmethod(self._wrap(layer_id, raw.__func__,
                                                   observe))
            else:
                installed = self._wrap(layer_id, raw, observe)
            for holder in owners:
                for key, val in list(vars(holder).items()):
                    if val is raw:
                        setattr(holder, key, installed)
                        self._patches.append((holder, key, raw, installed))

    def uninstall(self):
        for holder, key, raw, _ in reversed(self._patches):
            setattr(holder, key, raw)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------
    def metrics(self, excluded_ops=(), overhead=None):
        """Per-layer metrics.  Counts and ratios skip spans of the ops in
        ``excluded_ops`` (interrupted ones); self time keeps every span."""
        n = len(self.layer)
        nlayers = len(TARGETS)
        ids = {name: i for i, name in enumerate(LAYERS)}
        mul = ids["symexpr.mul"]
        closure = ids["coupling.verify_closure"]
        pairing = ids["tensorcalc.pairing_plus"]
        excluded = set(excluded_ops)
        child = [0] * n
        under_closure = bytearray(n)
        calls = [0] * nlayers
        self_ns = [0] * nlayers
        observed = [0] * nlayers
        peak_terms = closure_pairings = 0
        witness_ids = {ids[name] for name in WITNESS_LAYERS}
        witnesses = 0
        layer, parent, op, start, end, value = (
            self.layer, self.parent, self.op, self.start, self.end,
            self.value)
        for i in range(n):
            p = parent[i]
            dur = end[i] - start[i]
            if p >= 0:
                child[p] += dur
                under_closure[i] = under_closure[p]
            lid = layer[i]
            if lid == closure:
                under_closure[i] = 1
        for i in range(n):
            lid = layer[i]
            self_ns[lid] += end[i] - start[i] - child[i]
            if op[i] in excluded:
                continue
            calls[lid] += 1
            v = value[i]
            observed[lid] += v
            if lid == mul and v > peak_terms:
                peak_terms = v
            if lid in witness_ids:
                witnesses += v
            if lid == pairing and under_closure[i]:
                closure_pairings += 1
        out = {}
        for lid, name in enumerate(LAYERS):
            out[f"{name}.calls"] = calls[lid]
            out[f"{name}.self_s"] = self_ns[lid] / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        out["symexpr.mul.peak_terms"] = peak_terms
        divide = ids["fractionfield.divide_exact"]
        out["fractionfield.divide_exact.exact_ratio"] = ratio(
            observed[divide], calls[divide])
        out["tensorcalc.pairing_plus.nonzero_ratio"] = ratio(
            observed[pairing], calls[pairing])
        out["coupling.verify_closure.pairings_per_call"] = ratio(
            closure_pairings, calls[closure])
        out["coupling.witnesses"] = witnesses
        out["trace.overhead"] = overhead
        return out

    def write(self, directory):
        """Spans as one int64 column file per field plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = ("layer", "parent", "op", "start", "end", "value")
        for field in fields:
            with open(directory / f"{field}.i64", "wb") as fh:
                getattr(self, field).tofile(fh)
        (directory / "spans.json").write_text(json.dumps({
            "spans": len(self.layer), "fields": list(fields),
            "layers": list(LAYERS), "unit": "ns"}, indent=1) + "\n",
            encoding="utf-8")


def leftover_wrappers(extra_modules=()):
    """Names that still hold a tracing wrapper; empty after ``uninstall``."""
    out = []
    for holder in _owners(extra_modules):
        for key, val in vars(holder).items():
            if hasattr(getattr(val, "__func__", val), "traced_layer"):
                out.append(f"{getattr(holder, '__name__', holder)}.{key}")
    return out


def _owners(extra_modules):
    """The package's modules, the classes they define, and extra modules."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    owners = list(modules) + list(extra_modules)
    for m in modules:
        owners += [v for v in vars(m).values()
                   if isinstance(v, type) and v.__module__ == m.__name__]
    return owners
