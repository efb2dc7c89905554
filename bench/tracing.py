"""Per-layer spans around the library's public entry points.

Each layer is a set of public functions or methods.  ``Tracer.install``
wraps them and rebinds every name that refers to them: the defining
module, every ``adelic`` module (and any extra module) that took its own
copy through ``from .x import y``, and every class attribute that aliases
a method (``Cyclo.__rmul__ is Cyclo.__mul__``).  Patching the defining
module alone would miss those copies without any error.

A span is one wrapped call.  Its self time is its duration minus the time
covered by spans opened inside it, so nested layers are not counted twice.
Spans are folded into per-layer totals as they close; nothing per call is
kept.  ``Tracer.bind`` switches every binding site between the wrappers and
the originals, so one process can alternate traced and untraced rounds.

A probe that fails (say, because the library's representation changed
under it) does not fail the item: the tracer keeps the first error in
``Tracer.error`` and the traced run reports it as a tracer fault.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# layer -> the public callables that make it up, as (module, qualified name)
LAYERS = {
    "integrate": [
        ("adelic.integrate", "integrate_qp"),
        ("adelic.integrate", "stabilized_ball_sum"),
    ],
    "cyclotomic.canonical": [("adelic.cyclotomic", "Cyclo.canonical")],
    "cyclotomic.mul": [("adelic.cyclotomic", "Cyclo.__mul__")],
    "cyclotomic.add": [("adelic.cyclotomic", "Cyclo.__add__")],
    "bruhat.construct": [("adelic.bruhat", "PAdicTestFunction.__init__")],
    "bruhat.fourier": [("adelic.bruhat", "PAdicTestFunction.fourier")],
    "mellin.zeta": [("adelic.mellin", "zeta_mp")],
    "mellin.gamma": [("adelic.mellin", "gamma_mp")],
    "mellin.local": [
        ("adelic.mellin", "mellin_local"),
        ("adelic.mellin", "LocalMellinFactor.evaluate_mp"),
    ],
    "mellin.real": [("adelic.mellin", "mellin_real_mp")],
    "quadrature": [
        ("adelic.quadrature", "quad_vec"),
        ("adelic.quadrature", "quad_scalar"),
    ],
    "gauss.closed_form": [
        ("adelic.gauss", "gauss_integral_p_exact"),
        ("adelic.gauss", "gauss_integral_inf"),
    ],
    "distributions.pair": [("adelic.distributions", "pair")],
    "oscillator.eigen": [("adelic.oscillator", "eigen_check")],
}


def _stored_terms(c) -> int:
    """Number of terms a Cyclo stores (its representation size, before
    canonicalization).  Cyclo has no public accessor for it: this is the
    one place the tracer reads its representation, and it raises when that
    representation changes."""
    return len(c._terms)


def _integrate_probe(tracer, args, kwargs, result):
    tracer.counts["integrate.result_terms"] += _stored_terms(result.value)
    tracer.counts["integrate.unstabilized"] += not result.stabilized


def _canonical_probe(tracer, args, kwargs, result):
    tracer.counts["cyclotomic.canonical.terms_in"] += _stored_terms(args[0])


def _argument_probe(layer):
    """Record each distinct (alpha, precision) a zeta/gamma call sees."""

    def probe(tracer, args, kwargs, result):
        ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
        tracer.arguments[layer].add((complex(args[0]), getattr(ctx, "dps", None)))

    return probe


def _nodes_probe(fn):
    sig = inspect.signature(fn)

    def probe(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["quadrature.nodes"] += bound.arguments["panels"] * bound.arguments["order"]

    return probe


def _probe_for(layer, fn):
    if layer == "integrate":
        return _integrate_probe
    if layer == "cyclotomic.canonical":
        return _canonical_probe
    if layer in ("mellin.zeta", "mellin.gamma"):
        return _argument_probe(layer)
    if layer == "quadrature":
        return _nodes_probe(fn)
    return None


class Tracer:
    """Span bookkeeping: calls and self time per layer, plus layer counters."""

    def __init__(self):
        self.open_child_time: list[float] = []  # one entry per open span
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.arguments: defaultdict = defaultdict(set)
        self.function_calls: Counter = Counter()  # by "module.qualname"
        self.bindings: Counter = Counter()  # rebound names per function
        self.sites: list[tuple] = []  # (owner, name, original, wrapper)
        self.error: str | None = None  # the first probe failure

    def _wrap(self, layer: str, key: str, fn):
        probe = _probe_for(layer, fn)
        stack = self.open_child_time
        calls, self_s, function_calls = self.calls, self.self_s, self.function_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self_s[layer] += duration - children
                calls[layer] += 1
                function_calls[key] += 1
            if probe is not None:
                try:
                    probe(self, args, kwargs, result)
                except Exception as exc:
                    if self.error is None:
                        self.error = f"{layer} probe on {key}: {exc!r}"
            return result

        return span

    def install(self, extra_modules=()):
        """Wrap every layer callable and rebind every name that refers to it
        (tracing on); ``bind(False)`` restores the originals."""
        wrappers = {}  # id(original) -> (original, wrapper, key)
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = vars(owner)[attr]
                key = f"{module_name}.{qualname}"
                wrappers[id(fn)] = (fn, self._wrap(layer, key, fn), key)

        def originals(owner):
            for name, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    yield name, hit

        owners = _namespaces(extra_modules)
        for owner in owners:
            for name, (original, wrapper, key) in originals(owner):
                setattr(owner, name, wrapper)
                self.sites.append((owner, name, original, wrapper))
                self.bindings[key] += 1
        missing = [key for _, _, key in wrappers.values() if not self.bindings[key]]
        leftover = [f"{getattr(o, '__qualname__', o.__name__)}.{name}"
                    for o in owners for name, _ in originals(o)]
        if missing or leftover:
            raise RuntimeError(f"tracing incomplete: not found {missing}, unwrapped {leftover}")

    def bind(self, traced: bool):
        """Point every binding site at the wrappers (True) or the originals."""
        for owner, name, original, wrapper in self.sites:
            setattr(owner, name, wrapper if traced else original)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json's per_layer."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in ("integrate.result_terms", "integrate.unstabilized",
                     "cyclotomic.canonical.terms_in", "quadrature.nodes"):
            out[name] = self.counts[name]
        for layer in ("mellin.zeta", "mellin.gamma"):
            calls = self.calls[layer]
            out[f"{layer}.distinct_ratio"] = len(self.arguments[layer]) / calls if calls else 0.0
        return out


def _namespaces(extra_modules) -> list:
    """Every loaded adelic module and the extra modules, each followed by
    the classes it defines: the places a layer callable can be bound."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "adelic" or n.startswith("adelic.")] + list(extra_modules)
    out = []
    for module in modules:
        out.append(module)
        out.extend(v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__)
    return out
