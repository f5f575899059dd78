"""Spans around the calls into each codedflow layer, recorded from outside.

``Tracer.install`` wraps every public module-level function of the layers in
``LAYERS`` and rebinds the wrapper at every name the original is bound to,
in every loaded codedflow module.  Modules keep their own names for what
they import (``infogradients.quadrature_moments``, ``scenarios.mmse_matrix``,
...), so patching only the defining module would miss most calls.

Each span records its name, start, end, and the span that was current when
it opened.  The current span lives in a ``contextvars.ContextVar``; thread
pools in the library are swapped for one that runs each task in a copy of
the submitting context, so spans opened on pool threads name the span that
submitted them (a thread-local stack would lose it).

Kernel counters (``entries``, ``bytes``) are computed from the call's
arguments, not measured.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = ("cli", "netgraph", "quadrature", "estimator", "flowmodel", "infogradients", "scenarios")

# Full sweeps over the (Q, K) exponent block per support point in
# ``quadrature_moments``: build, max, shift, exp, sum (1+1+2+2+1 = 7 passes
# of 8 bytes); the error matrix adds the normalisation (2) and the product
# with the support (1).
_MI_PASSES = 7
_MMSE_PASSES = 10

# Closed-form gradient entry points; nested ones count once in ``closed_s``.
_CLOSED_FORMS = frozenset(
    "infogradients." + name
    for name in ("closed_gradient", "grad_mi_decoding", "grad_mi_topology", "grad_mi_precoding", "grad_mi_cut")
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.counts = None


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _is_function(obj) -> bool:
    return not isinstance(obj, type) and inspect.isfunction(inspect.unwrap(obj))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("codedflow_span", default=None)

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        probes = _probes(modules["quadrature"].complex_gauss_hermite)
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or not _is_function(obj) or obj.__module__ != module.__name__:
                    continue
                qualname = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, self._wrap(qualname, obj, probes.get(qualname)))
        prefix = package.__name__ + "."
        namespaces = [m for key, m in list(sys.modules.items()) if key == package.__name__ or key.startswith(prefix)]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace, name, hit[1])
                elif obj is ThreadPoolExecutor:
                    setattr(namespace, name, _ContextPool)
        report = modules["cli"].Report
        for method in ("render_csv", "render_text"):
            setattr(report, method, self._wrap(f"cli.{method}", getattr(report, method), None))

    def _wrap(self, name, fn, probe):
        current, spans, ids = self._current, self.spans, self._ids
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            span = Span(next(ids), parent.id if parent is not None else 0, name)
            token = current.set(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                current.reset(token)
                spans.append(span)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = probe(bound.arguments, result)
            return result

        return traced

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        by_id = {s.id: s for s in spans}
        by_name: dict[str, list[Span]] = {}
        children: dict[int, list[Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
            children.setdefault(s.parent, []).append(s)

        def ancestors(s):
            names = set()
            while s.parent:
                s = by_id[s.parent]
                names.add(s.name)
            return names

        def named(name):
            return by_name.get(name, [])

        def busy(name):
            return sum(s.end - s.start for s in named(name))

        def completed(name):
            # probed spans whose call returned; a call that raised has no counts
            return [s for s in named(name) if s.counts is not None]

        def count(name, key):
            return sum(s.counts[key] for s in completed(name))

        quad = completed("estimator.quadrature_moments")
        lse = completed("flowmodel.mixture_log_density")
        quad_s, lse_s = busy("estimator.quadrature_moments"), busy("flowmodel.mixture_log_density")
        quad_entries, lse_entries = count("estimator.quadrature_moments", "entries"), count("flowmodel.mixture_log_density", "entries")

        # an information evaluation is one quadrature MI pass, one mixture
        # log-density over a sample batch, or one Gaussian log-determinant
        info_evals = [s for s in quad if s.counts["mi"]] + lse + named("infogradients.gaussian_mutual_information")
        lineage = [ancestors(s) for s in info_evals]
        fd_evals = sum("infogradients.grad_oracle" in a for a in lineage)
        refine_evals = sum("infogradients.directional_derivative" in a for a in lineage)

        closed_s = sum(
            s.end - s.start for s in spans if s.name in _CLOSED_FORMS and not (ancestors(s) & _CLOSED_FORMS)
        )
        netgraph_s = sum(
            s.end - s.start
            for s in spans
            if s.name.startswith("netgraph.") and not any(a.startswith("netgraph.") for a in ancestors(s))
        )
        ascents = completed("scenarios.precoder_ascent")
        accepted = sum(s.counts["accepted"] for s in ascents)
        candidates = (
            sum("scenarios.precoder_ascent" in ancestors(s) for s in named("estimator.mmse_matrix")) - len(ascents)
        )

        metrics = {
            "estimator.quad_calls": len(quad),
            "estimator.quad_mi_calls": sum(s.counts["mi"] for s in quad),
            "estimator.quad_mmse_calls": sum(s.counts["mmse"] for s in quad),
            "estimator.quad_s": quad_s,
            "estimator.quad_entries": quad_entries,
            "estimator.quad_bytes": count("estimator.quadrature_moments", "bytes"),
            "estimator.quad_ns_per_entry": 1e9 * quad_s / quad_entries if quad_entries else 0.0,
            "estimator.mmse_s": busy("estimator.mmse_matrix"),
            "estimator.mc_calls": len(named("estimator.mc_moments")),
            "estimator.mc_s": busy("estimator.mc_moments"),
            "quadrature.rule_s": busy("quadrature.complex_gauss_hermite"),
            "quadrature.rule_builds": count("quadrature.complex_gauss_hermite", "builds"),
            "quadrature.rule_points": count("quadrature.complex_gauss_hermite", "points"),
            "flowmodel.draw_s": busy("flowmodel.draw_inputs_and_noise"),
            "flowmodel.draw_samples": count("flowmodel.draw_inputs_and_noise", "samples"),
            "flowmodel.lse_calls": len(lse),
            "flowmodel.lse_s": lse_s,
            "flowmodel.lse_entries": lse_entries,
            "flowmodel.lse_ns_per_entry": 1e9 * lse_s / lse_entries if lse_entries else 0.0,
            "infogradients.oracle_s": busy("infogradients.grad_oracle"),
            "infogradients.fd_evals": fd_evals,
            "infogradients.refine_s": busy("infogradients.directional_derivative"),
            "infogradients.refine_evals": refine_evals,
            "infogradients.refine_share": refine_evals / len(info_evals) if info_evals else 0.0,
            "infogradients.mi_s": busy("infogradients.mutual_information"),
            "infogradients.closed_s": closed_s,
            "netgraph.build_s": netgraph_s,
            "netgraph.builds": len(named("netgraph.build_coefficient_matrices")),
            "scenarios.ascent_s": busy("scenarios.precoder_ascent"),
            "scenarios.ascent_candidates": candidates,
            "scenarios.ascent_accept_ratio": accepted / candidates if candidates else 0.0,
            "cli.parse_s": busy("cli.parse_config"),
            "cli.render_s": busy("cli.render_csv") + busy("cli.render_text"),
            "trace.spans": len(spans),
        }
        self_time = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            self_time[s.name.split(".", 1)[0]] += (s.end - s.start) - _covered(s, children.get(s.id, ()))
        for layer, value in self_time.items():
            metrics[f"{layer}.self_s"] = value
        return metrics


def _covered(span, kids) -> float:
    """Length of the part of ``span`` that its children cover (they may overlap)."""
    total, reach = 0.0, span.start
    for start, end in sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _probes(rule_fn) -> dict:
    """Counters computed from a call's arguments and result, by span name."""
    seen = {"misses": rule_fn.cache_info().misses}

    def quadrature_moments(args, result):
        nodes = result[2]
        q = nodes ** (2 * len(args["M"]))
        k = len(args["dist"].support)
        entries = q * k * k
        passes = _MMSE_PASSES if args["want_mmse"] else _MI_PASSES
        return {"mi": bool(args["want_mi"]), "mmse": bool(args["want_mmse"]), "entries": entries, "bytes": 8 * entries * passes}

    def mixture_log_density(args, result):
        return {"entries": len(result) * len(args["means"])}

    def complex_gauss_hermite(args, result):
        misses = rule_fn.cache_info().misses
        built = misses - seen["misses"]
        seen["misses"] = misses
        return {"builds": built, "points": len(result[1]) if built else 0}

    def draw_inputs_and_noise(args, result):
        return {"samples": args["count"]}

    def precoder_ascent(args, result):
        return {"accepted": len(result) - 1}

    return {
        "estimator.quadrature_moments": quadrature_moments,
        "flowmodel.mixture_log_density": mixture_log_density,
        "quadrature.complex_gauss_hermite": complex_gauss_hermite,
        "flowmodel.draw_inputs_and_noise": draw_inputs_and_noise,
        "scenarios.precoder_ascent": precoder_ascent,
    }
