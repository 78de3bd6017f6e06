"""Per-layer tracing from outside the library.

`Tracer.install()` wraps the public functions of each torusbv module and
replaces every binding of them: the defining module, each module that
imported the name, and class attributes (including aliases such as
`LaurentPoly.__rmul__`).  A wrapper records a span only while
`Tracer.active` is true, so reference checks between operations stay out
of the figures.  A layer's self time is its span's duration minus the
spans of the wrapped calls it made; the cost of the wrapper and its
counters is charged to neither.  Spans are aggregated in memory.

A target that no longer exists is listed in `Tracer.missing` and its
metrics read zero; nothing crashes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


def _bracket_out(tracer, frame, args, kwargs, result, parent):
    tracer.counts["bracket.out_terms"] += len(result.terms)
    tracer.counts["bracket.inner_terms"] += frame[2]


def _bracket_child(tracer, frame, args, kwargs, result, parent):
    if parent is not None and parent[0] == "bvalgebra.gerstenhaber_bracket":
        parent[2] += len(result.terms)


def _wedge(tracer, frame, args, kwargs, result, parent):
    a, b = args[0], args[1]
    masks_b = [_mask(w) for (_, w) in b.terms]
    zero = 0
    for (_, w) in a.terms:
        ma = _mask(w)
        zero += sum(1 for mb in masks_b if ma & mb)
    tracer.counts["bvalgebra.wedge.term_pairs"] += len(a.terms) * len(masks_b)
    tracer.counts["wedge.zero_pairs"] += zero
    _bracket_child(tracer, frame, args, kwargs, result, parent)


def _mask(wedge):
    out = 0
    for i in wedge:
        out |= 1 << i
    return out


def _store_init(tracer, frame, args, kwargs, result, parent):
    terms = args[2] if len(args) > 2 else kwargs.get("terms")
    tracer.counts["store.in_terms"] += len(terms) if terms else 0
    tracer.counts["store.kept_terms"] += len(args[0].terms)


def _store_raw(tracer, frame, args, kwargs, result, parent):
    tracer.counts["store.in_terms"] += len(args[2])
    tracer.counts["store.kept_terms"] += len(result.terms)


def _parse_chars(tracer, frame, args, kwargs, result, parent):
    tracer.counts["parsing.parse_polyvector.chars"] += len(args[0])


def _format_chars(tracer, frame, args, kwargs, result, parent):
    tracer.counts["parsing.format_polyvector.chars"] += len(result)


def _cli_out(tracer, frame, args, kwargs, result, parent):
    # the caller captures stdout in a StringIO; count what main wrote to it
    getvalue = getattr(sys.stdout, "getvalue", None)
    if getvalue is not None:
        tracer.counts["cli.main.out_bytes"] += len(getvalue().encode())


# (module, attribute path, layer, calls counter, hook)
TARGETS = (
    ("torusbv.bvalgebra", "gerstenhaber_bracket", "bvalgebra.gerstenhaber_bracket",
     "bvalgebra.gerstenhaber_bracket.calls", _bracket_out),
    ("torusbv.bvalgebra", "wedge", "bvalgebra.wedge", "bvalgebra.wedge.calls", _wedge),
    ("torusbv.bvalgebra", "bv_delta", "bvalgebra.bv_delta", "bvalgebra.bv_delta.calls",
     _bracket_child),
    ("torusbv.bvalgebra", "bv_delta_divergence", "bvalgebra.bv_delta_divergence",
     "bvalgebra.bv_delta_divergence.calls", None),
    ("torusbv.bvalgebra", "PolyVector.__init__", "bvalgebra.store",
     "bvalgebra.store.init_calls", _store_init),
    ("torusbv.bvalgebra", "PolyVector._raw", "bvalgebra.store",
     "bvalgebra.store.raw_calls", _store_raw),
    ("torusbv.cocycle", "module_action", "cocycle.module_action",
     "cocycle.module_action.calls", None),
    ("torusbv.cocycle", "ce_differential_check", "cocycle.ce_differential_check",
     "cocycle.ce_differential_check.calls", None),
    *(("torusbv.laurent", f"LaurentPoly.{name}", "laurent", "laurent.calls", None)
      for name in ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "scale",
                   "invert_monomial")),
    *(("torusbv.densityrep", name, f"densityrep.{name}", f"densityrep.{name}.calls", None)
      for name in ("rho_apply", "extract_finite_sl2_submodule", "check_irreducible")),
    ("torusbv.floermodel", "solve_forced_action", "floermodel.solve_forced_action",
     "floermodel.solve_forced_action.calls", None),
    ("torusbv.liealg", "verify_lie_embedding", "liealg.verify_lie_embedding",
     "liealg.verify_lie_embedding.calls", None),
    ("torusbv.liealg", "restrict_from_projective", "liealg.restrict_from_projective",
     "liealg.restrict_from_projective.calls", None),
    ("torusbv.liealg", "GlMatrixElement.commutator", "liealg.commutator",
     "liealg.commutator.calls", None),
    ("torusbv.parsing", "parse_polyvector", "parsing.parse_polyvector",
     "parsing.parse_polyvector.calls", _parse_chars),
    ("torusbv.parsing", "format_polyvector", "parsing.format_polyvector",
     "parsing.format_polyvector.calls", _format_chars),
    ("torusbv.cli", "main", "cli.main", "cli.main.calls", _cli_out),
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TARGETS))
CALL_COUNTERS = tuple(dict.fromkeys(t[3] for t in TARGETS))
EXTRA_COUNTERS = (
    "bvalgebra.wedge.term_pairs",
    "parsing.parse_polyvector.chars",
    "parsing.format_polyvector.chars",
    "cli.main.out_bytes",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self._stack = []  # frames: [layer, seconds in wrapped children, bracket inner terms]
        self._patches = []  # (owner, attribute, original value)

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- patching ---------------------------------------------------------

    def install(self):
        self.missing = []
        for module_name, path, layer, calls_key, hook in TARGETS:
            original = _resolve(module_name, path)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patch_everywhere(original, self._wrap(original, layer, calls_key, hook))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def _patch_everywhere(self, original, wrapper):
        seen_classes = set()
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "torusbv" and not mod_name.startswith("torusbv."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                elif isinstance(value, type) and value not in seen_classes:
                    seen_classes.add(value)
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._set(value, cattr, wrapper)
                        elif isinstance(cvalue, classmethod) and cvalue.__func__ is original:
                            self._set(value, cattr, classmethod(wrapper))

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, layer, calls_key, hook):
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_enter = perf()
            frame = [layer, 0.0, 0]
            stack.append(frame)
            try:
                t0 = perf()
                result = fn(*args, **kwargs)
                t1 = perf()
            finally:
                stack.pop()
            tracer.self_s[layer] += (t1 - t0) - frame[1]
            tracer.calls[calls_key] += 1
            parent = stack[-1] if stack else None
            if hook is not None:
                hook(tracer, frame, args, kwargs, result, parent)
            if parent is not None:
                parent[1] += perf() - t_enter
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Counts, self times and ratios of the spans recorded since reset."""
        out = {key: self.calls[key] for key in CALL_COUNTERS}
        out.update((key, self.counts[key]) for key in EXTRA_COUNTERS)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        c = self.counts
        out["bvalgebra.gerstenhaber_bracket.inner_terms_per_out_term"] = _ratio(
            c["bracket.inner_terms"], c["bracket.out_terms"])
        out["bvalgebra.wedge.zero_pair_frac"] = _ratio(
            c["wedge.zero_pairs"], c["bvalgebra.wedge.term_pairs"])
        out["bvalgebra.store.zero_dropped_frac"] = _ratio(
            c["store.in_terms"] - c["store.kept_terms"], c["store.in_terms"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _resolve(module_name, path):
    """The function behind `module.path` (unwrapping a classmethod), or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, name = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if isinstance(value, classmethod):
        value = value.__func__
    return value if callable(value) else None
