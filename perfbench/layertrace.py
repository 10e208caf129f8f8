"""Per-layer tracing of the blowup package from outside it.

`Tracer.install` replaces each public entry point listed in ENTRIES with a
wrapper that counts calls, calls that raised, and self time (time inside the
call minus the time of wrapped calls made from it).  A function that other
modules import by name is replaced at every module binding, and class
attributes are replaced on the class with their kind kept (a classmethod
stays a classmethod).  The wrappers return what the wrapped call returns and
re-raise what it raises, so a traced run computes the same outputs.

Nothing under src/ is touched; `uninstall` restores every replaced binding.
"""

import fractions
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# The traced entry points of each layer, in import order of the package.
ENTRIES: Dict[str, Tuple[str, ...]] = {
    "exactla": ("hermite_normal_form", "smith_normal_form", "solve_row",
                "solve_row_int", "row_space_basis_q", "right_kernel_q",
                "rank", "det", "inverse_q", "lp_feasible"),
    "monoids": ("ToricMonoid.make", "ToricMonoid.from_generators",
                "ToricMonoid.faces", "ToricMonoid.hilbert_basis",
                "ToricMonoid.smallest_face_containing",
                "MonoidHom.image_monoid"),
    "refinements": ("star_subdivide", "smoothing", "planar_refine",
                    "MonoidRefinement.validate"),
    "complexes": ("MonoidalComplex.__init__", "MonoidalComplex.image_face",
                  "assemble_from_local", "star_subdivide_complex",
                  "natural_smooth_refinement", "extend_refinement",
                  "ComplexRefinement.compose"),
    "manifolds": ("corner_model", "generalized_blowup", "lift_bmap",
                  "local_atlas", "BMap.compose"),
    "binomial": ("normal_form", "boundary_faces", "variety_complex",
                 "resolve"),
    "fiber": ("fiber_complex", "resolve_fiber_product"),
    "chartcheck": ("verify_transitions",),
    # monoid_from_doc is where the CLI parses a monoid document; the
    # generic parse_doc is not on the CLI's path.  Likewise corner_model
    # and normal_form above are how binomial and fiber reach manifolds and
    # binomial.
    "serialization": ("parse_doc", "monoid_from_doc", "to_doc", "loads",
                      "dumps"),
    "cli": ("main",),
}

LAYERS = tuple(ENTRIES)

# Extra counters, with their units.
COUNTERS = {
    "monoids.make.repeat_share": "ratio",
    "monoids.make.distinct": "count",
    "complexes.assemble_from_local.elements": "count",
    "complexes.natural_smooth_refinement.steps": "count",
    "exactla.max_bits": "bits",
    "exactla.fraction_new.calls": "count",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name a traced run reports, with its unit."""
    units = {}
    for module, entries in ENTRIES.items():
        for entry in entries:
            units[f"{module}.{entry}.calls"] = "count"
            units[f"{module}.{entry}.self_s"] = "s"
    for module in LAYERS:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.raised"] = "count"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


def _bits(x) -> int:
    """The largest integer bit length in a nest of tuples, lists, ints and
    Fractions."""
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, fractions.Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, (tuple, list)):
        return max((_bits(y) for y in x), default=0)
    return 0


class Tracer:
    """Counters and self times of one traced run."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.raised: Counter = Counter()
        self.stack: List[float] = []  # child time of each open wrapped call
        self.make_keys = set()
        self.make_repeats = 0
        self.assembled = 0
        self.ns_depth = 0
        self.ns_steps = 0
        self.max_bits = 0
        self.fractions = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- hooks run after (or before) particular entry points --------------

    def _after_make(self, monoid) -> None:
        if monoid.key in self.make_keys:
            self.make_repeats += 1
        else:
            self.make_keys.add(monoid.key)

    def _after_assemble(self, refinement) -> None:
        self.assembled += len(refinement.source.elements)

    def _after_star(self, _) -> None:
        if self.ns_depth:
            self.ns_steps += 1

    def _after_exactla(self, result) -> None:
        self.max_bits = max(self.max_bits, _bits(result))

    def _hooks(self, module: str, entry: str):
        """(before, after) callables for an entry point, or None."""
        if module == "exactla":
            return None, self._after_exactla
        if entry == "ToricMonoid.make":
            return None, self._after_make
        if entry == "assemble_from_local":
            return None, self._after_assemble
        if entry == "star_subdivide_complex":
            return None, self._after_star
        if entry == "natural_smooth_refinement":
            return self._enter_ns, self._leave_ns
        return None, None

    def _enter_ns(self) -> None:
        self.ns_depth += 1

    def _leave_ns(self, _) -> None:
        self.ns_depth -= 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, module: str, entry: str, fn: Callable) -> Callable:
        key = f"{module}.{entry}"
        before, after = self._hooks(module, entry)
        stack = self.stack
        calls, self_s, raised = self.calls, self.self_s, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            if before is not None:
                before()
            ok = False
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t2 = perf_counter()
                child = stack.pop()
                calls[key] += 1
                self_s[key] += t2 - t1 - child
                if not ok:
                    raised[module] += 1
                # An after hook paired with a before hook runs either way.
                if after is not None and (ok or before is not None):
                    after(result if ok else None)
                # The whole wrapper, bookkeeping included, is child time of
                # the caller, so the tracer's own work is in no layer's
                # self time.
                if stack:
                    stack[-1] += perf_counter() - t0

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Count time spent inside the innermost open wrapped call, not by
        the library (the benchmark's host-speed samples), as child time, so
        it is in no layer's self time."""
        if self.stack:
            self.stack[-1] += seconds

    def _rebind(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every entry point at every binding, and count Fraction
        constructions.  The blowup modules must already be imported."""
        bindings = defaultdict(list)  # id(value) -> [(module, name)]
        for m in list(sys.modules.values()):
            namespace = getattr(m, "__dict__", None)
            if isinstance(namespace, dict):
                for name, value in list(namespace.items()):
                    if callable(value):
                        bindings[id(value)].append((m, name))
        for module, entries in ENTRIES.items():
            mod = sys.modules[f"blowup.{module}"]
            for entry in entries:
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(module, entry,
                                                   raw.__func__))
                    else:
                        new = self._wrap(module, entry, raw)
                    self._rebind(cls, attr, new)
                    continue
                orig = getattr(mod, entry)
                new = self._wrap(module, entry, orig)
                for m, name in bindings[id(orig)]:
                    self._rebind(m, name, new)
        frac = fractions.Fraction
        orig_new = frac.__new__

        def counted_new(cls, *args, **kwargs):
            self.fractions += 1
            return orig_new(cls, *args, **kwargs)

        self._rebind(frac, "__new__", staticmethod(counted_new))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- report --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric but the tracing overhead, which run.py
        measures."""
        out: Dict[str, float] = {}
        for module, entries in ENTRIES.items():
            total = 0.0
            for entry in entries:
                key = f"{module}.{entry}"
                out[f"{key}.calls"] = self.calls[key]
                out[f"{key}.self_s"] = self.self_s[key]
                total += self.self_s[key]
            out[f"{module}.self_s"] = total
            out[f"{module}.raised"] = self.raised[module]
        makes = self.calls["monoids.ToricMonoid.make"]
        out["monoids.make.repeat_share"] = (
            self.make_repeats / makes if makes else 0.0)
        out["monoids.make.distinct"] = len(self.make_keys)
        out["complexes.assemble_from_local.elements"] = self.assembled
        out["complexes.natural_smooth_refinement.steps"] = self.ns_steps
        out["exactla.max_bits"] = self.max_bits
        out["exactla.fraction_new.calls"] = self.fractions
        return out
