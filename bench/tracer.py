"""Per-layer tracing by wrapping the library's public functions.

Each traced function is replaced by a wrapper that records a span: its call
count, and its self time (span time minus the time of traced child spans),
on the process CPU clock the harness times operations with.
A function is wrapped at its definition and at every ``from ... import``
binding of it inside ``ellpar`` (for example ``modspace.intersect_curve`` and
``autgroup.embed``); ``unwrapped_references`` finds any binding still left.
Aggregates stay in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# span name -> (module, attribute path); span names start with the layer
TRACED = {
    "jaclattice.canon": ("jaclattice", "canon"),
    "jaclattice.add": ("jaclattice", "add"),
    "jaclattice.neg": ("jaclattice", "neg"),
    "jaclattice.mul": ("jaclattice", "mul"),
    "jaclattice.equal": ("jaclattice", "equal"),
    "jaclattice.canonical_sort": ("jaclattice", "canonical_sort"),
    "jaclattice.from_holonomy": ("jaclattice", "from_holonomy"),
    "weierstrass.wp": ("weierstrass", "wp"),
    "weierstrass.embed": ("weierstrass", "embed"),
    "weierstrass.curve_invariants": ("weierstrass", "curve_invariants"),
    "weierstrass.intersect_curve": ("weierstrass", "intersect_curve"),
    "weierstrass.tangent_line": ("weierstrass", "tangent_line"),
    "weierstrass.line_through": ("weierstrass", "line_through"),
    "weierstrass.plane.point_of": ("weierstrass", "PlanePoint.of"),
    "weierstrass.plane.line_of": ("weierstrass", "PlaneLine.of"),
    "weierstrass.plane.point_close_to": ("weierstrass", "PlanePoint.close_to"),
    "weierstrass.plane.line_close_to": ("weierstrass", "PlaneLine.close_to"),
    "weierstrass.plane.contains": ("weierstrass", "PlaneLine.contains"),
    "weierstrass.plane.line_through_points": ("weierstrass", "line_through_points"),
    "weierstrass.plane.lines_meet": ("weierstrass", "lines_meet"),
    "bundles.classify_triple": ("bundles", "classify_triple"),
    "bundles.graded": ("bundles", "graded"),
    "bundles.tu_line": ("bundles", "tu_line"),
    "bundles.subbundle_config": ("bundles", "subbundle_config"),
    "bundles.make_t21": ("bundles", "make_t21"),
    "bundles.make_t22": ("bundles", "make_t22"),
    "bundles.make_t3x": ("bundles", "make_t3x"),
    "parabolic.stability": ("parabolic", "stability"),
    "parabolic.locus": ("parabolic", "locus"),
    "parabolic.normalize_flag": ("parabolic", "normalize_flag"),
    "parabolic.apply_gauge": ("parabolic", "apply_gauge"),
    "parabolic.make_weights": ("parabolic", "make_weights"),
    "parabolic.flip": ("parabolic", "flip"),
    "modspace.psi_plus": ("modspace", "psi_plus"),
    "modspace.sigma_cover_count": ("modspace", "sigma_cover_count"),
    "modspace.parametrization_rank": ("modspace", "parametrization_rank"),
    "modspace.cross_ratio": ("modspace", "cross_ratio"),
    "modspace.covering_invariants": ("modspace", "covering_invariants"),
    "modspace.curves_isomorphic": ("modspace", "curves_isomorphic"),
    "modspace.abel": ("modspace", "abel"),
    "monodromy.normal_form": ("monodromy", "normal_form"),
    "monodromy.classify_bundle": ("monodromy", "classify_bundle"),
    "monodromy.universal_pair": ("monodromy", "universal_pair"),
    "monodromy.universal_config": ("monodromy", "universal_config"),
    "autgroup.group_elements": ("autgroup", "group_elements"),
    "autgroup.act_class": ("autgroup", "act_class"),
    "autgroup.act_plane": ("autgroup", "act_plane"),
    "autgroup.act_parabolic": ("autgroup", "act_parabolic"),
    "cli.run": ("cli", "run"),
    "cli.dump": ("cli", "_dump"),
}

LAYERS = ("jaclattice", "weierstrass", "bundles", "parabolic", "modspace", "monodromy",
          "autgroup", "cli")

# (span, enclosing span): calls of the first counted while the second is open
NESTED = (("weierstrass.wp", "weierstrass.intersect_curve"),
          ("weierstrass.embed", "autgroup.act_plane"))


@dataclass
class Span:
    calls: int = 0
    self_ns: int = 0
    nested: int = 0
    raised: dict = field(default_factory=dict)
    errors: int = 0


class Tracer:
    def __init__(self):
        self.spans = {name: Span() for name in TRACED}
        self._child_ns = [0]        # child time of each open span, innermost last
        self._open = dict.fromkeys(TRACED, 0)
        self._patches: list = []    # (owner, attribute, original, wrapper)
        self.originals: dict = {}   # id(original function) -> span name

    def _wrap(self, name: str, fn):
        span, child, open_ = self.spans[name], self._child_ns, self._open
        outer = dict(NESTED).get(name)
        clock = time.process_time_ns    # the clock operations are timed with

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outer is not None and open_[outer]:
                span.nested += 1
            open_[name] += 1
            child.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                span.raised[kind] = span.raised.get(kind, 0) + 1
                raise
            finally:
                dt = clock() - t0
                open_[name] -= 1
                span.calls += 1
                span.self_ns += dt - child.pop()
                child[-1] += dt
            if name == "cli.run" and result[1] != 0:
                span.errors += 1
            return result

        return wrapper

    def install(self) -> None:
        """Find every binding to wrap; ``enable`` and ``disable`` then swap
        the wrappers in and out without searching again."""
        for mod in {mod for mod, _ in TRACED.values()}:
            importlib.import_module(f"ellpar.{mod}")
        modules = _ellpar_modules()
        for name, (mod, path) in TRACED.items():
            owner = modules[f"ellpar.{mod}"]
            if "." in path:     # a method of a class defined in the module
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, fn)
                self._patches.append((owner, attr, raw, staticmethod(wrapped)
                                      if isinstance(raw, staticmethod) else wrapped))
            else:
                fn = getattr(owner, path)
                wrapped = self._wrap(name, fn)
                # the definition and every module-level alias of it
                for module in modules.values():
                    for key, value in vars(module).items():
                        if value is fn:
                            self._patches.append((module, key, fn, wrapped))
            self.originals[id(fn)] = name

    def enable(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def unwrapped_references(self) -> list[str]:
        """Bindings inside ellpar that still reach a traced function directly:
        module attributes, class attributes, and members of module-level
        dicts, lists and tuples."""
        found = []

        def visit(where: str, value) -> None:
            fn = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
            if id(fn) in self.originals:
                found.append(f"{where} -> {self.originals[id(fn)]}")

        for mod_name, module in _ellpar_modules().items():
            for key, value in vars(module).items():
                where = f"{mod_name}.{key}"
                visit(where, value)
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, member in vars(value).items():
                        visit(f"{where}.{attr}", member)
                elif isinstance(value, dict):
                    for k, member in value.items():
                        visit(f"{where}[{k!r}]", member)
                elif isinstance(value, (list, tuple)):
                    for k, member in enumerate(value):
                        visit(f"{where}[{k}]", member)
        return found


def _ellpar_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ellpar" or name.startswith("ellpar."))}
