"""Call counts and self time for the public functions of each package layer.

Only the traced benchmark run imports this module.  ``Tracer.install``
wraps every function named in ``TARGETS`` and rebinds the wrapper under
every module namespace of the package that bound the original, because
``comfort``, ``chain`` and ``cli`` import ``pl_eval``, ``face_insert``,
``theta`` and friends by name.  For classes the methods are patched on
the class, so ``isinstance`` checks and existing instances see them.

Self time is a call's duration minus the time covered by the wrapped
calls nested inside it, so recursive and mutually nested calls are
counted once each, and the self times add up to the time spent inside
the outermost wrapped calls.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

#: Public functions wrapped per module.  ``Class`` wraps construction,
#: ``Class.method`` a method, and ``call`` stands for ``__call__``.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "geometry": ("BaryPoint", "project_layer", "segment_eval", "sort_perm", "canonical_grid"),
    "pl1d": ("pl_eval", "pl_inverse", "tau_polygon", "polygon"),
    "comfort": ("SimplexHomeo.call", "SimplexHomeo.inverse_at"),
    "theta": ("theta", "theta1_on_face", "face_insert", "face_delete"),
    "chain": ("check_equation", "check_boundary_squared", "SingularTerm.evaluate"),
    "homology_point": ("homology_table",),
    "cli": ("main",),
}

PACKAGE = "simplexboundary"
HOMEO_CALL = "comfort.SimplexHomeo.call"
THETA = "theta.theta"


def traced_names() -> List[str]:
    return [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


#: Names whose distinct arguments are counted: (map, point) pairs for
#: simplex maps, keys for the Θ constructor (a repeated key is a cache hit).
DISTINCT_KEYS: Dict[str, Callable[[tuple], Hashable]] = {
    HOMEO_CALL: lambda args: (args[0], args[1]),
    THETA: lambda args: args[0],
}


class Tracer:
    """Per-name call counts, self nanoseconds and distinct arguments.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    ``distinct`` maps a name to the key of a call's arguments; the set of
    keys seen is kept in ``seen[name]``, filled outside the timed region.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        distinct: Optional[Dict[str, Callable[[tuple], Hashable]]] = None,
    ):
        self.clock = clock
        self.distinct = dict(distinct or {})
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.seen: Dict[str, Set[Hashable]] = {name: set() for name in self.distinct}
        self._child_ns: List[int] = []  # per open call: time of nested wrapped calls

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)
        clock, stack, calls, self_ns = self.clock, self._child_ns, self.calls, self.self_ns
        key_of, seen = self.distinct.get(name), self.seen.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                calls[name] += 1
                self_ns[name] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if key_of is not None:
                seen.add(key_of(args))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: Dict[str, object], namespaces: Iterable[object]) -> None:
        """Wrap ``TARGETS`` found in ``modules`` (short name -> module).

        Every object in ``namespaces`` whose attribute is bound to a
        wrapped function gets the wrapper under the same attribute name.
        """
        namespaces = list(namespaces)
        for mod_name, names in TARGETS.items():
            module = modules[mod_name]
            for entry in names:
                name = f"{mod_name}.{entry}"
                owner, _, method = entry.partition(".")
                if method:
                    cls = getattr(module, owner)
                    attr = "__call__" if method == "call" else method
                    setattr(cls, attr, self.wrap(name, vars(cls)[attr]))
                    continue
                original = getattr(module, entry)
                if isinstance(original, type):
                    new = vars(original)["__new__"]  # implicitly a staticmethod
                    original.__new__ = staticmethod(self.wrap(name, new.__func__))
                    continue
                wrapper = self.wrap(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)


def install_on_package(tracer: Tracer) -> None:
    """Trace the imported ``simplexboundary`` package in place."""
    loaded = {
        name: module
        for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }
    modules = {name: loaded[f"{PACKAGE}.{name}"] for name in TARGETS}
    tracer.install(modules, loaded.values())
