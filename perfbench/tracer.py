"""Traced launcher: runs `walls` as `python -m youngwalls.cli` does, with a
span around every call into a package module.

    python3 perfbench/tracer.py OUT.json SPAWN_NS walls-arguments...

Before calling `cli.main` it wraps the public functions of each module, the
public methods and arithmetic operators of its public classes, and every
other binding of those functions (the names bound by `from .x import y`,
such as the `exact_arith` helpers in each module and `gamma` in
`series_engine`).  A call opens a span for the callee's module unless the
innermost open span already belongs to that module, so nested calls inside
one layer make a single span.  When a span closes, its duration minus the
time covered by its child spans is added to its layer's self time; only
these sums are kept, because one request can open close to a million spans
(`factorial` inside `b_monster`).  They are written to OUT.json at exit,
also when `main` raises.  SPAWN_NS is `time.monotonic_ns()` as read by
spawner.py just before it started this process.
"""

from __future__ import annotations

import json
import sys
import time
from types import FunctionType

LAYERS = ("exact_arith", "wall_tables", "closed_forms", "series_engine", "poset_lab",
          "tree_child", "cli")
OPERATORS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__eq__"}


def _series_size(value: object) -> int:
    """Coefficients in a TSeries / XTSeries, or in a tuple of them."""
    if isinstance(value, tuple):
        return sum(_series_size(v) for v in value)
    if hasattr(value, "coeffs"):
        return len(value.coeffs)
    if hasattr(value, "rows"):
        return sum(len(row) for row in value.rows)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, start, child seconds]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.table_keys: set = set()
        self.gamma_max_k = 0
        self.ext_elements = 0
        self.coeffs_out = 0

    def wrap(self, layer: str, fn):
        observe = {"gamma": self._see_gamma,
                   "count_linear_extensions": self._see_poset}.get(fn.__name__)
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, clock(), 0.0]
            stack.append(span)
            self.calls[layer] += 1
            if layer == "wall_tables":
                self.table_keys.add((fn.__qualname__, args))
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - span[1]
                stack.pop()
                self.self_s[layer] += spent - span[2]
                if stack:
                    stack[-1][2] += spent
            if layer == "series_engine":
                self.coeffs_out += _series_size(result)
            return result

        return traced

    def _see_gamma(self, args: tuple) -> None:
        self.gamma_max_k = max(self.gamma_max_k, args[0])

    def _see_poset(self, args: tuple) -> None:
        self.ext_elements += args[0].size

    def install(self, package, modules: dict) -> None:
        wrapped: dict = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped[obj] = self.wrap(layer, obj)
                elif isinstance(obj, type):
                    self._install_class(layer, obj)
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def _install_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(layer, attr.__func__)))
            elif isinstance(attr, FunctionType):
                setattr(cls, name, self.wrap(layer, attr))

    def summary(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "table_distinct_keys": len(self.table_keys),
            "gamma_max_k": self.gamma_max_k,
            "ext_elements": self.ext_elements,
            "coeffs_out": self.coeffs_out,
        }


def main() -> None:
    out_path, spawn_ns, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import youngwalls
    from youngwalls import cli

    modules = {layer: sys.modules[f"youngwalls.{layer}"] for layer in LAYERS}
    start = time.perf_counter()
    tracer = Tracer()
    tracer.install(youngwalls, modules)
    wrap_s = time.perf_counter() - start
    doc = {"startup_s": (time.monotonic_ns() - spawn_ns) / 1e9 - wrap_s, "wrap_s": wrap_s}
    code = 1
    try:
        code = cli.main(argv)
    finally:
        doc.update(tracer.summary())
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
