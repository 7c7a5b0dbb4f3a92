"""Span tracing of the omegals layers from outside the library.

``Tracer.install`` wraps every public function of the traced modules (plus
``ProblemInstance.create``) and rebinds the wrapper wherever an omegals
module holds a reference to the original: module attributes, the package
namespace, and dict values such as ``verify.SUITES``. ``uninstall`` puts the
originals back, so traced and untraced iterations can alternate in one
process.

Each call opens a span with its parent. Spans are folded into running
totals when they close instead of being stored: per function the call
count, the inclusive time and the self time (inclusive minus the time of
child spans), and per (parent, child) edge the call count and time. A few
functions also feed counters read from their arguments or results.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

LAYERS = ("linalg", "subspaces", "decomposition", "solver", "analysis",
          "experiments", "io", "verify", "manifolds", "sampling")

# Parameter names under which a traced function receives the problem's
# operator (or an object carrying its order n). A span's operator order is
# taken from such an argument, or inherited from the parent span.
OPERATOR_PARAMS = ("a", "dec", "inst")

# io functions whose first argument is the path they write.
IO_WRITERS = ("io.write_csv", "io.write_matrix_market", "io.save_subspace",
              "io.save_condition_report")


def _order(value):
    shape = getattr(value, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0])
    n = getattr(value, "n", None)
    return n if isinstance(n, int) else None


class Tracer:
    def __init__(self):
        self.stack = []                     # open spans: [key, child_time, order]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)     # inclusive seconds
        self.self_time = defaultdict(float)
        self.edge_calls = defaultdict(int)
        self.edge_time = defaultdict(float)
        self.counters = defaultdict(int)
        self._wrappers = {}                 # id(original) -> (original, wrapper)
        self._patches = []                  # (namespace or class, name, original)

    # -- wrapping -------------------------------------------------------

    def _hook(self, key, args, kwargs, result, order):
        if key == "linalg.hermitian_eig" and order is not None:
            if _order(args[0]) == order:
                self.counters["linalg.hermitian_eig.order_n.calls"] += 1
        elif key == "analysis.sweep_solutions":
            self.counters["analysis.sweep_solutions.shifts"] += int(result.omegas.size)
            self.counters["analysis.sweep_solutions.failed_shifts"] += len(result.failures)
        elif key == "experiments.krylov_sum_subspace":
            self.counters["experiments.krylov_sum_subspace.attempts"] += int(result.attempts)
        elif key in IO_WRITERS:
            self.counters["io.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])
        elif key.startswith("verify.run_") and key.endswith("_suite"):
            self.counters[f"{key}.checks"] += int(result.checks)

    def _wrap(self, key, fn):
        params = list(inspect.signature(fn).parameters)
        op_pos = [(params.index(p), p) for p in OPERATOR_PARAMS if p in params]
        stack = self.stack
        calls, total, self_time = self.calls, self.total, self.self_time
        edge_calls, edge_time = self.edge_calls, self.edge_time
        hook = self._hook

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            order = None
            for pos, name in op_pos:
                value = args[pos] if pos < len(args) else kwargs.get(name)
                order = _order(value)
                if order is not None:
                    break
            if order is None and parent is not None:
                order = parent[2]
            frame = [key, 0.0, order]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[key] += 1
                total[key] += elapsed
                self_time[key] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    edge = (parent[0], key)
                    edge_calls[edge] += 1
                    edge_time[edge] += elapsed
            hook(key, args, kwargs, result, order)
            return result

        return traced

    def _targets(self):
        """(key, original function) for every traced public function."""
        from omegals.solver import ProblemInstance

        for layer in LAYERS:
            module = sys.modules[f"omegals.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    yield f"{layer}.{name}", obj
        yield "solver.ProblemInstance.create", ProblemInstance.__dict__["create"].__func__

    def install(self):
        from omegals.solver import ProblemInstance

        if not self._wrappers:
            self._wrappers = {id(fn): (fn, self._wrap(key, fn)) for key, fn in self._targets()}
        namespaces = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "omegals" or mod_name.startswith("omegals."):
                namespace = vars(module)
                namespaces.append(namespace)
                namespaces.extend(v for k, v in namespace.items()
                                  if isinstance(v, dict) and not k.startswith("__"))
        for namespace in namespaces:
            for name, value in list(namespace.items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    namespace[name] = entry[1]
                    self._patches.append((namespace, name, value))
        create = ProblemInstance.__dict__["create"]
        ProblemInstance.create = classmethod(self._wrappers[id(create.__func__)][1])
        self._patches.append((ProblemInstance, "create", create))

    def uninstall(self):
        while self._patches:
            target, name, original = self._patches.pop()
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)

    # -- read-out -------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for key, t in self.self_time.items() if key.startswith(prefix))

    def table(self) -> dict:
        """Per-function and per-edge totals, for the trace file."""
        return {
            "functions": {key: {"calls": self.calls[key], "total_s": self.total[key],
                                "self_s": self.self_time[key]}
                          for key in sorted(self.calls)},
            "edges": [{"parent": p, "child": c, "calls": self.edge_calls[(p, c)],
                       "total_s": self.edge_time[(p, c)]}
                      for p, c in sorted(self.edge_calls)],
            "counters": dict(sorted(self.counters.items())),
        }
