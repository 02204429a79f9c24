"""Spans around calls into qhdkit's public functions, for the traced run.

``Tracer.install`` replaces every module attribute that names a public
function of a qhdkit layer (``qhdkit.dynamics.discretize_objective`` as
well as ``qhdkit.mesh.discretize_objective``) with a wrapper that records
the call; ``uninstall`` puts the originals back. Calls are timed with
``time.perf_counter``. Each call of a non-hot function keeps a span
(id, name, start, end, parent id) in memory; functions called thousands of
times per round keep only their count and total time. Every call adds to
its name's count, total time and self time, the self time being its
duration minus the time its traced children took.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
import types

LAYERS = ("mesh", "objectives", "dynamics", "classical", "spectral",
          "ising", "bench", "cli")

#: called per trial point or per refinement step: counted, no span each
HOT = {"objectives.qp_eval_grad", "bench.local_refine", "bench.success"}


def _span_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        return "cli." + func[4:].replace("_", "-")
    return f"{module}.{func}"


def _steps(args, start="t0", end="T"):
    t0 = args.get(start, 0.0) if start else 0.0
    return int(round((args[end] - t0) / args["dt"]))


def _qhd_work(args):
    steps = _steps(args)
    n = args["mesh"].size
    # one fftn and one ifftn per split step at 5 N log2 N flops each
    return {"steps": steps, "node_steps": n * steps,
            "fft_gflop": steps * 2 * 5 * n * math.log2(n) / 1e9}


#: work counts derived from the arguments of the time-stepping engines
WORK = {
    "dynamics.qhd_evolve": _qhd_work,
    "dynamics.qaa_evolve": lambda a: {"steps": _steps(a, start=None)},
    "ising.relaxed_qhd_evolve": lambda a: {"steps": _steps(a)},
    "ising.simulate_ising_dense": lambda a: {
        "steps": _steps(a, start=None, end="t_f")},
    "classical.nagd_run": lambda a: {"steps": a["steps"]},
    "classical.sgd_run": lambda a: {"steps": a["steps"]},
}


class Tracer:
    def __init__(self):
        self.spans = []       # (id, name, start, end, parent id or None)
        self.stats = {}       # name -> {"calls", "s", "self_s", work keys}
        self._stack = []      # open calls: [id, start, child seconds]
        self._next_id = 0
        self._patched = []    # (module, attribute, original)

    def _wrap(self, name, fn):
        keep_span = name not in HOT
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        stack, spans = self._stack, self.spans
        entry = self.stats.setdefault(name,
                                      {"calls": 0, "s": 0.0, "self_s": 0.0})

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, time.perf_counter(), 0.0]
            self._next_id += 1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                entry["calls"] += 1
                entry["s"] += dur
                entry["self_s"] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if keep_span:
                    spans.append((frame[0], name, frame[1], end, parent))
                if work:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, val in work(bound.arguments).items():
                        entry[key] = entry.get(key, 0) + val

        traced.__wrapped__ = fn
        return traced

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qhdkit.{layer}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = self._wrap(_span_name(layer, attr),
                                                  obj)
        owners = [m for n, m in list(sys.modules.items())
                  if n == "qhdkit" or n.startswith("qhdkit.")]
        for mod in owners:
            for attr, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path, extra=None):
        doc = {"spans": [{"id": i, "name": n, "start": s, "end": e,
                          "parent": p} for i, n, s, e, p in self.spans],
               "stats": self.stats}
        doc.update(extra or {})
        path.write_text(json.dumps(doc))
