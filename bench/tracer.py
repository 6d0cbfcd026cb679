"""Per-layer spans and counts, recorded from outside nistab.

Each traced function is replaced, at every nistab module that holds it
(its import sites), by a wrapper that records calls, inclusive time and
self time, i.e. inclusive time minus the time of traced calls made inside
it.  A call nested in a call of the same function (the recursion of
`dumps_canonical`) is part of the outer span and is not counted again.
`uninstall` puts the original functions back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer name -> (module that defines the function, function name)
TRACED = {
    "cli.load_system_file": ("nistab.cli", "load_system_file"),
    "cli.dumps_canonical": ("nistab.cli", "dumps_canonical"),
    "statespace.eval_tf": ("nistab.statespace", "eval_tf"),
    "statespace.is_minimal": ("nistab.statespace", "is_minimal"),
    "nicert.freq_ni_test": ("nistab.nicert", "freq_ni_test"),
    "nicert.freq_sni_test": ("nistab.nicert", "freq_sni_test"),
    "nicert.positive_real_check": ("nistab.nicert", "positive_real_check"),
    "nicert.sweep": ("nistab.nicert", "_sweep"),
    "nicert.sni_rank_condition": ("nistab.nicert", "sni_rank_condition"),
    "nicert.w_transfer_zero_check": ("nistab.nicert", "w_transfer_zero_check"),
    "nicert.lmi_ni_certificate": ("nistab.nicert", "lmi_ni_certificate"),
    "interconnect.analyze": ("nistab.interconnect", "analyze"),
    "interconnect.closed_loop": ("nistab.interconnect", "closed_loop"),
    "lyapunov.make_state": ("nistab.lyapunov", "make_state"),
    "lyapunov.lyapunov_derivative": ("nistab.lyapunov", "lyapunov_derivative"),
    "lyapunov.block_gram": ("nistab.lyapunov", "block_gram"),
    "lyapunov.dissipation_integral_check": ("nistab.lyapunov", "dissipation_integral_check"),
    "sim.simulate": ("nistab.sim", "simulate"),
    "sim.trace_to_csv": ("nistab.sim", "trace_to_csv"),
}


# per-layer metric -> (kind, key); "ref" is inclusive and "self_ref" self time per
# op in reference-kernel units, "calls" calls per op and "count" a counter per op
PER_LAYER = {
    "cli.load_system_file.ref": ("ref", "cli.load_system_file"),
    "cli.dumps_canonical.ref": ("ref", "cli.dumps_canonical"),
    "statespace.eval_tf.calls": ("calls", "statespace.eval_tf"),
    "statespace.eval_tf.ref": ("ref", "statespace.eval_tf"),
    "statespace.is_minimal.ref": ("ref", "statespace.is_minimal"),
    "nicert.freq_ni_test.ref": ("ref", "nicert.freq_ni_test"),
    "nicert.freq_sni_test.ref": ("ref", "nicert.freq_sni_test"),
    "nicert.positive_real_check.ref": ("ref", "nicert.positive_real_check"),
    "nicert.sweep.points": ("count", "nicert.sweep.points"),
    "nicert.sni_rank_condition.ref": ("ref", "nicert.sni_rank_condition"),
    "nicert.w_transfer_zero_check.ref": ("ref", "nicert.w_transfer_zero_check"),
    "nicert.lmi_ni_certificate.feasible.iterations":
        ("count", "nicert.lmi_ni_certificate.feasible.iterations"),
    "nicert.lmi_ni_certificate.feasible.ref": ("ref", "nicert.lmi_ni_certificate.feasible"),
    "nicert.lmi_ni_certificate.infeasible.iterations":
        ("count", "nicert.lmi_ni_certificate.infeasible.iterations"),
    "nicert.lmi_ni_certificate.infeasible.ref": ("ref", "nicert.lmi_ni_certificate.infeasible"),
    "interconnect.analyze.self_ref": ("self_ref", "interconnect.analyze"),
    "interconnect.closed_loop.calls": ("calls", "interconnect.closed_loop"),
    "interconnect.closed_loop.ref": ("ref", "interconnect.closed_loop"),
    "lyapunov.make_state.calls": ("calls", "lyapunov.make_state"),
    "lyapunov.make_state.ref": ("ref", "lyapunov.make_state"),
    "lyapunov.lyapunov_derivative.calls": ("calls", "lyapunov.lyapunov_derivative"),
    "lyapunov.lyapunov_derivative.ref": ("ref", "lyapunov.lyapunov_derivative"),
    "lyapunov.block_gram.ref": ("ref", "lyapunov.block_gram"),
    "lyapunov.dissipation_integral_check.ref": ("ref", "lyapunov.dissipation_integral_check"),
    "sim.simulate.self_ref": ("self_ref", "sim.simulate"),
    "sim.simulate.steps": ("count", "sim.simulate.steps"),
    "sim.trace_to_csv.ref": ("ref", "sim.trace_to_csv"),
}
UNITS = {"ref": "ref", "self_ref": "ref", "calls": "count", "count": "count"}


def _on_lmi(tracer: "Tracer", result, elapsed: float) -> None:
    # a call that raised (singular A, asymmetric D) found no certificate either
    outcome = "feasible" if getattr(result, "certified", False) else "infeasible"
    tracer.counts[f"nicert.lmi_ni_certificate.{outcome}.iterations"] += getattr(
        result, "iterations", 0)
    tracer.seconds[f"nicert.lmi_ni_certificate.{outcome}"] += elapsed


def _on_sweep(tracer: "Tracer", result, elapsed: float) -> None:
    tracer.counts["nicert.sweep.points"] += len(result or ())


def _on_simulate(tracer: "Tracer", result, elapsed: float) -> None:
    if result is not None:
        tracer.counts["sim.simulate.steps"] += len(result.times) - 1


RESULT_HOOKS = {
    "nicert.lmi_ni_certificate": _on_lmi,
    "nicert.sweep": _on_sweep,
    "sim.simulate": _on_simulate,
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._children: list[float] = []  # traced time inside each open span
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        nistab_modules = [m for name, m in list(sys.modules.items())
                          if name == "nistab" or name.startswith("nistab.")]
        self.missing = []
        for layer, (mod_name, func_name) in TRACED.items():
            original = getattr(sys.modules.get(mod_name), func_name, None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for mod in nistab_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, fn):
        hook = RESULT_HOOKS.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            self._open.add(layer)
            self._children.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                inner = self._children.pop()
                self._open.discard(layer)
                if self._children:
                    self._children[-1] += elapsed
                self.calls[layer] += 1
                self.seconds[layer] += elapsed
                self.self_seconds[layer] += elapsed - inner
                if hook is not None:
                    hook(self, result, elapsed)

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, ops: int, ref_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-op (value, unit) of PER_LAYER; ``ref_seconds`` is the reference time of those ops."""
        per_op = {
            "ref": lambda key: self.seconds.get(key, 0.0) / ref_seconds,
            "self_ref": lambda key: self.self_seconds.get(key, 0.0) / ref_seconds,
            "calls": lambda key: self.calls.get(key, 0) / ops,
            "count": lambda key: self.counts.get(key, 0) / ops,
        }
        return {name: (per_op[kind](key), UNITS[kind]) for name, (kind, key) in PER_LAYER.items()}
