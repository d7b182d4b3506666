"""Per-layer tracing by rebinding cyclesense's public functions from outside.

Nothing under src/ knows about this module.  While a Tracer is installed,
each traced boundary is replaced, in every cyclesense module that holds it
(including names imported with ``from ... import``), by a wrapper that
records a span: name, start, end and the span that was open when it was
called.  numpy's FFT entry points are wrapped by counters only.  Uninstalling
restores every original binding, so untraced passes run the program as is.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "config", "oracle", "fisher", "network", "grid", "wva",
          "pipeline")

#: span name -> (home module, attribute, class or None).  A name ending in
#: "." takes its suffix from an argument at call time (see _suffix).
SPANS = (
    ("cli.main", "cli", "main", None),
    ("cli.cmd", "cli", "cmd_qcrb_sweep", None),
    ("cli.cmd", "cli", "cmd_oracle_verify", None),
    ("cli.cmd", "cli", "cmd_reproduce_experiment", None),
    ("cli.cmd", "cli", "cmd_wva_sim", None),
    ("config.from_yaml", "config", "from_yaml", "RunConfig"),
    ("config.validate", "config", "validate", "RunConfig"),
    ("oracle.check_bch_fidelity", "oracle", "check_bch_fidelity", None),
    ("oracle.check_composite_phase", "oracle", "check_composite_phase", None),
    ("oracle.check_switch_phase", "oracle", "check_switch_phase", None),
    ("oracle.check_qfim_mode.", "oracle", "check_qfim_mode", None),
    ("oracle.check_wva_mean_momentum", "oracle", "check_wva_mean_momentum", None),
    ("oracle.check_threshold_consistency", "oracle",
     "check_threshold_consistency", None),
    ("fisher.qfim_numerical", "fisher", "qfim_numerical", None),
    ("network.traverse_sequence", "network", "traverse_sequence", None),
    ("network.composite_apply", "network", "composite_apply", None),
    ("network.apply_kick", "network", "apply_kick", None),
    ("network.apply_propagation", "network", "apply_propagation", None),
    ("grid.moments", "grid", "moments", None),
    ("wva.wva_final_probe.", "wva", "wva_final_probe", None),
    ("wva.momentum_readout", "wva", "momentum_readout", None),
    ("pipeline.end_to_end_sweep", "pipeline", "end_to_end_sweep", None),
    ("pipeline.fit_snr_vs_voltage", "pipeline", "fit_snr_vs_voltage", None),
    ("pipeline.qcrb_comparison", "pipeline", "qcrb_comparison", None),
)

QFIM_MODES = ("sequential", "quantum_switch", "classical_switch")
WVA_METHODS = ("exact_grid", "first_order")


def span_names() -> list[str]:
    """Every span name a trace can report, in declaration order."""
    names = []
    for name, *_ in SPANS:
        if name == "oracle.check_qfim_mode.":
            names += [name + m for m in QFIM_MODES]
        elif name == "wva.wva_final_probe.":
            names += [name + m for m in WVA_METHODS]
        elif name not in names:
            names.append(name)
    return names


def _suffix(name: str, args: tuple, kwargs: dict) -> str:
    if name == "oracle.check_qfim_mode.":
        return name + (args[0] if args else kwargs["mode"]).value
    if name == "wva.wva_final_probe.":
        method = args[4] if len(args) > 4 else kwargs.get("method", "exact_grid")
        return name + method
    return name


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        dynamic = name.endswith(".")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = _suffix(name, args, kwargs) if dynamic else name
            parent = self._stack[-1] if self._stack else -1
            rec = [label, perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
        return wrapper

    def _count(self, key: str, fn, points: bool = False):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.counts[key] += 1
            if points:
                self.counts["grid.fft.points"] += a.shape[-1]
            return fn(a, *args, **kwargs)
        return wrapper

    def _counted_family(self, fn):
        """switched_state_family whose builders count calls and branches."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            build = fn(*args, **kwargs)

            def counted(g1, g2):
                state = build(g1, g2)
                self.counts["fisher.builder_calls"] += 1
                self.counts["fisher.branches_built"] += _branches(state)
                return state
            return counted
        return wrapper

    def _differentiating(self, fn):
        """qfim_numerical counting the branches of pure states it is handed."""
        @functools.wraps(fn)
        def wrapper(builder, *args, **kwargs):
            def seen(g1, g2):
                state = builder(g1, g2)
                if state.is_pure:
                    self.counts["fisher.branches_differentiated"] += _branches(state)
                return state
            return fn(seen, *args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, home: str, attr: str, make) -> None:
        """Replace home.attr in every cyclesense module that binds it."""
        original = getattr(_module(home), attr, None)
        if not callable(original):
            raise RuntimeError(f"trace boundary cyclesense.{home}.{attr} is gone")
        wrapped = make(original)
        for mod in _package_modules():
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapped)
                self._restore.append((mod, attr, original))

    def _rebind_method(self, home: str, cls_name: str, attr: str, make) -> None:
        cls = getattr(_module(home), cls_name)
        raw = cls.__dict__.get(attr)
        if raw is None:
            raise RuntimeError(f"trace boundary {cls_name}.{attr} is gone")
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        self._restore.append((cls, attr, raw))

    def install(self) -> None:
        import numpy as np
        fam = "switched_state_family"
        self._rebind("network", fam, self._counted_family)
        self._rebind("fisher", "qfim_numerical", self._differentiating)
        for name, home, attr, cls in SPANS:
            make = functools.partial(self._span, name)
            if cls is None:
                self._rebind(home, attr, make)
            else:
                self._rebind_method(home, cls, attr, make)
        self._rebind_method("grid", "WaveFunction", "require_normalized",
                            functools.partial(self._count,
                                              "grid.require_normalized.calls"))
        for attr, key, points in (("fft", "grid.fft.forward_calls", True),
                                  ("ifft", "grid.fft.inverse_calls", True),
                                  ("fftshift", "grid.fftshift.calls", False),
                                  ("ifftshift", "grid.fftshift.calls", False)):
            original = getattr(np.fft, attr)
            setattr(np.fft, attr, self._count(key, original, points))
            self._restore.append((np.fft, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        if self._stack:
            raise RuntimeError("trace ended with open spans")

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-span calls/total_s/self_s plus the derived counters."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        guard_s = 0.0
        steps = 0
        for i, (name, *_rest) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur[i] - child[i]
            names_above = [spans[p][0] for p in ancestors(i)]
            if name not in names_above:          # recursion counts once
                out[f"{name}.total_s"] += dur[i]
            if name == "grid.moments" and "network.apply_propagation" in names_above:
                guard_s += dur[i]
            if name == "network.apply_kick" and names_above[:1] == [
                    "network.traverse_sequence"]:
                steps += 1
        c = self.counts
        moments_s = out["grid.moments.total_s"]
        out["grid.moments.in_guard_share"] = guard_s / moments_s if moments_s else 0.0
        out["grid.fft.forward_calls"] = c["grid.fft.forward_calls"]
        out["grid.fft.inverse_calls"] = c["grid.fft.inverse_calls"]
        out["grid.fft.calls"] = c["grid.fft.forward_calls"] + c["grid.fft.inverse_calls"]
        out["grid.fft.points"] = c["grid.fft.points"]
        out["grid.fftshift.calls"] = c["grid.fftshift.calls"]
        out["grid.require_normalized.calls"] = c["grid.require_normalized.calls"]
        out["network.sensor_steps"] = steps
        trav_s = out["network.traverse_sequence.total_s"]
        out["network.s_per_sensor_step"] = trav_s / steps if steps else 0.0
        out["fisher.builder_calls"] = c["fisher.builder_calls"]
        built = c["fisher.branches_built"]
        out["fisher.branch_use_ratio"] = (
            c["fisher.branches_differentiated"] / built if built else 0.0)
        return out


def _branches(state) -> int:
    return 1 if state.branch_minus is None else 2


def _module(layer: str):
    return importlib.import_module(f"cyclesense.{layer}")


def _package_modules():
    for layer in LAYERS:
        _module(layer)
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "cyclesense" or k.startswith("cyclesense."))]

