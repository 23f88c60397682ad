"""Spans around hologate's module functions, recorded from outside the package.

``Tracer.install`` replaces every public function of each layer module with
a wrapper that records a span: name, parent span, start, end, the benchmark
call that caused it, and an integer tag for two kernels (see ``TAGS``).
Cross-module calls inside hologate go through module attributes
(``linalg.expm_hermitian(...)``) and calls inside a module through its
globals, which are the same dictionary, so the wrappers see both.  Names
re-exported by ``hologate/__init__`` were bound at import and are not
wrapped; the benchmark calls through the submodules.

Spans are kept in flat arrays and summarised once the traced pass ends.
Self time is a span's duration minus its children's.  The wrapper's own cost
is measured on a no-op function and taken out of self and inclusive times,
as a deterministic profiler calibrates itself.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

from hologate import cli, dfs, holonomy, linalg, pulses, qutrit, scaling, two_qubit

LAYERS = {
    "cli": cli,
    "scaling": scaling,
    "qutrit": qutrit,
    "two_qubit": two_qubit,
    "pulses": pulses,
    "linalg": linalg,
    "holonomy": holonomy,
    "dfs": dfs,
}

# Extra integer recorded per span: the generator dimension of an exponential,
# and the slices per segment of a four-pulse composite (1 for square pulses).
TAGS = {
    "linalg.expm_hermitian": lambda h, *args, **kwargs: len(h),
    "qutrit.composite_four": lambda frame, model=None, segments=None: (
        segments[0].steps if segments else 1
    ),
}

CALIBRATION_CALLS = 20000


def _noop():
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_call = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        tag = TAGS.get(name)
        name_id, parent, calls, tags = self.name_id, self.parent, self.call, self.tag
        start, end, stack, perf = self.start, self.end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            calls.append(self.current_call)
            tags.append(tag(*args, **kwargs) if tag else 0)
            end.append(0.0)
            stack.append(i)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()

        return traced

    def install(self) -> None:
        for layer, module in LAYERS.items():
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def clear(self) -> None:
        for column in (self.name_id, self.parent, self.call, self.tag, self.start, self.end):
            del column[:]

    def calibrate(self) -> tuple[float, float]:
        """Per-span wrapper cost: (outside the span, inside the span), in seconds."""
        traced = self.wrap("calibration.noop", _noop)
        best_plain = best_traced = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                _noop()
            t1 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                traced()
            t2 = time.perf_counter()
            best_plain = min(best_plain, (t1 - t0) / CALIBRATION_CALLS)
            best_traced = min(best_traced, (t2 - t1) / CALIBRATION_CALLS)
        inside = float(np.median(np.array(self.end) - np.array(self.start)))
        self.clear()
        self.names.pop()
        inside = min(max(inside - best_plain, 0.0), best_traced - best_plain)
        return best_traced - best_plain - inside, inside

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "call": np.array(self.call, dtype=np.int32),
            "tag": np.array(self.tag, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }


class SpanSummary:
    """Per-function calls, self and inclusive time, corrected for the wrapper."""

    def __init__(self, spans: dict, outside: float, inside: float):
        names = spans["names"]
        name_id, parent = spans["name_id"], spans["parent"]
        start, end = spans["start"], spans["end"]
        n = len(start)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        children = np.bincount(parent[has_parent], minlength=n)
        # spans are stored in start order and nest, so a span's descendants
        # are the following spans that start before it ends
        descendants = np.searchsorted(start, end, side="left") - np.arange(n) - 1
        per_span = outside + inside
        self_time = np.maximum(dur - child_time - children * outside - inside, 0.0)
        inclusive = np.maximum(dur - descendants * per_span - inside, 0.0)
        self.names = list(names)
        self.name_id = name_id
        self.tag = spans["tag"]
        self.self_time = self_time
        self.inclusive = inclusive
        self.total_self = float(np.sum(self_time))

    def _mask(self, name: str, tag: int | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        mask = self.name_id == self.names.index(name)
        if tag is not None:
            mask &= self.tag == tag
        return mask

    def calls(self, name: str, tag: int | None = None) -> int:
        return int(np.count_nonzero(self._mask(name, tag)))

    def self_s(self, name: str) -> float:
        return float(np.sum(self.self_time[self._mask(name)]))

    def inclusive_s(self, name: str, tag: int | None = None) -> float:
        return float(np.sum(self.inclusive[self._mask(name, tag)]))

    def layer_share(self, layer: str) -> float:
        """Share of all traced self time spent in one module's functions."""
        if self.total_self == 0:
            return 0.0
        prefix = layer + "."
        ids = [i for i, name in enumerate(self.names) if name.startswith(prefix)]
        return float(np.sum(self.self_time[np.isin(self.name_id, ids)]) / self.total_self)


# ---- per-layer metrics ----

TRACED_FUNCTIONS = (
    "linalg.expm_hermitian",
    "linalg.time_ordered_product",
    "pulses.segment_unitary",
    "qutrit.elementary_gate",
    "qutrit.elementary_gate_with_error",
    "qutrit.composite_two",
    "qutrit.composite_four",
    "two_qubit.elementary_gate",
    "two_qubit.composite_gate",
    "scaling.gate_pair",
    "scaling.gate_fidelity",
    "scaling.fit_power_law",
    "scaling.sweep_samples",
    "holonomy.trace_evolution",
    "holonomy.check_holonomy",
    "holonomy.peak_rabi",
    "dfs.kicked_schedule_fidelities",
    "dfs.idle_contrast_run",
    "dfs.idle_contrast_closed_form",
    "dfs.two_logical_composite_gate",
    "cli.main",
    "cli.load_config",
    "cli.write_record",
    "cli.write_csv",
)
EXPM_DIMS = (3, 5, 8, 64)

# what one evaluation is on each workload, counted from the generated inputs
EVAL_COUNTS = {
    "sweep": "scaling.sweep_points",
    "dfs": "dfs.mc_samples",
    "certify": "holonomy.trace_samples",
}


def _per_layer_units() -> dict:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["linalg.expm_hermitian.us_per_call"] = "us"
    units["linalg.expm_hermitian.dim3.us_per_call"] = "us"
    for dim in EXPM_DIMS:
        units[f"linalg.expm_hermitian.dim{dim}.calls"] = "count"
    units["qutrit.composite_four.us_per_call"] = "us"
    units["scaling.sweep_points"] = "count"
    units["scaling.points_kept_ratio"] = "ratio"
    units["holonomy.trace_samples"] = "count"
    units["holonomy.check_holonomy.us_per_sample"] = "us"
    units["dfs.mc_samples"] = "count"
    units["dfs.us_per_mc_sample"] = "us"
    units["dfs.kicked_schedule_fidelities.us_per_sample"] = "us"
    units["dfs.two_logical_composite_gate.ms_per_call"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.span_overhead_us"] = "us"
    return units


PER_LAYER = _per_layer_units()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: SpanSummary, counts: dict, points: list) -> dict:
    """Per-layer metrics from a traced pass.

    ``counts`` holds the evaluation counts from the generated inputs (absent
    ones are 0); ``points`` is (sweep points kept by the fit, points computed).
    """
    m = {}
    for name in TRACED_FUNCTIONS:
        m[f"{name}.calls"] = summary.calls(name)
        m[f"{name}.self_ms"] = summary.self_s(name) * 1e3
    expm = "linalg.expm_hermitian"
    m[f"{expm}.us_per_call"] = _ratio(summary.inclusive_s(expm) * 1e6, summary.calls(expm))
    m[f"{expm}.dim3.us_per_call"] = _ratio(
        summary.inclusive_s(expm, 3) * 1e6, summary.calls(expm, 3)
    )
    for dim in EXPM_DIMS:
        m[f"{expm}.dim{dim}.calls"] = summary.calls(expm, dim)
    # square pulses only, as in the ROADMAP row; sine_squared gates slice each segment
    four = "qutrit.composite_four"
    m[f"{four}.us_per_call"] = _ratio(summary.inclusive_s(four, 1) * 1e6, summary.calls(four, 1))
    for name in EVAL_COUNTS.values():
        m[name] = counts.get(name, 0)
    m["scaling.points_kept_ratio"] = _ratio(points[0], points[1])
    m["holonomy.check_holonomy.us_per_sample"] = _ratio(
        summary.inclusive_s("holonomy.check_holonomy") * 1e6, m["holonomy.trace_samples"]
    )
    kicked = summary.inclusive_s("dfs.kicked_schedule_fidelities")
    idle = summary.inclusive_s("dfs.idle_contrast_run")
    m["dfs.us_per_mc_sample"] = _ratio((kicked + idle) * 1e6, m["dfs.mc_samples"])
    # half of the samples are the encoded ones
    m["dfs.kicked_schedule_fidelities.us_per_sample"] = _ratio(
        kicked * 1e6, m["dfs.mc_samples"] / 2
    )
    six = "dfs.two_logical_composite_gate"
    m[f"{six}.ms_per_call"] = _ratio(summary.inclusive_s(six) * 1e3, summary.calls(six))
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = summary.layer_share(layer) * 100.0
    return m
