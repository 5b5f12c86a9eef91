"""Outside-in tracer: timing wrappers around the public functions of every
regretctl module, installed from the benchmark's own files.

A wrapper is installed at every binding through which a layer function is
looked up: the defining module's attribute (enough for callers such as
`controllers`, which call `kernels.X` and `riccati.X` through the module),
every other regretctl module that imported the function by value (as
`riccati` imports `psd_sqrt` and `cli` imports `compare`), and the class
attribute for the traced methods. Spans are kept in memory; `dump()` writes
them out once the traced call has ended, and `layer_metrics()` turns a dump
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
from time import perf_counter

LAYERS = (
    "cli",
    "system_model",
    "kernels",
    "riccati",
    "controllers",
    "operator_oracle",
    "sim_bench",
    "augmentation",
)
METHODS = (
    ("controllers", "OfflineController", "plan"),
    ("augmentation", "WrappedController", "control_sequence"),
)

# Per-layer metrics: "<span>.<stat>" and its unit. Span names are
# "<module>.<qualname>"; the stats are defined in `layer_metrics`.
PER_LAYER = [
    ("cli.parse_config.s", "s"),
    ("cli.emit_json.s", "s"),
    ("cli.emit_json.bytes", "bytes"),
    ("cli.emit_csv.s", "s"),
    ("system_model.psd_sqrt.calls", "count"),
    ("system_model.psd_sqrt.s", "s"),
    ("system_model.pd_inv_sqrt.calls", "count"),
    ("system_model.pd_inv_sqrt.s", "s"),
    ("system_model.normalize_control_weight.calls", "count"),
    ("system_model.normalize_control_weight.s", "s"),
    ("system_model.evaluate_cost.calls", "count"),
    ("system_model.evaluate_cost.self_s", "s"),
    ("system_model.validate_system.calls", "count"),
    ("system_model.validate_system.s", "s"),
    *[
        (f"kernels.{k}.{stat}", unit)
        for k in (
            "lqr_backward",
            "hinf_backward",
            "forward_kalman",
            "backward_kalman",
            "regret_phat_backward",
            "rollout_feedback",
            "rollout_regret",
        )
        for stat, unit in (("calls", "count"), ("s", "s"), ("steps", "count"), ("us_per_step", "us"))
    ],
    ("riccati.forward_kalman.calls", "count"),
    ("riccati.forward_kalman.self_s", "s"),
    ("riccati.backward_kalman.calls", "count"),
    ("riccati.backward_kalman.self_s", "s"),
    ("riccati.backward_lqr.calls", "count"),
    ("riccati.backward_lqr.self_s", "s"),
    ("riccati.backward_hinf.calls", "count"),
    ("controllers.regret_optimal.s", "s"),
    ("controllers.hinf_optimal.s", "s"),
    ("controllers.bisect.iters", "count"),
    ("controllers.bisect.probes", "count"),
    ("controllers.bisect.bits_per_probe", "bits"),
    ("controllers.synthesize_regret.self_s", "s"),
    ("controllers.OfflineController.plan.calls", "count"),
    ("controllers.OfflineController.plan.s", "s"),
    ("operator_oracle.build_operators.s", "s"),
    ("operator_oracle.controller_operator.s", "s"),
    ("operator_oracle.controller_operator.rollouts", "count"),
    ("operator_oracle.worst_case_regret_gain.s", "s"),
    ("sim_bench.compare.s", "s"),
    ("sim_bench.compare.self_s", "s"),
    ("sim_bench.rollout.calls", "count"),
    ("sim_bench.rollout.self_s", "s"),
    ("sim_bench.rollout.s_p50", "s"),
    ("sim_bench.rollout.s_p90", "s"),
    ("sim_bench.generate_disturbance.s", "s"),
    ("augmentation.augment_delay.s", "s"),
    ("augmentation.augment_predictions.s", "s"),
    ("augmentation.WrappedController.control_sequence.calls", "count"),
    ("augmentation.WrappedController.control_sequence.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
]


def _kernel_steps(name, args, result):
    """Recursion steps a kernel ran: the horizon of its first input, except
    for the two kernels that stop at the first infeasible step, where the
    flagged prefix of the returned margins shows where they stopped."""
    T = args[0].shape[0]
    stops_early = name == "hinf_backward" or (name == "regret_phat_backward" and not args[6])
    if stops_early:
        flagged = int((result[2] >= 0.0).sum())
        if flagged:
            return T - flagged + 1
    return T


class Tracer:
    """Records one span per traced call: [name, start, end, parent index].

    `counters` holds the counts that need a call's arguments or result
    (kernel steps, bytes written, bisection results)."""

    def __init__(self, run_id: str = "0"):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__traced__ = fn
        return traced

    def dump(self, path, start, wall):
        with open(path, "w") as f:
            json.dump(
                {
                    "run_id": self.run_id,
                    "start": start,
                    "wall": wall,
                    "names": self.names,
                    "spans": self.spans,
                    "counters": self.counters,
                },
                f,
            )


def _after(name):
    """The hook that records a traced call's counts from its arguments or
    result, or None."""
    if name.startswith("kernels."):
        kernel = name.split(".", 1)[1]

        def after(tracer, args, result):
            tracer.count(f"{name}.steps", _kernel_steps(kernel, args, result))

        return after
    if name == "cli.emit_json":
        return lambda tracer, args, result: tracer.count(f"{name}.bytes", os.path.getsize(args[0]))
    if name == "controllers.regret_optimal":

        def after(tracer, args, result):
            res = result[0]
            tracer.count("controllers.bisect.iters", res.iterations)
            if res.bracket_history:
                lo, hi = res.bracket_history[-1]
                tracer.count("controllers.bisect.bits", math.log2(res.gamma_opt / (hi - lo)))

        return after
    return None


def targets():
    """(span name, owner, attribute) of every traced function's definition."""
    importlib.import_module("regretctl.cli")  # loads every layer
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"regretctl.{layer}")
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                out.append((f"{layer}.{attr}", module, attr))
    for layer, cls, attr in METHODS:
        owner = getattr(importlib.import_module(f"regretctl.{layer}"), cls)
        out.append((f"{layer}.{cls}.{attr}", owner, attr))
    return out


def bindings():
    """Every (span name, owner, attribute) through which a traced function
    is looked up: its definition plus each module that imported it by value."""
    import sys

    modules = [m for n, m in sys.modules.items() if n == "regretctl" or n.startswith("regretctl.")]
    out = []
    for name, owner, attr in targets():
        fn = vars(owner)[attr]
        out.append((name, owner, attr))
        if inspect.isclass(owner):
            continue
        for module in modules:
            for other, obj in vars(module).items():
                if obj is fn and (module, other) != (owner, attr):
                    out.append((name, module, other))
    return out


class installed:
    """Context manager: wrap every binding for `tracer`, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        wrappers = {}
        for name, owner, attr in bindings():
            original = vars(owner)[attr]
            if name not in wrappers:
                wrappers[name] = self.tracer.wrap(name, original, _after(name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[name])
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


class _Agg:
    __slots__ = ("calls", "s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.durations = []


def _aggregate(doc):
    """Per span name: calls, inclusive time (outermost spans of that name
    only, so recursion is not counted twice), self time and durations."""
    names = doc["names"]
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
    aggs = {}
    for i, (nid, start, end, parent) in enumerate(spans):
        a = aggs.setdefault(names[nid], _Agg())
        dur = end - start
        a.calls += 1
        a.durations.append(dur)
        a.self_s += dur - child_time[i]
        while parent >= 0 and spans[parent][0] != nid:
            parent = spans[parent][3]
        if parent < 0:
            a.s += dur
    return aggs


def _count_under(doc, ancestor, name):
    """The number of spans called `name` that have an ancestor called
    `ancestor`."""
    names = doc["names"]
    if ancestor not in names or name not in names:
        return 0
    aid, nid = names.index(ancestor), names.index(name)
    spans = doc["spans"]
    count = 0
    for span_nid, _, _, parent in spans:
        if span_nid != nid:
            continue
        while parent >= 0 and spans[parent][0] != aid:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def layer_metrics(doc, untraced_wall, speed=1.0):
    """Per-layer metrics of one traced call, as {name: (value, unit)}.

    `untraced_wall` is the wall time of the untraced call of the same pair.
    Every time is multiplied by `speed`, the pair's speed correction (see
    run.Probe), so the overhead compares both calls at one speed.
    """
    aggs = _aggregate(doc)
    counters = doc["counters"]
    empty = _Agg()
    total_self = sum(a.self_s for a in aggs.values())
    probes = _count_under(doc, "controllers.regret_optimal", "controllers.synthesize_regret")
    derived = {
        "controllers.bisect.iters": counters.get("controllers.bisect.iters", 0),
        "controllers.bisect.probes": probes,
        "controllers.bisect.bits_per_probe": counters.get("controllers.bisect.bits", 0.0) / probes
        if probes
        else 0.0,
        "operator_oracle.controller_operator.rollouts": _count_under(
            doc, "operator_oracle.controller_operator", "sim_bench.rollout"
        ),
        "cli.emit_json.bytes": counters.get("cli.emit_json.bytes", 0),
        "trace.overhead_s": (doc["wall"] - untraced_wall) * speed,
        "trace.coverage": total_self / doc["wall"],
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            span, stat = name.rsplit(".", 1)
            a = aggs.get(span, empty)
            if stat in ("calls", "s", "self_s"):
                value = getattr(a, stat)
            elif stat in ("s_p50", "s_p90"):
                q = 0.5 if stat == "s_p50" else 0.9
                value = _quantile(a.durations, q)
            elif stat == "steps":
                value = counters.get(name, 0)
            elif stat == "us_per_step":
                steps = counters.get(f"{span}.steps", 0)
                value = 1e6 * a.s / steps if steps else 0.0
            else:
                raise KeyError(name)
            if unit in ("s", "us"):
                value *= speed
        out[name] = (value, unit)
    return out


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
