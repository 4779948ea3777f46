"""Spans around the public entry points of each layer, for traced runs.

A traced iteration calls :func:`install` before it builds its inputs.
That replaces each entry point in :data:`ENTRY_POINTS` with a wrapper
that records a span (name, start, end, parent) in memory; the worker
writes the spans out once the iteration's result is ready.  Nothing in
the program changes: the wrappers call the original functions with the
original arguments, so a traced run executes the untraced code path.

:func:`layer_metrics` turns the spans (plus the extras a workload
measures itself, such as the sweep's stage timings) into the per-layer
metrics of :data:`LAYER_METRICS`.  A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: Every per-layer metric: (name, unit, better, moves, flat_on).  ``moves``
#: is the end-to-end metric and workload a change to the layer should
#: move; ``flat_on`` lists the workloads where it should stay flat.
LAYER_METRICS: list[tuple[str, str, str, str, tuple[str, ...]]] = [
    ("topology.csr.gnp_s", "s", "lower", "setup_s,wall_s@scale_gnp", ("mc_sweep", "claims_quick")),
    ("topology.csr.edges", "count", "lower", "setup_s,wall_s@scale_gnp", ("mc_sweep", "claims_quick")),
    ("sim.channel.compile_s", "s", "lower", "wall_s@scale_gnp", ()),
    ("sim.macro.run_s", "s", "lower", "wall_s@scale_gnp", ("mc_sweep", "claims_quick")),
    ("sim.macro.slots", "count", "lower", "wall_s@scale_gnp", ("mc_sweep", "claims_quick")),
    ("sim.macro.slots_per_s", "1/s", "higher", "wall_s@scale_gnp", ("mc_sweep", "claims_quick")),
    ("sim.serialization.save_s", "s", "lower", "wall_s@scale_gnp", ("mc_sweep",)),
    ("sim.serialization.bytes", "B", "lower", "wall_s@scale_gnp", ("mc_sweep",)),
    ("sim.fast.coins_s", "s", "lower", "wall_s@mc_sweep", ()),
    ("sim.fast.channel_s", "s", "lower", "wall_s@mc_sweep", ()),
    ("sim.fast.step_s", "s", "lower", "wall_s@mc_sweep", ()),
    ("sim.fast.trial_slots", "count", "lower", "wall_s@mc_sweep", ()),
    ("sim.fast.us_per_slot", "us", "lower", "wall_s@mc_sweep,claims_quick", ()),
    ("sweep.runner.queue_wait_s", "s", "lower", "wall_s@mc_sweep", ("scale_gnp", "claims_quick")),
    ("sweep.runner.execute_s", "s", "lower", "wall_s@mc_sweep", ("scale_gnp", "claims_quick")),
    ("sweep.runner.point_max_s", "s", "lower", "wall_s@mc_sweep", ("scale_gnp", "claims_quick")),
    ("sweep.runner.worker_busy_frac", "ratio", "higher", "wall_s@mc_sweep", ("scale_gnp", "claims_quick")),
    ("sweep.cache.put_s", "s", "lower", "wall_s@mc_sweep", ("scale_gnp", "claims_quick")),
    ("sweep.cache.get_s", "s", "lower", "wall_s@mc_sweep", ("scale_gnp", "claims_quick")),
    ("sweep.cache.hit_ratio", "ratio", "higher", "wall_s@mc_sweep", ("scale_gnp", "claims_quick")),
    ("sweep.cache.warm_s", "s", "lower", "wall_s@mc_sweep", ("scale_gnp", "claims_quick")),
    ("topology.layered.build_s", "s", "lower", "wall_s@mc_sweep", ()),
    ("sim.engine.run_s", "s", "lower", "wall_s@claims_quick", ("scale_gnp", "mc_sweep")),
    ("sim.engine.slots", "count", "lower", "wall_s@claims_quick", ("scale_gnp", "mc_sweep")),
    ("sim.engine.us_per_slot", "us", "lower", "wall_s@claims_quick", ("scale_gnp", "mc_sweep")),
    ("sim.event.run_s", "s", "lower", "wall_s@claims_quick", ("scale_gnp", "mc_sweep")),
    ("sim.batched_event.run_s", "s", "lower", "wall_s@claims_quick", ("scale_gnp", "mc_sweep")),
    ("adversary.build_s", "s", "lower", "wall_s@claims_quick", ("scale_gnp", "mc_sweep")),
    ("combinatorics.build_s", "s", "lower", "wall_s@claims_quick", ("scale_gnp", "mc_sweep")),
    *(
        (f"experiments.e{i}_s", "s", "lower", "wall_s@claims_quick", ("scale_gnp", "mc_sweep"))
        for i in range(1, 13)
    ),
    ("trace.overhead_ratio", "ratio", "lower", "all", ()),
]


def _slots(args, out) -> dict:
    return {"slots": int(out)}


def _batch_slots(args, out) -> dict:
    return {"slots": int(out), "trial_slots": int(out) * int(args[0].trials)}


#: (module, attribute path, span name, counter function, is a span).
#: Counter functions map ``(positional args, return value)`` to counts; an
#: entry that is not a span only counts calls, so it does not take its
#: time out of the enclosing span's self time.
ENTRY_POINTS: list[tuple[str, str, str, Callable | None, bool]] = [
    ("repro.topology.csr", "gnp_random_csr", "topology.csr.gnp",
     lambda args, out: {"edges": out.num_edges}, True),
    ("repro.sim.channel", "ChannelKernel.__init__", "sim.channel.compile", None, True),
    ("repro.sim.macro", "run_broadcast_macro", "sim.macro.run", None, True),
    ("repro.sim.macro", "MacroStepEngine.run", "sim.macro.engine", _slots, False),
    ("repro.sim.serialization", "save_result", "sim.serialization.save",
     lambda args, out: {"bytes": os.path.getsize(args[1])}, True),
    ("repro.sim.fast", "BatchedFastEngine.run", "sim.fast.batch", _batch_slots, True),
    ("repro.sweep.cache", "ResultCache.get", "sweep.cache.get", None, True),
    ("repro.sweep.cache", "ResultCache.put", "sweep.cache.put", None, True),
    ("repro.sim.engine", "SynchronousEngine.run", "sim.engine.run", _slots, True),
    ("repro.sim.event", "EventDrivenEngine.run", "sim.event.run", None, True),
    ("repro.sim.batched_event", "BatchedEventEngine.run", "sim.batched_event.run", None, True),
    ("repro.adversary.construction", "LowerBoundConstruction.build", "adversary.build", None, True),
    ("repro.combinatorics.universal", "build_universal_sequence", "combinatorics.build", None, True),
    ("repro.combinatorics.selective", "greedy_selective_family", "combinatorics.build", None, True),
    ("repro.combinatorics.selective", "kautz_singleton_family", "combinatorics.build", None, True),
    ("repro.combinatorics.selective", "strongly_selective_family", "combinatorics.build", None, True),
]


class Tracer:
    """In-memory span recorder; spans nest by call stack (one thread)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        if not self.active:
            yield {}
            return
        record = {
            "name": name,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, counts: dict) -> None:
        """A zero-length marker carrying counts, outside the span tree."""
        if self.active:
            now = time.perf_counter()
            self.spans.append({
                "name": name, "id": len(self.spans), "parent": None,
                "start": now, "end": now, "marker": True, **counts,
            })

    def wrap(self, func: Callable, name: str, counter: Callable | None,
             is_span: bool) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            if not is_span:
                out = func(*args, **kwargs)
                self.count(name, counter(args, out) if counter else {})
                return out
            with self.span(name) as record:
                out = func(*args, **kwargs)
                if counter is not None:
                    record.update(counter(args, out))
            return out

        return wrapper


def install() -> Tracer:
    """Wrap every entry point of :data:`ENTRY_POINTS`; returns the tracer.

    Module-level functions are replaced wherever a loaded ``repro``
    module has bound them (``from x import f`` copies the reference), so
    every caller goes through the wrapper.
    """
    importlib.import_module("repro.experiments")
    importlib.import_module("repro.sweep")
    tracer = Tracer()
    for module_name, path, name, counter, is_span in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, tracer.wrap(owner.__dict__[attr], name, counter, is_span))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, name, counter, is_span)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name == "repro" or loaded_name.startswith("repro."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
    return tracer


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counts."""
    child_time: dict[int, float] = {}
    for record in spans:
        if record.get("parent") is not None:
            child_time[record["parent"]] = (
                child_time.get(record["parent"], 0.0) + record["end"] - record["start"]
            )
    out: dict[str, dict] = {}
    for record in spans:
        entry = out.setdefault(record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = record["end"] - record["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(record["id"], 0.0)
        for key, value in record.items():
            if key not in ("name", "id", "parent", "start", "end", "marker"):
                entry[key] = entry.get(key, 0) + value
    return out


def layer_metrics(summary: dict[str, dict], extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio``.

    ``extras`` holds the values a workload measures itself (the sweep's
    stage timings and cache passes); they override span-derived ones.
    Layers a workload never entered read 0.
    """

    def get(name: str, key: str = "self_s") -> float:
        return summary.get(name, {}).get(key, 0)

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    macro_s = get("sim.macro.run")
    batch_s = get("sim.fast.batch")
    engine_s = get("sim.engine.run")
    metrics = {
        "topology.csr.gnp_s": get("topology.csr.gnp"),
        "topology.csr.edges": get("topology.csr.gnp", "edges"),
        "sim.channel.compile_s": get("sim.channel.compile"),
        "sim.macro.run_s": macro_s,
        "sim.macro.slots": get("sim.macro.engine", "slots"),
        "sim.macro.slots_per_s": per(get("sim.macro.engine", "slots"), macro_s),
        "sim.serialization.save_s": get("sim.serialization.save"),
        "sim.serialization.bytes": get("sim.serialization.save", "bytes"),
        "sim.fast.step_s": batch_s,
        "sim.fast.trial_slots": get("sim.fast.batch", "trial_slots"),
        "sim.fast.us_per_slot": per(batch_s, get("sim.fast.batch", "slots"), 1e6),
        "sweep.cache.put_s": get("sweep.cache.put"),
        "sweep.cache.get_s": get("sweep.cache.get"),
        "sim.engine.run_s": engine_s,
        "sim.engine.slots": get("sim.engine.run", "slots"),
        "sim.engine.us_per_slot": per(engine_s, get("sim.engine.run", "slots"), 1e6),
        "sim.event.run_s": get("sim.event.run"),
        "sim.batched_event.run_s": get("sim.batched_event.run"),
        "adversary.build_s": get("adversary.build"),
        "combinatorics.build_s": get("combinatorics.build"),
    }
    for i in range(1, 13):
        metrics[f"experiments.e{i}_s"] = get(f"experiments.e{i}", "total_s")
    metrics.update(extras)
    return {
        name: float(metrics.get(name, 0.0))
        for name, *_ in LAYER_METRICS
        if name != "trace.overhead_ratio"
    }
