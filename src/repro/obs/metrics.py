"""Lightweight metrics registry: counters, gauges, histograms.

The registry is pull-based and in-process — instruments are plain Python
objects the engines increment, snapshot with :meth:`MetricsRegistry.to_dict`,
and merge across workers/trials.  There is no background thread, no
global state, and no sampling: disabled means *absent* (``metrics=None``
everywhere), so the uninstrumented paths execute zero metrics code.

Histograms use **fixed bucket edges** so that merged snapshots (across
sweep points, workers, or repeated runs) stay exact: bucket ``i`` counts
observations ``edges[i-1] < x <= edges[i]`` with an unbounded overflow
bucket at the end.  The canonical metric names and bucket layouts used
by the engines are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "FRACTION_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLOT_BUCKETS",
]

#: Power-of-two edges for slot counts (broadcast times): 1 .. 131072.
SLOT_BUCKETS: tuple[int, ...] = tuple(2**i for i in range(18))

#: Edges for small event counts (transmissions per node, collisions per
#: slot): zero gets its own bucket, then powers of two up to 1024.
COUNT_BUCKETS: tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Decile edges for ratios in ``[0, 1]`` (e.g. the wasted-slot fraction
#: of a forensics report); values are exact at the edges, so 0.0 and 1.0
#: land in their own buckets.
FRACTION_BUCKETS: tuple[float, ...] = tuple(i / 10 for i in range(11))


class Counter:
    """Monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-observed value (e.g. informed-node count, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max summary stats.

    Args:
        name: Metric name.
        edges: Strictly ascending bucket *upper* edges.  Bucket ``i``
            holds observations ``x <= edges[i]`` (and ``> edges[i-1]``);
            one extra overflow bucket holds everything above the last
            edge.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum", "minimum", "maximum")

    def __init__(self, name: str, edges: Sequence[float]):
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError(f"histogram edges must be ascending, got {edges!r}")
        self.name = name
        self.edges: tuple[float, ...] = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0
        self.sum = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations (vectorised for arrays)."""
        array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if array.size == 0:
            return
        array = array.ravel()
        per_bucket = np.bincount(
            np.searchsorted(self.edges, array, side="left"), minlength=len(self.counts)
        ).tolist()
        for index in np.flatnonzero(per_bucket).tolist():
            self.counts[index] += per_bucket[index]
        self.total += int(array.size)
        self.sum += float(array.sum())
        low, high = float(array.min()), float(array.max())
        if self.minimum is None or low < self.minimum:
            self.minimum = low
        if self.maximum is None or high > self.maximum:
            self.maximum = high

    def observe_repeated(self, value: float, count: int) -> None:
        """Record ``count`` observations of the same ``value`` at once.

        Exactly equivalent to calling :meth:`observe` ``count`` times
        (integer-valued sums stay exact); the batched engine uses this to
        flush its buffered zero-collision slots in O(1).
        """
        if count <= 0:
            return
        self.counts[bisect_left(self.edges, value)] += count
        self.total += count
        self.sum += value * count
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def merge(self, other: "Histogram", weight: int = 1) -> None:
        """Fold another histogram with identical edges into this one.

        ``weight > 1`` folds ``other`` in with multiplicity, exactly as if
        ``weight`` identical copies had been merged: bucket counts, total,
        and sum scale; min/max do not (repeating observations cannot move
        the extremes).  The batched event engine uses this to account one
        representative execution for a whole class of identical trials.
        """
        if other.edges != self.edges:
            raise ValueError(
                f"cannot merge histogram {other.name!r}: edges differ "
                f"({other.edges} vs {self.edges})"
            )
        if weight < 1:
            raise ValueError(f"merge weight must be positive, got {weight}")
        self.counts = [
            a + b * weight for a, b in zip(self.counts, other.counts)
        ]
        self.total += other.total * weight
        self.sum += other.sum * weight
        for bound in (other.minimum,):
            if bound is not None and (self.minimum is None or bound < self.minimum):
                self.minimum = bound
        for bound in (other.maximum,):
            if bound is not None and (self.maximum is None or bound > self.maximum):
                self.maximum = bound

    def to_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry:
    """Named instruments, created lazily on first use.

    The registry is the unit that travels: engines fill one, sweep
    workers serialise theirs into the point payload, and the parent (or
    ``repro report``) merges the snapshots back together.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, edges: Sequence[float] = COUNT_BUCKETS) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, edges)
        elif tuple(edges) != instrument.edges:
            raise ValueError(
                f"histogram {name!r} already registered with edges "
                f"{instrument.edges}, requested {tuple(edges)}"
            )
        return instrument

    def merge(self, other: "MetricsRegistry", weight: int = 1) -> "MetricsRegistry":
        """Fold another registry's instruments into this one.

        ``weight > 1`` merges with multiplicity: counters and histogram
        tallies count as if ``weight`` identical registries had been
        folded in, while gauges (last-observed values) are simply taken
        from ``other`` regardless of weight.  This is how an execution
        class of ``weight`` provably-identical trials accounts for all
        its members at once.
        """
        if weight < 1:
            raise ValueError(f"merge weight must be positive, got {weight}")
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value * weight)
        for name, gauge in other.gauges.items():
            self.gauge(name).set(gauge.value)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histogram(name, histogram.edges)
            mine.merge(histogram, weight)
        return self

    def to_dict(self) -> dict:
        """JSON-safe snapshot of every instrument."""
        return {
            "counters": {
                name: counter.value for name, counter in sorted(self.counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self.gauges.items())
            },
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry.counter(name).inc(int(value))
        for name, value in payload.get("gauges", {}).items():
            registry.gauge(name).set(value)
        for name, data in payload.get("histograms", {}).items():
            histogram = registry.histogram(name, tuple(data["edges"]))
            histogram.counts = [int(c) for c in data["counts"]]
            histogram.total = int(data["count"])
            histogram.sum = float(data["sum"])
            histogram.minimum = data.get("min")
            histogram.maximum = data.get("max")
        return registry
