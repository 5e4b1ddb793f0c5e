"""Process-wide runtime metrics: counters, gauges and log-bucket histograms.

The tracing layer (PR 7, :mod:`repro.runtime.tracing`) answers "where did
*this one run* spend its time"; this module is the aggregating counterpart:
a thread-safe :class:`MetricsRegistry` that accumulates counters, gauges and
fixed-log-bucket histograms *across* runs, processes and distributed ranks,
and exposes them in Prometheus text format
(:meth:`MetricsRegistry.render_prometheus`) and as a JSON-serializable dict
(:meth:`MetricsRegistry.snapshot`).

Cross-process aggregation uses the same shuttle pattern as PR 7's trace
spans: a child process (a distributed rank) records into a
local registry and ships :meth:`MetricsRegistry.snapshot` -- a plain,
picklable dict -- back to the parent, which folds it in with
:meth:`MetricsRegistry.merge`.  Merging is associative and commutative
(counters and gauges add, histogram bucket counts and sums add, min/max
combine), so rank snapshots can arrive and be folded in any order and the
aggregate is independent of it -- the invariant the merge tests assert.

Metric identity is ``(name, labels)``: one *family* per name (carrying the
Prometheus type and help text), one *series* per distinct label set.  Names
follow the Prometheus conventions used throughout the repo: the ``repro_``
prefix, ``_total`` suffix on counters, ``_seconds`` / ``_bytes`` unit
suffixes, and label keys like ``backend`` / ``kind`` / ``rank`` / ``src`` /
``dst``.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "LATENCY_BUCKETS",
    "BYTES_BUCKETS",
    "COUNT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Immutable, sorted ``((key, value), ...)`` label representation.
LabelSet = Tuple[Tuple[str, str], ...]


def log_buckets(lo: float, hi: float, *, per_decade: int = 2) -> Tuple[float, ...]:
    """Fixed log-scale histogram bucket bounds covering ``[lo, hi]``.

    Bounds are ``10 ** (k / per_decade)`` for every integer ``k`` whose bound
    falls inside the (inclusive) range -- e.g. ``log_buckets(1e-6, 100.0)``
    spans a microsecond to 100 seconds with two buckets per decade.  Fixed
    bounds are what make histogram snapshots mergeable across processes: all
    parties bucket identically by construction.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade <= 0:
        raise ValueError("per_decade must be positive")
    k_lo = math.ceil(round(math.log10(lo) * per_decade, 9))
    k_hi = math.floor(round(math.log10(hi) * per_decade, 9))
    return tuple(10.0 ** (k / per_decade) for k in range(k_lo, k_hi + 1))


#: Half-decade latency buckets, one microsecond .. 100 seconds.
LATENCY_BUCKETS: Tuple[float, ...] = log_buckets(1e-6, 100.0, per_decade=2)

#: Power-of-4 byte-size buckets, 1 B .. 1 GiB-ish.
BYTES_BUCKETS: Tuple[float, ...] = tuple(float(4 ** k) for k in range(16))

#: Power-of-2 count buckets (batch sizes, queue depths), 1 .. 1024.
COUNT_BUCKETS: Tuple[float, ...] = tuple(float(2 ** k) for k in range(11))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _labelset(labels: Mapping[str, Any]) -> LabelSet:
    out = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        out.append((key, str(labels[key])))
    return tuple(out)


class Counter:
    """A monotonically increasing sum (one labelled series of a family)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (one labelled series of a family).

    A gauge family declares its merge ``mode`` at registration: ``"sum"``
    gauges add on snapshot merge (like counters); ``"max"`` gauges keep the
    largest value -- the right semantics for high-water marks like peak RSS
    or queue depth, where summing two observations of the same process would
    double-count.  Both modes are associative and commutative.  Per-rank
    gauges additionally carry a ``rank`` label so distinct processes never
    share a series.
    """

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is below (high-water updates)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed log-scale-bucket histogram (one labelled series of a family).

    ``bounds`` are the ascending finite bucket upper bounds; observations
    above the last bound land in the implicit ``+Inf`` overflow bucket.
    Because the bounds are fixed at construction, two histograms of the same
    family bucket identically and their snapshots merge exactly (bucket
    counts and sums add; min/max combine).
    """

    __slots__ = ("name", "labels", "bounds", "_lock", "counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        lock: threading.Lock,
        bounds: Tuple[float, ...],
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._lock = lock
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        idx = 0
        bounds = self.bounds
        while idx < len(bounds) and value > bounds[idx]:
            idx += 1
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile observation."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for idx, n in enumerate(self.counts):
            seen += n
            if seen >= target and n:
                if idx < len(self.bounds):
                    return self.bounds[idx]
                return self.max
        return self.max

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable snapshot (count/total/mean/min/max/p50/p95 + buckets)."""
        buckets = {
            f"le_{self.bounds[i]:.4g}": n
            for i, n in enumerate(self.counts[:-1])
            if n
        }
        if self.counts[-1]:
            buckets["overflow"] = self.counts[-1]
        return {
            "count": self.count,
            "total": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "buckets": buckets,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One metric name: its kind, help text, bucket layout and label series."""

    __slots__ = ("name", "kind", "help", "bounds", "mode", "series")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        bounds: Optional[Tuple[float, ...]],
        mode: str = "sum",
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = bounds
        self.mode = mode
        self.series: Dict[LabelSet, Any] = {}


class MetricsRegistry:
    """A thread-safe collection of metric families with mergeable snapshots.

    The accessor methods (:meth:`counter` / :meth:`gauge` / :meth:`histogram`)
    are get-or-create: the first call for a name fixes its kind, help text
    and (for histograms) bucket bounds; later calls with the same name and
    labels return the existing series, and a conflicting kind or bucket
    layout raises.  One registry is intended per aggregation domain -- a
    service, a CLI invocation, a worker rank -- and child domains ship their
    :meth:`snapshot` to the parent's :meth:`merge`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    # -- get-or-create accessors ---------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        bounds: Optional[Tuple[float, ...]],
        mode: str = "sum",
    ) -> _Family:
        _check_name(name)
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help, bounds, mode)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        if kind == "gauge" and family.mode != mode:
            raise ValueError(
                f"gauge {name!r} already registered with merge mode {family.mode!r}"
            )
        if kind == "histogram" and bounds is not None and family.bounds != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """Get or create the counter series ``name{labels}``."""
        key = _labelset(labels)
        with self._lock:
            family = self._family(name, "counter", help, None)
            metric = family.series.get(key)
            if metric is None:
                metric = Counter(name, key, self._lock)
                family.series[key] = metric
        return metric

    def gauge(self, name: str, help: str = "", *, mode: str = "sum", **labels: Any) -> Gauge:
        """Get or create the gauge series ``name{labels}``.

        ``mode`` fixes the family's snapshot-merge semantics on first use:
        ``"sum"`` (default) or ``"max"`` for high-water marks.
        """
        if mode not in ("sum", "max"):
            raise ValueError(f"unknown gauge merge mode {mode!r}")
        key = _labelset(labels)
        with self._lock:
            family = self._family(name, "gauge", help, None, mode)
            metric = family.series.get(key)
            if metric is None:
                metric = Gauge(name, key, self._lock)
                family.series[key] = metric
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """Get or create the histogram series ``name{labels}``.

        ``buckets`` fixes the family's bucket bounds on first use; later
        calls must agree (pass the same tuple or rely on the default).
        """
        key = _labelset(labels)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be strictly ascending")
        with self._lock:
            family = self._family(name, "histogram", help, bounds)
            if family.bounds is None:
                family.bounds = bounds
            metric = family.series.get(key)
            if metric is None:
                metric = Histogram(name, key, self._lock, family.bounds)
                family.series[key] = metric
        return metric

    # -- inspection -----------------------------------------------------------
    def families(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The existing series ``name{labels}``, or None."""
        key = _labelset(labels)
        with self._lock:
            family = self._families.get(name)
            return family.series.get(key) if family is not None else None

    def value(self, name: str, **labels: Any) -> float:
        """Convenience: current value of a counter/gauge series (0.0 if absent)."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0.0

    # -- snapshot / merge ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict, picklable, JSON-serializable copy of every series.

        The shuttle format of cross-process aggregation: child registries
        ship this dict to the parent's :meth:`merge`.  Histogram ``min`` is
        ``None`` when empty (JSON has no infinity).
        """
        out: Dict[str, Any] = {}
        with self._lock:
            for name, family in self._families.items():
                series = []
                for labels, metric in family.series.items():
                    entry: Dict[str, Any] = {"labels": [list(kv) for kv in labels]}
                    if family.kind == "histogram":
                        entry["counts"] = list(metric.counts)
                        entry["count"] = metric.count
                        entry["sum"] = metric.sum
                        entry["min"] = metric.min if metric.count else None
                        entry["max"] = metric.max if metric.count else None
                    else:
                        entry["value"] = metric.value
                    series.append(entry)
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "mode": family.mode,
                    "buckets": list(family.bounds) if family.bounds else None,
                    "series": series,
                }
        return out

    def merge(self, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` into this registry (associative, commutative).

        Counters and gauges add; histogram bucket counts and sums add and
        min/max combine.  Families and series absent here are created from
        the snapshot's metadata, so merging into an empty registry
        reconstructs the child exactly.
        """
        for name, fam in snapshot.items():
            kind = fam["kind"]
            if kind not in _KINDS:
                raise ValueError(f"snapshot family {name!r} has unknown kind {kind!r}")
            bounds = tuple(fam["buckets"]) if fam.get("buckets") else None
            for entry in fam["series"]:
                labels = {k: v for k, v in entry["labels"]}
                if kind == "counter":
                    self.counter(name, fam.get("help", ""), **labels).inc(entry["value"])
                elif kind == "gauge":
                    mode = fam.get("mode", "sum")
                    gauge = self.gauge(name, fam.get("help", ""), mode=mode, **labels)
                    if mode == "max":
                        gauge.set_max(entry["value"])
                    else:
                        gauge.add(entry["value"])
                else:
                    hist = self.histogram(
                        name, fam.get("help", ""),
                        buckets=bounds or LATENCY_BUCKETS, **labels,
                    )
                    counts = entry["counts"]
                    if len(counts) != len(hist.counts):
                        raise ValueError(
                            f"histogram {name!r}: snapshot has {len(counts)} buckets, "
                            f"registry has {len(hist.counts)}"
                        )
                    with self._lock:
                        for i, c in enumerate(counts):
                            hist.counts[i] += c
                        hist.count += entry["count"]
                        hist.sum += entry["sum"]
                        if entry.get("min") is not None and entry["min"] < hist.min:
                            hist.min = entry["min"]
                        if entry.get("max") is not None and entry["max"] > hist.max:
                            hist.max = entry["max"]
        return self

    # -- exposition ------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        from repro.obs.exposition import render_prometheus

        return render_prometheus(self.snapshot())

    def as_dict(self) -> Dict[str, Any]:
        """Alias of :meth:`snapshot` (the JSON surface of ``repro metrics``)."""
        return self.snapshot()

    def __repr__(self) -> str:
        with self._lock:
            nseries = sum(len(f.series) for f in self._families.values())
            return f"MetricsRegistry(families={len(self._families)}, series={nseries})"


def merge_snapshots(*snapshots: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge snapshot dicts into one (the parent-side fold, as a function)."""
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge(snap)
    return registry.snapshot()
