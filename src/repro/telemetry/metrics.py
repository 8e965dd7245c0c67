"""Metrics registry: counters, gauges, and histograms.

A deliberately small, dependency-free metrics surface modelled on the
Prometheus data model: named instruments, optional label sets, cheap
hot-path updates, and a :meth:`MetricsRegistry.snapshot` that renders
everything into plain JSON-able dicts for manifests and exporters.

Everything here is deterministic-friendly: instruments hold exact
integer/float aggregates (no reservoir sampling, no wall-clock decay),
so two runs of the same deterministic simulation produce equal
snapshots, and snapshots from parallel workers merge associatively via
:meth:`MetricsRegistry.merge_snapshot`.

Naming convention: dotted component paths (``vm.samples``,
``harness.baseline_cache.hits``); labels render Prometheus-style:
``vm.samples.by_function{function=main}``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError

#: Default histogram bucket upper bounds: powers of four give useful
#: resolution from single-cycle latencies up into the billions without
#: per-metric tuning. Values above the last bound land in +Inf.
DEFAULT_BUCKETS: Tuple[int, ...] = tuple(4 ** k for k in range(1, 16))

Labels = Tuple[Tuple[str, str], ...]


def _normalize_labels(labels: Union[Dict[str, str], Labels, None]) -> Labels:
    if not labels:
        return ()
    items = labels.items() if isinstance(labels, dict) else labels
    return tuple(sorted((str(k), str(v)) for k, v in items))


def metric_key(name: str, labels: Union[Dict[str, str], Labels, None] = None) -> str:
    """Render ``name`` + labels into the snapshot key."""
    norm = _normalize_labels(labels)
    if not norm:
        return name
    inner = ",".join(f"{k}={v}" for k, v in norm)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ReproError("counters only go up; use a gauge")
        self.value += amount

    def as_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def as_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Bucketed distribution with exact count/sum/min/max.

    ``bounds`` are inclusive upper bounds in increasing order; one
    implicit +Inf bucket catches the overflow.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, bounds: Optional[Sequence[int]] = None):
        bounds = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(set(bounds)):
            raise ReproError(
                f"histogram bounds must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[Union[int, float]] = None
        self.max: Optional[Union[int, float]] = None

    def observe(self, value: Union[int, float]) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # Linear scan: bounds lists are short and hot paths observe
        # mostly-small values that exit in the first few probes.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantiles(
        self, qs: Sequence[float] = (0.5, 0.9, 0.99)
    ) -> Dict[float, Optional[float]]:
        """Estimate quantiles from the bucket counts.

        Estimates interpolate within the containing bucket (Prometheus
        ``histogram_quantile`` style), clamped to the observed
        ``min``/``max`` so single-bucket distributions do not smear
        across the whole bucket span. Values landing in the +Inf
        overflow bucket report the observed ``max`` — the only finite
        statement the histogram can make about them. An empty histogram
        maps every quantile to None.
        """
        out: Dict[float, Optional[float]] = {}
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ReproError(f"quantile must be in [0, 1], got {q}")
            out[q] = quantile_from_buckets(
                self.bounds, self.bucket_counts, self.count, q,
                observed_min=self.min, observed_max=self.max,
            )
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
        }


def quantile_from_buckets(
    bounds: Sequence[Union[int, float]],
    bucket_counts: Sequence[int],
    count: int,
    q: float,
    observed_min: Optional[Union[int, float]] = None,
    observed_max: Optional[Union[int, float]] = None,
) -> Optional[float]:
    """The *q*-quantile implied by histogram buckets (None when empty).

    Works on snapshot dicts as well as live instruments: pass the
    ``bounds``/``buckets``/``count`` fields of a histogram's
    ``as_dict()`` form. Linear interpolation inside the containing
    bucket; the +Inf overflow bucket collapses to ``observed_max``
    (else the last finite bound) since its upper edge is unbounded.
    """
    if count <= 0:
        return None
    rank = q * count
    cumulative = 0
    for i, n in enumerate(bucket_counts):
        if n <= 0:
            continue
        if cumulative + n < rank:
            cumulative += n
            continue
        if i >= len(bounds):  # overflow bucket
            if observed_max is not None:
                return float(observed_max)
            return float(bounds[-1]) if bounds else None
        lower = float(bounds[i - 1]) if i > 0 else 0.0
        upper = float(bounds[i])
        if observed_min is not None:
            lower = max(lower, float(observed_min))
        if observed_max is not None:
            upper = min(upper, float(observed_max))
        if upper <= lower:
            return float(upper)
        fraction = (rank - cumulative) / n
        return lower + fraction * (upper - lower)
    # rank beyond the recorded mass (q == 1.0 with rounding): the max.
    if observed_max is not None:
        return float(observed_max)
    return float(bounds[-1]) if bounds else None


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    ``counter``/``gauge``/``histogram`` return the live instrument, so
    hot paths fetch once and update locally::

        samples = registry.counter("vm.samples")
        ...
        samples.inc()
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # -- get-or-create -----------------------------------------------------

    def counter(
        self, name: str, labels: Union[Dict[str, str], Labels, None] = None
    ) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(
        self, name: str, labels: Union[Dict[str, str], Labels, None] = None
    ) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(
        self,
        name: str,
        labels: Union[Dict[str, str], Labels, None] = None,
        bounds: Optional[Sequence[int]] = None,
    ) -> Histogram:
        key = metric_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Histogram(bounds)
            self._instruments[key] = instrument
        elif not isinstance(instrument, Histogram):
            raise ReproError(
                f"metric {key!r} is a {instrument.kind}, not a histogram"
            )
        return instrument

    def _get(self, name, labels, cls):
        key = metric_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls()
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ReproError(
                f"metric {key!r} is a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    # -- read side ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, key: str) -> bool:
        return key in self._instruments

    def get(self, key: str) -> Optional[Instrument]:
        """The live instrument under a rendered snapshot key, if any."""
        return self._instruments.get(key)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Sorted, JSON-able rendering of every instrument."""
        return {
            key: instrument.as_dict()
            for key, instrument in sorted(self._instruments.items())
        }

    # -- aggregation -------------------------------------------------------

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a pool worker's manifest)
        into this registry: counters add, gauges last-write-win,
        histograms merge bucket-for-bucket (bounds must agree)."""
        for key, payload in snapshot.items():
            mtype = payload.get("type")
            if mtype == "counter":
                self._get(key, None, Counter).value += int(payload["value"])
            elif mtype == "gauge":
                self._get(key, None, Gauge).value = payload["value"]
            elif mtype == "histogram":
                hist = self.histogram(key, bounds=payload["bounds"])
                if list(hist.bounds) != list(payload["bounds"]):
                    raise ReproError(
                        f"histogram {key!r}: bucket bounds disagree"
                    )
                hist.count += int(payload.get("count", 0))
                hist.sum += payload.get("sum", 0)
                for i, n in enumerate(payload.get("buckets", ())):
                    hist.bucket_counts[i] += int(n)
                # Tolerate payloads without min/max (empty or compacted
                # delta snapshots): absent observations tighten nothing.
                for attr, pick in (("min", min), ("max", max)):
                    theirs = payload.get(attr)
                    if theirs is None:
                        continue
                    ours = getattr(hist, attr)
                    setattr(
                        hist, attr,
                        theirs if ours is None else pick(ours, theirs),
                    )
            else:
                raise ReproError(
                    f"metric {key!r}: unknown snapshot type {mtype!r}"
                )

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_snapshot(other.snapshot())


def merge_metric_snapshots(
    snapshots: Iterable[Dict[str, Dict[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Fold snapshots into one through
    :meth:`MetricsRegistry.merge_snapshot` (the metrics counterpart of
    :func:`repro.profiling.merge_snapshots`)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()
