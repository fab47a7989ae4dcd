"""Metric instruments and the registry that owns them.

The paper's evaluation is entirely about *where time goes* (connection
setup, range round trips, replica recovery), so every layer of the
client and server records into a shared :class:`MetricsRegistry`:

* :class:`Counter` — monotonically increasing totals
  (``pool.acquire_total``, ``session.connect_total``);
* :class:`Gauge` — point-in-time values (``pool.idle_sessions``);
* :class:`Histogram` — distributions with bucketed counts and exact
  percentiles over a bounded sample (``session.connect_seconds``).

Each instrument *family* is keyed by name and fans out into labeled
series (``pool.acquire_total{outcome=hit}`` vs ``{outcome=miss}``), the
Prometheus data model in miniature. Registries are cheap dictionaries —
safe to create per-:class:`~repro.core.context.Context` and to leave
always-on in benchmarks.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Cap on the exact-sample reservoir a histogram keeps for percentiles.
_SAMPLE_CAP = 4096

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(pairs) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in pairs))


class Counter:
    """A monotonically increasing total for one labeled series.

    Updates are guarded by a per-instrument lock: writers on different
    threads (or dispatcher lanes) may increment the same series
    concurrently, and ``+=`` on a float is not atomic under threads.
    Reads stay lock-free — a float load is atomic enough for snapshots.
    """

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"<Counter {format_series(self.name, self.labels)}={self._value}>"


class Gauge:
    """A point-in-time value that can move both ways.

    Like :class:`Counter`, mutation takes a per-instrument lock so
    concurrent ``add``/``set`` calls never lose updates; reads are
    lock-free.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"<Gauge {format_series(self.name, self.labels)}={self._value}>"


class Histogram:
    """A distribution: bucketed counts plus an exact bounded sample.

    Buckets follow the Prometheus convention — each bound counts
    observations ``<= bound`` with an implicit ``+Inf`` bucket at the
    end. Percentiles are exact while fewer than the sample cap (4096)
    values have been observed, then computed over the retained sample.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a sorted non-empty sequence")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._sample: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            # The first bound >= value; past the last is the +Inf bucket.
            self.bucket_counts[bisect_left(self.buckets, value)] += 1
            if len(self._sample) < _SAMPLE_CAP:
                self._sample.append(value)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """q-th percentile (q in [0, 1]) over the retained sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._sample:
            return None
        ordered = sorted(self._sample)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def __repr__(self) -> str:
        return (
            f"<Histogram {format_series(self.name, self.labels)} "
            f"count={self.count} sum={self.sum:.6g}>"
        )


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Resolved(dict):
    """``(kind, name, *label pairs as passed) -> instrument``; a key it
    lacks takes the registry's locked creation path."""

    __slots__ = ("registry",)

    def __missing__(self, key):
        return self.registry._series(key)


def format_series(name: str, labels: LabelKey) -> str:
    """Render ``name{k=v,...}`` for one labeled series."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Owns every instrument family; the per-Context composition point.

    ``registry.counter("pool.acquire_total", outcome="hit").inc()``
    creates the family and the labeled series on first use and returns
    the same instrument afterwards. Registering the same name with a
    different instrument kind raises — a name means one thing. A
    lookup that hits is one get on :attr:`resolved`, keyed as passed
    (no label sort, no lock); hot owners index it with constant keys.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: name -> (kind, {label_key -> instrument})
        self._families: Dict[str, Tuple[str, Dict[LabelKey, object]]] = {}
        self.resolved = _Resolved()
        self.resolved.registry = self

    # -- instrument accessors -------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        """The counter series ``name{labels}`` (created on first use)."""
        return self.resolved[("counter", name, *labels.items())]

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge series ``name{labels}`` (created on first use)."""
        return self.resolved[("gauge", name, *labels.items())]

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        """The histogram series ``name{labels}`` (created on first use)."""
        key = ("histogram", name, *labels.items())
        return self.resolved.get(key) or self._series(key, buckets)

    def _series(self, resolved_key, buckets=None):
        kind, name, *pairs = resolved_key
        key = _label_key(pairs)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, {})
                self._families[name] = family
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} is a {family[0]}, not a {kind}"
                )
            series = family[1].get(key)
            if series is None:
                if kind == "histogram":
                    series = Histogram(
                        name, key, buckets=buckets or DEFAULT_BUCKETS
                    )
                else:
                    series = _KINDS[kind](name, key)
                family[1][key] = series
            # Only str labels are remembered as passed: as keys 1 and
            # True are equal, yet they name series "1" and "True".
            if all(type(value) is str for _, value in pairs):
                self.resolved[resolved_key] = series
            return series

    # -- read side ------------------------------------------------------------

    def value(self, name: str, **labels) -> Optional[float]:
        """Current value of a counter/gauge series; None if absent."""
        return getattr(self.get(name, **labels), "value", None)

    def get(self, name: str, **labels):
        """The instrument for ``name{labels}``; None if absent."""
        family = self._families.get(name)
        if family is None:
            return None
        return family[1].get(_label_key(labels.items()))

    def series(self) -> Iterator[object]:
        """Every instrument, sorted by name then label key."""
        for name in sorted(self._families):
            _, by_label = self._families[name]
            for key in sorted(by_label):
                yield by_label[key]

    def snapshot(self) -> Dict[str, object]:
        """``series-string -> value`` (histograms map to (count, sum))."""
        out: Dict[str, object] = {}
        for instrument in self.series():
            key = format_series(instrument.name, instrument.labels)
            if instrument.kind == "histogram":
                out[key] = (instrument.count, instrument.sum)
            else:
                out[key] = instrument.value
        return out

    # -- aggregation ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s series into this registry; returns self.

        The per-shard / per-worker aggregation primitive: each of
        ``other``'s labeled series is combined into the series with the
        *same* name and label set here (created on demand), so distinct
        label sets never collide. Counters and gauges add; histograms
        sum bucket counts exactly (same bucket bounds required), add
        ``count``/``sum``, widen min/max and concatenate the percentile
        samples up to the cap. A name registered with different kinds
        on the two sides raises ``ValueError``.
        """
        for instrument in other.series():
            labels = dict(instrument.labels)
            if instrument.kind == "counter":
                self.counter(instrument.name, **labels).inc(
                    instrument.value
                )
            elif instrument.kind == "gauge":
                self.gauge(instrument.name, **labels).add(
                    instrument.value
                )
            else:
                self._merge_histogram(instrument, labels)
        return self

    def _merge_histogram(self, theirs: Histogram, labels: Dict[str, str]):
        mine = self.histogram(
            theirs.name, buckets=theirs.buckets, **labels
        )
        if mine.buckets != theirs.buckets:
            raise ValueError(
                f"histogram {theirs.name!r}: bucket bounds differ "
                f"({mine.buckets} vs {theirs.buckets})"
            )
        with mine._lock:
            for index, bucket_count in enumerate(theirs.bucket_counts):
                mine.bucket_counts[index] += bucket_count
            mine.count += theirs.count
            mine.sum += theirs.sum
            if mine.min is None:
                mine.min, mine.max = theirs.min, theirs.max
            elif theirs.min is not None:
                mine.min = min(mine.min, theirs.min)
                mine.max = max(mine.max, theirs.max)
            room = _SAMPLE_CAP - len(mine._sample)
            if room > 0:
                mine._sample.extend(theirs._sample[:room])

    def __len__(self) -> int:
        return sum(len(f[1]) for f in self._families.values())
