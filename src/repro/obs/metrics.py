"""Typed metrics primitives for the observability subsystem.

Three instrument kinds, mirroring the OpenMetrics trio but with zero
dependencies and deterministic, process-local semantics:

``Counter``
    Monotonically increasing integer — *work performed*.  The
    statistical test suite asserts exact equality between counters
    such as ``rr.samples_drawn`` and the work an algorithm claims to
    have done, so counters must never be approximate.

``Gauge``
    A point-in-time value (last write wins), e.g. the chosen ``theta``
    or the number of workers an engine ended up using.

``Histogram``
    Streaming summary (count / sum / min / max) plus log-linear
    buckets (eight linear sub-buckets per power-of-two octave), for
    distributions such as per-sample frontier sizes and sub-millisecond
    query latencies.

All instruments live in a :class:`MetricsRegistry`.  Registries are
cheap; one is created per :func:`repro.obs.observe` scope and thrown
away with it.  None of the code here reads clocks or RNGs — recording
a metric can never perturb an algorithm's random stream.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import ceil, ldexp
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_label",
    "bucket_quantile",
]


@dataclass
class Counter:
    """Monotonic integer counter.  ``inc`` by a non-negative amount."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r}: negative increment {amount}"
            )
        self.value += int(amount)

    def as_dict(self) -> int:
        return self.value


@dataclass
class Gauge:
    """Last-write-wins scalar."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> float:
        return self.value


#: Upper edges of the log-linear histogram buckets: eight linear
#: sub-buckets per power-of-two octave, from ``2**-10`` (about 1 µs in a
#: millisecond histogram) up to ``2**30``. Bucket ``(lower, edge]``
#: spans at most 1/8 of its lower edge (about 9% averaged over an
#: octave), so a quantile read from the buckets is that close to the
#: exact one. Every power of two is an edge.
_SUB_BUCKETS = 8
_BUCKET_EDGES: Tuple[float, ...] = (ldexp(1.0, -10),) + tuple(
    ldexp(_SUB_BUCKETS + j, octave - 3)
    for octave in range(-10, 30)
    for j in range(1, _SUB_BUCKETS + 1)
)
#: Bucket key per bucket index; the last bucket is the overflow (``-1``).
_BUCKET_KEYS: Tuple[float, ...] = _BUCKET_EDGES + (-1,)
#: Bucket index of a value in ``[0, 1]`` by ``ceil(value * 8192)``: every
#: edge up to 1 is a multiple of ``2**-13``, so no cell
#: ``((c - 1) / 8192, c / 8192]`` straddles an edge, and a sub-millisecond
#: latency is placed with one multiply and one tuple lookup.
_DENSE_SCALE = 8192.0
_DENSE_INDEX: Tuple[int, ...] = tuple(
    bisect_left(_BUCKET_EDGES, c / _DENSE_SCALE) for c in range(8193)
)


def bucket_label(edge: float) -> str:
    """Text form of a bucket edge (snapshot keys, OpenMetrics ``le``).

    Integral edges print without a fraction (``"4"``, ``"-1"`` for the
    overflow bucket), the rest as the shortest exact decimal
    (``"0.28125"``), so ``float`` reads every label back exactly.
    """
    edge = float(edge)
    return str(int(edge)) if edge.is_integer() else repr(edge)


def _lower_edge(edge: float) -> float:
    """The lower bound of the bucket whose upper edge is ``edge``."""
    i = bisect_left(_BUCKET_EDGES, edge)
    return _BUCKET_EDGES[i - 1] if i > 0 else 0.0


def bucket_quantile(
    buckets: Dict[float, int],
    count: int,
    q: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> float:
    """Quantile estimate from log-linear bucket counts.

    ``buckets`` maps each upper bucket edge to its observation count
    (``-1`` is the overflow bucket); ``count`` is the total. The
    estimate walks the cumulative counts to the bucket containing rank
    ``q * count`` and interpolates linearly between that bucket's lower
    and upper edges (*upper-bound interpolation*: with no information
    about the in-bucket distribution, mass is assumed uniform up to the
    upper edge, so the estimate is exact to within one sub-bucket, at
    most 1/8 of the value). ``lo``/``hi`` — the observed min/max, when
    known — clamp the estimate to the data's actual range.

    Shared by :meth:`Histogram.quantile` (which clamps to the
    histogram's min/max) and the rolling-window telemetry in
    :mod:`repro.obs.live` (which differences two bucket snapshots and
    has no min/max for the window).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count <= 0:
        return float("nan")
    target = q * count
    cumulative = 0
    for edge in sorted(e for e in buckets if e != -1):
        n = buckets[edge]
        if n <= 0:
            continue
        if cumulative + n >= target:
            lower = _lower_edge(edge)
            within = max(target - cumulative, 0.0) / n
            value = lower + (edge - lower) * within
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
        cumulative += n
    # The rank falls in the overflow bucket, which has no upper edge:
    # interpolate toward the observed max when known, else bound by one
    # more octave.
    lower = _BUCKET_EDGES[-1]
    upper = float(hi) if hi is not None and hi > lower else lower * 2.0
    n_over = buckets.get(-1, 0)
    if n_over <= 0:
        return upper if hi is not None else lower
    within = min(max(target - cumulative, 0.0) / n_over, 1.0)
    value = lower + (upper - lower) * within
    if lo is not None:
        value = max(value, lo)
    if hi is not None:
        value = min(value, hi)
    return value


@dataclass(slots=True)
class Histogram:
    """Streaming distribution summary with log-linear buckets.

    Bucket ``i`` counts observations ``v`` with
    ``edges[i-1] < v <= edges[i]`` (first bucket: ``v <= 2**-10``);
    values above the last edge land in an overflow bucket. Counts live
    in one list indexed by bucket, so recording a value is a lookup and
    an increment; :attr:`buckets` is the sparse ``{edge: count}`` view.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    counts: List[int] = field(
        default_factory=lambda: [0] * len(_BUCKET_KEYS), repr=False
    )

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if 0.0 <= value <= 1.0:
            self.counts[_DENSE_INDEX[ceil(value * _DENSE_SCALE)]] += 1
        else:
            # Negative values land in the first bucket, NaN and values
            # past the last edge in the overflow bucket.
            index = bisect_left(_BUCKET_EDGES, value)
            self.counts[index if value == value else -1] += 1

    def observe_many(self, values) -> None:
        for value in values:
            self.observe(value)

    @property
    def buckets(self) -> Dict[float, int]:
        """Non-empty buckets as ``{upper edge: count}`` (``-1``: overflow)."""
        return {
            _BUCKET_KEYS[i]: n for i, n in enumerate(self.counts) if n
        }

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the log-linear buckets.

        Upper-bound bucket interpolation (see :func:`bucket_quantile`),
        clamped to the observed ``[min, max]`` — so the estimate agrees
        with the exact percentile of the recorded values to within one
        sub-bucket. Returns ``nan`` for an empty histogram.
        """
        if not self.count:
            return float("nan")
        return bucket_quantile(
            self.buckets, self.count, q, lo=self.min, hi=self.max
        )

    def quantiles(
        self, qs: Iterable[float] = (0.5, 0.95, 0.99)
    ) -> Tuple[float, ...]:
        """Several quantile estimates at once (default p50/p95/p99)."""
        if not self.count:
            return tuple(float("nan") for _ in qs)
        buckets = self.buckets
        return tuple(
            bucket_quantile(buckets, self.count, q, lo=self.min, hi=self.max)
            for q in qs
        )

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            p50, p95, p99 = self.quantiles((0.5, 0.95, 0.99))
            out["p50"] = p50
            out["p95"] = p95
            out["p99"] = p99
            out["buckets"] = {
                bucket_label(k): v for k, v in sorted(self.buckets.items())
            }
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in: summaries combine, buckets add exactly."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Create-on-demand collection of named instruments.

    Names are dotted strings (``"rr.samples_drawn"``).  Requesting the
    same name twice returns the same instrument; requesting it with a
    different kind raises, so a typo can't silently fork a metric.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, kind: type) -> Instrument:
        found = self._instruments.get(name)
        if found is None:
            found = kind(name=name)
            self._instruments[name] = found
        elif type(found) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(found).__name__}, not {kind.__name__}"
            )
        return found

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    # -- convenience recording -------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def record(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- introspection ---------------------------------------------------

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def value(self, name: str, default: int = 0) -> int | float:
        """Value of a counter/gauge, or ``default`` if absent."""
        found = self._instruments.get(name)
        if found is None:
            return default
        if isinstance(found, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; use .get()")
        return found.value

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Serializable snapshot, grouped by instrument kind."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                counters[name] = inst.as_dict()
            elif isinstance(inst, Gauge):
                gauges[name] = inst.as_dict()
            else:
                histograms[name] = inst.as_dict()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges overwrite,
        histograms combine summaries and buckets."""
        for inst in other:
            kind = type(inst)
            mine = self._get(inst.name, kind)
            if kind is Counter:
                mine.value += inst.value  # counter values never go negative
            elif kind is Gauge:
                mine.value = inst.value
            else:
                mine.merge(inst)

    def reset(self) -> None:
        self._instruments.clear()
