"""Live telemetry for the campaign server (``repro.obs.live``).

Batch observability (:mod:`repro.obs`) flushes reports at exit; this
module watches a *running* :class:`~repro.serve.CampaignServer`
continuously, with three cooperating pieces:

``TelemetryExporter``
    A background thread that snapshots ``server.metrics()`` every
    ``interval`` seconds into a rolling window and computes
    *delta-aware* SLO summaries: windowed qps, error rate and error
    budget, cache hit ratio, and per-op p50/p95/p99 latency from
    differenced histogram buckets. Snapshots use the same
    lock-ordering-safe ``metrics()`` path queries use, so a scrape can
    never deadlock against (or perturb) query traffic.

``TelemetryEndpoint``
    An embedded stdlib ``http.server`` (own daemon thread, thread-per
    -request) serving:

    * ``GET /metrics``  — OpenMetrics/Prometheus text exposition of
      every server counter/gauge/histogram plus the exporter's rolling
      -window gauges;
    * ``GET /healthz``  — JSON admission/queue/closed state (HTTP 503
      once the server is closed);
    * ``GET /events``   — recent query-lifecycle events (schema
      ``repro.obs.events/2``; against a shard router this is the
      causally merged fleet stream);
    * ``GET /trace``    — the stitched Chrome-trace document
      (``repro.obs.trace/1``; ``enabled: false`` when tracing is off);
    * ``GET /debug/slow`` — the slow-query flight-recorder ring
      (``repro.obs.flight/1``).

``start_live_telemetry``
    Convenience wiring for ``repro serve --listen HOST:PORT``: starts
    an exporter + endpoint pair and returns a handle whose ``close()``
    tears both down (idempotently, leaking no threads).

Everything here is read-only with respect to the server: scraping
``/metrics`` in a tight loop changes no query result and no work
counter (asserted by the scrape-under-load differential test). When no
exporter/endpoint is created the serving layer pays nothing.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import bucket_label, bucket_quantile

__all__ = [
    "OPENMETRICS_CONTENT_TYPE",
    "LiveTelemetry",
    "Scrape",
    "TelemetryEndpoint",
    "TelemetryExporter",
    "merge_metrics_snapshots",
    "parse_listen_address",
    "parse_openmetrics",
    "quantile_from_cumulative",
    "render_dashboard",
    "render_openmetrics",
    "start_live_telemetry",
]

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Registry names under this prefix are one histogram *family* with an
#: ``op`` label (``serve.op.latency_ms.find_seeds`` →
#: ``repro_serve_op_latency_ms{op="find_seeds"}``).
_OP_LATENCY_PREFIX = "serve.op.latency_ms."

#: ``worker.<id>.<field>`` names (injected post-merge by the shard
#: router) become one family per field with a ``worker`` label
#: (``worker.w0.queries`` → ``repro_worker_queries{worker="w0"}``), so
#: per-worker series never sum away in the fleet exposition.
_WORKER_METRIC_RE = re.compile(r"^worker\.([^.]+)\.([A-Za-z0-9_.]+)$")


def _split_worker_series(
    values: Optional[Dict[str, Any]],
) -> Tuple[Dict[str, Any], Dict[str, List[Tuple[str, Any]]]]:
    """Partition ``worker.<id>.<field>`` names into labeled families."""
    plain: Dict[str, Any] = {}
    families: Dict[str, List[Tuple[str, Any]]] = {}
    for name, value in (values or {}).items():
        match = _WORKER_METRIC_RE.match(name)
        if match:
            families.setdefault(match.group(2), []).append(
                (match.group(1), value)
            )
        else:
            plain[name] = value
    return plain, families


def _metric_name(name: str) -> str:
    """Dotted registry name → OpenMetrics metric name."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


# ---------------------------------------------------------------------------
# Multi-endpoint aggregation (shard router → one /metrics scrape)
# ---------------------------------------------------------------------------

#: Gauges that must NOT be summed across workers when snapshots merge.
#: ``serve.epoch`` is fleet-wide state (all workers pin the same epoch,
#: so max == the common value and a divergent worker only ever *raises*
#: the reported epoch, which monitoring catches); uptime is a property
#: of the service, not additive across processes; utilization is a
#: ratio, so the fleet figure is the mean.
_MERGE_GAUGE_MAX = frozenset({"serve.epoch", "serve.uptime_seconds"})
_MERGE_GAUGE_MEAN = frozenset({"serve.utilization"})


def merge_metrics_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-worker ``server.metrics()`` snapshots into one document.

    The shard router scrapes every worker process and answers a single
    ``/metrics`` exposition for the fleet. Merge semantics follow the
    instrument kinds: counters add (the exact-work-accounting invariant
    — fleet totals equal the sum of per-worker totals); histogram
    ``count``/``sum``/``buckets`` add bucket-wise with ``min``/``max``
    folded and the p50/p95/p99 estimates recomputed from the merged
    buckets; gauges add except for the fleet-level exceptions in
    :data:`_MERGE_GAUGE_MAX` / :data:`_MERGE_GAUGE_MEAN`. The result
    has the same shape as a single server's snapshot, so
    :func:`render_openmetrics` (and everything downstream of it)
    consumes it unchanged.

    Hardened against partial scrapes: a worker that died mid-scrape
    yields ``None`` (or a malformed fragment) instead of a snapshot —
    non-dict snapshots and non-numeric values are skipped rather than
    raising, so the fleet exposition degrades to the reachable workers
    (the router counts the gap in ``router.workers.unreachable``).
    """
    counters: Dict[str, float] = {}
    gauge_values: Dict[str, List[float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for name, value in (snap.get("counters") or {}).items():
            if not isinstance(value, (int, float)):
                continue
            counters[name] = counters.get(name, 0) + value
        for name, value in (snap.get("gauges") or {}).items():
            if not isinstance(value, (int, float)):
                continue
            gauge_values.setdefault(name, []).append(float(value))
        for name, hist in (snap.get("histograms") or {}).items():
            if not isinstance(hist, dict):
                continue
            agg = histograms.setdefault(
                name, {"count": 0, "sum": 0.0, "buckets": {}}
            )
            agg["count"] += int(hist.get("count") or 0)
            agg["sum"] += float(hist.get("sum") or 0.0)
            for edge, n in (hist.get("buckets") or {}).items():
                try:
                    # JSON transport stringifies keys
                    edge = float(edge)
                    n = int(n)
                except (TypeError, ValueError):
                    continue
                agg["buckets"][edge] = agg["buckets"].get(edge, 0) + n
            if hist.get("count"):
                if "min" in hist:
                    agg["min"] = min(agg.get("min", hist["min"]),
                                     hist["min"])
                if "max" in hist:
                    agg["max"] = max(agg.get("max", hist["max"]),
                                     hist["max"])

    gauges = {}
    for name, values in gauge_values.items():
        if name in _MERGE_GAUGE_MAX:
            gauges[name] = max(values)
        elif name in _MERGE_GAUGE_MEAN:
            gauges[name] = sum(values) / len(values)
        else:
            gauges[name] = sum(values)

    for name, agg in histograms.items():
        count = agg["count"]
        agg["mean"] = agg["sum"] / count if count else 0.0
        if count:
            for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                agg[label] = bucket_quantile(
                    agg["buckets"], count, q,
                    lo=agg.get("min"), hi=agg.get("max"),
                )
        agg["buckets"] = {
            bucket_label(k): v for k, v in sorted(agg["buckets"].items())
        }

    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


# ---------------------------------------------------------------------------
# OpenMetrics rendering
# ---------------------------------------------------------------------------


def render_openmetrics(
    metrics: Dict[str, Any], slo: Optional[Dict[str, Any]] = None
) -> str:
    """Render a ``server.metrics()`` snapshot as OpenMetrics text.

    ``metrics`` is the ``{"counters": ..., "gauges": ...,
    "histograms": ...}`` dict; ``slo`` is an optional
    :meth:`TelemetryExporter.summary` whose rolling-window rates and
    quantiles become labelled gauges. Output terminates with the
    mandatory ``# EOF`` marker.
    """
    lines: List[str] = []

    counters, worker_counters = _split_worker_series(
        metrics.get("counters")
    )
    gauges, worker_gauges = _split_worker_series(metrics.get("gauges"))

    for name in sorted(counters):
        value = counters[name]
        metric = _metric_name(name)
        lines.append(f"# HELP {metric} Counter {name}.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(value)}")

    for field_name in sorted(worker_counters):
        metric = _metric_name(f"worker.{field_name}")
        lines.append(
            f"# HELP {metric} Per-worker counter worker.<id>.{field_name}."
        )
        lines.append(f"# TYPE {metric} counter")
        for worker_id, value in sorted(worker_counters[field_name]):
            labels = _format_labels({"worker": worker_id})
            lines.append(f"{metric}_total{labels} {_format_value(value)}")

    for name in sorted(gauges):
        value = gauges[name]
        metric = _metric_name(name)
        lines.append(f"# HELP {metric} Gauge {name}.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(float(value))}")

    for field_name in sorted(worker_gauges):
        metric = _metric_name(f"worker.{field_name}")
        lines.append(
            f"# HELP {metric} Per-worker gauge worker.<id>.{field_name}."
        )
        lines.append(f"# TYPE {metric} gauge")
        for worker_id, value in sorted(worker_gauges[field_name]):
            labels = _format_labels({"worker": worker_id})
            lines.append(f"{metric}{labels} {_format_value(float(value))}")

    # Group histograms into families: the per-op latency histograms
    # share one family with an ``op`` label; everything else is its own
    # label-less family.
    families: Dict[str, List[Tuple[Dict[str, str], Dict[str, Any]]]] = {}
    for name in sorted(metrics.get("histograms") or {}):
        hist = metrics["histograms"][name]
        if name.startswith(_OP_LATENCY_PREFIX):
            family = _metric_name(_OP_LATENCY_PREFIX.rstrip("."))
            labels = {"op": name[len(_OP_LATENCY_PREFIX):]}
        else:
            family = _metric_name(name)
            labels = {}
        families.setdefault(family, []).append((labels, hist))

    for family in sorted(families):
        lines.append(f"# HELP {family} Histogram.")
        lines.append(f"# TYPE {family} histogram")
        for labels, hist in families[family]:
            count = int(hist.get("count") or 0)
            total = float(hist.get("sum") or 0.0)
            buckets = {
                float(edge): n
                for edge, n in (hist.get("buckets") or {}).items()
            }
            cumulative = 0
            for edge in sorted(e for e in buckets if e != -1):
                cumulative += buckets[edge]
                le = dict(labels, le=bucket_label(edge))
                lines.append(
                    f"{family}_bucket{_format_labels(le)} {cumulative}"
                )
            le = dict(labels, le="+Inf")
            lines.append(f"{family}_bucket{_format_labels(le)} {count}")
            lines.append(
                f"{family}_sum{_format_labels(labels)} "
                f"{_format_value(total)}"
            )
            lines.append(f"{family}_count{_format_labels(labels)} {count}")

    if slo and slo.get("samples", 0) >= 2:
        window = {"window": f"{slo['window_seconds']:.0f}s"}
        scalars = [
            ("repro_serve_window_qps", slo.get("qps")),
            ("repro_serve_window_error_rate", slo.get("error_rate")),
            (
                "repro_serve_window_error_budget_remaining",
                slo.get("error_budget_remaining"),
            ),
            (
                "repro_serve_window_cache_hit_ratio",
                slo.get("cache_hit_ratio"),
            ),
        ]
        for metric, value in scalars:
            if value is None:
                continue
            lines.append(f"# TYPE {metric} gauge")
            lines.append(
                f"{metric}{_format_labels(window)} "
                f"{_format_value(float(value))}"
            )
        latency = slo.get("latency_ms") or {}
        if latency:
            metric = "repro_serve_window_latency_ms"
            lines.append(f"# TYPE {metric} gauge")
            for op in sorted(latency):
                for q_key, q_label in (
                    ("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99"),
                ):
                    labels = dict(window, op=op, quantile=q_label)
                    lines.append(
                        f"{metric}{_format_labels(labels)} "
                        f"{_format_value(float(latency[op][q_key]))}"
                    )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# OpenMetrics parsing (used by ``repro top`` and the CI smoke test)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


@dataclass
class Scrape:
    """Parsed OpenMetrics exposition (names, types, samples)."""

    families: Dict[str, str] = field(default_factory=dict)  # name -> type
    helps: Dict[str, str] = field(default_factory=dict)
    samples: List[Tuple[str, Dict[str, str], float]] = field(
        default_factory=list
    )
    complete: bool = False  # saw the trailing "# EOF"

    def value(self, name: str, **labels: str) -> Optional[float]:
        """First sample value matching ``name`` and the given labels."""
        for n, sample_labels, value in self.samples:
            if n == name and all(
                sample_labels.get(k) == v for k, v in labels.items()
            ):
                return value
        return None

    def counter(self, name: str) -> float:
        """Counter total by registry-ish name (``_total`` implied)."""
        found = self.value(name if name.endswith("_total") else name + "_total")
        return found if found is not None else 0.0

    def label_values(self, name: str, key: str) -> List[str]:
        """Distinct values of label ``key`` across ``name``'s samples."""
        seen: List[str] = []
        for n, labels, _value in self.samples:
            if n == name and key in labels and labels[key] not in seen:
                seen.append(labels[key])
        return seen

    def histogram(
        self, family: str, **labels: str
    ) -> Tuple[Dict[str, float], float, float]:
        """One histogram series: cumulative ``{le: count}``, sum, count."""
        buckets: Dict[str, float] = {}
        for n, sample_labels, value in self.samples:
            if n == family + "_bucket" and all(
                sample_labels.get(k) == v for k, v in labels.items()
            ):
                buckets[sample_labels.get("le", "+Inf")] = value
        total = self.value(family + "_sum", **labels) or 0.0
        count = self.value(family + "_count", **labels) or 0.0
        return buckets, total, count


def parse_openmetrics(text: str) -> Scrape:
    """Parse OpenMetrics text exposition into a :class:`Scrape`."""
    scrape = Scrape()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "# EOF":
            scrape.complete = True
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            scrape.families[name] = kind.strip()
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            scrape.helps[name] = help_text.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable OpenMetrics line: {raw!r}")
        name, label_text, value_text = match.groups()
        labels = (
            {k: v for k, v in _LABEL_RE.findall(label_text)}
            if label_text
            else {}
        )
        scrape.samples.append((name, labels, float(value_text)))
    return scrape


def quantile_from_cumulative(
    cumulative: Dict[str, float], count: float, q: float
) -> float:
    """Quantile from scraped cumulative ``{le: count}`` buckets."""
    count = int(count)
    if count <= 0:
        return float("nan")
    finite = sorted(
        (float(k), k) for k in cumulative if k != "+Inf"
    )
    buckets: Dict[float, int] = {}
    previous = 0.0
    for edge, label in finite:
        buckets[edge] = max(int(cumulative[label] - previous), 0)
        previous = cumulative[label]
    overflow = max(int(count - previous), 0)
    if overflow:
        buckets[-1] = overflow
    return bucket_quantile(buckets, count, q)


# ---------------------------------------------------------------------------
# Exporter: rolling windows over periodic metric snapshots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Sample:
    t: float  # monotonic
    counters: Dict[str, int]
    histograms: Dict[str, Tuple[int, Dict[float, int]]]  # name -> (count, buckets)


class TelemetryExporter:
    """Periodic delta-aware snapshots of a server's metrics.

    The exporter thread calls ``server.metrics()`` every ``interval``
    seconds — the same deadlock-safe snapshot path queries use (cache
    stats are read before the metrics lock) — and retains samples
    spanning ``window_seconds``. :meth:`summary` differences the oldest
    and newest retained samples, so every rate and quantile it reports
    is *rolling-window*, not lifetime.

    The exporter never writes to the server; disabled (not
    constructed), the serving layer pays zero overhead.
    """

    def __init__(
        self,
        server,
        interval: float = 1.0,
        window_seconds: float = 60.0,
        slo_target: float = 0.999,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if window_seconds < interval:
            raise ValueError(
                f"window_seconds ({window_seconds}) must be >= "
                f"interval ({interval})"
            )
        if not 0.0 < slo_target <= 1.0:
            raise ValueError(
                f"slo_target must be in (0, 1], got {slo_target}"
            )
        self._server = server
        self.interval = float(interval)
        self.window_seconds = float(window_seconds)
        self.slo_target = float(slo_target)
        self._samples: "deque[_Sample]" = deque()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "TelemetryExporter":
        """Take a first sample and start the exporter thread (once)."""
        if self._thread is not None:
            return self
        self.sample_now()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-telemetry-exporter", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_now()
            except Exception:
                # Snapshots race server teardown; a transient failure
                # must not kill the exporter (the next tick retries).
                continue

    def stop(self) -> None:
        """Stop and join the exporter thread; idempotent."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None

    close = stop

    def __enter__(self) -> "TelemetryExporter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling --------------------------------------------------------
    def sample_now(self) -> _Sample:
        """Take one snapshot immediately (also used by tests)."""
        metrics = self._server.metrics()
        now = time.monotonic()
        histograms = {
            name: (
                int(hist.get("count") or 0),
                {
                    float(edge): n
                    for edge, n in (hist.get("buckets") or {}).items()
                },
            )
            for name, hist in (metrics.get("histograms") or {}).items()
        }
        sample = _Sample(
            t=now,
            counters=dict(metrics.get("counters") or {}),
            histograms=histograms,
        )
        with self._lock:
            self._samples.append(sample)
            # Retain one sample at or beyond the window edge so deltas
            # always span at least window_seconds once warmed up.
            cutoff = now - self.window_seconds
            while len(self._samples) > 2 and self._samples[1].t <= cutoff:
                self._samples.popleft()
        return sample

    @property
    def sample_count(self) -> int:
        with self._lock:
            return len(self._samples)

    # -- summaries -------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Rolling-window SLO summary from the retained samples.

        With fewer than two samples only ``{"samples": n}`` is
        returned; otherwise qps, error rate/budget, cache hit ratio,
        and per-op p50/p95/p99 latency over the window.
        """
        with self._lock:
            samples = list(self._samples)
        if len(samples) < 2:
            return {"samples": len(samples)}
        old, new = samples[0], samples[-1]
        dt = max(new.t - old.t, 1e-9)

        def delta(name: str) -> int:
            return new.counters.get(name, 0) - old.counters.get(name, 0)

        queries = delta("serve.queries")
        errors = delta("serve.errors")
        rejected = delta("serve.rejected")
        hits = delta("serve.cache.hits")
        misses = delta("serve.cache.misses")

        latency: Dict[str, Dict[str, float]] = {}
        for name, (new_count, new_buckets) in new.histograms.items():
            if not name.startswith(_OP_LATENCY_PREFIX):
                continue
            old_count, old_buckets = old.histograms.get(name, (0, {}))
            d_count = new_count - old_count
            if d_count <= 0:
                continue
            d_buckets = {
                edge: new_buckets.get(edge, 0) - old_buckets.get(edge, 0)
                for edge in new_buckets
            }
            op = name[len(_OP_LATENCY_PREFIX):]
            latency[op] = {
                "count": d_count,
                "p50": bucket_quantile(d_buckets, d_count, 0.5),
                "p95": bucket_quantile(d_buckets, d_count, 0.95),
                "p99": bucket_quantile(d_buckets, d_count, 0.99),
            }

        requests = queries + errors + rejected
        bad = errors + rejected
        error_rate = bad / requests if requests else 0.0
        allowed = (1.0 - self.slo_target) * requests
        if bad == 0:
            budget = 1.0
        elif allowed <= 0:
            budget = 0.0
        else:
            budget = max(0.0, 1.0 - bad / allowed)
        lookups = hits + misses
        return {
            "samples": len(samples),
            "window_seconds": dt,
            "interval_seconds": self.interval,
            "queries": queries,
            "errors": errors,
            "rejected": rejected,
            "qps": queries / dt,
            "error_rate": error_rate,
            "availability": 1.0 - error_rate,
            "slo_target": self.slo_target,
            "error_budget_remaining": budget,
            "cache_hit_ratio": (hits / lookups) if lookups else None,
            "latency_ms": latency,
        }


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------


class _TelemetryHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    endpoint: "TelemetryEndpoint"


#: The JSON debug routes: query parameter, its type, and the admin-op
#: method that answers it — the same method on either server kind.
_JSON_ROUTES: Dict[str, Tuple[str, Any, Any]] = {
    "/events": ("limit", int, lambda srv, n: srv.events_payload(n)),
    "/trace": ("trace_id", str, lambda srv, tid: srv.trace_payload(tid)),
    "/debug/slow": ("limit", int, lambda srv, n: srv.flight_payload(n)),
}


class _TelemetryHandler(BaseHTTPRequestHandler):
    server_version = "repro-telemetry/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args: Any) -> None:  # pragma: no cover - quiet
        return

    def _respond(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        endpoint = self.server.endpoint  # type: ignore[attr-defined]
        parsed = urllib.parse.urlsplit(self.path)
        try:
            if parsed.path == "/metrics":
                body = endpoint.render_metrics().encode("utf-8")
                self._respond(200, OPENMETRICS_CONTENT_TYPE, body)
                return
            if parsed.path == "/healthz":
                payload = endpoint.health()
                code = 503 if payload.get("closed") else 200
            elif parsed.path in _JSON_ROUTES:
                param, cast, read = _JSON_ROUTES[parsed.path]
                query = urllib.parse.parse_qs(parsed.query)
                arg = cast(query[param][0]) if param in query else None
                payload, code = read(endpoint.server, arg), 200
            else:
                self._respond(404, "text/plain", b"not found\n")
                return
            self._respond(
                code,
                "application/json",
                (json.dumps(payload) + "\n").encode("utf-8"),
            )
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._respond(
                500,
                "text/plain",
                f"{type(exc).__name__}: {exc}\n".encode("utf-8"),
            )


class TelemetryEndpoint:
    """Embedded HTTP endpoint: ``/metrics``, ``/healthz``, ``/events``,
    ``/trace``, ``/debug/slow``.

    Binds immediately (so ``port=0`` resolves to a real port before
    :meth:`start`), serves on a daemon thread with one thread per
    request, and refuses connections after :meth:`close`. All handlers
    are read-only against the server.
    """

    def __init__(
        self,
        server,
        exporter: Optional[TelemetryExporter] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = server
        self._exporter = exporter
        self._httpd = _TelemetryHTTPServer((host, port), _TelemetryHandler)
        self._httpd.endpoint = self
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- addressing ------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved even for ``:0``)."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "TelemetryEndpoint":
        if self._closed:
            raise RuntimeError("telemetry endpoint is closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-telemetry-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "TelemetryEndpoint":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- route bodies ----------------------------------------------------
    def render_metrics(self) -> str:
        slo = self._exporter.summary() if self._exporter is not None else None
        return render_openmetrics(self._server.metrics(), slo=slo)

    def health(self) -> Dict[str, Any]:
        health = self._server.health()
        health["endpoint"] = self.url
        return health

    @property
    def server(self):
        """The served ``CampaignServer`` or ``ShardedCampaignService``."""
        return self._server


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def parse_listen_address(listen: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` / ``":PORT"`` / ``"PORT"`` → ``(host, port)``."""
    host, sep, port_text = listen.rpartition(":")
    if not sep:
        host, port_text = "", listen
    host = host.strip() or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(
            f"invalid --listen address {listen!r}; expected HOST:PORT"
        ) from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in --listen {listen!r}")
    return host, port


@dataclass
class LiveTelemetry:
    """A running exporter + endpoint pair (see ``repro serve --listen``)."""

    exporter: TelemetryExporter
    endpoint: TelemetryEndpoint

    @property
    def url(self) -> str:
        return self.endpoint.url

    def close(self) -> None:
        """Tear down endpoint then exporter; idempotent."""
        self.endpoint.close()
        self.exporter.stop()

    def __enter__(self) -> "LiveTelemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_live_telemetry(
    server,
    listen: str = "127.0.0.1:0",
    interval: float = 1.0,
    window_seconds: float = 60.0,
    slo_target: float = 0.999,
) -> LiveTelemetry:
    """Start an exporter + HTTP endpoint for ``server`` and return the
    handle. ``listen`` accepts ``HOST:PORT`` with port ``0`` meaning
    "pick a free port" (read the result from ``.url``)."""
    host, port = parse_listen_address(listen)
    exporter = TelemetryExporter(
        server,
        interval=interval,
        window_seconds=window_seconds,
        slo_target=slo_target,
    ).start()
    try:
        endpoint = TelemetryEndpoint(
            server, exporter=exporter, host=host, port=port
        ).start()
    except BaseException:
        exporter.stop()
        raise
    return LiveTelemetry(exporter=exporter, endpoint=endpoint)


# ---------------------------------------------------------------------------
# ``repro top`` dashboard rendering
# ---------------------------------------------------------------------------


def _fmt_bytes(n: float) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def _fmt_ms(value: float) -> str:
    if value != value:  # NaN
        return "-"
    return f"{value:.1f}"


def render_dashboard(
    scrape: Scrape,
    health: Dict[str, Any],
    url: str = "",
    previous: Optional[Scrape] = None,
    dt: Optional[float] = None,
) -> str:
    """One ``repro top`` frame from a ``/metrics`` scrape + ``/healthz``.

    qps prefers the exporter's rolling-window gauge, falling back to
    the delta against the previous scrape, then to the lifetime
    average. Per-op quantiles prefer the windowed gauges, falling back
    to the lifetime histogram buckets.

    When the scrape exposes per-worker families (a shard router's
    ``repro_worker_*{worker="..."}`` series), a per-worker table is
    rendered — queries, qps (delta against the previous scrape),
    in-flight, respawns, and epoch — plus the cumulative count of
    workers that were unreachable mid-scrape.
    """
    lines: List[str] = []
    uptime = scrape.value("repro_serve_uptime_seconds")
    if uptime is None:
        uptime = float(health.get("uptime_seconds") or 0.0)
    status = health.get("status", "?")
    lines.append(
        f"repro top — {url or health.get('endpoint', '')}   "
        f"status {status}   uptime {uptime:.1f}s"
    )

    queries = scrape.counter("repro_serve_queries")
    qps = scrape.value("repro_serve_window_qps")
    qps_label = "window"
    if qps is None and previous is not None and dt:
        qps = (queries - previous.counter("repro_serve_queries")) / dt
        qps_label = "delta"
    if qps is None:
        qps = queries / uptime if uptime else 0.0
        qps_label = "lifetime"
    rejected = scrape.counter("repro_serve_rejected")
    errors = scrape.counter("repro_serve_errors")
    in_flight = health.get("in_flight", 0)
    queued = health.get("queued", 0)
    lines.append(
        f"queries {int(queries)}   qps {qps:.2f} ({qps_label})   "
        f"in-flight {in_flight}   queued {queued}   "
        f"rejected {int(rejected)}   errors {int(errors)}"
    )

    hits = scrape.counter("repro_serve_cache_hits")
    misses = scrape.counter("repro_serve_cache_misses")
    lookups = hits + misses
    ratio = f"{100.0 * hits / lookups:.1f}%" if lookups else "-"
    cache_bytes = scrape.value("repro_serve_cache_bytes") or 0.0
    entries = scrape.value("repro_serve_cache_entries") or 0.0
    evictions = scrape.counter("repro_serve_cache_evictions")
    budget = scrape.value("repro_serve_window_error_budget_remaining")
    budget_text = f"   error-budget {100.0 * budget:.1f}%" if budget is not None else ""
    lines.append(
        f"cache: hits {int(hits)}  misses {int(misses)}  "
        f"hit-ratio {ratio}  bytes {_fmt_bytes(cache_bytes)}  "
        f"entries {int(entries)}  evictions {int(evictions)}{budget_text}"
    )

    family = "repro_serve_op_latency_ms"
    ops = scrape.label_values(family + "_bucket", "op")
    if ops:
        lines.append("")
        lines.append(
            f"{'op':<14} {'count':>8} {'p50 ms':>9} {'p95 ms':>9} "
            f"{'p99 ms':>9}"
        )
        for op in sorted(ops):
            quantiles = {}
            for q_key, q_label in (
                ("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99"),
            ):
                quantiles[q_key] = scrape.value(
                    "repro_serve_window_latency_ms", op=op, quantile=q_label
                )
            buckets, _total, count = scrape.histogram(family, op=op)
            if any(v is None for v in quantiles.values()):
                quantiles = {
                    "p50": quantile_from_cumulative(buckets, count, 0.5),
                    "p95": quantile_from_cumulative(buckets, count, 0.95),
                    "p99": quantile_from_cumulative(buckets, count, 0.99),
                }
            lines.append(
                f"{op:<14} {int(count):>8} "
                f"{_fmt_ms(quantiles['p50']):>9} "
                f"{_fmt_ms(quantiles['p95']):>9} "
                f"{_fmt_ms(quantiles['p99']):>9}"
            )

    workers = scrape.label_values("repro_worker_queries_total", "worker")
    if workers:
        lines.append("")
        lines.append(
            f"{'worker':<8} {'queries':>8} {'qps':>8} {'inflight':>9} "
            f"{'respawns':>9} {'epoch':>6}"
        )
        for worker_id in sorted(workers):
            w_queries = scrape.value(
                "repro_worker_queries_total", worker=worker_id
            ) or 0.0
            w_qps = "-"
            if previous is not None and dt:
                prev = previous.value(
                    "repro_worker_queries_total", worker=worker_id
                )
                if prev is not None:
                    w_qps = f"{max(w_queries - prev, 0.0) / dt:.2f}"
            inflight = scrape.value(
                "repro_worker_inflight", worker=worker_id
            ) or 0.0
            respawns = scrape.value(
                "repro_worker_respawns", worker=worker_id
            ) or 0.0
            epoch = scrape.value(
                "repro_worker_epoch", worker=worker_id
            ) or 0.0
            lines.append(
                f"{worker_id:<8} {int(w_queries):>8} {w_qps:>8} "
                f"{int(inflight):>9} {int(respawns):>9} {int(epoch):>6}"
            )
        unreachable = scrape.counter("repro_router_workers_unreachable")
        if unreachable:
            lines.append(
                f"unreachable worker scrapes: {int(unreachable)}"
            )
    return "\n".join(lines) + "\n"
