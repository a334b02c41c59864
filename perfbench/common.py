"""Shared plumbing for the benchmark: paths, op log, percentiles, memory.

Nothing here imports ``repro``; :func:`bootstrap` puts the checkout's
``src/`` on ``sys.path`` first and fails fast when it is missing, so the
benchmark refuses to run outside a full checkout.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Percentiles reported end to end, and the rank window (in percentile
#: points) inside which a percentile must stay within one op class.
PERCENTILES = (50, 90)
BOUNDARY_POINTS = 5
#: A percentile whose ±5-point window holds less than this share of its
#: own class sits on a class boundary (flagged as a steadiness breach).
MIN_CLASS_SHARE = 0.8
#: A p50 set by a class whose median CPU time (as measured, unscaled)
#: is below this is dominated by timer and interpreter noise rather than
#: by the work.
MIN_P50_CLASS_MS = 2.0

#: CPU seconds of one ``host_probe`` call at the reference host speed.
#: Reported times are CPU times scaled to that speed (see ``SpeedTrack``).
PROBE_REF_S = 0.002
#: Wall seconds between probes while ops are measured, and the probes
#: on each side of an op whose median sets the host speed for that op.
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 5
#: Probes run right before and right after each set-up.
SETUP_PROBES = 10


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no sources at {SRC}/repro; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def bounds() -> dict[str, float]:
    """End-to-end regression bounds, read from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}


def task_cpu_s(pid: int) -> float:
    """CPU seconds the live threads of ``pid`` have run (``/proc`` schedstat)."""
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except OSError:  # the thread ended between listdir and open
            pass
    return total / 1e9


def children_of(pid: int) -> dict[int, str]:
    """Direct children of ``pid`` and their states, read from ``/proc``."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # After the parenthesised command name: state, then ppid.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            found[int(entry)] = fields[0]
    return found


def host_probe() -> float:
    """CPU seconds of a fixed, interpreter-bound kernel: the host's speed.

    The kernel allocates little and touches a few KiB, so no change to
    the program under test can change its cost; only the host can.
    """
    c0 = time.process_time()
    heap: list[int] = []
    table: dict[int, int] = {}
    for i in range(2500):
        heapq.heappush(heap, (i * 7919) % 1009)
        table[i % 400] = table.get(i % 400, 0) + i
    while heap:
        heapq.heappop(heap)
    return time.process_time() - c0


def probe_factor(costs: list[float]) -> float:
    """Reference probe time over the median of ``costs``."""
    return PROBE_REF_S / statistics.median(costs)


class SpeedTrack:
    """Host speed through the measured phase, from interleaved probes.

    On a shared host the same work takes more or less CPU time from one
    stretch of seconds to the next. A probe runs between ops at most
    every ``PROBE_EVERY_S``; an op's CPU time is multiplied by
    :meth:`factor`, the reference probe time over the median of the
    ``PROBE_WINDOW`` probes on each side of it, which gives its CPU time
    at the reference speed.
    """

    def __init__(self) -> None:
        self.positions: list[int] = []  # op index the probe ran before
        self.costs: list[float] = []
        self.wall_s = 0.0  # wall time spent probing (not the program's)
        self._due = 0.0

    def before(self, position: int) -> None:
        """Probe before op ``position`` if one is due."""
        now = time.perf_counter()
        if now < self._due:
            return
        self.positions.append(position)
        self.costs.append(host_probe())
        end = time.perf_counter()
        self.wall_s += end - now
        self._due = end + PROBE_EVERY_S

    def factor(self, position: int) -> float:
        k = bisect.bisect_right(self.positions, position) - 1
        lo = max(0, k - PROBE_WINDOW)
        return probe_factor(self.costs[lo:k + PROBE_WINDOW + 1])


class CpuClock:
    """CPU seconds used by this process plus the given child processes.

    The benchmark times ops in CPU time, not wall time: on a shared host
    whose steal time swings from run to run, CPU time measures the work
    an op costs and wall time mostly measures the neighbours. Wall times
    are kept alongside, in the summary.
    """

    def __init__(self, pids=()) -> None:
        self.pids = tuple(pids)

    def __call__(self) -> float:
        return time.process_time() + sum(task_cpu_s(p) for p in self.pids)


@dataclass
class OpRecord:
    """One timed operation of the measured phase."""

    kind: str  # wire op: find_tags / joint / find_seeds / spread / apply_edits
    cache: str  # "hit" / "miss" / "-" (edits, failures)
    ms: float  # CPU time at the reference host speed
    cpu_ms: float  # CPU time as measured
    wall_ms: float
    ok: bool

    @property
    def klass(self) -> str:
        return f"{self.kind}:{self.cache}"


def is_ok(reply: object) -> bool:
    """A wire reply counts as a success only when it says ``"ok": true``."""
    return isinstance(reply, dict) and reply.get("ok") is True


def rank(n: int, p: float) -> int:
    """Nearest-rank index of percentile ``p`` in a sorted list of ``n``."""
    return min(n - 1, max(0, math.ceil(p * n / 100.0) - 1))


def percentile_report(records: list[OpRecord]) -> dict:
    """Percentiles of ``records`` plus the class each one falls in.

    For every percentile the report names the op class that dominates
    the ±``BOUNDARY_POINTS`` rank window around it, that class's share
    of the window, and whether the steadiness rules are breached: the window
    straddles a class boundary, or (p50) the class is so fast that
    noise sets the number.
    """
    ordered = sorted(records, key=lambda r: r.ms)
    n = len(ordered)
    cpu_medians = {
        k: statistics.median(r.cpu_ms for r in records if r.klass == k)
        for k in {r.klass for r in records}
    }
    out = {}
    for p in PERCENTILES:
        lo = rank(n, max(0, p - BOUNDARY_POINTS))
        hi = rank(n, min(100, p + BOUNDARY_POINTS))
        window = Counter(r.klass for r in ordered[lo:hi + 1])
        klass, count = window.most_common(1)[0]
        share = count / sum(window.values())
        breaches = []
        if share < MIN_CLASS_SHARE:
            breaches.append("class_boundary")
        if p == 50 and cpu_medians[klass] < MIN_P50_CLASS_MS:
            breaches.append("fast_class")
        out[f"p{p}"] = {
            "ms": ordered[rank(n, p)].ms,
            "class": klass,
            "class_share": round(share, 3),
            "breaches": breaches,
        }
    return out


def raw_percentiles(records: list[OpRecord]) -> dict:
    """Percentiles of the unscaled CPU times and of the wall times."""
    cpu = sorted(r.cpu_ms for r in records)
    wall = sorted(r.wall_ms for r in records)
    out = {}
    for p in PERCENTILES:
        out[f"p{p}_cpu_ms"] = cpu[rank(len(cpu), p)]
        out[f"p{p}_wall_ms"] = wall[rank(len(wall), p)]
    return out


def class_table(records: list[OpRecord]) -> dict:
    """Per-class count, share and median latency."""
    table = {}
    for k in sorted({r.klass for r in records}):
        rows = [r for r in records if r.klass == k]
        table[k] = {
            "count": len(rows),
            "share": round(len(rows) / len(records), 4),
            "p50_ref_ms": round(statistics.median(r.ms for r in rows), 3),
            "p50_cpu_ms": round(statistics.median(r.cpu_ms for r in rows),
                                3),
            "p50_wall_ms": round(statistics.median(r.wall_ms for r in rows),
                                 3),
        }
    return table


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }
