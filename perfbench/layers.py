"""Per-layer self time for the traced run (``--trace 1``).

The tracer wraps public functions of each layer from the benchmark's
own files; nothing inside ``src/`` changes. Modules import functions by
name, so a wrapper replaces the name in the module that *calls* it
(``repro.tags.batch.collect_paths``, not ``repro.tags.paths``); methods
are wrapped on the class that defines them.

Spans live on one process-wide stack. The benchmark is a single
closed-loop client, so at most one query is in flight: the client
thread blocks inside ``CampaignServer.find_seeds`` while a pool thread
runs the query, and the spans of both threads nest strictly. A span's
self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.covered_s = 0.0  # time inside some root span
        self.spans = 0
        self.misnested = 0
        self._stack: list[list] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, layer: str, wait: str | None) -> list:
        now = time.perf_counter()
        frame = [layer, now, 0.0]
        with self._lock:
            if wait is not None and self._stack:
                self.counts[wait] += now - self._stack[-1][1]
            self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        now = time.perf_counter()
        dur = now - frame[1]
        with self._lock:
            if self._stack and self._stack[-1] is frame:
                self._stack.pop()
            else:
                self._stack.remove(frame)
                self.misnested += 1
            self.self_s[frame[0]] += dur - frame[2]
            self.spans += 1
            if self._stack:
                self._stack[-1][2] += dur
            else:
                self.covered_s += dur
        return dur

    # -- patching --------------------------------------------------------
    def wrap(self, owner, name: str, layer: str, count=None,
             wait: str | None = None) -> None:
        """Replace ``owner.name`` with a span-recording wrapper.

        ``count(counts, result, duration_s)`` adds layer counters from
        the call's result; ``wait`` names a counter that accumulates the
        time since the enclosing span began (queue wait).
        """
        original = getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            frame = tracer._enter(layer, wait)
            try:
                result = original(*args, **kwargs)
            finally:
                dur = tracer._exit(frame)
            if count is not None:
                count(tracer.counts, result, dur)
            return result

        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self.self_s)


def span_cost_s(calls: int = 20000) -> float:
    """Calibrated extra cost of one enabled span over a plain call."""

    class Box:
        @staticmethod
        def noop():
            return None

    plain = Box.noop
    best_plain = best_wrapped = float("inf")
    probe = Tracer()
    probe.wrap(Box, "noop", "probe")
    probe.enabled = True
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        best_plain = min(best_plain, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(calls):
            Box.noop()
        best_wrapped = min(best_wrapped, time.perf_counter() - t0)
    probe.unwrap_all()
    return max(0.0, (best_wrapped - best_plain) / calls)


# ----------------------------------------------------------------------
# Layer map
# ----------------------------------------------------------------------


def _len_as(name):
    def count(counts, result, _dur):
        counts[name] += len(result)
    return count


def _engine_rr(counts, result, _dur):
    counts["engine.rr_sets"] += len(result)
    counts["engine.rr_members"] += int(result.members.size)


def _engine_cascades(counts, result, _dur):
    counts["engine.cascades"] += int(result.size)


def _theta(counts, result, _dur):
    counts["sketch.builds"] += 1
    counts["sketch.theta_sum"] += int(result.theta)


def _rounds(counts, result, _dur):
    counts["core.joint.queries"] += 1
    counts["core.joint.rounds_sum"] += int(result.rounds)


def _calls(name):
    def count(counts, _result, _dur):
        counts[name] += 1
    return count


def _cache_build(counts, result, dur):
    _asset, built_here = result
    if built_here:
        counts["serve.cache.build_s"] += dur


def install_in_process(tracer: Tracer) -> None:
    """Wrap every layer a query crosses in an in-process server."""
    import repro.core.joint as joint
    import repro.seeds.api as seeds_api
    import repro.serve.protocol as protocol
    import repro.serve.server as server
    import repro.tags.api as tags_api
    import repro.tags.batch as batch
    from repro.engine.parallel import SamplingEngine
    from repro.graphs.tag_graph import TagGraph
    from repro.index.lazy import IndexManager
    from repro.index.possible_world_index import TagIndex
    from repro.serve.cache import AssetCache
    from repro.tags.spread_eval import PathSpreadEvaluator

    w = tracer.wrap
    w(protocol, "handle_line", "serve.protocol")
    for name in ("find_seeds", "find_tags", "jointly_select",
                 "estimate_spread"):
        w(server.CampaignServer, name, "serve.server")
    w(server.CampaignServer, "_run_query", "serve.server",
      wait="serve.server.queue_wait_s")
    w(AssetCache, "get_or_build", "serve.cache", count=_cache_build)
    w(server, "trs_build_sketch", "sketch.build", count=_theta)
    w(server, "trs_select_from_sketch", "sketch.select")
    w(SamplingEngine, "sample_rr_sets", "engine", count=_engine_rr)
    w(SamplingEngine, "cascade_target_counts", "engine",
      count=_engine_cascades)
    w(server, "estimate_spread", "diffusion")
    w(joint, "estimate_spread", "diffusion")
    w(server, "jointly_select", "core.joint", count=_rounds)
    w(tags_api, "batch_paths_select_tags", "tags.batch")
    w(batch, "build_batches", "tags.batch")
    w(batch, "collect_paths", "tags.paths", count=_len_as("tags.paths.paths"))
    w(PathSpreadEvaluator, "spread", "tags.spread_eval",
      count=_calls("tags.spread_eval.calls"))
    w(seeds_api, "indexed_select_seeds", "index")
    w(IndexManager, "ensure_indexes", "index")
    w(TagIndex, "__init__", "index", count=_calls("index.builds"))
    w(TagGraph, "_aggregate", "graphs.aggregate")


def install_router(tracer: Tracer) -> None:
    """Wrap the router-side layers of a sharded fleet."""
    import repro.serve.protocol as protocol
    from repro.serve.shard import ShardedCampaignService

    tracer.wrap(protocol, "handle_line", "serve.protocol")
    tracer.wrap(ShardedCampaignService, "route_request", "serve.shard")


def install_mutable(tracer: Tracer) -> None:
    """Wrap the edit layer, for the local replay of a fleet's edits."""
    from repro.graphs.mutable import MutableTagGraph

    tracer.wrap(MutableTagGraph, "apply", "graphs.mutable.apply",
                count=_calls("graphs.mutable.batches"))
    tracer.wrap(MutableTagGraph, "snapshot", "graphs.mutable.snapshot")
