"""Serving-layer benchmark: cold vs warm query latency + cache metrics.

Measures what the serving layer is *for* — cross-query asset reuse.
For each config a fresh :class:`~repro.serve.CampaignServer` answers
the same seed-selection query repeatedly:

* **cold** — the first query builds the targeted RR sketch (miss);
* **warm** — repeats are answered from the cached sketch, whose greedy
  cover the first read memoized: a hit does no sampling and no cover
  work.

Also times a mixed four-op workload replayed twice (second pass fully
warm), snapshots the ``serve.cache.*`` counters and per-op
p50/p95/p99 latency quantiles, and runs a **concurrent duplicate
burst** against a fresh server — many identical cold queries in
flight at once — so single-flight joins are actually exercised
(``singleflight_joins`` must come out positive; exactly one build).

A **sharded scaling leg** then replays one concurrent burst of
*distinct* cold queries against the multi-process
:class:`~repro.serve.ShardedCampaignService` at 1/2/4 workers. The
burst is placement-balanced (seeds are chosen so the consistent-hash
ring assigns each fleet an equal share — ring *balance* is covered by
the property tests; this leg isolates compute scaling) and every
fleet's answers must be bit-identical to the 1-worker fleet's.
``speedup_4w`` is gated in CI.

A **cached-read leg** measures what a cache hit costs through the
wire protocol (``handle_line``): the CPU per read of the whole process
in-process, and of the router plus its worker through a 1-worker
fleet (the worker's CPU read from ``/proc/<pid>/task/*/schedstat``;
``null`` where that is unavailable). A hit does no cover work, so this
is the serving plumbing's own cost.

A **tracing-overhead leg** runs two 2-worker fleets side by side, one
with distributed tracing on, and sends both the same sequential cold
queries with real sketch builds, interleaved over several repeats; the
median traced/untraced wall ratio is gated at 5% in CI. The artifact
records the repeats, the untraced spread, ``os.cpu_count()`` and the
CPUs the process may use (``usable_cpus``).

Writes ``BENCH_serve.json`` at the repo root and prints a table.
``scripts/check_bench.py`` validates the written file in CI. Usage::

    PYTHONPATH=src:. python benchmarks/bench_serve.py --quick
    PYTHONPATH=src:. python benchmarks/bench_serve.py --quick \
        --min-speedup 50.0  # CI gate: exit 1 if warm-over-cold falls below
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from pathlib import Path

from repro.core.joint import JointConfig
from repro.datasets import bfs_targets, twitter, yelp
from repro.serve import CampaignServer
from repro.sketch.theta import SketchConfig

#: (label, factory, scale, k) — the *last* entry is the gated one.
QUICK_CONFIGS = [
    ("yelp-0.5", yelp, 0.5, 5),
    ("twitter-1.0", twitter, 1.0, 5),
]
FULL_CONFIGS = QUICK_CONFIGS + [
    ("twitter-2.0", twitter, 2.0, 10),
]


def _bench_config(label, factory, scale, k, warm_repeats):
    data = factory(scale=scale, seed=13)
    graph = data.graph
    targets = [int(t) for t in bfs_targets(graph, min(60, graph.num_nodes))]
    tags = list(graph.tags[:3])
    config = JointConfig(sketch=SketchConfig())

    with CampaignServer(graph, config=config, pool_size=2) as server:
        cold = server.find_seeds(targets, tags, k, engine="trs", seed=0)
        warm_times = []
        for _ in range(warm_repeats):
            warm = server.find_seeds(targets, tags, k, engine="trs", seed=0)
            assert warm.cache == "hit"
            assert warm.value.seeds == cold.value.seeds
            warm_times.append(warm.elapsed_seconds)
        warm_s = statistics.median(warm_times)

        # Mixed workload: second pass is fully warm.
        def replay():
            elapsed = 0.0
            for op in (
                lambda: server.find_seeds(
                    targets, tags, k, engine="trs", seed=0
                ),
                lambda: server.find_seeds(
                    targets, tags, k, engine="lltrs", seed=0
                ),
                lambda: server.find_tags(
                    cold.value.seeds, targets, 2, seed=0
                ),
                lambda: server.estimate_spread(
                    cold.value.seeds, targets, tags, seed=0
                ),
            ):
                elapsed += op().elapsed_seconds
            return elapsed

        mixed_first = replay()
        mixed_second = replay()
        stats = server.cache_stats()
        metrics = server.metrics()

    # Concurrent duplicate burst on a *fresh* server: every query is
    # cold, so all but the winning builder must join the in-flight
    # build (or hit the just-resident asset) — this is what makes
    # ``singleflight_joins`` observable at all.
    concurrent = _bench_concurrent(graph, config, targets, tags, k)

    op_latency = {
        name[len("serve.op.latency_ms."):]: {
            "count": hist["count"],
            "p50_ms": round(hist["p50"], 3),
            "p95_ms": round(hist["p95"], 3),
            "p99_ms": round(hist["p99"], 3),
        }
        for name, hist in metrics["histograms"].items()
        if name.startswith("serve.op.latency_ms.") and hist.get("count")
    }

    speedup = cold.elapsed_seconds / max(warm_s, 1e-9)
    return {
        "config": label,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "k": k,
        "num_targets": len(targets),
        "cold_s": cold.elapsed_seconds,
        "warm_median_s": warm_s,
        "warm_over_cold_speedup": round(speedup, 2),
        "mixed_workload_first_pass_s": mixed_first,
        "mixed_workload_warm_pass_s": mixed_second,
        "mixed_speedup": round(mixed_first / max(mixed_second, 1e-9), 2),
        "serve_cache": stats.as_dict(),
        "serve_counters": {
            name: value
            for name, value in metrics["counters"].items()
            if name.startswith("serve.")
        },
        "op_latency_ms": op_latency,
        "concurrent": concurrent,
    }


def _bench_concurrent(graph, config, targets, tags, k, fanout=8):
    """Fire ``fanout`` identical cold queries concurrently.

    Exactly one becomes the single-flight builder; the rest join the
    in-flight build or hit the freshly resident asset. All responses
    must carry bit-identical seeds.
    """
    with CampaignServer(graph, config=config, pool_size=4) as server:
        start = time.perf_counter()
        futures = [
            server.submit_find_seeds(targets, tags, k, engine="trs", seed=0)
            for _ in range(fanout)
        ]
        responses = [f.result() for f in futures]
        wall_s = time.perf_counter() - start
        stats = server.cache_stats()

    seeds = {tuple(r.value.seeds) for r in responses}
    assert len(seeds) == 1, f"concurrent duplicates disagreed: {seeds}"
    cache_modes = [r.cache for r in responses]
    assert stats.builds == 1, f"expected exactly one build, got {stats.builds}"
    latencies = sorted(r.elapsed_seconds * 1000.0 for r in responses)

    def pct(q):
        return latencies[min(int(q * len(latencies)), len(latencies) - 1)]

    return {
        "fanout": fanout,
        "wall_s": wall_s,
        "misses": cache_modes.count("miss"),
        "hits": cache_modes.count("hit"),
        "builds": stats.builds,
        "singleflight_joins": stats.singleflight_joins,
        "latency_ms": {
            "p50": round(pct(0.5), 3),
            "p95": round(pct(0.95), 3),
            "p99": round(pct(0.99), 3),
        },
    }


def _balanced_burst(targets, tags, k, worker_counts, queries):
    """Distinct cold requests placement-balanced for the *largest* fleet.

    Seeds are filled greedily: a seed is accepted only while its
    token's placement still has quota under the largest fleet's ring.
    Only the largest ring is balanced exactly: a W-worker ring's points
    are a superset of a smaller fleet's, so a token's placement at W
    workers pins its placement at fewer workers (the hierarchy property
    of consistent hashing) and exact joint balance across every fleet
    size is overconstrained. Placement is pure blake2b, so the burst is
    deterministic; smaller fleets' actual splits are reported in the
    payload. The gated ``speedup_4w`` leg is the balanced one.
    """
    from repro.serve import HashRing, routing_token

    largest = max(worker_counts)
    ring = HashRing([f"w{i}" for i in range(largest)])
    quota = {member: queries // largest for member in ring.members}
    requests = []
    for seed in range(100_000):
        request = {
            "op": "find_seeds", "targets": targets, "tags": tags,
            "k": k, "seed": seed, "engine": "trs",
        }
        placed = ring.place(routing_token(request))
        if quota[placed] > 0:
            quota[placed] -= 1
            requests.append(request)
            if len(requests) == queries:
                return requests
    raise RuntimeError("could not balance the burst on the largest ring")


def _bench_sharded(graph, targets, tags, k, worker_counts=(1, 2, 4),
                   queries=24, build_slow_s=0.35):
    """Throughput of one distinct-query cold burst at each fleet size.

    This leg gates the 4-worker dispatch speedup only (the tracing
    overhead has its own leg on real builds, below). Builds are made
    latency-bound with the deterministic chaos plan
    (``build_slow_rate=1.0`` sleeps ``build_slow_s`` inside every
    sketch build) and each worker's ``CampaignServer`` runs a
    single-thread pool, so one worker serves the burst strictly
    sequentially and a fleet of N serves its N ring shares
    concurrently. What scales is therefore the router's concurrent
    dispatch across worker processes — the serving-layer property this
    leg gates — independent of how many cores the host happens to have
    (CPU-bound builds additionally scale with cores; CI boxes often
    have one). Answers must be bit-identical across fleet sizes.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve import ShardedCampaignService, WorkerSpec

    config = JointConfig(
        sketch=SketchConfig(theta_max=400, pilot_samples=50)
    )
    requests = _balanced_burst(targets, tags, k, worker_counts, queries)
    spec = WorkerSpec(
        config=config, pool_size=1, queue_capacity=64,
        chaos={
            "seed": 1, "build_slow_rate": 1.0,
            "build_slow_seconds": build_slow_s,
        },
    )

    rows = []
    baseline_wall = None
    baseline_answers = None
    for workers in worker_counts:
        service = ShardedCampaignService(graph, workers=workers, spec=spec)
        load: dict[str, int] = {}
        for r in requests:
            placed = service.worker_for(r)
            load[placed] = load.get(placed, 0) + 1
        try:
            with ThreadPoolExecutor(max_workers=queries) as pool:
                start = time.perf_counter()
                futures = [
                    pool.submit(service.route_request, dict(r))
                    for r in requests
                ]
                responses = [f.result() for f in futures]
                wall_s = time.perf_counter() - start
        finally:
            service.close()
        assert all(r.get("ok") for r in responses), [
            r for r in responses if not r.get("ok")
        ][:1]
        answers = {
            req["seed"]: (tuple(resp["seeds"]), resp["spread"])
            for req, resp in zip(requests, responses)
        }
        if baseline_answers is None:
            baseline_answers = answers
            baseline_wall = wall_s
        else:
            assert answers == baseline_answers, (
                f"{workers}-worker fleet diverged from 1-worker answers"
            )
        rows.append({
            "workers": workers,
            "wall_s": round(wall_s, 4),
            "throughput_qps": round(queries / wall_s, 2),
            "speedup_vs_1w": round(baseline_wall / wall_s, 2),
            "ring_load": dict(sorted(load.items())),
        })

    return {
        "queries": queries,
        "bit_identical_across_fleets": True,
        "fleets": rows,
        "speedup_4w": rows[-1]["speedup_vs_1w"],
    }


def _task_cpu_s(pid: int) -> float | None:
    """CPU seconds the live threads of ``pid`` have run (Linux only)."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return None
    total = 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except OSError:  # the thread ended between listdir and open
            pass
    return total / 1e9


def _bench_cached_read(graph, targets, tags, k, reads=500):
    """CPU and wall per cached ``find_seeds`` read, in-process and fleet.

    Both kinds run a single-thread query pool over a serial bit-parallel
    engine and answer the same warm TRS read ``reads`` times through
    :func:`repro.serve.protocol.handle_line`, as a client's JSON line
    would reach them. Fleet CPU adds the worker process's CPU to the
    router's; a hit does no cover work, so this is the serving
    plumbing's own cost per read.
    """
    from repro.engine import SamplingEngine
    from repro.serve import ShardedCampaignService, WorkerSpec
    from repro.serve.protocol import handle_line

    config = JointConfig(sketch=SketchConfig(theta_max=5000))
    line = json.dumps({
        "op": "find_seeds", "targets": targets, "tags": tags, "k": k,
        "engine": "trs", "seed": 0,
    })

    def measure(target, pids):
        def cpu():
            workers = [_task_cpu_s(pid) for pid in pids]
            if any(c is None for c in workers):
                return time.process_time(), None
            return time.process_time(), sum(workers)

        first = handle_line(target, line)
        assert first["ok"] and first["cache"] == "miss", first
        for _ in range(50):  # settle allocators and branch caches
            handle_line(target, line)
        own0, workers0 = cpu()
        start = time.perf_counter()
        for _ in range(reads):
            reply = handle_line(target, line)
        wall = time.perf_counter() - start
        own1, workers1 = cpu()
        assert reply["ok"] and reply["cache"] == "hit", reply
        row = {
            "wall_ms_per_read": round(wall / reads * 1000.0, 4),
            "process_cpu_ms_per_read": round(
                (own1 - own0) / reads * 1000.0, 4
            ),
            "seeds": reply["seeds"],
        }
        if pids:
            worker = (
                None if workers0 is None or workers1 is None
                else round((workers1 - workers0) / reads * 1000.0, 4)
            )
            row["worker_cpu_ms_per_read"] = worker
            row["cpu_ms_per_read"] = (
                None if worker is None
                else round(row["process_cpu_ms_per_read"] + worker, 4)
            )
        else:
            row["cpu_ms_per_read"] = row["process_cpu_ms_per_read"]
        return row

    with SamplingEngine(mode="bitparallel", workers=1) as sampler:
        with CampaignServer(
            graph, config=config, sampler=sampler, pool_size=1
        ) as server:
            in_process = measure(server, ())
    spec = WorkerSpec(config=config, engine_mode="bitparallel", pool_size=1)
    with ShardedCampaignService(
        graph, workers=1, spec=spec, share_graph=False
    ) as service:
        fleet = measure(service, list(service.worker_pids().values()))
    assert fleet.pop("seeds") == in_process.pop("seeds"), (
        "the fleet's cached answer differs from the in-process one"
    )
    return {"reads": reads, "in_process": in_process, "fleet": fleet}


def _bench_trace_overhead(graph, targets, tags, k, workers=2, queries=32,
                          repeats=9):
    """Distributed-tracing overhead on real, CPU-bound sketch builds.

    Two fleets of ``workers`` run side by side, one with tracing on.
    Every repeat sends both fleets the same ``queries`` distinct cold
    ``find_seeds`` (fresh seeds per repeat, so every query builds its
    sketch), one at a time: with one query in flight, the router's and
    the workers' span work adds straight to the wall time instead of
    hiding behind other queries. Each query goes to both fleets back to
    back, the first fleet alternating, so host drift hits both alike.
    The overhead is the median over repeats of the traced wall over the
    untraced wall, minus one; the spread of the untraced walls (max -
    min over their median) says how steady the host was. No
    ``build_slow`` sleeps: span work must show against real builds.
    """
    from repro.serve import ShardedCampaignService, WorkerSpec

    spec = WorkerSpec(
        config=JointConfig(
            sketch=SketchConfig(theta_max=400, pilot_samples=50)
        ),
        pool_size=1,
    )
    fleets = {
        traced: ShardedCampaignService(
            graph, workers=workers, spec=spec, tracing=traced
        )
        for traced in (False, True)
    }
    walls: dict[bool, list[float]] = {False: [], True: []}
    answers: dict[bool, dict] = {False: {}, True: {}}
    try:
        for repeat in range(repeats):
            requests = [
                {"op": "find_seeds", "targets": targets, "tags": tags,
                 "k": k, "engine": "trs", "seed": 1000 * (repeat + 1) + i}
                for i in range(queries)
            ]
            wall = {False: 0.0, True: 0.0}
            for i, request in enumerate(requests):
                for traced in ((False, True) if (repeat + i) % 2
                               else (True, False)):
                    start = time.perf_counter()
                    response = fleets[traced].route_request(dict(request))
                    wall[traced] += time.perf_counter() - start
                    assert response.get("ok"), response
                    answers[traced][request["seed"]] = (
                        tuple(response["seeds"]), response["spread"]
                    )
            for traced, seconds in wall.items():
                walls[traced].append(seconds)
        trace_events = len(fleets[True].chrome_trace())
    finally:
        for service in fleets.values():
            service.close()
    assert answers[True] == answers[False], "tracing perturbed the answers"
    ratios = [t / u - 1.0 for t, u in zip(walls[True], walls[False])]
    plain = walls[False]
    return {
        "workers": workers,
        "queries": queries,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        # CPUs this process may run on (fewer under taskset or a cpuset).
        "usable_cpus": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count()
        ),
        "untraced_wall_s": [round(w, 4) for w in plain],
        "traced_wall_s": [round(w, 4) for w in walls[True]],
        "overhead_per_repeat": [round(r, 4) for r in ratios],
        "untraced_spread_frac": round(
            (max(plain) - min(plain)) / statistics.median(plain), 4
        ),
        "trace_events": trace_events,
        "overhead_frac": round(max(0.0, statistics.median(ratios)), 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--warm-repeats", type=int, default=10)
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=(
            "exit 1 unless the largest config's warm-over-cold speedup "
            "meets this floor"
        ),
    )
    parser.add_argument("--output", default="BENCH_serve.json")
    args = parser.parse_args()

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    results = [
        _bench_config(label, factory, scale, k, args.warm_repeats)
        for label, factory, scale, k in configs
    ]

    header = (
        f"{'config':<14} {'cold s':>9} {'warm s':>9} "
        f"{'speedup':>8} {'mixed':>7} {'joins':>6} {'p99 ms':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in results:
        concurrent = row["concurrent"]
        print(
            f"{row['config']:<14} {row['cold_s']:>9.4f} "
            f"{row['warm_median_s']:>9.4f} "
            f"{row['warm_over_cold_speedup']:>7.1f}x "
            f"{row['mixed_speedup']:>6.1f}x "
            f"{concurrent['singleflight_joins']:>6} "
            f"{concurrent['latency_ms']['p99']:>8.1f}"
        )

    # Sharded scaling leg on the first (smallest) config's dataset.
    label, factory, scale, k = configs[0]
    data = factory(scale=scale, seed=13)
    graph = data.graph
    targets = [int(t) for t in bfs_targets(graph, min(60, graph.num_nodes))]
    tags = list(graph.tags[:3])
    sharded = _bench_sharded(graph, targets, tags, k)
    print(f"\nsharded burst ({sharded['queries']} distinct cold queries, "
          f"{label}):")
    for row in sharded["fleets"]:
        print(
            f"  {row['workers']} worker(s): {row['wall_s']:>7.3f}s  "
            f"{row['throughput_qps']:>6.1f} q/s  "
            f"{row['speedup_vs_1w']:>4.1f}x"
        )
    cached_read = _bench_cached_read(graph, targets, tags, k)
    print(f"\ncached read ({cached_read['reads']} warm find_seeds, {label}):")
    for kind in ("in_process", "fleet"):
        row = cached_read[kind]
        print(
            f"  {kind:<10}  cpu {row['cpu_ms_per_read']} ms/read  "
            f"wall {row['wall_ms_per_read']} ms/read"
        )
    traced = _bench_trace_overhead(graph, targets, tags, k)
    sharded["traced"] = traced
    sharded["trace_overhead_frac"] = traced["overhead_frac"]
    print(
        f"\ntracing overhead ({traced['workers']} workers, "
        f"{traced['queries']} sequential cold queries x "
        f"{traced['repeats']} interleaved repeats, "
        f"{traced['usable_cpus']} of {traced['cpu_count']} CPUs usable): "
        f"{traced['overhead_frac'] * 100:.1f}% "
        f"(per repeat {traced['overhead_per_repeat']}; untraced spread "
        f"{traced['untraced_spread_frac'] * 100:.1f}%; "
        f"{traced['trace_events']} trace events)"
    )

    payload = {
        "quick": args.quick,
        "warm_repeats": args.warm_repeats,
        "results": results,
        "sharded": sharded,
        "cached_read": cached_read,
    }
    Path(args.output).write_text(
        json.dumps(payload, indent=1), encoding="utf-8"
    )
    print(f"\nwrote {args.output}")

    if args.min_speedup is not None:
        gated = results[-1]["warm_over_cold_speedup"]
        if gated < args.min_speedup:
            print(
                f"FAIL: warm-over-cold speedup {gated:.1f}x "
                f"< required {args.min_speedup:.1f}x"
            )
            return 1
        print(
            f"gate OK: {gated:.1f}x >= {args.min_speedup:.1f}x "
            f"({results[-1]['config']})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
