"""Closed-loop benchmark of the campaign-serving system.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tag-select --seed 1 --seconds 25 \
        --trace 0

One client sends a fixed, seed-generated list of JSON-line queries to
the system's public entry point and waits for each reply before the
next. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; see ``perfbench/README.md``. The last line of standard
output is the result object; the line before it is a summary with the
environment, the per-class latency table and the steadiness checks.

Exit codes: 0 success; 1 a served answer differed from the direct
library call (the result is still printed, with ``"correct": false``);
3 a child process or shared-memory segment outlived the run; 130
interrupted by SIGINT or SIGTERM (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    PROBE_REF_S,
    SETUP_PROBES,
    CpuClock,
    OpRecord,
    SpeedTrack,
    bootstrap,
    bounds,
    children_of,
    class_table,
    environment,
    host_probe,
    is_ok,
    peak_rss_mb,
    percentile_report,
    probe_factor,
    raw_percentiles,
    task_cpu_s,
)

#: Set-up is repeated and its median reported, so one slow spawn or
#: page-cache miss does not move ``setup_s``.
SETUP_REPEATS = 5
#: Cascades per distinct answer for ``quality_frac``, and their seed.
QUALITY_SAMPLES = 512
QUALITY_SEED = 20180610
SHM_DIR = "/dev/shm"


def shm_names() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _interrupt(signum, _frame):
    raise KeyboardInterrupt(f"signal {signum}")


# ----------------------------------------------------------------------
# Measured phase
# ----------------------------------------------------------------------


def measure(workload, tracer):
    """Send every op once; return records, replies and per-op layer time.

    Probes of the host's speed run between ops; their time is left out
    of the ops' times and of the phase's wall and CPU time.
    """
    from repro.serve import protocol

    timed, replies, op_layers = [], [], []
    handle = workload.handle
    cpu = CpuClock(workload.worker_pids())
    speed = SpeedTrack()
    start, start_cpu = time.perf_counter(), cpu()
    for i, op in enumerate(workload.ops):
        speed.before(i)
        line = json.dumps(op.request)
        before = tracer.snapshot() if tracer is not None else None
        c0 = cpu()
        t0 = time.perf_counter()
        try:
            reply = protocol.handle_line(handle, line)
        except Exception as exc:  # a raised error is a failed op, not a crash
            reply = {"ok": False, "error": repr(exc),
                     "type": type(exc).__name__}
        wall_ms = (time.perf_counter() - t0) * 1000.0
        cpu_ms = (cpu() - c0) * 1000.0
        timed.append((cpu_ms, wall_ms))
        replies.append(reply)
        if tracer is not None:
            after = tracer.snapshot()
            op_layers.append({k: v - before.get(k, 0.0)
                              for k, v in after.items()})
    wall = time.perf_counter() - start - speed.wall_s
    cpu_s = cpu() - start_cpu - sum(speed.costs)
    records = []
    for i, (op, reply, (cpu_ms, wall_ms)) in enumerate(
            zip(workload.ops, replies, timed)):
        ok = is_ok(reply)
        cache = reply.get("cache", "-") if ok else "-"
        records.append(OpRecord(op.request["op"], cache or "-",
                                cpu_ms * speed.factor(i), cpu_ms, wall_ms,
                                ok))
    return records, replies, op_layers, wall, cpu_s, speed


def quality(answers) -> tuple[float, float]:
    """Mean σ(S, T, C)/|T| over served answers, and its standard error.

    σ is a fixed-seed Monte-Carlo estimate made here, independently of
    the served numbers: ``QUALITY_SAMPLES`` bit-parallel cascades per
    distinct answer, on the graph of the epoch the answer was served at.
    """
    import numpy as np

    from repro import SamplingEngine

    total = sum(a.weight for a in answers)
    mean = var = 0.0
    with SamplingEngine(mode="bitparallel", workers=1) as engine:
        for a in answers:
            targets = np.array(sorted(set(a.targets)), dtype=np.int64)
            counts = engine.cascade_target_counts(
                a.graph, np.array(sorted(set(a.seeds)), dtype=np.int64),
                a.graph.edge_probabilities(a.tags), QUALITY_SAMPLES,
                targets, rng=QUALITY_SEED,
            )
            frac = counts / targets.size
            w = a.weight / total
            mean += w * float(frac.mean())
            var += w * w * float(frac.var(ddof=1)) / QUALITY_SAMPLES
    return mean, math.sqrt(var)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(workload, records, setup_ref, quality_frac):
    """End-to-end metrics; every time is CPU time at the reference speed.

    See ``CpuClock`` for the CPU time and ``SpeedTrack`` for the scaling.
    """
    reads = [r for r in records if r.ok and r.kind not in workload.write_ops]
    heavy = [r.ms for r in records if r.ok and r.klass == workload.heavy_class]
    pct = percentile_report(reads)
    done = sum(r.ok for r in records)
    return {
        "setup_s": (statistics.median(setup_ref), "s"),
        "p50_ref_ms": (pct["p50"]["ms"], "ms"),
        "p90_ref_ms": (pct["p90"]["ms"], "ms"),
        "heavy_p50_ref_ms": (statistics.median(heavy), "ms"),
        "ops_per_ref_s": (done / (sum(r.ms for r in records) / 1000.0),
                          "1/s"),
        "ok_frac": (done / len(records), "frac"),
        "quality_frac": (quality_frac, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, pct


SELF_LAYERS = (
    "tags.paths", "tags.batch", "tags.spread_eval", "core.joint", "index",
    "sketch.build", "sketch.select", "engine", "diffusion",
    "graphs.aggregate", "serve.cache", "serve.server", "serve.protocol",
)
PER_OP_COUNTS = (
    "tags.paths.paths", "tags.spread_eval.calls", "index.builds",
    "engine.rr_sets", "engine.rr_members", "engine.cascades",
)


def per_layer(tracer, records, op_layers, wall, cache_delta, fleet_extra,
              span_cost):
    """Per-layer metrics: wall ms or counts per completed op unless noted."""
    c = tracer.counts
    done = max(1, sum(r.ok for r in records))
    m = {}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms"] = (1000.0 * tracer.self_s.get(layer, 0.0)
                                 / done, "ms")
    for name in PER_OP_COUNTS:
        m[name] = (c[name] / done, "count")
    m["core.joint.rounds"] = (
        c["core.joint.rounds_sum"] / max(1, c["core.joint.queries"]), "count")
    m["sketch.theta"] = (c["sketch.theta_sum"] / max(1, c["sketch.builds"]),
                         "count")
    lookups = cache_delta.get("hits", 0) + cache_delta.get("misses", 0)
    m["serve.cache.hit_frac"] = (
        cache_delta.get("hits", 0) / max(1, lookups), "frac")
    m["serve.cache.build_ms"] = (1000.0 * c["serve.cache.build_s"] / done,
                                 "ms")
    m["serve.cache.evictions"] = (cache_delta.get("evictions", 0), "count")
    m["serve.server.queue_wait_ms"] = (
        1000.0 * c["serve.server.queue_wait_s"] / done, "ms")

    # Share of find_tags wall time spent enumerating paths.
    ft = [(r, layers) for r, layers in zip(records, op_layers)
          if r.ok and r.kind == "find_tags"]
    ft_ms = sum(r.wall_ms for r, _ in ft)
    ft_paths = 1000.0 * sum(layers.get("tags.paths", 0.0) for _, layers in ft)
    m["tags.paths.share_of_find_tags"] = (ft_paths / ft_ms if ft_ms else 0.0,
                                          "frac")
    m.update(fleet_extra)
    for name, unit in (
        ("graphs.mutable.apply_ms", "ms"), ("graphs.mutable.snapshot_ms", "ms"),
        ("sketch.incremental.repair_ms", "ms"),
        ("sketch.incremental.resampled_sets", "count"),
        ("sketch.incremental.share_of_edit", "frac"),
        ("serve.shard.router_ms", "ms"), ("serve.shard.broadcast_ms", "ms"),
        ("serve.shard.respawns", "count"),
    ):
        m.setdefault(name, (0.0, unit))
    m["obs.trace_overhead_frac"] = (span_cost * tracer.spans / wall, "frac")
    m["obs.unattributed_frac"] = (max(0.0, wall - tracer.covered_s) / wall,
                                  "frac")
    return m


def fleet_layers(workload, records, replies, router_metrics):
    """Worker-side layers of ``edit-fleet``, from what replies carry.

    Worker wrappers cannot run in the router process. Router time is a
    reply's wall time minus the elapsed time its worker reports; edit
    apply/snapshot time comes from replaying the same batches on a local
    ``MutableTagGraph``, and repair time is the worker's edit time minus
    that replay.
    """
    import layers as layer_mod

    replay = layer_mod.Tracer()
    layer_mod.install_mutable(replay)
    replay.enabled = True
    try:
        workload.epochs()
    finally:
        replay.enabled = False
        replay.unwrap_all()
    batches = max(1, replay.counts["graphs.mutable.batches"])
    apply_ms = 1000.0 * replay.self_s["graphs.mutable.apply"] / batches
    snap_ms = 1000.0 * replay.self_s["graphs.mutable.snapshot"] / batches

    router, broadcast, repair, resampled, edit_wall = [], [], [], [], []
    for r, reply in zip(records, replies):
        if not r.ok:
            continue
        worker_ms = float(reply.get("elapsed_ms", 0.0))
        if r.kind == "apply_edits":
            broadcast.append(r.wall_ms - worker_ms)
            repair.append(max(0.0, worker_ms - apply_ms - snap_ms))
            resampled.append(reply["assets"]["resampled_sets"])
            edit_wall.append(r.wall_ms)
        else:
            router.append(r.wall_ms - worker_ms)
    mean = statistics.fmean
    return {
        "graphs.mutable.apply_ms": (apply_ms, "ms"),
        "graphs.mutable.snapshot_ms": (snap_ms, "ms"),
        "sketch.incremental.repair_ms": (mean(repair), "ms"),
        "sketch.incremental.resampled_sets": (mean(resampled), "count"),
        "sketch.incremental.share_of_edit": (sum(repair) / sum(edit_wall),
                                             "frac"),
        "serve.shard.router_ms": (mean(router), "ms"),
        "serve.shard.broadcast_ms": (mean(broadcast), "ms"),
        "serve.shard.respawns": (
            router_metrics.get("router.respawns", 0), "count"),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run(args, state: dict) -> tuple[dict, dict, int]:
    import layers as layer_mod
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    state["workload"] = workload
    setup_cpu, setup_ref, setup_wall = [], [], []
    for i in range(SETUP_REPEATS):
        probes = [host_probe() for _ in range(SETUP_PROBES)]
        t0, c0 = time.perf_counter(), time.process_time()
        workload.setup()
        setup_wall.append(time.perf_counter() - t0)
        # A fleet worker started inside set-up, so all its CPU time counts.
        workers = sum(task_cpu_s(p) for p in workload.worker_pids())
        setup_cpu.append(time.process_time() - c0 + workers)
        probes += [host_probe() for _ in range(SETUP_PROBES)]
        setup_ref.append(setup_cpu[-1] * probe_factor(probes))
        if i < SETUP_REPEATS - 1:
            workload.close()

    tracer = None
    if args.trace:
        tracer = layer_mod.Tracer()
        if workload.name == "edit-fleet":
            layer_mod.install_router(tracer)
        else:
            layer_mod.install_in_process(tracer)
    handle = workload.handle
    cache_before = handle.cache_stats().as_dict()
    print(f"perfbench: measuring {len(workload.ops)} ops", file=sys.stderr,
          flush=True)
    if tracer is not None:
        tracer.enabled = True
    try:
        records, replies, op_layers, wall, cpu_s, speed = measure(
            workload, tracer)
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.unwrap_all()
    cache_after = handle.cache_stats().as_dict()
    router_metrics = {}
    if workload.name == "edit-fleet":
        from repro.serve import protocol

        scrape = protocol.handle_line(handle, '{"op": "metrics"}')
        router_metrics = scrape.get("metrics", {}).get("counters", {})
    workload.close()
    extra = {}
    if tracer is not None and workload.name == "edit-fleet":
        # Before answers(): the traced replay is what builds the epochs.
        extra = fleet_layers(workload, records, replies, router_metrics)

    problems = workload.verify(replies)
    quality_frac, quality_se = quality(workload.answers(replies))
    e2e, pct = end_to_end(workload, records, setup_ref, quality_frac)
    failed = sum(not r.ok for r in records)
    reads = [r for r in records if r.ok and r.kind not in workload.write_ops]
    summary = {
        "workload": workload.name,
        "env": environment(args.seed),
        "ops": len(records),
        "failed": failed,
        "failures": [r for r in replies if not is_ok(r)][:3],
        "classes": class_table([r for r in records if r.ok]),
        "percentiles": pct,
        "speed": {
            "probes": len(speed.costs),
            "probe_median_ms": 1000.0 * statistics.median(speed.costs),
            "probe_ref_ms": 1000.0 * PROBE_REF_S,
        },
        "raw": {
            **raw_percentiles(reads),
            "throughput_qps": sum(r.ok for r in records) / wall,
            "cpu_per_wall": cpu_s / wall,
            "setup_wall_s": [round(t, 4) for t in setup_wall],
            "setup_cpu_s": [round(t, 4) for t in setup_cpu],
        },
        "setup_ref_s": [round(t, 4) for t in setup_ref],
        "quality_se": quality_se,
        "quality_se_ok": quality_se < bounds()["quality_frac"] / 3
        * quality_frac,
        "mismatches": problems[:5],
    }
    if tracer is None:
        metrics = e2e
    else:
        cache_delta = {k: cache_after[k] - cache_before.get(k, 0)
                       for k in cache_after}
        metrics = per_layer(tracer, records, op_layers, wall, cache_delta,
                            extra, layer_mod.span_cost_s())
        summary["misnested_spans"] = tracer.misnested
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, summary, 0 if not problems else 1


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Spawning a fleet worker starts the tracker as a child of this
    process. Left alone it outlives the benchmark: it only exits once it
    reads end-of-file on a pipe this process holds until it exits.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def check_hygiene(shm_before: set[str]) -> list[str]:
    """Children still alive and shared-memory segments this run left.

    Every direct child counts, not only the ones ``multiprocessing``
    tracks; a child that has exited is reaped here so none is left as a
    zombie either.
    """
    stop_resource_tracker()
    deadline = time.monotonic() + 15.0
    while True:
        # Reaps the multiprocessing children that have ended.
        tracked = {p.pid for p in multiprocessing.active_children()}
        children = children_of(os.getpid())
        for pid, state in children.items():
            if state == "Z" and pid not in tracked:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
        children = children_of(os.getpid())
        if not children or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    leftovers = [f"child pid {pid} ({state}) left"
                 for pid, state in sorted(children.items())]
    leftovers += [f"{SHM_DIR}/{name} left"
                  for name in sorted(shm_names() - shm_before)]
    return leftovers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tag-select", "seed-serve", "edit-fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    # The benchmark and its fleet worker share one CPU: a closed loop
    # keeps one of them busy at a time, and the host-speed probes then
    # measure the CPU that every op runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, _interrupt)
    shm_before = shm_names()
    state: dict = {}
    status = 0
    output = None
    try:
        result, summary, status = run(args, state)
        output = (summary, result)
    except KeyboardInterrupt:
        status = 130
    finally:
        # A second signal must not cut the fleet shutdown short.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        workload = state.get("workload")
        if workload is not None:
            workload.close()
            workload.cleanup()
    leftovers = check_hygiene(shm_before)
    print(f"perfbench: hygiene {'ok' if not leftovers else leftovers}",
          file=sys.stderr, flush=True)
    if leftovers:
        return 3
    if output is not None and status != 130:
        summary, result = output
        print(json.dumps({"summary": summary}, default=str))
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
