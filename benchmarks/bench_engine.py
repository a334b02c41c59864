"""Standalone scalar / bit-parallel engine benchmark.

Runs the two hot sampling loops (targeted RR-set generation and IC
cascade simulation) on a ladder of synthetic configs, three ways each:

* ``scalar`` — the per-sample reference traversals (the correctness
  oracle in :mod:`repro.sketch` / :mod:`repro.diffusion`);
* ``bitparallel`` — the 64-worlds-per-word kernels
  (:mod:`repro.engine.bitworld`) via a serial
  :class:`~repro.engine.SamplingEngine`;
* ``parallel`` — the bit-parallel engine with a process pool fed
  through the zero-copy shared-memory CSR transport
  (:mod:`repro.engine.shared_csr`); pool startup is excluded. Jobs
  below the engine's ``parallel_threshold`` auto-fall back to the
  in-process path — ``parallel_fell_back`` says when that happened,
  and the gated configs are sized so it must stay ``false``.

A fourth measurement times **incremental sketch repair** against a cold
rebuild after a sparse edit batch (see ``docs/mutability.md``), once per
repair mode; the speedups are reported as ``incremental_repair_speedup``
(scalar) and ``incremental_repair_bitparallel_speedup`` and both are
gated. A multi-sketch leg (``incremental_repair_multi``) repairs four
bit-parallel sketches with distinct tag sets after the same batch in
one kernel pass, checked bit-identical against their cold rebuilds and
timed against one repair per sketch.

Timings use interleaved min-of-repeats: each repeat cycles through all
three variants back-to-back, and the minimum per variant is reported.
On noisy shared boxes this is far more stable than timing each variant
in its own contiguous block (drift hits all variants equally).

Writes ``BENCH_engine.json`` next to the repo root and prints a table.
``scripts/check_bench.py`` re-validates the artifact (geomean
bit-parallel RR speedup, pool fan-out, no leaked segments). Usage::

    PYTHONPATH=src:. python benchmarks/bench_engine.py --quick
    PYTHONPATH=src:. python benchmarks/bench_engine.py --quick \
        --min-speedup 2.0     # exit 1 if the largest config's RR or
                              # cascade bit-parallel speedup falls below
    PYTHONPATH=src:. python benchmarks/bench_engine.py --quick \
        --metrics-out obs.json   # observability report for the run
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.datasets import bfs_targets, twitter, yelp
from repro.diffusion import simulate_cascade
from repro.engine import SamplingEngine, shared_csr
from repro.graphs.mutable import MutableTagGraph, TagSet
from repro.sketch import (
    build_repairable_sketch,
    repair_sketches,
    reverse_reachable_set,
)
from repro.sketch.incremental import REPAIR_MODES

#: (label, factory, scale) — ordered smallest to largest; the *last*
#: entry is the one the --min-speedup gate checks.
QUICK_CONFIGS = [
    ("yelp-0.5", yelp, 0.5),
    ("twitter-1.0", twitter, 1.0),
]
FULL_CONFIGS = QUICK_CONFIGS + [
    ("twitter-2.0", twitter, 2.0),
]


def _interleaved_min(fns: dict, repeats: int) -> dict:
    """Min wall time per variant, interleaving variants each repeat.

    A contiguous per-variant loop lets slow drift (thermal, noisy
    neighbours) bias whole variants; cycling scalar→bit→pool every
    repeat spreads the noise across all of them, and min-of-N
    discards the noise entirely.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def bench_config(
    label: str,
    factory,
    scale: float,
    theta: int,
    num_cascades: int,
    repeats: int,
    workers: int,
    parallel_threshold: int | None = None,
) -> dict:
    data = factory(scale=scale)
    graph = data.graph
    targets = np.asarray(bfs_targets(graph, 60), dtype=np.int64)
    tags = list(graph.tags[:5])
    probs = graph.edge_probabilities(tags)
    seeds = np.asarray(targets[:3], dtype=np.int64)
    tmask = np.zeros(graph.num_nodes, dtype=bool)
    tmask[targets] = True

    def rr_scalar():
        rng = np.random.default_rng(0)
        roots = rng.choice(targets, size=theta)
        return [
            reverse_reachable_set(graph, int(r), probs, rng) for r in roots
        ]

    def cascade_scalar():
        rng = np.random.default_rng(0)
        return [
            int(tmask[simulate_cascade(graph, seeds, probs, rng)].sum())
            for _ in range(num_cascades)
        ]

    # One shard for the serial bit-parallel leg: shard bookkeeping
    # (per-shard root draws, live-CSR rebuilds, collector stitching)
    # belongs to the pooled measurement, not the kernel one.
    serial_bit = SamplingEngine(
        mode="bitparallel", workers=1,
        shard_size=max(theta, num_cascades),
    )
    # Size shards so the pooled engine genuinely fans out (a shard that
    # fits the whole θ would collapse the run into one task).
    shard = max(64, min(theta, num_cascades) // (2 * workers))
    pooled_kwargs = {}
    if parallel_threshold is not None:
        pooled_kwargs["parallel_threshold"] = parallel_threshold
    pooled = SamplingEngine(
        mode="bitparallel", workers=workers, shard_size=shard,
        **pooled_kwargs,
    )

    def rr_engine(engine: SamplingEngine):
        return lambda: engine.sample_rr_sets(
            graph, targets, probs, theta, rng=0
        )

    def cascade_engine(engine: SamplingEngine):
        return lambda: engine.cascade_target_counts(
            graph, seeds, probs, num_cascades, targets, rng=0
        )

    # Warm all engines (CSR caches, process pool, shared segments)
    # outside the timing.
    rr_engine(serial_bit)()
    rr_engine(pooled)()

    rr_fns = {
        "scalar": rr_scalar,
        "bitparallel": rr_engine(serial_bit),
        "parallel": rr_engine(pooled),
    }
    cascade_fns = {
        "scalar": cascade_scalar,
        "bitparallel": cascade_engine(serial_bit),
        "parallel": cascade_engine(pooled),
    }
    rr_times = _interleaved_min(rr_fns, repeats)
    cascade_times = _interleaved_min(cascade_fns, repeats)
    # The engine legs are 20-40x cheaper than scalar, so extra repeats
    # cost almost nothing — and min-of-N needs more draws on a noisy
    # box to find the floor of a 10 ms measurement than a 700 ms one.
    extra = 9
    for fns, times in ((rr_fns, rr_times), (cascade_fns, cascade_times)):
        fast = {k: v for k, v in fns.items() if k != "scalar"}
        for name, t in _interleaved_min(fast, extra).items():
            times[name] = min(times[name], t)

    result = {
        "config": label,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "theta": theta,
        "num_cascades": num_cascades,
        "workers": workers,
        "rr": {f"{name}_s": t for name, t in rr_times.items()},
        "cascade": {f"{name}_s": t for name, t in cascade_times.items()},
    }
    for section in ("rr", "cascade"):
        timings = result[section]
        for name in ("bitparallel", "parallel"):
            timings[f"{name}_speedup"] = round(
                timings["scalar_s"] / timings[f"{name}_s"], 2
            )
    # Whether the small-work guard sent the "parallel" runs down the
    # in-process path instead of the pool (see SamplingEngine's
    # parallel_threshold). The gated configs must keep this false —
    # it proves the shared-memory fan-out was actually measured.
    result["parallel_fell_back"] = pooled.telemetry.parallel_fallbacks > 0
    serial_bit.close()
    pooled.close()
    # Every shared segment the pooled engine created must be unlinked
    # by now; anything left is a leak and fails the artifact gate.
    result["leaked_segments"] = sorted(shared_csr.active_tokens())
    return result


def _sparse_batch(graph, sketch, tag: str, count: int) -> list[TagSet]:
    """A realistic sparse batch of ``count`` probability updates.

    Perturbs ``tag``'s probability on edges of *median* touch count
    among those whose destination appears in at least one stored RR
    set of ``sketch``. Zero-touch edits make repair a no-op (an
    unmeasurable "speedup"); hub edits dirty everything and degrade
    repair to rebuild-equivalent work. The median is the sparse case
    the gate advertises.
    """
    edge_ids, tag_probs = graph.tag_edges(tag)
    candidates = edge_ids[:512]
    touch_costs = np.asarray([
        sketch.dirty_set_ids(np.asarray([graph.dst[e]])).size
        for e in candidates
    ])
    touched = np.flatnonzero(touch_costs > 0)
    if touched.size < count:
        raise RuntimeError(
            f"only {touched.size} of {candidates.size} candidate edges "
            "touch any RR set — graph too small for the repair benchmark"
        )
    order = touched[np.argsort(touch_costs[touched], kind="stable")]
    mid = max(0, order.size // 2 - count // 2)
    prob_of = {int(e): float(p) for e, p in zip(edge_ids, tag_probs)}
    return [
        TagSet(edge_id=e, tag=tag, prob=max(0.01, prob_of[e] * 0.5))
        for e in (int(candidates[i]) for i in order[mid:mid + count])
    ]


def bench_repair(
    label: str,
    factory,
    scale: float,
    theta: int,
    repeats: int,
    num_edits: int = 8,
    num_sketches: int = 4,
) -> dict[str, dict]:
    """Incremental sketch repair vs cold rebuild on a sparse edit batch.

    Builds a θ-set repairable sketch per repair mode (``scalar`` and
    ``bitparallel``), applies one small probability-update batch (far
    under 10% of edges dirty — the regime the repair path exists for),
    and times each sketch's ``repair`` against its own
    ``cold_rebuild`` with the same interleaved min-of-repeats
    discipline as the kernel legs. The two are bit-identical by
    contract; the benchmark re-checks that and records it, so the gate
    can refuse a "fast" repair that diverged. Returns one leg per mode,
    plus a ``multi`` leg: ``num_sketches`` bit-parallel sketches with
    distinct tag sets repaired after the same batch by one
    :func:`~repro.sketch.repair_sketches` call (one kernel pass), timed
    against one ``repair`` per sketch and against their cold rebuilds.
    """
    data = factory(scale=scale)
    graph = data.graph
    targets = np.asarray(bfs_targets(graph, 60), dtype=np.int64)
    tags = list(graph.tags[:5])
    probs = graph.edge_probabilities(tags)
    sketches = {
        mode: build_repairable_sketch(
            graph, targets, probs, theta, seed=0, mode=mode
        )
        for mode in REPAIR_MODES
    }

    # Every mode repairs the same batch.
    tag0 = tags[0]
    batch = _sparse_batch(graph, sketches["scalar"], tag0, num_edits)
    chosen = [edit.edge_id for edit in batch]
    mutable = MutableTagGraph(graph)
    mutable.apply(batch)
    snap = mutable.snapshot()
    new_probs = snap.edge_probabilities(tags)
    dirty_edges = mutable.dirty_edges(0)

    legs = {}
    for mode, sketch in sketches.items():
        repaired, stats = sketch.repair(snap, new_probs, dirty_edges)
        rebuilt = sketch.cold_rebuild(snap, new_probs)
        bit_identical = bool(
            repaired.theta == rebuilt.theta
            and np.array_equal(repaired.rr.indptr, rebuilt.rr.indptr)
            and np.array_equal(repaired.rr.members, rebuilt.rr.members)
        )
        times = _interleaved_min(
            {
                "repair": lambda s=sketch: s.repair(
                    snap, new_probs, dirty_edges
                ),
                "cold_rebuild": lambda s=sketch: s.cold_rebuild(
                    snap, new_probs
                ),
            },
            repeats,
        )
        legs[mode] = {
            "config": label,
            "mode": mode,
            "theta": theta,
            "edits": len(chosen),
            "dirty_edges": int(dirty_edges.size),
            "dirty_edge_fraction": round(
                dirty_edges.size / graph.num_edges, 4
            ),
            "dirty_sets": int(stats["dirty_sets"]),
            "dirty_set_fraction": round(stats["dirty_sets"] / theta, 4),
            "repair_s": times["repair"],
            "cold_rebuild_s": times["cold_rebuild"],
            "speedup": round(times["cold_rebuild"] / times["repair"], 2),
            "bit_identical": bit_identical,
        }

    # Multi-sketch leg: the bit-parallel sketch above plus sketches on
    # disjoint tag sets, and one batch with a sparse share per sketch
    # (touch traces are node-based, so each share may dirty them all).
    tag_sets = [tags] + [
        list(graph.tags[5 + 3 * i:8 + 3 * i]) for i in range(num_sketches - 1)
    ]
    multi = [sketches["bitparallel"]] + [
        build_repairable_sketch(
            graph, targets, graph.edge_probabilities(t), theta, seed=i,
            mode="bitparallel",
        )
        for i, t in enumerate(tag_sets[1:], start=1)
    ]
    batch = {}
    for sketch, t in zip(multi, tag_sets):
        for edit in _sparse_batch(graph, sketch, t[0], num_edits // 2):
            batch.setdefault(edit.edge_id, edit)
    mutable = MutableTagGraph(graph)
    mutable.apply(list(batch.values()))
    snap = mutable.snapshot()
    dirty_edges = mutable.dirty_edges(0)
    items = [
        (sketch, snap.edge_probabilities(t), None)
        for sketch, t in zip(multi, tag_sets)
    ]
    results = repair_sketches(snap, dirty_edges, items)
    bit_identical = True
    for (sketch, probs, _ids), (repaired, _stats) in zip(items, results):
        rebuilt = sketch.cold_rebuild(snap, probs)
        bit_identical = bit_identical and bool(
            np.array_equal(repaired.rr.indptr, rebuilt.rr.indptr)
            and np.array_equal(repaired.rr.members, rebuilt.rr.members)
        )
    times = _interleaved_min(
        {
            "repair": lambda: repair_sketches(snap, dirty_edges, items),
            "per_sketch": lambda: [
                s.repair(snap, p, dirty_edges) for s, p, _ids in items
            ],
            "cold_rebuild": lambda: [
                s.cold_rebuild(snap, p) for s, p, _ids in items
            ],
        },
        repeats,
    )
    dirty_sets = [int(stats["dirty_sets"]) for _sketch, stats in results]
    legs["multi"] = {
        "config": label,
        "mode": "bitparallel",
        "sketches": len(multi),
        "theta": theta,
        "edits": len(batch),
        "dirty_edges": int(dirty_edges.size),
        "dirty_edge_fraction": round(dirty_edges.size / graph.num_edges, 4),
        "dirty_sets": sum(dirty_sets),
        "dirty_sets_per_sketch": dirty_sets,
        "repair_s": times["repair"],
        "per_sketch_repair_s": times["per_sketch"],
        "cold_rebuild_s": times["cold_rebuild"],
        "speedup": round(times["cold_rebuild"] / times["repair"], 2),
        "one_pass_speedup": round(times["per_sketch"] / times["repair"], 2),
        "bit_identical": bit_identical,
    }
    return legs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small ladder and fewer repeats")
    parser.add_argument("--theta", type=int, default=None,
                        help="RR samples per measurement")
    parser.add_argument("--cascades", type=int, default=None,
                        help="cascade samples per measurement")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeats per case (min reported)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero unless the largest config's bit-parallel "
             "speedup meets this for both RR and cascade",
    )
    parser.add_argument(
        "--parallel-threshold", type=int, default=None,
        help="override the pooled engine's small-work fallback "
             "threshold (0 forces the pool even for tiny jobs)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write an observability report (repro.obs.report/1) "
             "covering the whole benchmark run",
    )
    args = parser.parse_args(argv)

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    # θ is sized so the bit-parallel kernels amortise their packing
    # setup (they process 64 worlds per pass — hundreds of samples is
    # pure overhead) and so the pooled runs clear parallel_threshold.
    theta = args.theta or (25600 if args.quick else 51200)
    cascades = args.cascades or (6400 if args.quick else 12800)
    repeats = args.repeats or (3 if args.quick else 5)

    scope = (
        obs.observe() if args.metrics_out else contextlib.nullcontext()
    )
    results = []
    with scope as observation:
        for label, factory, scale in configs:
            print(f"benchmarking {label} ...", flush=True)
            results.append(
                bench_config(
                    label, factory, scale, theta, cascades, repeats,
                    args.workers,
                    parallel_threshold=args.parallel_threshold,
                )
            )
        gated_label, gated_factory, gated_scale = configs[-1]
        print(
            f"benchmarking incremental repair ({gated_label}) ...",
            flush=True,
        )
        repair_legs = bench_repair(
            gated_label, gated_factory, gated_scale, theta, repeats
        )
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(observation.report(), indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote observability report to {args.metrics_out}")

    rr_speedups = [r["rr"]["bitparallel_speedup"] for r in results]
    report = {
        "quick": args.quick,
        "theta": theta,
        "num_cascades": cascades,
        "repeats": repeats,
        "rr_bitparallel_geomean_speedup": round(
            math.exp(sum(map(math.log, rr_speedups)) / len(rr_speedups)), 2
        ),
        "incremental_repair": repair_legs["scalar"],
        "incremental_repair_speedup": repair_legs["scalar"]["speedup"],
        "incremental_repair_bitparallel": repair_legs["bitparallel"],
        "incremental_repair_bitparallel_speedup": (
            repair_legs["bitparallel"]["speedup"]
        ),
        "incremental_repair_multi": repair_legs["multi"],
        "incremental_repair_multi_speedup": repair_legs["multi"]["speedup"],
        "results": results,
    }
    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    header = (
        f"{'config':<14}{'case':<10}{'scalar s':>10}"
        f"{'bit s':>10}{'par s':>10}{'bit x':>8}{'par x':>8}"
    )
    print("\n" + header)
    print("-" * len(header))
    for row in results:
        for section in ("rr", "cascade"):
            t = row[section]
            print(
                f"{row['config']:<14}{section:<10}"
                f"{t['scalar_s']:>10.4f}"
                f"{t['bitparallel_s']:>10.4f}{t['parallel_s']:>10.4f}"
                f"{t['bitparallel_speedup']:>8.2f}"
                f"{t['parallel_speedup']:>8.2f}"
            )
    fell_back = [r["config"] for r in results if r["parallel_fell_back"]]
    if fell_back:
        print(
            "note: parallel runs fell back to the in-process path "
            f"(work below threshold) on: {', '.join(fell_back)}"
        )
    print(
        "rr bit-parallel geomean speedup: "
        f"{report['rr_bitparallel_geomean_speedup']:.2f}x"
    )
    for repair in repair_legs.values():
        what = (
            f"{repair['sketches']}-sketch one-pass"
            if "sketches" in repair else repair["mode"]
        )
        print(
            f"incremental {what} repair ({repair['config']}): "
            f"{repair['speedup']:.2f}x over cold rebuild — "
            f"{repair['dirty_sets']}/{repair['theta']} sets dirty from "
            f"{repair['edits']} edits "
            f"({repair['dirty_edge_fraction']:.2%} of edges), "
            f"bit_identical={repair['bit_identical']}"
        )
    print(f"\nwrote {out_path}")

    if args.min_speedup is not None:
        largest = results[-1]
        worst = min(
            largest["rr"]["bitparallel_speedup"],
            largest["cascade"]["bitparallel_speedup"],
        )
        if worst < args.min_speedup:
            print(
                f"FAIL: bit-parallel speedup {worst:.2f}x on "
                f"{largest['config']} below required "
                f"{args.min_speedup:.2f}x"
            )
            return 1
        print(
            f"OK: bit-parallel speedup {worst:.2f}x on {largest['config']} "
            f"meets {args.min_speedup:.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
