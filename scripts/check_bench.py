"""Validate benchmark artifacts (``BENCH_serve.json`` / ``BENCH_engine.json``
/ ``BENCH_load.json``).

CI gate companion to the benchmarks: re-checks the written artifact
(rather than the bench process exit code) so the numbers that get
uploaded are the numbers that passed. The artifact kind is detected
from its shape (``--kind`` overrides).

For ``bench_serve.py`` artifacts, asserts that

* the gated (last) config's warm-over-cold speedup meets the floor
  (default 5x — cross-query sketch reuse is the serving layer's
  raison d'etre);
* the concurrent duplicate burst actually exercised single-flight:
  exactly one build, at least one ``singleflight_joins``, and every
  duplicate answered (misses + hits == fanout);
* per-op latency quantiles are present and ordered
  (p50 <= p95 <= p99) for every recorded op;
* the sharded scaling leg ran, its answers were bit-identical across
  fleet sizes, and the 4-worker fleet's throughput on the distinct-
  query cold burst meets the floor over 1 worker (default 3x —
  worker processes have to actually buy process-level parallelism);
* the tracing leg ran on real builds with interleaved repeats (it
  records ``repeats`` and ``cpu_count``), collected stitched trace
  events, and its median overhead is within ``--max-trace-overhead``.

For ``bench_engine.py`` artifacts, asserts that

* the gated (last, largest) config's bit-parallel RR speedup over the
  scalar oracle meets the floor (default 32x — 64 worlds per word has
  to actually buy bit-level parallelism, not just vectorization);
* every config ran its pooled legs through the process pool
  (``parallel_fell_back`` false) — i.e. the shared-memory fan-out was
  measured, not silently replaced by the in-process path;
* no shared-memory segments leaked (``leaked_segments`` empty) after
  the pooled engines closed;
* the incremental-repair measurement ran in the sparse regime (<10%
  of edges dirty), stayed bit-identical to its cold rebuild, and its
  ``incremental_repair_speedup`` meets the floor (default 3x —
  patching a handful of dirty RR sets has to actually beat resampling
  all θ of them);
* the bit-parallel repair leg passes the same sparse-regime and
  bit-identity checks, and ``incremental_repair_bitparallel_speedup``
  (bit-parallel repair over a bit-parallel cold rebuild) meets its
  own fixed floor, ``MIN_BIT_REPAIR_SPEEDUP`` (3.3x);
* the multi-sketch repair leg (several sketches with distinct tag
  sets repaired in one kernel pass) ran, dirtied sets in every sketch
  in the sparse regime, and stayed bit-identical to the cold rebuilds.

For ``repro loadgen`` artifacts (``BENCH_load.json``), asserts that

* outcome accounting is *exact* at every swept rate: every issued query
  terminated in exactly one of done / degraded / rejected / errors
  (``accounted == issued``) — no query may vanish under overload;
* no row reports raw ``errors`` (clean rejections and degraded answers
  are the only acceptable overload outcomes);
* rows exist for every swept rate and per-class p95s are recorded for
  classes with completions.

Usage::

    python scripts/check_bench.py BENCH_serve.json --min-speedup 50.0
    python scripts/check_bench.py BENCH_engine.json --min-bit-speedup 32.0
    python scripts/check_bench.py BENCH_load.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Floor of bit-parallel repair over a bit-parallel cold rebuild on the
#: sparse-edit batch (θ=25600, 4 shards). One kernel pass over every
#: shard's dirty lanes clears it (3.5-4x); one pass per dirty shard
#: read 2.85-3.05x and does not.
MIN_BIT_REPAIR_SPEEDUP = 3.3


def check_serve(
    payload: dict, min_speedup: float, min_shard_speedup: float = 3.0,
    max_trace_overhead: float = 0.05,
) -> list[str]:
    """Return a list of failure messages (empty = all gates pass)."""
    failures: list[str] = []
    results = payload.get("results") or []
    if not results:
        return ["no results in benchmark payload"]

    sharded = payload.get("sharded")
    if sharded is None:
        failures.append("missing sharded scaling section")
    else:
        if not sharded.get("bit_identical_across_fleets", False):
            failures.append(
                "sharded fleets diverged — multi-worker answers must be "
                "bit-identical to the 1-worker fleet"
            )
        fleets = sharded.get("fleets") or []
        if not fleets or fleets[-1].get("workers") != 4:
            failures.append(
                "sharded leg did not measure a 4-worker fleet"
            )
        shard_speedup = sharded.get("speedup_4w", 0.0)
        if shard_speedup < min_shard_speedup:
            failures.append(
                f"sharded 4-worker speedup {shard_speedup:.1f}x < "
                f"required {min_shard_speedup:.1f}x over 1 worker"
            )
        traced = sharded.get("traced")
        if traced is None:
            failures.append("missing traced sharded leg")
        else:
            overhead = sharded.get(
                "trace_overhead_frac", traced.get("overhead_frac")
            )
            if overhead is None:
                failures.append("traced leg reports no overhead fraction")
            elif overhead > max_trace_overhead:
                failures.append(
                    f"distributed-tracing overhead {overhead * 100:.1f}% "
                    f"> allowed {max_trace_overhead * 100:.1f}% on the "
                    f"{traced.get('workers')}-worker real-build leg"
                )
            if not traced.get("repeats") or "cpu_count" not in traced:
                failures.append(
                    "traced leg has no interleaved repeats or cpu_count "
                    "(a single sleep-bound burst cannot show span work)"
                )
            if not traced.get("trace_events"):
                failures.append(
                    "traced leg collected no stitched trace events"
                )

    gated = results[-1]
    speedup = gated.get("warm_over_cold_speedup", 0.0)
    if speedup < min_speedup:
        failures.append(
            f"{gated.get('config')}: warm-over-cold speedup {speedup:.1f}x "
            f"< required {min_speedup:.1f}x"
        )

    for row in results:
        config = row.get("config", "?")
        concurrent = row.get("concurrent")
        if not concurrent:
            failures.append(f"{config}: missing concurrent burst section")
            continue
        if concurrent.get("builds") != 1:
            failures.append(
                f"{config}: concurrent burst ran "
                f"{concurrent.get('builds')} builds, expected exactly 1"
            )
        if concurrent.get("singleflight_joins", 0) < 1:
            failures.append(
                f"{config}: singleflight_joins == "
                f"{concurrent.get('singleflight_joins')} — the burst did "
                f"not overlap any builds (concurrency not exercised)"
            )
        answered = concurrent.get("misses", 0) + concurrent.get("hits", 0)
        if answered != concurrent.get("fanout"):
            failures.append(
                f"{config}: {answered} answered != fanout "
                f"{concurrent.get('fanout')}"
            )

        op_latency = row.get("op_latency_ms") or {}
        if not op_latency:
            failures.append(f"{config}: no per-op latency quantiles")
        for op, q in op_latency.items():
            keys = ("p50_ms", "p95_ms", "p99_ms")
            if any(k not in q for k in keys):
                failures.append(f"{config}/{op}: missing quantile keys")
            elif not q["p50_ms"] <= q["p95_ms"] <= q["p99_ms"]:
                failures.append(
                    f"{config}/{op}: quantiles not ordered: "
                    f"{q['p50_ms']} / {q['p95_ms']} / {q['p99_ms']}"
                )
    return failures


def _check_repair(
    payload: dict, section: str, label: str, min_speedup: float
) -> list[str]:
    """Gates of one incremental-repair leg of an engine artifact."""
    repair = payload.get(section)
    if repair is None:
        return [f"missing {section} section"]
    failures: list[str] = []
    if not repair.get("bit_identical", False):
        failures.append(
            f"{label} diverged from its cold rebuild — "
            "speed is meaningless if the bits are wrong"
        )
    if not repair.get("dirty_sets", 0) > 0:
        failures.append(
            f"{label} benchmark dirtied zero RR sets — the timed "
            "'repair' was the no-op fast path, not a measurement"
        )
    frac = repair.get("dirty_edge_fraction", 1.0)
    if not frac < 0.10:
        failures.append(
            f"{label} benchmark dirtied {frac:.1%} of edges — the "
            "<10% sparse-edit regime was not measured"
        )
    speedup = payload.get(f"{section}_speedup", repair.get("speedup", 0.0))
    if speedup < min_speedup:
        failures.append(
            f"{label} speedup {speedup:.1f}x < required "
            f"{min_speedup:.1f}x over cold rebuild"
        )
    return failures


def _check_multi_repair(payload: dict) -> list[str]:
    """Gates of the one-pass multi-sketch repair leg."""
    multi = payload.get("incremental_repair_multi")
    if multi is None:
        return ["missing incremental_repair_multi section"]
    failures = _check_repair(
        payload, "incremental_repair_multi",
        "one-pass multi-sketch repair", 1.0,
    )
    per_sketch = multi.get("dirty_sets_per_sketch") or []
    if len(per_sketch) < 2 or not all(per_sketch):
        failures.append(
            "one-pass multi-sketch repair did not dirty sets in every "
            f"sketch ({per_sketch}) — the shared pass was not measured"
        )
    return failures


def check_engine(
    payload: dict,
    min_bit_speedup: float,
    min_repair_speedup: float = 3.0,
) -> list[str]:
    """Return a list of failure messages (empty = all gates pass)."""
    failures: list[str] = []
    results = payload.get("results") or []
    if not results:
        return ["no results in benchmark payload"]

    for section, label, floor in (
        ("incremental_repair", "incremental repair", min_repair_speedup),
        (
            "incremental_repair_bitparallel",
            "bit-parallel incremental repair",
            MIN_BIT_REPAIR_SPEEDUP,
        ),
    ):
        failures.extend(_check_repair(payload, section, label, floor))
    failures.extend(_check_multi_repair(payload))

    gated = results[-1]
    speedup = gated.get("rr", {}).get("bitparallel_speedup", 0.0)
    if speedup < min_bit_speedup:
        failures.append(
            f"{gated.get('config')}: bit-parallel RR speedup "
            f"{speedup:.1f}x < required {min_bit_speedup:.1f}x"
        )

    for row in results:
        config = row.get("config", "?")
        if row.get("parallel_fell_back", True):
            failures.append(
                f"{config}: pooled runs fell back to the in-process "
                "path — shared-memory fan-out was not measured"
            )
        leaked = row.get("leaked_segments")
        if leaked is None:
            failures.append(f"{config}: missing leaked_segments field")
        elif leaked:
            failures.append(
                f"{config}: shared-memory segments leaked after "
                f"engine close: {leaked}"
            )
        for section in ("rr", "cascade"):
            timings = row.get(section) or {}
            for leg in ("scalar_s", "bitparallel_s", "parallel_s"):
                if not timings.get(leg, 0) > 0:
                    failures.append(f"{config}/{section}: missing {leg}")
    return failures


def check_load(payload: dict, max_error_frac: float = 0.0) -> list[str]:
    """Return a list of failure messages (empty = all gates pass)."""
    failures: list[str] = []
    rows = payload.get("rows") or []
    if not rows:
        return ["no rows in load report"]
    if payload.get("schema") != "repro.bench.load/1":
        failures.append(
            f"unexpected schema {payload.get('schema')!r} for load report"
        )
    for row in rows:
        rate = row.get("rate_qps", "?")
        issued = row.get("issued", 0)
        accounted = row.get("accounted", -1)
        if issued <= 0:
            failures.append(f"rate {rate}: issued no queries")
            continue
        if accounted != issued:
            failures.append(
                f"rate {rate}: accounted {accounted} != issued {issued} — "
                "a query terminated in zero or two outcome bins"
            )
        errors = row.get("errors", 0)
        if errors > max_error_frac * issued:
            failures.append(
                f"rate {rate}: {errors} raw errors (only clean "
                "rejections/degrades are acceptable overload outcomes)"
            )
        for name in ("interactive", "batch", "best_effort"):
            key = f"p95_ms.{name}"
            if key not in row:
                failures.append(f"rate {rate}: missing {key}")
    return failures


def detect_kind(payload: dict) -> str:
    if payload.get("schema") == "repro.bench.load/1":
        return "load"
    rows = payload.get("results") or [{}]
    return "engine" if "rr" in rows[0] else "serve"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "bench_file", nargs="?", default="BENCH_serve.json",
        help="benchmark artifact to validate (default BENCH_serve.json)",
    )
    parser.add_argument(
        "--kind", choices=("auto", "serve", "engine", "load"),
        default="auto",
        help="artifact kind (default: detect from payload shape)",
    )
    parser.add_argument(
        "--max-error-frac", type=float, default=0.0,
        help="load artifacts: tolerated raw-error fraction per rate "
             "(default 0 — overload must end in clean outcomes)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="serve artifacts: warm-over-cold floor for the gated "
             "config (default 5.0)",
    )
    parser.add_argument(
        "--min-shard-speedup", type=float, default=3.0,
        help="serve artifacts: 4-worker-over-1-worker throughput floor "
             "for the sharded cold burst (default 3.0)",
    )
    parser.add_argument(
        "--max-trace-overhead", type=float, default=0.05,
        help="serve artifacts: allowed wall-time overhead fraction of "
             "the traced fleet over the untraced one on the interleaved "
             "real-build leg (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--min-bit-speedup", type=float, default=32.0,
        help="engine artifacts: bit-parallel RR speedup floor for the "
             "gated config (default 32.0)",
    )
    parser.add_argument(
        "--min-repair-speedup", type=float, default=3.0,
        help="engine artifacts: incremental-repair-over-cold-rebuild "
             "floor in the sparse-edit regime (default 3.0)",
    )
    args = parser.parse_args(argv)

    payload = json.loads(Path(args.bench_file).read_text(encoding="utf-8"))
    kind = detect_kind(payload) if args.kind == "auto" else args.kind
    if kind == "engine":
        failures = check_engine(
            payload, args.min_bit_speedup, args.min_repair_speedup
        )
    elif kind == "load":
        failures = check_load(payload, args.max_error_frac)
    else:
        failures = check_serve(
            payload, args.min_speedup, args.min_shard_speedup,
            args.max_trace_overhead,
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if kind == "load":
        rows = payload["rows"]
        max_qps = payload.get("max_sustainable_qps")
        print(
            f"check_bench OK: {len(rows)} rates, accounting exact "
            f"(issued == done + degraded + rejected + errors); "
            f"max sustainable {max_qps if max_qps is not None else 'n/a'} "
            f"qps at p95 <= {payload.get('slo_p95_ms')} ms"
        )
        return 0
    gated = payload["results"][-1]
    if kind == "engine":
        print(
            f"check_bench OK: {gated['config']} bit-parallel RR "
            f"{gated['rr']['bitparallel_speedup']:.1f}x >= "
            f"{args.min_bit_speedup:.1f}x; geomean "
            f"{payload.get('rr_bitparallel_geomean_speedup', 0):.1f}x; "
            "pool fan-out exercised, no leaked segments; "
            "incremental repair "
            f"{payload.get('incremental_repair_speedup', 0):.1f}x >= "
            f"{args.min_repair_speedup:.1f}x, bit-parallel repair "
            f"{payload.get('incremental_repair_bitparallel_speedup', 0):.1f}"
            f"x >= {MIN_BIT_REPAIR_SPEEDUP:.1f}x (both bit-identical)"
        )
    else:
        shard = payload.get("sharded", {})
        print(
            f"check_bench OK: {gated['config']} "
            f"{gated['warm_over_cold_speedup']:.1f}x >= "
            f"{args.min_speedup:.1f}x; "
            f"singleflight_joins={gated['concurrent']['singleflight_joins']}; "
            f"sharded 4w {shard.get('speedup_4w', 0):.1f}x >= "
            f"{args.min_shard_speedup:.1f}x; tracing overhead "
            f"{shard.get('trace_overhead_frac', 0) * 100:.1f}% <= "
            f"{args.max_trace_overhead * 100:.1f}%"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
