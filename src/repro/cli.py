"""Command-line interface: run queries against TSV graphs from a shell.

Subcommands
-----------
``dataset``
    Generate a named synthetic analogue and write it as a TSV graph
    (plus a ``.targets`` file with a BFS-built target set).
``seeds``
    Top-k seed selection for a fixed tag set.
``tags``
    Top-r tag selection for a fixed seed set.
``joint``
    The full iterative algorithm (Algorithm 2).
``spread``
    Monte-Carlo estimate of σ(S, T, C1) for a given plan.
``report``
    Render a saved observability report (``--metrics-out`` output)
    as text, or convert its trace to Chrome trace-event JSON.
``serve``
    Long-lived campaign server: loads the graph once and answers
    line-delimited JSON queries on stdin (one response per line on
    stdout) with cross-query asset reuse. ``--warm FILE`` prebuilds
    assets from a JSON request array before serving; ``--warm-index``
    builds and freezes a shared possible-world index at startup.
    ``--listen HOST:PORT`` embeds a live telemetry endpoint
    (``/metrics`` in OpenMetrics text, ``/healthz``, ``/events``,
    ``/trace``, ``/debug/slow``); ``--events-out PATH`` mirrors the
    query-lifecycle event log (JSONL, schema ``repro.obs.events/2``)
    to a file, flushed even on SIGTERM/Ctrl-C, with optional
    size-based rotation (``--events-max-bytes`` / ``--events-backups``;
    with ``--workers N`` the causally merged fleet stream is written at
    shutdown instead). ``--trace PATH`` enables distributed tracing and
    writes the stitched Chrome trace at shutdown; ``--flight-slow-ms``
    tunes the slow-query flight recorder. QoS/overload knobs
    (``--shed-threshold`` / ``--stale-threshold``) and the seeded
    chaos harness (``--chaos-*``) are wired straight into the server.
``loadgen``
    Synthetic serving traffic against an embedded server: Zipfian tag
    popularity, overlapping target sets, a configurable class mix, and
    an open- or closed-loop arrival process; sweeps offered rates and
    writes a capacity report (``BENCH_load.json``, schema
    ``repro.bench.load/1``) with the max sustainable qps under the
    interactive p95 SLO and a full done/degraded/rejected breakdown.
    ``--replay`` reuses the op/class sequence from a recorded
    ``--events-out`` JSONL.
``top``
    Live single-screen dashboard for a ``--listen`` endpoint: scrapes
    ``/metrics`` + ``/healthz`` every ``--interval`` seconds and
    renders qps, cache hit ratio, per-op p50/p95/p99 latency, cache
    bytes/evictions, in-flight/queued, and uptime. Against a sharded
    fleet it adds a per-worker table (qps, in-flight, respawns, epoch)
    plus the unreachable-scrape counter.
``flightrec``
    Dump the slow-query flight recorder of a ``--listen`` endpoint
    (``/debug/slow``): recent rejected / cancelled / deadline-missed /
    slow queries, each with its QoS decisions and — when tracing is
    on — the stitched trace of the offending query.

All subcommands accept ``--seed`` for deterministic replays. Node lists
are comma-separated; target files contain one node id per line.

Query subcommands accept observability flags: ``--metrics-out PATH``
writes the full run report (metrics + trace + phase table, schema
``repro.obs.report/1``), ``--trace PATH`` writes the span trace as
Chrome trace-event JSON (loadable by Perfetto / chrome://tracing /
speedscope for flamegraphs), and ``--profile`` additionally enables
the per-kernel profiling hooks. Observability is off — and costs
nothing — unless one of these flags is given.

Sampler-enabled subcommands additionally expose the fault-tolerant
runtime: ``--retries`` (per-shard retry count), ``--deadline`` /
``--max-samples`` (run budget — a tripped limit prints the partial
result), and ``--checkpoint-dir`` / ``--resume`` (shard-granular
checkpointing; an interrupted run re-issued with ``--resume`` splices
the checkpointed prefixes back in and yields identical output).
``SIGTERM``/``Ctrl-C`` exit cleanly after flushing checkpoints.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from collections.abc import Sequence
from pathlib import Path

from repro import obs
from repro.core.baseline import BaselineConfig, baseline_greedy
from repro.core.joint import JointConfig, jointly_select
from repro.core.problem import JointQuery
from repro.datasets import bfs_targets
from repro.datasets.named import ALL_DATASETS
from repro.diffusion.monte_carlo import estimate_spread
from repro.exceptions import BudgetExceededError
from repro.graphs.io import load_tag_graph, save_tag_graph
from repro.seeds.api import ENGINES, find_seeds
from repro.sketch.theta import SketchConfig
from repro.tags.api import METHODS, find_tags


def _parse_nodes(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _read_targets(path: str) -> list[int]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [int(line) for line in lines if line.strip()]


def _parse_tags(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _make_sampler(args: argparse.Namespace):
    """The run's ``SamplingEngine``, from ``--workers``, ``--retries``
    and ``--checkpoint-dir``."""
    from repro.engine.parallel import SamplingEngine

    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    checkpoint = None
    if checkpoint_dir is not None:
        from repro.engine.checkpoint import CheckpointManager

        checkpoint = CheckpointManager(
            checkpoint_dir, resume=bool(getattr(args, "resume", False))
        )
    return SamplingEngine(
        workers=getattr(args, "workers", 1),
        retry_policy=_make_retry_policy(args),
        checkpoint=checkpoint,
    )


def _make_retry_policy(args: argparse.Namespace):
    """The ``RetryPolicy`` that ``--retries`` asks for, or None."""
    retries = getattr(args, "retries", None)
    if retries is None:
        return None
    from repro.engine.runtime import RetryPolicy

    return RetryPolicy(max_attempts=max(int(retries), 0) + 1)


def _make_budget(args: argparse.Namespace):
    """Build a ``RunBudget`` from ``--deadline``/``--max-samples``, or None."""
    deadline = getattr(args, "deadline", None)
    max_samples = getattr(args, "max_samples", None)
    if deadline is None and max_samples is None:
        return None
    from repro.engine.runtime import RunBudget

    return RunBudget(wall_seconds=deadline, max_samples=max_samples)


def _print_runtime_summary(sampler) -> None:
    summary = sampler.telemetry.summary()
    if summary and summary != "clean":
        print(f"runtime: {summary}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Joint seed & tag selection for targeted influence "
            "maximization (Ke, Khan, Cong; SIGMOD 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="generate a synthetic dataset")
    ds.add_argument("name", choices=sorted(ALL_DATASETS))
    ds.add_argument("output", help="output TSV path")
    ds.add_argument("--scale", type=float, default=0.25)
    ds.add_argument("--targets", type=int, default=50,
                    help="also write a BFS target set of this size")
    ds.add_argument("--seed", type=int, default=0)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="TSV graph file")
        p.add_argument("--targets-file", required=True,
                       help="file with one target node id per line")
        p.add_argument("--seed", type=int, default=0)

    def add_sampler(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=int, default=1,
            help=(
                "worker processes (default 1): for seeds, joint, "
                "spread and compare the bit-parallel sampling engine's "
                "pool size (workers share the graph via shared "
                "memory; answers are identical for any N); for serve "
                "the size of the sharded fleet"
            ),
        )
        p.add_argument(
            "--retries", type=int, default=None,
            help=(
                "retries per shard for transient failures (engine "
                "default is 2); on serve --workers N every worker's "
                "engine retries"
            ),
        )
        p.add_argument(
            "--deadline", type=float, default=None,
            help=(
                "wall-clock budget in seconds; when it trips, the "
                "partial result computed so far is printed"
            ),
        )
        p.add_argument(
            "--max-samples", type=int, default=None,
            help="cap on total RR sets / cascades drawn (run budget)",
        )
        p.add_argument(
            "--checkpoint-dir", default=None,
            help=(
                "directory for shard-granular checkpoints; not accepted "
                "by serve, whose per-query sampling never checkpoints"
            ),
        )
        p.add_argument(
            "--resume", action="store_true",
            help=(
                "resume from matching checkpoints in --checkpoint-dir "
                "(required); the spliced run is bit-identical to an "
                "uninterrupted one; not accepted by serve"
            ),
        )

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help=(
                "write the full observability report (metrics + trace + "
                "phases, JSON schema repro.obs.report/1) to PATH"
            ),
        )
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help=(
                "write the span trace as Chrome trace-event JSON to PATH "
                "(open in Perfetto / chrome://tracing for a flamegraph)"
            ),
        )
        p.add_argument(
            "--profile", action="store_true",
            help=(
                "also enable per-kernel profiling hooks (hot-kernel call "
                "counts and timing histograms; implies observability on)"
            ),
        )

    seeds = sub.add_parser("seeds", help="top-k seeds for fixed tags")
    add_common(seeds)
    seeds.add_argument("-k", type=int, required=True)
    seeds.add_argument("--tags", required=True,
                       help="comma-separated tag set")
    seeds.add_argument("--engine", choices=ENGINES, default="trs")
    add_sampler(seeds)
    add_obs(seeds)

    tags = sub.add_parser("tags", help="top-r tags for fixed seeds")
    add_common(tags)
    tags.add_argument("-r", type=int, required=True)
    tags.add_argument("--seeds", required=True,
                      help="comma-separated seed node ids")
    tags.add_argument("--method", choices=METHODS, default="batch")
    add_obs(tags)

    joint = sub.add_parser("joint", help="joint top-k seeds and top-r tags")
    add_common(joint)
    joint.add_argument("-k", type=int, required=True)
    joint.add_argument("-r", type=int, required=True)
    joint.add_argument("--baseline", action="store_true",
                       help="use the interleaved greedy baseline instead")
    joint.add_argument("--max-rounds", type=int, default=4)
    add_sampler(joint)
    add_obs(joint)

    spread = sub.add_parser("spread", help="estimate σ(S, T, C1) by MC")
    add_common(spread)
    spread.add_argument("--seeds", required=True)
    spread.add_argument("--tags", required=True)
    spread.add_argument("--samples", type=int, default=500)
    add_sampler(spread)
    add_obs(spread)

    compare = sub.add_parser(
        "compare", help="compare seed engines on one query"
    )
    add_common(compare)
    compare.add_argument("-k", type=int, required=True)
    compare.add_argument("--tags", required=True)
    compare.add_argument(
        "--engines", default="trs,imm,lltrs",
        help="comma-separated engine list",
    )
    add_sampler(compare)
    add_obs(compare)

    serve = sub.add_parser(
        "serve", help="serve campaign queries as line-delimited JSON"
    )
    serve.add_argument("graph", help="TSV graph file")
    serve.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="default seed engine for requests that omit one",
    )
    serve.add_argument(
        "--pool-size", type=int, default=4,
        help="worker threads executing queries (default 4)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=32,
        help=(
            "queries allowed to wait beyond the running ones; submits "
            "past pool-size + queue-capacity are rejected (default 32)"
        ),
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=256 * 1024 * 1024,
        help="byte budget for the shared asset cache (default 256 MiB)",
    )
    serve.add_argument(
        "--warm", default=None, metavar="FILE",
        help=(
            "JSON array of protocol requests to execute (and thereby "
            "cache) before reading stdin"
        ),
    )
    serve.add_argument(
        "--warm-index", default=None, metavar="TAGS",
        help=(
            "comma-separated tags (or 'all') to index and freeze at "
            "startup for ltrs/itrs queries"
        ),
    )
    serve.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final serve.* metrics snapshot as JSON to PATH",
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help=(
            "embed a live telemetry HTTP endpoint serving /metrics "
            "(OpenMetrics text), /healthz, /events, /trace, and "
            "/debug/slow; port 0 picks a free port (the resolved URL "
            "is printed to stderr)"
        ),
    )
    serve.add_argument(
        "--events-out", default=None, metavar="PATH",
        help=(
            "mirror query-lifecycle events to PATH as JSONL (schema "
            "repro.obs.events/2), flushed even on SIGTERM/Ctrl-C; with "
            "--workers N the causally merged fleet stream is written "
            "once at shutdown instead of streaming"
        ),
    )
    serve.add_argument(
        "--events-max-bytes", type=int, default=None, metavar="N",
        help=(
            "rotate the --events-out file when it would exceed N bytes "
            "(default: never rotate)"
        ),
    )
    serve.add_argument(
        "--events-backups", type=int, default=3, metavar="N",
        help=(
            "rotated event-file generations to keep (default 3; with "
            "--events-max-bytes, disk use is bounded by (N+1) files)"
        ),
    )
    serve.add_argument(
        "--telemetry-interval", type=float, default=1.0,
        help="exporter snapshot interval in seconds for --listen (default 1)",
    )
    serve.add_argument(
        "--telemetry-window", type=float, default=60.0,
        help="rolling SLO window in seconds for --listen (default 60)",
    )
    serve.add_argument(
        "--slo-target", type=float, default=0.999,
        help="availability SLO target for the error budget (default 0.999)",
    )
    serve.add_argument(
        "--shed-threshold", type=float, default=None, metavar="FRAC",
        help=(
            "utilization at which best_effort queries degrade to the "
            "reduced-θ approximate tier (default 0.6)"
        ),
    )
    serve.add_argument(
        "--stale-threshold", type=float, default=None, metavar="FRAC",
        help=(
            "utilization past which best_effort queries are served from "
            "resident cache only, else shed (default 0.85)"
        ),
    )
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "enable distributed tracing and write the Chrome "
            "trace-event JSON of every served query to PATH at "
            "shutdown (with --workers N: the fleet-stitched trace, "
            "worker spans clock-aligned under the router's); also "
            "served live at the --listen /trace route"
        ),
    )
    serve.add_argument(
        "--flight-slow-ms", type=float, default=None, metavar="MS",
        help=(
            "flight-record successful queries slower than MS ms "
            "(rejections, cancellations and deadline misses are always "
            "recorded; inspect via /debug/slow or 'repro flightrec')"
        ),
    )
    serve.add_argument(
        "--mutable", action="store_true",
        help=(
            "serve a versioned mutable graph: accept apply_edits "
            "requests, repair cached RR sketches incrementally, and "
            "tag every reply with its graph epoch"
        ),
    )
    serve.add_argument(
        "--repair-mode", choices=("scalar", "bitparallel"),
        default="scalar",
        help=(
            "RR-sampling kernel for repairable sketches under "
            "--mutable (default scalar)"
        ),
    )

    def add_chaos(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--chaos-seed", type=int, default=None, metavar="SEED",
            help=(
                "enable the deterministic serve-layer fault plan with "
                "this seed (required for the other --chaos-* flags)"
            ),
        )
        p.add_argument(
            "--chaos-admission-rate", type=float, default=0.0,
            help="probability of an injected error at admission",
        )
        p.add_argument(
            "--chaos-dequeue-rate", type=float, default=0.0,
            help="probability of an injected error at dequeue",
        )
        p.add_argument(
            "--chaos-build-error-rate", type=float, default=0.0,
            help="probability of failing an asset build (trips breakers)",
        )
        p.add_argument(
            "--chaos-build-slow-rate", type=float, default=0.0,
            help="probability of slowing an asset build",
        )
        p.add_argument(
            "--chaos-build-slow-seconds", type=float, default=0.05,
            help="sleep injected by --chaos-build-slow-rate (default 0.05)",
        )
        p.add_argument(
            "--chaos-deadline-skew", type=float, default=0.0,
            help=(
                "seconds subtracted from every query deadline at "
                "admission (models a fast-running clock)"
            ),
        )

    add_chaos(serve)
    add_sampler(serve)

    loadgen = sub.add_parser(
        "loadgen",
        help=(
            "drive an embedded campaign server with synthetic traffic "
            "and write a capacity report (BENCH_load.json)"
        ),
    )
    loadgen.add_argument("graph", help="TSV graph file")
    loadgen.add_argument(
        "--rates", default="4,8,16", metavar="QPS[,QPS...]",
        help="offered rates to sweep, comma-separated (default 4,8,16)",
    )
    loadgen.add_argument(
        "--queries", type=int, default=60,
        help="queries issued at each swept rate (default 60)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--slo-ms", type=float, default=500.0,
        help="interactive p95 SLO the capacity verdict uses (default 500)",
    )
    loadgen.add_argument(
        "--out", default="BENCH_load.json", metavar="PATH",
        help="capacity report path (default BENCH_load.json)",
    )
    loadgen.add_argument(
        "--pool-size", type=int, default=4,
        help="server worker threads (default 4)",
    )
    loadgen.add_argument(
        "--queue-capacity", type=int, default=8,
        help="server queue capacity beyond the pool (default 8)",
    )
    loadgen.add_argument(
        "--closed-loop", action="store_true",
        help=(
            "closed-loop mode: N synchronous clients back to back "
            "instead of scheduled open-loop arrivals"
        ),
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop client count (default 8)",
    )
    loadgen.add_argument(
        "--replay", default=None, metavar="EVENTS_JSONL",
        help=(
            "replay the op/class sequence from a serve --events-out "
            "JSONL instead of drawing from the synthetic mixes"
        ),
    )
    loadgen.add_argument(
        "--theta-max", type=int, default=2000,
        help="sketch theta_max for the embedded server (default 2000)",
    )
    add_chaos(loadgen)

    top = sub.add_parser(
        "top", help="live dashboard for a serve --listen endpoint"
    )
    top.add_argument(
        "url", help="telemetry endpoint base URL (http://HOST:PORT)"
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between dashboard refreshes (default 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="render N frames then exit (default 0 = until Ctrl-C)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (same as --iterations 1)",
    )

    flightrec = sub.add_parser(
        "flightrec",
        help="dump the slow-query flight recorder of a serve --listen "
             "endpoint",
    )
    flightrec.add_argument(
        "url", help="telemetry endpoint base URL (http://HOST:PORT)"
    )
    flightrec.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="only the most recent N flight records (default: all)",
    )
    flightrec.add_argument(
        "--json", action="store_true",
        help="print the raw repro.obs.flight/1 JSON document",
    )

    report = sub.add_parser(
        "report", help="render a saved observability report"
    )
    report.add_argument(
        "report_file", help="JSON report written by --metrics-out"
    )
    report.add_argument(
        "--chrome", default=None, metavar="PATH",
        help=(
            "also convert the report's trace to Chrome trace-event JSON "
            "at PATH (flamegraph form)"
        ),
    )

    learn = sub.add_parser(
        "learn", help="learn a tag graph from an interaction log"
    )
    learn.add_argument("log", help="CSV log: timestamp,user,tag")
    learn.add_argument(
        "friendships",
        help="TSV friendship graph (only its edges are used)",
    )
    learn.add_argument("output", help="output TSV graph path")
    learn.add_argument("--window", type=float, default=50.0)
    learn.add_argument("--a", type=float, default=5.0)
    learn.add_argument(
        "--method", choices=("frequency", "bernoulli"), default="frequency"
    )

    return parser


def _cmd_dataset(args: argparse.Namespace) -> int:
    data = ALL_DATASETS[args.name](scale=args.scale, seed=args.seed)
    save_tag_graph(data.graph, args.output)
    targets = bfs_targets(
        data.graph, min(args.targets, data.graph.num_nodes)
    )
    targets_path = Path(args.output).with_suffix(".targets")
    targets_path.write_text(
        "\n".join(str(t) for t in targets.tolist()) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {data.graph.num_nodes} nodes / {data.graph.num_edges} "
        f"edges / {data.graph.num_tags} tags to {args.output}"
    )
    print(f"wrote {targets.size} targets to {targets_path}")
    return 0


def _cmd_seeds(args: argparse.Namespace) -> int:
    graph = load_tag_graph(args.graph)
    targets = _read_targets(args.targets_file)
    with _make_sampler(args) as sampler:
        selection = find_seeds(
            graph, targets, _parse_tags(args.tags), args.k,
            engine=args.engine, config=SketchConfig(), rng=args.seed,
            sampler=sampler, budget=_make_budget(args),
        )
    print(f"seeds: {','.join(str(s) for s in selection.seeds)}")
    print(f"estimated spread: {selection.estimated_spread:.3f}")
    _print_runtime_summary(sampler)
    return 0


def _cmd_tags(args: argparse.Namespace) -> int:
    graph = load_tag_graph(args.graph)
    targets = _read_targets(args.targets_file)
    selection = find_tags(
        graph, _parse_nodes(args.seeds), targets, args.r,
        method=args.method, rng=args.seed,
    )
    print(f"tags: {','.join(selection.tags)}")
    print(f"estimated spread: {selection.estimated_spread:.3f}")
    return 0


def _cmd_joint(args: argparse.Namespace) -> int:
    graph = load_tag_graph(args.graph)
    targets = _read_targets(args.targets_file)
    query = JointQuery(targets, k=args.k, r=args.r)
    with _make_sampler(args) as sampler:
        if args.baseline:
            result = baseline_greedy(
                graph, query, BaselineConfig(), rng=args.seed
            )
        else:
            result = jointly_select(
                graph, query, JointConfig(max_rounds=args.max_rounds),
                rng=args.seed, sampler=sampler, budget=_make_budget(args),
            )
    print(f"seeds: {','.join(str(s) for s in result.seeds)}")
    print(f"tags: {','.join(result.tags)}")
    print(f"spread: {result.spread:.3f} / {query.num_targets}")
    print(f"rounds: {result.rounds}  converged: {result.converged}")
    _print_runtime_summary(sampler)
    return 0


def _cmd_spread(args: argparse.Namespace) -> int:
    graph = load_tag_graph(args.graph)
    targets = _read_targets(args.targets_file)
    with _make_sampler(args) as sampler:
        value = estimate_spread(
            graph, _parse_nodes(args.seeds), targets, _parse_tags(args.tags),
            num_samples=args.samples, rng=args.seed,
            engine=sampler, budget=_make_budget(args),
        )
    print(f"spread: {value:.3f} / {len(set(targets))}")
    _print_runtime_summary(sampler)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_seed_engines, format_table

    graph = load_tag_graph(args.graph)
    targets = _read_targets(args.targets_file)
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    with _make_sampler(args) as sampler:
        reports = compare_seed_engines(
            graph, targets, _parse_tags(args.tags), args.k,
            engines=engines, rng=args.seed, sampler=sampler,
        )
    print(
        format_table(
            ["engine", "verified spread", "time s"],
            [
                [r.engine, r.verified_spread, r.elapsed_seconds]
                for r in reports
            ],
        )
    )
    _print_runtime_summary(sampler)
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    from repro.learning import InteractionLog, LearningConfig, learn_tag_graph

    log = InteractionLog.load(args.log)
    friend_graph = load_tag_graph(args.friendships)
    friendships = [
        (int(friend_graph.src[e]), int(friend_graph.dst[e]))
        for e in range(friend_graph.num_edges)
    ]
    learned = learn_tag_graph(
        log, friendships, num_nodes=friend_graph.num_nodes,
        config=LearningConfig(
            window=args.window, a=args.a, method=args.method
        ),
    )
    save_tag_graph(learned, args.output)
    print(
        f"learned {learned.num_edges} edges / {learned.num_tags} tags "
        f"from {len(log)} events; wrote {args.output}"
    )
    return 0


def _chaos_kwargs(args: argparse.Namespace):
    """``ServeFaultPlan`` constructor kwargs from the flags, or None.

    Kept as plain kwargs (not a plan instance) so sharded serving can
    ship them to worker processes — the plan itself holds a lock and is
    not picklable.
    """
    if getattr(args, "chaos_seed", None) is None:
        return None
    return {
        "seed": args.chaos_seed,
        "admission_error_rate": args.chaos_admission_rate,
        "dequeue_error_rate": args.chaos_dequeue_rate,
        "build_error_rate": args.chaos_build_error_rate,
        "build_slow_rate": args.chaos_build_slow_rate,
        "build_slow_seconds": args.chaos_build_slow_seconds,
        "deadline_skew_s": args.chaos_deadline_skew,
    }


def _make_chaos(args: argparse.Namespace):
    """Build a ``ServeFaultPlan`` from the ``--chaos-*`` flags, or None."""
    kwargs = _chaos_kwargs(args)
    if kwargs is None:
        return None
    from repro.serve import ServeFaultPlan

    return ServeFaultPlan(**kwargs)


def _make_qos(args: argparse.Namespace):
    """Build a non-default ``QosConfig`` from flags, or None."""
    shed = getattr(args, "shed_threshold", None)
    stale = getattr(args, "stale_threshold", None)
    flight_slow = getattr(args, "flight_slow_ms", None)
    if shed is None and stale is None and flight_slow is None:
        return None
    from repro.serve import QosConfig

    defaults = QosConfig()
    return QosConfig(
        shed_threshold=shed if shed is not None else defaults.shed_threshold,
        stale_threshold=(
            stale if stale is not None else defaults.stale_threshold
        ),
        flight_slow_ms=flight_slow,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import CampaignServer, serve_stdio
    from repro.serve.protocol import warm

    graph = load_tag_graph(args.graph)
    config = (
        JointConfig() if args.engine is None
        else JointConfig(seed_engine=args.engine)
    )
    # ``--workers N`` (N > 1) boots the sharded multi-process service:
    # N worker processes, each a full CampaignServer on the shared
    # graph, behind one router speaking the identical wire protocol.
    # Worker engines run single-process (the fleet IS the parallelism).
    workers = int(getattr(args, "workers", 1) or 1)
    sharded = workers > 1
    # The server settings both kinds share; a fleet hands them to every
    # worker's CampaignServer.
    settings = dict(
        config=config,
        pool_size=args.pool_size,
        queue_capacity=args.queue_capacity,
        cache_bytes=args.cache_bytes,
        default_deadline=args.deadline,
        default_max_samples=args.max_samples,
        qos=_make_qos(args),
        mutable=args.mutable,
        repair_mode=args.repair_mode,
    )
    if sharded:
        from repro.serve import ShardedCampaignService, WorkerSpec

        spec = WorkerSpec(
            chaos=_chaos_kwargs(args),
            retry_policy=_make_retry_policy(args),
            **settings,
        )
        server = ShardedCampaignService(
            graph, workers=workers, spec=spec,
            tracing=args.trace is not None,
        )
        print(
            f"sharded: {workers} worker processes "
            f"(pids {sorted(server.worker_pids().values())})",
            file=sys.stderr,
        )
    else:
        # A serial engine (serve takes no --checkpoint-dir): it owns no
        # pool or shared segment, so nothing to close after serving.
        server = CampaignServer(
            graph, sampler=_make_sampler(args), chaos=_make_chaos(args),
            tracing=args.trace is not None, **settings,
        )
    merge_events = None
    if args.events_out is not None:
        # The event sink is the one place the two kinds differ after
        # construction: an in-process server streams its lifecycle
        # events to the file as they happen, while a fleet's events
        # live in its worker processes, so the router merges them into
        # the file once, at shutdown, while the workers are still up.
        if sharded:
            def merge_events() -> int:
                events = server.events_payload()["events"]
                with Path(args.events_out).open("w", encoding="utf-8") as fh:
                    for record in events:
                        fh.write(json.dumps(record) + "\n")
                return len(events)
        else:
            server.events.open_sink(
                args.events_out,
                max_bytes=args.events_max_bytes,
                backups=args.events_backups,
            )
    telemetry = None
    handled = 0
    try:
        if args.listen is not None:
            from repro.obs.live import start_live_telemetry

            telemetry = start_live_telemetry(
                server,
                listen=args.listen,
                interval=args.telemetry_interval,
                window_seconds=args.telemetry_window,
                slo_target=args.slo_target,
            )
            print(
                f"telemetry: listening on {telemetry.url}",
                file=sys.stderr,
            )
        if args.warm_index:
            tags = (
                None if args.warm_index.strip() == "all"
                else _parse_tags(args.warm_index)
            )
            built = server.warm_index(tags)
            print(
                f"warm-index: froze {len(built)} tag indexes",
                file=sys.stderr,
            )
        if args.warm:
            requests = json.loads(
                Path(args.warm).read_text(encoding="utf-8")
            )
            warmed = warm(server, requests)
            stats = server.cache_stats()
            print(
                f"warm: executed {warmed} requests "
                f"({stats.entries} assets, {stats.bytes} bytes cached)",
                file=sys.stderr,
            )
        handled = serve_stdio(server)
    finally:
        if telemetry is not None:
            telemetry.close()
        # The stitched trace, the merged fleet event stream and the
        # fleet metrics all round-trip to the workers, so they must
        # be captured while the fleet is still up — before close().
        # Each capture has its own try: one failing skips no other.
        trace_events = metrics_snapshot = events_written = None
        if args.trace is not None:
            try:
                trace_events = server.chrome_trace()
            except Exception as exc:  # pragma: no cover - teardown race
                print(f"trace drain failed: {exc}", file=sys.stderr)
                trace_events = []
        if merge_events is not None:
            try:
                events_written = merge_events()
            except Exception as exc:  # pragma: no cover - teardown race
                print(f"event merge failed: {exc}", file=sys.stderr)
        if args.metrics_out is not None:
            try:
                metrics_snapshot = server.metrics_payload()
            except Exception as exc:  # pragma: no cover - teardown race
                print(f"metrics capture failed: {exc}", file=sys.stderr)
        server.close()
        if trace_events is not None:
            Path(args.trace).write_text(
                json.dumps(trace_events, indent=2), encoding="utf-8"
            )
            print(
                f"wrote {len(trace_events)} trace events to "
                f"{args.trace}",
                file=sys.stderr,
            )
        # close() flushed the event sink; closing the log also
        # releases a --events-out file so even the SIGTERM path
        # leaves a complete JSONL behind.
        if args.events_out is not None and merge_events is None:
            events_written = server.events.total
        server.events.close()
        if events_written is not None:
            print(
                f"wrote {events_written} events to {args.events_out}",
                file=sys.stderr,
            )
        if metrics_snapshot is not None:
            Path(args.metrics_out).write_text(
                json.dumps(metrics_snapshot, indent=2), encoding="utf-8"
            )
            print(
                f"wrote serve metrics to {args.metrics_out}",
                file=sys.stderr,
            )
    print(f"served {handled} requests", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import CampaignServer
    from repro.serve.loadgen import (
        LoadSpec,
        capacity_report,
        replay_ops_from_events,
    )
    from repro.sketch.theta import SketchConfig

    graph = load_tag_graph(args.graph)
    rates = tuple(
        float(r) for r in args.rates.split(",") if r.strip()
    )
    spec = LoadSpec(
        seed=args.seed,
        queries_per_rate=args.queries,
        rates=rates,
        slo_p95_ms=args.slo_ms,
        open_loop=not args.closed_loop,
        concurrency=args.concurrency,
    )
    replay_ops = (
        replay_ops_from_events(args.replay)
        if args.replay is not None else None
    )
    config = JointConfig(
        sketch=SketchConfig(theta_max=args.theta_max, pilot_samples=50)
    )
    chaos = _make_chaos(args)

    def make_server():
        return CampaignServer(
            graph,
            config=config,
            pool_size=args.pool_size,
            queue_capacity=args.queue_capacity,
            chaos=chaos,
        )

    report = capacity_report(
        make_server, graph, spec, replay_ops=replay_ops
    )
    Path(args.out).write_text(
        json.dumps(report, indent=2), encoding="utf-8"
    )
    max_qps = report["max_sustainable_qps"]
    verdict = (
        f"max sustainable: {max_qps:g} qps at p95 <= {args.slo_ms:g} ms"
        if max_qps is not None
        else f"no swept rate met the {args.slo_ms:g} ms p95 SLO"
    )
    for row in report["rows"]:
        print(
            f"rate {row['rate_qps']:g} qps: {row['done']} done, "
            f"{row['degraded']} degraded, {row['rejected_total']} "
            f"rejected, {row['errors']} errors "
            f"(interactive p95 {row['p95_ms.interactive']} ms)",
            file=sys.stderr,
        )
    print(f"loadgen: {verdict}; wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time
    import urllib.error
    import urllib.request

    from repro.obs.live import parse_openmetrics, render_dashboard

    base = args.url if "://" in args.url else f"http://{args.url}"
    base = base.rstrip("/")

    def fetch(path: str) -> str:
        with urllib.request.urlopen(base + path, timeout=5.0) as resp:
            return resp.read().decode("utf-8")

    frames = 1 if args.once else max(args.iterations, 0)
    rendered = 0
    previous = None
    previous_t = None
    while True:
        try:
            scrape = parse_openmetrics(fetch("/metrics"))
            try:
                health = json.loads(fetch("/healthz"))
            except urllib.error.HTTPError as exc:
                # /healthz answers 503 (with a JSON body) once closed.
                health = json.loads(exc.read().decode("utf-8"))
        except (urllib.error.URLError, OSError) as exc:
            print(f"repro top: cannot scrape {base}: {exc}", file=sys.stderr)
            return 1
        now = time.monotonic()
        dt = (now - previous_t) if previous_t is not None else None
        frame = render_dashboard(
            scrape, health, url=base, previous=previous, dt=dt
        )
        if rendered and frames != 1:
            sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
        sys.stdout.write(frame)
        sys.stdout.flush()
        rendered += 1
        if frames and rendered >= frames:
            return 0
        previous, previous_t = scrape, now
        time.sleep(args.interval)


def _cmd_flightrec(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    base = args.url if "://" in args.url else f"http://{args.url}"
    url = base.rstrip("/") + "/debug/slow"
    if args.limit is not None:
        url += f"?limit={int(args.limit)}"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"repro flightrec: cannot fetch {url}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    records = payload.get("records") or []
    slow_ms = payload.get("slow_ms")
    print(
        f"flight recorder: {len(records)} shown / "
        f"{payload.get('total', len(records))} recorded "
        f"(capacity {payload.get('capacity')}, slow_ms "
        f"{slow_ms if slow_ms is not None else '-'})"
    )
    for record in records:
        bits = [
            f"{str(record.get('reason') or '?'):<13}",
            f"op={record.get('op')}",
            f"class={(record.get('decisions') or {}).get('class')}",
        ]
        for key, fmt in (("elapsed_ms", "elapsed={:.1f}ms"),
                         ("deadline_ms", "deadline={:.1f}ms")):
            value = record.get(key)
            if isinstance(value, (int, float)):
                bits.append(fmt.format(value))
        if record.get("code"):
            bits.append(f"code={record['code']}")
        if record.get("trace_id"):
            bits.append(f"trace={record['trace_id']}")
        spans = record.get("trace")
        if isinstance(spans, list) and spans:
            bits.append(f"spans={len(spans)}")
        print("  " + "  ".join(bits))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = json.loads(Path(args.report_file).read_text(encoding="utf-8"))
    sys.stdout.write(obs.render_report(report))
    if args.chrome is not None:
        events = obs.chrome_events_from_dicts(report.get("trace") or [])
        Path(args.chrome).write_text(
            json.dumps(events, indent=2), encoding="utf-8"
        )
        print(f"wrote {len(events)} trace events to {args.chrome}")
    return 0


_COMMANDS = {
    "dataset": _cmd_dataset,
    "seeds": _cmd_seeds,
    "tags": _cmd_tags,
    "joint": _cmd_joint,
    "spread": _cmd_spread,
    "compare": _cmd_compare,
    "learn": _cmd_learn,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "top": _cmd_top,
    "flightrec": _cmd_flightrec,
}


def _raise_keyboard_interrupt(signum, frame):  # pragma: no cover - signal
    raise KeyboardInterrupt


def _install_sigterm_handler():
    """Route SIGTERM through the KeyboardInterrupt path (flush + exit).

    Returns the handler it replaced, or ``None`` when it installed none
    (off the main thread, or the old handler was not set from Python).
    """
    try:
        return signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except ValueError:  # pragma: no cover - not the main thread
        return None


def _describe_partial(partial: object) -> str:
    if partial is None:
        return ""
    seeds = getattr(partial, "seeds", None)
    if seeds is not None:
        spread = getattr(partial, "estimated_spread", None)
        if spread is None:
            spread = getattr(partial, "spread", 0.0)
        return (
            f"partial seeds: {','.join(str(s) for s in seeds)} "
            f"(spread {spread:.3f})"
        )
    if isinstance(partial, float):
        return f"partial spread: {partial:.3f}"
    return f"partial: {partial!r}"


def _write_observability(
    observation, trace_path: str | None, metrics_path: str | None
) -> None:
    """Flush ``--trace`` / ``--metrics-out`` files from an observation.

    Runs after the command (even on budget-exceeded / interrupt exits),
    so partial runs still leave usable traces behind.
    """
    report = observation.report()
    if metrics_path is not None:
        Path(metrics_path).write_text(
            json.dumps(report, indent=2), encoding="utf-8"
        )
        print(f"wrote metrics report to {metrics_path}", file=sys.stderr)
    if trace_path is not None:
        events = observation.tracer.to_chrome_events()
        Path(trace_path).write_text(
            json.dumps(events, indent=2), encoding="utf-8"
        )
        print(f"wrote trace to {trace_path}", file=sys.stderr)


def _check_serve_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Refuse shared runtime flags that ``serve`` would silently drop.

    The server samples only through per-query engine views, which never
    checkpoint.
    """
    if args.checkpoint_dir is not None:
        parser.error(
            "serve does not support --checkpoint-dir: served queries "
            "never checkpoint"
        )
    if args.resume:
        parser.error(
            "serve does not support --resume: served queries never "
            "checkpoint"
        )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: ``0`` success, ``75`` run budget exceeded (the partial
    result is printed first), ``130`` interrupted by Ctrl-C/SIGTERM
    (checkpoints, if configured, are flushed before exiting).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        _check_serve_flags(parser, args)
    if getattr(args, "resume", False) and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    previous_sigterm = _install_sigterm_handler()
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    profile = bool(getattr(args, "profile", False))
    if args.command == "serve":
        # The server observes each query in its own worker-thread scope
        # and writes its own ``--metrics-out`` snapshot and ``--trace``
        # dump (for serve, --trace means distributed tracing, collected
        # per query and — sharded — stitched across worker processes);
        # a main-thread scope would see nothing and clobber those files.
        trace_path = metrics_path = None
        profile = False
    observing = bool(trace_path or metrics_path or profile)
    scope = (
        obs.observe(profile=profile) if observing else contextlib.nullcontext()
    )
    observation = None
    try:
        with scope as observation:
            return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        checkpoint_dir = getattr(args, "checkpoint_dir", None)
        if checkpoint_dir:
            message = (
                "interrupted — checkpoints flushed; re-run with --resume "
                f"to continue from {checkpoint_dir}"
            )
        else:
            message = "interrupted"
        print(message, file=sys.stderr)
        return 130
    except BudgetExceededError as exc:
        print(f"run budget exceeded ({exc.reason})", file=sys.stderr)
        described = _describe_partial(exc.partial)
        if described:
            print(described)
        return 75
    finally:
        try:
            if observation is not None:
                _write_observability(observation, trace_path, metrics_path)
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
