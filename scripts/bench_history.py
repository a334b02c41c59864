"""Append benchmark artifacts to a longitudinal ``BENCH_HISTORY.jsonl``.

Every CI bench step produces a point-in-time ``BENCH_*.json`` artifact
that is overwritten on the next run; regressions that stay above the
gates are invisible. This script distills each artifact to the handful
of *gated* numbers and appends them — with the git revision and a
timestamp — as one JSONL line per artifact, so the history file answers
"how has the 4-worker speedup trended over the last fifty commits?"
with ``jq`` instead of archaeology.

Usage::

    python scripts/bench_history.py BENCH_serve.json BENCH_engine.json \
        --out BENCH_HISTORY.jsonl

Unknown or unreadable artifacts are reported and skipped (exit stays 0
unless *nothing* could be appended); the extractor never fails a build
that the gates passed.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import subprocess
import sys
from pathlib import Path

HISTORY_SCHEMA = "repro.bench.history/1"


def git_revision() -> str | None:
    """Short commit sha of the working tree, or None outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10.0, check=True,
        ).stdout.strip()
        return out or None
    except (OSError, subprocess.SubprocessError):
        return None


def _summarize_serve(payload: dict) -> dict:
    results = payload.get("results") or [{}]
    gated = results[-1]
    sharded = payload.get("sharded") or {}
    traced = sharded.get("traced") or {}
    cached = payload.get("cached_read") or {}
    return {
        "bench": "serve",
        "config": gated.get("config"),
        "warm_over_cold_speedup": gated.get("warm_over_cold_speedup"),
        "mixed_speedup": gated.get("mixed_speedup"),
        "sharded_speedup_4w": sharded.get("speedup_4w"),
        "trace_overhead_frac": sharded.get("trace_overhead_frac"),
        "trace_events": traced.get("trace_events"),
        "cached_read_cpu_ms": (cached.get("in_process") or {}).get(
            "cpu_ms_per_read"
        ),
        "fleet_cached_read_cpu_ms": (cached.get("fleet") or {}).get(
            "cpu_ms_per_read"
        ),
    }


def _summarize_engine(payload: dict) -> dict:
    results = payload.get("results") or [{}]
    gated = results[-1]
    return {
        "bench": "engine",
        "config": gated.get("config"),
        "bitparallel_speedup": (gated.get("rr") or {}).get(
            "bitparallel_speedup"
        ),
        "bitparallel_geomean_speedup": payload.get(
            "rr_bitparallel_geomean_speedup"
        ),
        "incremental_repair_speedup": payload.get(
            "incremental_repair_speedup"
        ),
        "incremental_repair_bitparallel_speedup": payload.get(
            "incremental_repair_bitparallel_speedup"
        ),
        "incremental_repair_multi_speedup": payload.get(
            "incremental_repair_multi_speedup"
        ),
        "incremental_repair_multi_one_pass_speedup": (
            payload.get("incremental_repair_multi") or {}
        ).get("one_pass_speedup"),
    }


def _summarize_load(payload: dict) -> dict:
    return {
        "bench": "load",
        "max_sustainable_qps": payload.get("max_sustainable_qps"),
        "slo_p95_ms": payload.get("slo_p95_ms"),
        "rates": len(payload.get("rows") or []),
    }


def summarize(payload: dict) -> dict | None:
    """Gated-number summary for one artifact, or None if unrecognized.

    Detection mirrors ``check_bench.detect_kind``: the load artifact is
    schema-stamped, engine rows carry ``rr``, everything else with a
    ``results`` list is a serve artifact.
    """
    if payload.get("schema") == "repro.bench.load/1":
        return _summarize_load(payload)
    rows = payload.get("results")
    if not isinstance(rows, list) or not rows:
        return None
    if "rr" in rows[0]:
        return _summarize_engine(payload)
    return _summarize_serve(payload)


def append_history(
    bench_files: list[str], out: str, *,
    revision: str | None = None, timestamp: str | None = None,
) -> int:
    """Append one summary line per readable artifact; returns the count."""
    revision = revision if revision is not None else git_revision()
    timestamp = timestamp or _dt.datetime.now(
        _dt.timezone.utc
    ).isoformat(timespec="seconds")
    lines = []
    for bench_file in bench_files:
        try:
            payload = json.loads(
                Path(bench_file).read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as exc:
            print(
                f"bench_history: skipping {bench_file}: {exc}",
                file=sys.stderr,
            )
            continue
        summary = summarize(payload)
        if summary is None:
            print(
                f"bench_history: skipping {bench_file}: "
                "unrecognized artifact shape",
                file=sys.stderr,
            )
            continue
        lines.append({
            "schema": HISTORY_SCHEMA,
            "ts": timestamp,
            "git": revision,
            "file": Path(bench_file).name,
            **summary,
        })
    if lines:
        with Path(out).open("a", encoding="utf-8") as fh:
            for line in lines:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "bench_files", nargs="+",
        help="BENCH_*.json artifacts to distill and append",
    )
    parser.add_argument(
        "--out", default="BENCH_HISTORY.jsonl", metavar="PATH",
        help="history file to append to (default BENCH_HISTORY.jsonl)",
    )
    args = parser.parse_args(argv)
    appended = append_history(args.bench_files, args.out)
    print(
        f"bench_history: appended {appended}/{len(args.bench_files)} "
        f"artifact summaries to {args.out}"
    )
    return 0 if appended else 1


if __name__ == "__main__":
    raise SystemExit(main())
