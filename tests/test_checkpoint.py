"""Checkpoint/resume tests: kill a run mid-flight, resume, match bits.

The checkpoint layer's contract is *deterministic replay with a memo
cache* (see ``repro/engine/checkpoint.py``): a resumed run replays the
same operation sequence and splices in checkpointed shard prefixes.
These tests interrupt runs at exact shard boundaries with the fault
harness, then assert the resumed output is bit-identical to an
uninterrupted run — the strongest statement the resume model makes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import JointConfig, SketchConfig, TagSelectionConfig
from repro.core import CampaignSession
from repro.datasets import community_targets
from repro.engine import (
    CheckpointManager,
    FaultPlan,
    RetryPolicy,
    SamplingEngine,
)
from repro.engine.rr_storage import RRCollection
from repro.exceptions import ConfigurationError
from repro.sketch.trs import trs_select_seeds
from repro.utils.validation import as_target_array

FAST = RetryPolicy(backoff_base=0.001, backoff_max=0.005, jitter=0.0)

SIG = {"kind": "rr", "theta": 64, "mode": "bitparallel"}


def _arrays(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "members": rng.integers(0, 100, size=n * 7),
        "indptr": np.arange(0, n * 7 + 1, 7),
    }


# ---------------------------------------------------------------------------
# CheckpointManager unit behaviour
# ---------------------------------------------------------------------------


class TestCheckpointManager:
    def test_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path, resume=True)
        arrays = _arrays()
        manager.save(0, SIG, arrays, shards_done=3, total_shards=8)
        loaded = manager.load(0, SIG)
        assert loaded is not None
        got, done, total = loaded
        assert (done, total) == (3, 8)
        np.testing.assert_array_equal(got["members"], arrays["members"])
        np.testing.assert_array_equal(got["indptr"], arrays["indptr"])

    def test_signature_mismatch_is_silently_ignored(self, tmp_path):
        manager = CheckpointManager(tmp_path, resume=True)
        manager.save(0, SIG, _arrays(), shards_done=3, total_shards=8)
        other = dict(SIG, theta=128)
        assert manager.load(0, other) is None

    def test_fresh_run_never_loads(self, tmp_path):
        writer = CheckpointManager(tmp_path, resume=True)
        writer.save(0, SIG, _arrays(), shards_done=3, total_shards=8)
        fresh = CheckpointManager(tmp_path, resume=False)
        assert fresh.load(0, SIG) is None
        assert writer.op_path(0).exists()  # file untouched

    def test_corrupt_file_recomputes(self, tmp_path):
        manager = CheckpointManager(tmp_path, resume=True)
        manager.save(0, SIG, _arrays(), shards_done=3, total_shards=8)
        manager.op_path(0).write_bytes(b"not an npz archive")
        assert manager.load(0, SIG) is None

    def test_missing_file_returns_none(self, tmp_path):
        manager = CheckpointManager(tmp_path, resume=True)
        assert manager.load(7, SIG) is None

    def test_clear_removes_checkpoints(self, tmp_path):
        manager = CheckpointManager(tmp_path, resume=True)
        manager.save(0, SIG, _arrays(), shards_done=2, total_shards=4)
        manager.save(1, SIG, _arrays(seed=1), shards_done=4, total_shards=4)
        manager.clear()
        assert manager.load(0, SIG) is None
        assert list(tmp_path.glob("op*.npz")) == []

    def test_flush_cadence(self, tmp_path):
        manager = CheckpointManager(tmp_path, resume=False, every=4)
        assert not manager.should_flush(0, 2)
        assert manager.should_flush(0, 4)
        assert manager.should_flush(0, 1, force=True)
        manager.save(0, SIG, _arrays(), shards_done=4, total_shards=8)
        assert not manager.should_flush(0, 5)  # only 1 past last flush
        assert manager.should_flush(0, 8)

    def test_cadence_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, every=0)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        manager = CheckpointManager(tmp_path, resume=True)
        manager.save(0, SIG, _arrays(), shards_done=3, total_shards=8)
        assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# Engine-level kill-and-resume
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def query(small_yelp):
    graph = small_yelp.graph
    targets = as_target_array(
        list(range(12)), graph.num_nodes, context="test"
    )
    edge_probs = graph.edge_probabilities(list(graph.tags[:3]))
    return graph, targets, edge_probs


def _rr(engine, query, theta=64, seed=11):
    graph, targets, edge_probs = query
    return engine.sample_rr_sets(
        graph, targets, edge_probs, theta, np.random.default_rng(seed)
    )


def test_engine_kill_and_resume_is_bit_identical(tmp_path, query):
    with SamplingEngine(shard_size=8) as engine:
        clean = _rr(engine, query)

    plan = FaultPlan().interrupt_after_shards(3)
    first = CheckpointManager(tmp_path, resume=False, every=1)
    with SamplingEngine(
        shard_size=8, fault_plan=plan, checkpoint=first
    ) as engine:
        with pytest.raises(KeyboardInterrupt):
            _rr(engine, query)
        assert engine.telemetry.checkpoint_writes >= 1
    assert list(tmp_path.glob("op*.npz"))  # interrupt force-flushed

    second = CheckpointManager(tmp_path, resume=True, every=1)
    with SamplingEngine(shard_size=8, checkpoint=second) as engine:
        resumed = _rr(engine, query)
        assert engine.telemetry.checkpoint_loads == 1
    assert isinstance(resumed, RRCollection)
    np.testing.assert_array_equal(clean.members, resumed.members)
    np.testing.assert_array_equal(clean.indptr, resumed.indptr)


def test_completed_op_loads_whole(tmp_path, query):
    first = CheckpointManager(tmp_path, resume=False)
    with SamplingEngine(shard_size=8, checkpoint=first) as engine:
        clean = _rr(engine, query)
        assert engine.telemetry.checkpoint_writes >= 1

    second = CheckpointManager(tmp_path, resume=True)
    with SamplingEngine(shard_size=8, checkpoint=second) as engine:
        resumed = _rr(engine, query)
        # Fully checkpointed op: loaded, no shard recomputed.
        assert engine.telemetry.checkpoint_loads == 1
        assert engine.telemetry.shards_run == 0
    np.testing.assert_array_equal(clean.members, resumed.members)


def test_resume_with_faults_still_matches(tmp_path, query):
    """Resume + retries compose: remaining shards may fail and retry."""
    with SamplingEngine(shard_size=8) as engine:
        clean = _rr(engine, query)

    plan = FaultPlan().interrupt_after_shards(2)
    with SamplingEngine(
        shard_size=8, fault_plan=plan,
        checkpoint=CheckpointManager(tmp_path, resume=False, every=1),
    ) as engine:
        with pytest.raises(KeyboardInterrupt):
            _rr(engine, query)

    retry_plan = FaultPlan().fail_shard(5)
    with SamplingEngine(
        shard_size=8, retry_policy=FAST, fault_plan=retry_plan,
        checkpoint=CheckpointManager(tmp_path, resume=True, every=1),
    ) as engine:
        resumed = _rr(engine, query)
        assert engine.telemetry.shards_retried >= 1
    np.testing.assert_array_equal(clean.members, resumed.members)
    np.testing.assert_array_equal(clean.indptr, resumed.indptr)


# ---------------------------------------------------------------------------
# Pipeline-level resume (trs and the full joint session)
# ---------------------------------------------------------------------------


def test_trs_pipeline_kill_and_resume(tmp_path, small_yelp):
    graph = small_yelp.graph
    tags = list(graph.tags[:3])
    targets = list(range(20))
    config = SketchConfig(pilot_samples=60, theta_min=150, theta_max=400)

    with SamplingEngine(shard_size=16) as engine:
        clean = trs_select_seeds(
            graph, targets, tags, 3, config=config, rng=5, engine=engine
        )

    plan = FaultPlan().interrupt_after_shards(4)
    with SamplingEngine(
        shard_size=16, fault_plan=plan,
        checkpoint=CheckpointManager(tmp_path, resume=False, every=1),
    ) as engine:
        with pytest.raises(KeyboardInterrupt):
            trs_select_seeds(
                graph, targets, tags, 3, config=config, rng=5, engine=engine
            )

    with SamplingEngine(
        shard_size=16,
        checkpoint=CheckpointManager(tmp_path, resume=True, every=1),
    ) as engine:
        resumed = trs_select_seeds(
            graph, targets, tags, 3, config=config, rng=5, engine=engine
        )
        assert engine.telemetry.checkpoint_loads >= 1
    assert resumed.seeds == clean.seeds
    assert resumed.estimated_spread == pytest.approx(clean.estimated_spread)


JOINT_CFG = JointConfig(
    max_rounds=1,
    seed_engine="trs",
    sketch=SketchConfig(pilot_samples=60, theta_min=150, theta_max=400),
    tag_config=TagSelectionConfig(
        per_pair_paths=3, rr_theta=300, max_path_targets=15
    ),
    eval_samples=60,
)


def test_session_joint_kill_and_resume(tmp_path, small_yelp):
    graph = small_yelp.graph
    targets = community_targets(small_yelp, "vegas", size=15, rng=0)

    with SamplingEngine(shard_size=16) as sampler:
        session = CampaignSession(graph, JOINT_CFG, rng=7, sampler=sampler)
        clean = session.joint(targets, k=2, r=3)

    plan = FaultPlan().interrupt_after_shards(5)
    with SamplingEngine(
        shard_size=16, fault_plan=plan,
        checkpoint=CheckpointManager(tmp_path, resume=False, every=1),
    ) as sampler:
        session = CampaignSession(graph, JOINT_CFG, rng=7, sampler=sampler)
        with pytest.raises(KeyboardInterrupt):
            session.joint(targets, k=2, r=3)
    assert list(tmp_path.glob("op*.npz"))

    with SamplingEngine(
        shard_size=16,
        checkpoint=CheckpointManager(tmp_path, resume=True, every=1),
    ) as sampler:
        session = CampaignSession(graph, JOINT_CFG, rng=7, sampler=sampler)
        resumed = session.joint(targets, k=2, r=3)
        assert sampler.telemetry.checkpoint_loads >= 1
    assert resumed.seeds == clean.seeds
    assert resumed.tags == clean.tags
    assert resumed.spread == pytest.approx(clean.spread)


# ---------------------------------------------------------------------------
# CLI surface for the runtime flags
# ---------------------------------------------------------------------------


def test_cli_parses_runtime_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        [
            "seeds", "graph.tsv", "--targets-file", "t.txt",
            "--tags", "a", "-k", "2",
            "--retries", "3", "--deadline", "60", "--max-samples", "1000",
            "--checkpoint-dir", "/tmp/ckpt", "--resume",
        ]
    )
    assert args.retries == 3
    assert args.deadline == pytest.approx(60.0)
    assert args.max_samples == 1000
    assert args.checkpoint_dir == "/tmp/ckpt"
    assert args.resume is True


def test_cli_joint_accepts_runtime_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["joint", "graph.tsv", "--targets-file", "t.txt",
         "-k", "2", "-r", "2", "--checkpoint-dir", "/tmp/ckpt"]
    )
    assert args.checkpoint_dir == "/tmp/ckpt"
    assert args.resume is False
