"""Fault-injection tests for the fault-tolerant sampling runtime.

The core claim under test: **failure handling never changes results**.
Every recovery path — serial retries, pool rebuilds after worker
kills, poison-driven degradation to the in-process path, the
hung-shard watchdog — must produce output bit-identical to a clean
run with the same master seed, because retried shards replay their
``SeedSequence`` spawn-tree streams exactly.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.monte_carlo import estimate_spread
from repro.engine import (
    Deadline,
    FaultPlan,
    RetryPolicy,
    RunBudget,
    RunTelemetry,
    SamplingEngine,
)
from repro.engine.rr_storage import RRCollection
from repro.engine.runtime import is_permanent
from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    ReproError,
    ShardFailedError,
)
from repro.seeds.api import find_seeds
from repro.sketch.trs import trs_select_seeds
from repro.utils.validation import as_target_array

#: Fast-backoff policy so retry tests don't sleep for real.
FAST = RetryPolicy(backoff_base=0.001, backoff_max=0.005, jitter=0.0)


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


def _assert_same(a: RRCollection, b: RRCollection) -> None:
    np.testing.assert_array_equal(a.members, b.members)
    np.testing.assert_array_equal(a.indptr, b.indptr)


def _clean(query, theta=64, seed=11, **kwargs):
    with SamplingEngine(shard_size=8, **kwargs) as engine:
        return _rr(engine, query, theta=theta, seed=seed)


# ---------------------------------------------------------------------------
# Policy / budget primitives
# ---------------------------------------------------------------------------


def test_retry_policy_validates():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=-0.1)


def test_retry_policy_delay_grows_and_caps():
    policy = RetryPolicy(
        backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3, jitter=0.0
    )
    import random

    rng = random.Random(0)
    delays = [policy.delay(i, rng) for i in range(4)]
    assert delays[0] == pytest.approx(0.1)
    assert delays[1] == pytest.approx(0.2)
    assert delays[2] == pytest.approx(0.3)  # capped
    assert delays[3] == pytest.approx(0.3)


def test_permanence_classification():
    from repro.engine.faults import InjectedFault, InjectedPermanentFault

    assert is_permanent(ReproError("boom"))
    assert is_permanent(InjectedPermanentFault("boom"))
    assert not is_permanent(InjectedFault("boom"))
    assert not is_permanent(TimeoutError("slow"))


def test_deadline_never_and_expiry():
    assert not Deadline(None).expired()
    assert Deadline(None).remaining() is None
    expired = Deadline(1e-9)
    time.sleep(0.005)
    assert expired.expired()
    assert expired.remaining() <= 0.0
    with pytest.raises(ConfigurationError):
        Deadline(0.0)


def test_budget_sample_cap_trips():
    budget = RunBudget(max_samples=10)
    budget.charge_samples(10)  # exactly at the cap: fine
    with pytest.raises(BudgetExceededError) as info:
        budget.charge_samples(1, partial="kept")
    assert info.value.reason == "max_samples"
    assert info.value.partial == "kept"


def test_budget_member_cap_trips():
    budget = RunBudget(max_rr_members=100)
    budget.charge_rr_members(60)
    with pytest.raises(BudgetExceededError) as info:
        budget.charge_rr_members(60)
    assert info.value.reason == "max_rr_members"


def test_telemetry_merge_and_summary():
    a = RunTelemetry(shards_run=3, shards_retried=1)
    b = RunTelemetry(shards_run=2, pool_rebuilds=1)
    a.merge(b)
    assert a.shards_run == 5
    assert "shards_retried=1" in a.summary()
    assert RunTelemetry().summary() == "clean"


def test_engine_validates_configuration():
    with pytest.raises(ConfigurationError):
        SamplingEngine(workers=0)
    with pytest.raises(ConfigurationError):
        SamplingEngine(shard_size=0)


# ---------------------------------------------------------------------------
# Serial retry determinism
# ---------------------------------------------------------------------------


def test_serial_retry_is_bit_identical(query):
    clean = _clean(query)
    plan = FaultPlan().fail_shard(1, attempts=(0, 1)).fail_shard(4)
    with SamplingEngine(
        shard_size=8, retry_policy=FAST, fault_plan=plan
    ) as engine:
        faulted = _rr(engine, query)
        assert engine.telemetry.shards_retried == 3
        assert engine.telemetry.shards_failed == 0
    _assert_same(clean, faulted)


def test_serial_permanent_fault_propagates(query):
    plan = FaultPlan().fail_shard(2, permanent=True)
    with SamplingEngine(
        shard_size=8, retry_policy=FAST, fault_plan=plan
    ) as engine:
        with pytest.raises(ShardFailedError) as info:
            _rr(engine, query)
    assert info.value.shard_index == 2
    assert info.value.attempts == 1  # permanent: no retry


def test_serial_retry_exhaustion(query):
    plan = FaultPlan().fail_shard(0, attempts=(0, 1, 2, 3, 4))
    policy = RetryPolicy(
        max_attempts=3, backoff_base=0.001, backoff_max=0.002, jitter=0.0
    )
    with SamplingEngine(
        shard_size=8, retry_policy=policy, fault_plan=plan
    ) as engine:
        with pytest.raises(ShardFailedError) as info:
            _rr(engine, query)
    assert info.value.attempts == 3


@settings(max_examples=10, deadline=None)
@given(
    schedule=st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 1)),
        st.just("fail"),
        max_size=6,
    )
)
def test_any_retry_schedule_leaves_results_unchanged(small_yelp, schedule):
    """Property: arbitrary transient-failure schedules never change bits."""
    graph = small_yelp.graph
    targets = as_target_array(
        list(range(12)), graph.num_nodes, context="test"
    )
    edge_probs = graph.edge_probabilities(list(graph.tags[:3]))
    query = (graph, targets, edge_probs)
    clean = _clean(query)
    plan = FaultPlan(shard_faults=dict(schedule))
    with SamplingEngine(
        shard_size=8, retry_policy=FAST, fault_plan=plan
    ) as engine:
        faulted = _rr(engine, query)
    _assert_same(clean, faulted)


# ---------------------------------------------------------------------------
# Pool recovery paths
# ---------------------------------------------------------------------------


def test_pool_kill_rebuilds_and_matches(query):
    clean = _clean(query)
    plan = FaultPlan().kill_shard(3)
    with SamplingEngine(
        shard_size=8, workers=2, retry_policy=FAST, fault_plan=plan
    ) as engine:
        faulted = _rr(engine, query)
        assert engine.telemetry.pool_rebuilds >= 1
    _assert_same(clean, faulted)


def test_bitparallel_pool_kill_rebuilds_and_matches(query):
    """Worker death mid-shard under the bit-parallel kernels.

    The bit-parallel mode ships its CSR to workers through shared
    memory, so a BrokenProcessPool rebuild has more to get right than
    a pickled-graph path: the replacement pool must re-attach the
    segments, the retried shard must replay its SeedSequence stream
    into identical packed worlds, and closing the engine must leave
    zero shared-memory segments behind.
    """
    from repro.engine.shared_csr import active_tokens

    clean = _clean(query, mode="bitparallel")
    plan = FaultPlan().kill_shard(3)
    with SamplingEngine(
        mode="bitparallel", shard_size=8, workers=2,
        retry_policy=FAST, fault_plan=plan,
    ) as engine:
        faulted = _rr(engine, query)
        assert engine.telemetry.pool_rebuilds >= 1
    _assert_same(clean, faulted)
    assert active_tokens() == frozenset(), (
        "shared-memory CSR segments leaked across the pool rebuild"
    )


def test_poisoned_pool_degrades_to_serial(query):
    clean = _clean(query)
    plan = FaultPlan().poison_pool_after(0, times=10)
    policy = RetryPolicy(
        max_pool_rebuilds=1, backoff_base=0.001, backoff_max=0.002,
        jitter=0.0,
    )
    with SamplingEngine(
        shard_size=8, workers=2, retry_policy=policy, fault_plan=plan
    ) as engine:
        faulted = _rr(engine, query)
        assert engine.telemetry.degradations == 1
    _assert_same(clean, faulted)


def test_hung_shard_watchdog_recovers(query):
    clean = _clean(query)
    before = set(multiprocessing.active_children())
    plan = FaultPlan().hang_shard(2, seconds=20.0)
    policy = RetryPolicy(
        shard_timeout=0.4, backoff_base=0.001, backoff_max=0.002,
        jitter=0.0,
    )
    with SamplingEngine(
        shard_size=8, workers=2, retry_policy=policy, fault_plan=plan
    ) as engine:
        faulted = _rr(engine, query)
        assert engine.telemetry.shards_retried >= 1
    _assert_same(clean, faulted)
    # The abandoned pool's hung worker must not outlive the engine: a
    # sleeping child left behind can stall interpreter exit.
    deadline = time.monotonic() + 5.0
    while (
        set(multiprocessing.active_children()) - before
        and time.monotonic() < deadline
    ):
        time.sleep(0.05)
    assert not set(multiprocessing.active_children()) - before


def test_injected_interrupt_raises_keyboard_interrupt(query):
    plan = FaultPlan().interrupt_after_shards(3)
    with SamplingEngine(shard_size=8, fault_plan=plan) as engine:
        with pytest.raises(KeyboardInterrupt):
            _rr(engine, query)


# ---------------------------------------------------------------------------
# Budgets through the stack
# ---------------------------------------------------------------------------


def test_engine_budget_partial_is_prefix(query):
    clean = _clean(query)
    budget = RunBudget(max_rr_members=int(clean.members.size * 0.4))
    with SamplingEngine(shard_size=8) as engine:
        graph, targets, edge_probs = query
        with pytest.raises(BudgetExceededError) as info:
            engine.sample_rr_sets(
                graph, targets, edge_probs, 64,
                np.random.default_rng(11), budget=budget,
            )
    partial = info.value.partial
    assert isinstance(partial, RRCollection)
    assert 0 < len(partial) < 64
    # The partial is a prefix of the clean run, not some reshuffle.
    np.testing.assert_array_equal(
        partial.members, clean.members[: partial.members.size]
    )


def test_scalar_path_budget_partial(small_yelp):
    """The no-sampler path (once the scalar loop) returns a float
    partial spread when its budget trips."""
    graph = small_yelp.graph
    tags = list(graph.tags[:3])
    with pytest.raises(BudgetExceededError) as info:
        estimate_spread(
            graph, list(range(3)), list(range(20)), tags,
            num_samples=50, rng=0, budget=RunBudget(wall_seconds=1e-6),
        )
    assert isinstance(info.value.partial, float)


def test_trs_budget_partial_result(small_yelp):
    graph = small_yelp.graph
    tags = list(graph.tags[:3])
    with SamplingEngine(shard_size=8) as engine:
        with pytest.raises(BudgetExceededError) as info:
            trs_select_seeds(
                graph, list(range(20)), tags, 3, rng=5, engine=engine,
                budget=RunBudget(max_samples=100),
            )
    partial = info.value.partial
    assert partial is not None
    assert partial.opt_t_estimate is None or partial.opt_t_estimate >= 1.0
    assert partial.theta <= 100


def test_find_seeds_wraps_budget_partial(small_yelp):
    graph = small_yelp.graph
    tags = list(graph.tags[:3])
    with pytest.raises(BudgetExceededError) as info:
        find_seeds(
            graph, list(range(20)), tags, 3, engine="trs", rng=5,
            budget=RunBudget(wall_seconds=1e-6),
        )
    from repro.seeds.api import SeedSelection

    assert isinstance(info.value.partial, SeedSelection)


# ---------------------------------------------------------------------------
# Telemetry propagation
# ---------------------------------------------------------------------------


def test_results_carry_telemetry(small_yelp):
    graph = small_yelp.graph
    tags = list(graph.tags[:3])
    plan = FaultPlan().fail_shard(0)
    with SamplingEngine(
        shard_size=8, retry_policy=FAST, fault_plan=plan
    ) as engine:
        selection = find_seeds(
            graph, list(range(20)), tags, 3, engine="trs", rng=5,
            sampler=engine,
        )
    assert selection.telemetry["shards_retried"] >= 1
    # No sampler: the call's own serial engine reports a clean run.
    default = find_seeds(graph, list(range(20)), tags, 3, rng=5)
    assert default.telemetry["shards_run"] > 0
    assert default.telemetry["shards_retried"] == 0
