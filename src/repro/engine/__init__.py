"""Bit-parallel sampling engine with parallel fan-out.

This package is the performance layer of the reproduction:

* :mod:`repro.engine.bitworld` — bit-parallel possible-world kernels:
  64 worlds per uint64 word, counter-based coins (pure function of
  ``(key, world, edge)``), popcount size accounting; one traversal
  yields 64 RR sets or 64 cascades;
* :mod:`repro.engine.shared_csr` — zero-copy shared-memory (or
  memmap-spilled) publication of a graph's CSR arrays, so pool workers
  attach by name instead of unpickling the graph per shard task;
* :mod:`repro.engine.rr_storage` — :class:`RRCollection`, a CSR-style
  flat store for RR sets with a lazy inverted node→set index, enabling
  an O(total membership) greedy max-coverage pass;
* :mod:`repro.engine.parallel` — :class:`SamplingEngine`, the
  ``ProcessPoolExecutor``-backed driver with deterministic per-shard
  RNG streams (same master seed ⇒ identical results for any worker
  count).

On top of the fan-out sits the fault-tolerant runtime:

* :mod:`repro.engine.runtime` — :class:`RetryPolicy`-driven shard
  retry with backoff, pool rebuilds and graceful degradation to the
  in-process path; :class:`Deadline`/:class:`RunBudget` guards that
  raise :class:`~repro.exceptions.BudgetExceededError` carrying the
  partial result; :class:`RunTelemetry` failure counters;
* :mod:`repro.engine.checkpoint` — :class:`CheckpointManager`,
  shard-granular checkpoint/resume of the flat collections under a
  deterministic-replay contract;
* :mod:`repro.engine.faults` — :class:`FaultPlan`, a deterministic
  fault-injection harness (scripted shard failures, hangs, worker
  kills, pool poisoning, interrupts) used to exercise every recovery
  path in tests.

Every high-level API samples through this layer. Its ``engine=`` (or
``sampler=``) knob takes a ``SamplingEngine`` for a pool, retries or
checkpoints; ``None`` means a fresh serial engine for the call. The
scalar traversals in :mod:`repro.sketch` and :mod:`repro.diffusion`
remain the tests' correctness oracle.
"""

from repro.engine.checkpoint import CheckpointManager, rng_state_digest
from repro.engine.faults import FaultPlan, InjectedFault, InjectedPermanentFault
from repro.engine.bitworld import (
    bitparallel_cascade_counts,
    bitparallel_rr_members,
)
from repro.engine.parallel import (
    DEFAULT_SHARD_SIZE,
    MODES,
    QueryEngineView,
    SamplingEngine,
)
from repro.engine.shared_csr import (
    CSRGraphHandle,
    CSRGraphView,
    SharedCSR,
    SharedProbs,
    SharedTagGraph,
    TagGraphHandle,
)
from repro.engine.rr_storage import RRCollection
from repro.engine.runtime import (
    Deadline,
    RetryPolicy,
    RunBudget,
    RunTelemetry,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "MODES",
    "CSRGraphHandle",
    "CSRGraphView",
    "CheckpointManager",
    "Deadline",
    "FaultPlan",
    "InjectedFault",
    "InjectedPermanentFault",
    "QueryEngineView",
    "RRCollection",
    "RetryPolicy",
    "RunBudget",
    "RunTelemetry",
    "SamplingEngine",
    "SharedCSR",
    "SharedProbs",
    "SharedTagGraph",
    "TagGraphHandle",
    "bitparallel_cascade_counts",
    "bitparallel_rr_members",
    "rng_state_digest",
]
