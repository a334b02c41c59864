"""The sampling engine: shard-parallel RR-set and cascade fan-out.

Sketch-based influence maximization is embarrassingly parallel across
samples (Cohen et al., VLDB 2014): each RR set / cascade only reads the
graph. :class:`SamplingEngine` exploits that with a
``ProcessPoolExecutor``-backed driver that shards the θ samples into
fixed-size shards and runs each shard with its own child RNG stream.

Determinism contract
--------------------
Sharding depends only on ``(theta, shard_size)`` — never on ``workers``
— and each shard is keyed to a child ``SeedSequence`` spawned from the
master generator's spawn tree, in shard order. A shard's samples are a
pure function of its seed sequence, so shard ``i`` produces the same
output no matter which worker runs it, in what order shards finish, or
**how many times it had to be attempted** — the fault-tolerant runtime
(:mod:`repro.engine.runtime`) leans on this to retry failed shards,
rebuild broken pools, degrade to the in-process path, and splice
checkpointed prefixes, all without changing a single sampled bit.
Results are concatenated in shard order. Consequences:

* same master seed ⇒ bit-identical output for any ``workers`` count
  and any retry/failure schedule;
* the serial path (``workers=1``) runs in-process — no pool, no pickling;
* successive calls on one engine with a shared generator consume the
  generator's spawn counter, so a session remains replayable end to end.

Every shard runs the bit-parallel kernel, which packs 64 possible
worlds per uint64 word with counter-based coins
(:mod:`repro.engine.bitworld`). The scalar traversals
(:func:`repro.sketch.reverse_reachable_set`,
:func:`repro.diffusion.simulate_cascade`) are its test oracles, not an
engine mode. Passing no engine to a public sampling entry point means
a fresh serial engine for that call (:func:`resolve_engine`).

Multi-worker bit-parallel engines do not pickle the graph into shard
tasks. The engine publishes each graph's CSR arrays once through
:class:`~repro.engine.shared_csr.SharedCSR` and ships a tiny attach
handle instead; every worker maps the same physical pages read-only.
The per-operation probability vector travels the same way and is
unlinked as soon as the operation completes.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import obs
from repro.engine.checkpoint import CheckpointManager, rng_state_digest
from repro.engine.faults import FaultPlan
from repro.engine.bitworld import (
    bitparallel_cascade_counts,
    bitparallel_rr_members,
)
from repro.engine.rr_storage import RRCollection
from repro.engine.shared_csr import (
    CSRGraphHandle,
    CSRGraphView,
    SharedCSR,
    SharedProbs,
    resolve_edge_probs,
    resolve_graph,
)
from repro.engine.runtime import (
    RetryPolicy,
    RunBudget,
    RunTelemetry,
    execute_shards,
)
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.graphs.tag_graph import TagGraph
from repro.utils.rng import ensure_rng, spawn_seed_sequences

#: The one kernel. ``SamplingEngine(mode=...)`` still accepts it by name.
MODES = ("bitparallel",)

#: Default samples per shard. Each uint64 word of the bit-parallel
#: kernel carries 64 worlds, so 8192 samples = 128 blocks keeps the
#: kernel in its efficient regime while still producing multiple shards
#: at realistic θ. Like ``shard_size`` generally, this is part of the
#: determinism contract.
DEFAULT_SHARD_SIZE = 8192

#: Below this many total samples, pool dispatch costs more than the
#: sampling itself (``BENCH_engine.json`` showed parallel_speedup
#: 0.04-0.78 on the quick configs), so a multi-worker engine runs the
#: operation in-process instead. Results are unaffected —
#: the determinism contract already guarantees serial == pooled.
DEFAULT_PARALLEL_THRESHOLD = 4096


def _shard_counts(total: int, shard_size: int) -> list[int]:
    """Split ``total`` samples into fixed-size shards (last one ragged)."""
    if shard_size < 1:
        raise ConfigurationError(
            f"shard_size must be >= 1, got {shard_size}"
        )
    if total <= 0:
        return []
    full, rest = divmod(total, shard_size)
    return [shard_size] * full + ([rest] if rest else [])


def _rr_shard(
    graph: TagGraph | CSRGraphHandle,
    target_arr: np.ndarray,
    edge_probs,
    count: int,
    seed_seq: np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray]:
    """One shard of RR samples; module-level so process pools can pickle it.

    The shard's generator is rebuilt from ``seed_seq`` at the top of
    every attempt, so retries replay the shard bit-identically.
    ``graph`` is either the graph itself (serial path) or a
    :class:`~repro.engine.shared_csr.CSRGraphHandle` the worker
    attaches to by name — same for ``edge_probs`` and
    :class:`~repro.engine.shared_csr.ProbsHandle`.
    """
    graph = resolve_graph(graph)
    edge_probs = resolve_edge_probs(edge_probs)
    rng = np.random.default_rng(seed_seq)
    roots = rng.choice(target_arr, size=count)
    # The coin-stream key is drawn *after* the roots from the same
    # shard stream, so the (roots, key) pair is a pure function of
    # seed_seq — replayable across retries and worker counts.
    key = int(rng.integers(np.iinfo(np.int64).max, dtype=np.int64))
    return bitparallel_rr_members(graph, roots, edge_probs, key)


def _cascade_shard(
    graph: TagGraph | CSRGraphHandle,
    seed_arr: np.ndarray,
    edge_probs,
    count: int,
    target_arr: np.ndarray,
    seed_seq: np.random.SeedSequence,
) -> np.ndarray:
    """One shard of IC cascades; returns per-sample target counts."""
    graph = resolve_graph(graph)
    edge_probs = resolve_edge_probs(edge_probs)
    rng = np.random.default_rng(seed_seq)
    key = int(rng.integers(np.iinfo(np.int64).max, dtype=np.int64))
    return bitparallel_cascade_counts(
        graph, seed_arr, edge_probs, count, target_arr, key
    )


def _rr_prefix_arrays(shards: list) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-shard ``(members, indptr)`` results into flat CSR."""
    if not shards:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    members = np.concatenate([m for m, _ in shards])
    counts = np.concatenate([np.diff(p) for _, p in shards])
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return members, indptr


def _split_rr_prefix(
    members: np.ndarray, indptr: np.ndarray, counts: list[int],
    shards_done: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Invert :func:`_rr_prefix_arrays` back into per-shard results."""
    results = []
    cursor = 0
    for i in range(shards_done):
        c = counts[i]
        base = indptr[cursor]
        sub_indptr = (indptr[cursor:cursor + c + 1] - base).astype(np.int64)
        sub_members = members[base:indptr[cursor + c]].astype(np.int64)
        results.append((sub_members, sub_indptr))
        cursor += c
    return results


def _split_count_prefix(
    flat: np.ndarray, counts: list[int], shards_done: int
) -> list[np.ndarray]:
    """Split a flat cascade-count prefix back into per-shard arrays."""
    results = []
    cursor = 0
    for i in range(shards_done):
        results.append(flat[cursor:cursor + counts[i]].astype(np.int64))
        cursor += counts[i]
    return results


class SamplingEngine:
    """Bit-parallel, optionally multi-process sampling driver.

    Parameters
    ----------
    mode:
        ``"bitparallel"``, the only kernel (64 possible worlds per
        uint64 word, see :mod:`repro.engine.bitworld`).
    workers:
        Process count; ``1`` (default) runs in-process. Results are
        identical for any value — see the module determinism contract.
        Multi-worker bit-parallel engines publish the graph's CSR
        structure once through a
        :class:`~repro.engine.shared_csr.SharedCSR` and ship tiny handles
        in shard tasks instead of pickling the graph.
    shard_size:
        Samples per shard; ``None`` (default) resolves to
        :data:`DEFAULT_SHARD_SIZE`. Part of the determinism contract:
        changing it changes the RNG stream layout, so outputs for a
        fixed seed are only comparable at equal ``shard_size``.
    retry_policy:
        :class:`~repro.engine.runtime.RetryPolicy` governing shard
        retries, backoff, pool rebuilds, the hung-shard watchdog and
        graceful degradation. ``None`` uses the defaults.
    fault_plan:
        Optional :class:`~repro.engine.faults.FaultPlan` for
        deterministic fault injection (tests / chaos drills).
    checkpoint:
        Optional :class:`~repro.engine.checkpoint.CheckpointManager`;
        sampling operations then persist their shard done-prefix and,
        when the manager is in resume mode, splice matching checkpoints
        back in instead of recomputing.
    parallel_threshold:
        Sampling operations totalling fewer samples than this run on
        the in-process path even when ``workers > 1`` (pool dispatch
        dominates at small sizes). ``0`` disables the fallback. Each
        fallback is recorded in ``telemetry.parallel_fallbacks``, the
        aggregate ``engine.parallel_fallbacks`` metric, and
        ``engine.parallel_fallbacks.below_threshold``. A
        :class:`~repro.engine.faults.FaultPlan` suppresses the
        fallback — fault injection exists to exercise the pool paths.
    spill_dir:
        Optional directory for the shared-CSR memmap spill: graphs
        whose CSR arrays exceed
        :data:`~repro.engine.shared_csr.SPILL_THRESHOLD_BYTES` are
        published as a memory-mapped file there instead of POSIX shared
        memory, so graphs larger than RAM can still fan out.

    Failure handling never changes results (retried shards replay their
    ``SeedSequence`` bit-identically); it only changes whether the run
    survives. Counters live on :attr:`telemetry`.
    """

    def __init__(
        self,
        mode: str = "bitparallel",
        workers: int = 1,
        shard_size: int | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint: CheckpointManager | None = None,
        parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
        spill_dir: str | None = None,
    ) -> None:
        if mode not in MODES:
            raise ConfigurationError(
                f"unknown engine mode {mode!r}; expected one of {MODES}"
            )
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        if shard_size is None:
            shard_size = DEFAULT_SHARD_SIZE
        if shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        if parallel_threshold < 0:
            raise ConfigurationError(
                f"parallel_threshold must be >= 0, got {parallel_threshold}"
            )
        self.mode = mode
        self.workers = int(workers)
        self.shard_size = int(shard_size)
        self.spill_dir = spill_dir
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.checkpoint = checkpoint
        self.parallel_threshold = int(parallel_threshold)
        # Bind runtime counters to the observation active *now*, so an
        # engine built inside an ``obs.observe()`` scope reports its
        # retries/rebuilds/fallbacks in the global run report.
        self.telemetry = RunTelemetry(registry=obs.current_registry())
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._op_counter = 0
        # Published shared-CSR segments, one per distinct graph object:
        # id(graph) -> (weakref, SharedCSR). QueryEngineViews delegate
        # here, so concurrent queries over one graph share one segment.
        self._shared_graphs: dict[int, tuple] = {}
        # RLock: the weakref-callback cleanup path can fire from a GC
        # triggered while this thread already holds the lock.
        self._shared_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def pool(self) -> ProcessPoolExecutor:
        """The live worker pool, created on first use (thread-safe)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def rebuild_pool(self) -> ProcessPoolExecutor:
        """Tear down a (presumed broken) pool and start a fresh one."""
        self.abort_pool()
        return self.pool()

    def abort_pool(self) -> None:
        """Shut the pool down without waiting (cancel what can be).

        The abandoned pool's worker processes are killed first: a worker
        stuck in a hung shard would otherwise outlive the shutdown, and
        interpreter exit would spin joining the pool's manager thread.
        """
        with self._pool_lock:
            if self._pool is not None:
                for proc in list((self._pool._processes or {}).values()):
                    proc.kill()
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def close(self) -> None:
        """Shut down the worker pool and unlink shared-CSR segments."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
        self._unlink_shared()

    # ------------------------------------------------------------------
    # Shared-memory graph transport
    # ------------------------------------------------------------------
    def _shared_csr(self, graph: TagGraph) -> SharedCSR:
        """The (cached) :class:`SharedCSR` publication of ``graph``."""
        gid = id(graph)
        with self._shared_lock:
            entry = self._shared_graphs.get(gid)
            if entry is not None:
                ref, shared = entry
                if ref() is graph:
                    return shared
                shared.unlink()  # dead graph whose id was reused
            shared = SharedCSR(graph, spill_dir=self.spill_dir)

            def _drop(_ref, *, _gid=gid, _self=weakref.ref(self)) -> None:
                engine = _self()
                if engine is None:
                    return  # SharedCSR's own finalizer handles unlink
                with engine._shared_lock:
                    stale = engine._shared_graphs.pop(_gid, None)
                if stale is not None:
                    stale[1].unlink()

            self._shared_graphs[gid] = (weakref.ref(graph, _drop), shared)
            return shared

    def _unlink_shared(self) -> None:
        """Destroy every published shared-CSR segment (idempotent)."""
        with self._shared_lock:
            entries = list(self._shared_graphs.values())
            self._shared_graphs.clear()
        for _ref, shared in entries:
            shared.unlink()

    def release_graph(self, graph: TagGraph) -> bool:
        """Unlink the shared-CSR publication of ``graph``, if any.

        An epoch write path may call this after swapping in a new
        snapshot, once it can prove no in-flight operation still
        samples the old graph; otherwise the superseded snapshot's
        segment lingers until garbage collection runs its weakref
        cleanup. Callers that cannot prove quiescence (the serve
        layer, whose queries pin snapshots for their whole lifetime)
        should simply drop their references and let the weakref path
        reclaim the segment.
        Returns whether a segment was found (and unlinked).
        """
        with self._shared_lock:
            entry = self._shared_graphs.pop(id(graph), None)
        if entry is None:
            return False
        entry[1].unlink()
        return True

    def published_graph_count(self) -> int:
        """Number of live shared-CSR publications (epoch republish probe)."""
        with self._shared_lock:
            return len(self._shared_graphs)

    def _graph_ref(self, graph):
        """The transport form of ``graph`` for one sampling operation.

        Serial engines pass the graph object through; pooled engines
        swap in a picklable :class:`CSRGraphHandle` so workers attach
        by name instead of unpickling the CSR arrays per task.
        """
        if self.workers == 1 or isinstance(graph, CSRGraphView):
            return graph
        return self._shared_csr(graph).handle

    def for_query(self, registry=None) -> "QueryEngineView":
        """A per-query view of this engine with isolated telemetry.

        The view shares the (expensive, process-backed) worker pool and
        every sampling knob with its parent, but owns a fresh
        :class:`~repro.engine.runtime.RunTelemetry` bound to ``registry``
        (default: the observation active on the *calling thread*) and an
        independent operation counter. Concurrent queries served off one
        pooled engine therefore keep exact per-query ``runtime.*``
        counters — nothing bleeds between queries — while still reusing
        one set of worker processes. Checkpointing stays with the parent:
        views never write checkpoints (per-query checkpoint files would
        collide across threads).
        """
        return QueryEngineView(self, registry=registry)

    def __enter__(self) -> "SamplingEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Context-manager safety: on an exception the pool may hold
        # doomed futures — abort rather than wait on them.
        if exc_type is not None:
            self.abort_pool()
            self._unlink_shared()
        else:
            self.close()

    def reset_ops(self) -> None:
        """Restart the operation counter (begin a new logical run).

        Checkpoint files are keyed by operation index; a resumed run
        must replay its operations from index 0 with a fresh engine or
        after calling this.
        """
        self._op_counter = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SamplingEngine(mode={self.mode!r}, workers={self.workers}, "
            f"shard_size={self.shard_size}, "
            f"telemetry=[{self.telemetry.summary()}])"
        )

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def _signature(
        self, kind: str, total: int, rng: np.random.Generator,
        extra: int,
    ) -> dict:
        """Checkpoint signature pinning one sampling operation's identity."""
        seed_seq = rng.bit_generator.seed_seq
        return {
            "kind": kind,
            "total": int(total),
            "shard_size": self.shard_size,
            "mode": self.mode,
            "extra": int(extra),
            "rng": rng_state_digest(rng),
            "spawn_cursor": int(getattr(seed_seq, "n_children_spawned", 0)),
        }

    def _run_op(
        self,
        worker,
        tasks: list[tuple],
        counts: list[int],
        signature: dict,
        pack,
        split,
        budget: RunBudget | None,
        charge=None,
    ) -> list:
        """Run one checkpointable sampling operation through the runtime.

        ``pack(shards) -> dict[str, ndarray]`` flattens a done-prefix
        for storage; ``split(arrays, shards_done)`` inverts it back into
        per-shard results for resume splicing. ``charge(shard_result)``
        accounts one newly completed shard against the budget (raising
        :class:`BudgetExceededError` stops the run mid-growth).

        Small runs skip the pool: when the operation totals fewer than
        ``parallel_threshold`` samples, dispatch overhead exceeds the
        sampling work, so a multi-worker engine runs it in-process.
        Identical results either way (determinism contract); only the
        wall clock and the ``parallel_fallbacks`` counters notice. A
        fault plan disables the fallback because fault injection
        explicitly targets the pool recovery paths.
        """
        op_index = self._op_counter
        self._op_counter += 1
        charged_upto = 0

        total = sum(counts)
        force_serial = (
            self.workers > 1
            and self.fault_plan is None
            and self.parallel_threshold > 0
            and total < self.parallel_threshold
        )
        if force_serial:
            self.telemetry.parallel_fallbacks += 1
            obs.count("engine.parallel_fallbacks")
            obs.count("engine.parallel_fallbacks.below_threshold")

        preloaded: list = []
        if self.checkpoint is not None:
            loaded = self.checkpoint.load(op_index, signature)
            if loaded is not None:
                arrays, shards_done, _total = loaded
                preloaded = split(arrays, min(shards_done, len(counts)))
                self.telemetry.checkpoint_loads += 1
                charged_upto = len(preloaded)

        def on_prefix(done: int, results: list, force: bool) -> None:
            nonlocal charged_upto
            if self.checkpoint is not None and done > 0 and (
                self.checkpoint.should_flush(op_index, done, force)
            ):
                self.checkpoint.save(
                    op_index, signature, pack(results[:done]), done,
                    len(counts),
                )
                self.telemetry.checkpoint_writes += 1
            if charge is not None and not force:
                while charged_upto < done:
                    charge(results[charged_upto])
                    charged_upto += 1

        return execute_shards(
            self, worker, tasks,
            budget=budget,
            on_prefix=on_prefix,
            preloaded=len(preloaded),
            preloaded_results=preloaded,
            force_serial=force_serial,
        )

    def sample_rr_sets(
        self,
        graph: TagGraph,
        target_arr: np.ndarray,
        edge_probs: np.ndarray,
        theta: int,
        rng: np.random.Generator | int | None = None,
        budget: RunBudget | None = None,
    ) -> RRCollection:
        """Sample ``theta`` targeted RR sets (roots uniform over targets).

        ``target_arr`` must be a pre-validated int64 node-id array (see
        :func:`repro.utils.validation.as_target_array`). Returns a flat
        :class:`RRCollection`, deterministic for a fixed master ``rng``
        regardless of ``workers`` and of any failure/retry schedule.
        With a ``budget``, raises
        :class:`~repro.exceptions.BudgetExceededError` whose ``partial``
        is the prefix :class:`RRCollection` collected so far.
        """
        rng = ensure_rng(rng)
        signature = self._signature("rr", theta, rng, extra=target_arr.size)
        counts = _shard_counts(theta, self.shard_size)
        streams = spawn_seed_sequences(rng, len(counts))
        graph_ref = self._graph_ref(graph)
        probs_ref: object = edge_probs
        shared_probs = None
        if isinstance(graph_ref, CSRGraphHandle):
            shared_probs = SharedProbs(edge_probs, spill_dir=self.spill_dir)
            probs_ref = shared_probs.handle
        tasks = [
            (graph_ref, target_arr, probs_ref, count, stream)
            for count, stream in zip(counts, streams)
        ]

        def pack(shards):
            members, indptr = _rr_prefix_arrays(shards)
            return {"members": members, "indptr": indptr}

        def split(arrays, shards_done):
            return _split_rr_prefix(
                arrays["members"], arrays["indptr"], counts, shards_done
            )

        def charge(shard) -> None:
            budget.charge_rr_members(len(shard[0]))

        with obs.span(
            "engine.sample_rr_sets", theta=int(theta), mode=self.mode,
            workers=self.workers,
        ):
            try:
                if budget is not None:
                    budget.charge_samples(theta)
                shards = self._run_op(
                    _rr_shard, tasks, counts, signature, pack, split,
                    budget,
                    charge=charge if budget is not None else None,
                )
            except BudgetExceededError as exc:
                if exc.partial is None or isinstance(exc.partial, list):
                    exc.partial = self._collect_rr(
                        exc.partial or [], graph.num_nodes
                    )
                raise
            finally:
                if shared_probs is not None:
                    shared_probs.unlink()
            collection = self._collect_rr(shards, graph.num_nodes)
        # Counted from the returned object, at the driver: invariant to
        # worker count, retries, and checkpoint/resume splicing.
        obs.count("rr.samples_drawn", len(collection))
        obs.count("rr.members", int(collection.members.size))
        return collection

    def sample_rr_partition(
        self,
        graph: TagGraph,
        target_arr: np.ndarray,
        edge_probs: np.ndarray,
        theta: int,
        rng: np.random.Generator | int | None,
        part_index: int,
        part_count: int,
    ) -> tuple[RRCollection, int]:
        """Sample only this participant's slice of the ``theta`` shard plan.

        The determinism contract of :meth:`sample_rr_sets` makes RR
        sampling partitionable across *processes*, not just pool
        workers: the shard plan (``_shard_counts``) and the per-shard
        seed-sequence spawn tree depend only on ``(theta, shard_size,
        rng)``, and each shard's samples are a pure function of its
        seed sequence. This method spawns the **full** stream list —
        keeping the spawn tree identical to a monolithic run — then
        materializes only the shards with ``index % part_count ==
        part_index``, round-robin so the ragged tail shard doesn't
        always land on the same participant.

        The union of all ``part_count`` partitions contains exactly the
        RR sets a single :meth:`sample_rr_sets` call would have drawn
        (grouped by shard, which per-set aggregates like coverage
        counts are invariant to). Returns ``(collection,
        total_shards)``; shards run in-process — in the sharded
        campaign service the calling worker process *is* the unit of
        parallelism.
        """
        if part_count < 1 or not 0 <= part_index < part_count:
            raise ConfigurationError(
                f"invalid partition {part_index}/{part_count}"
            )
        rng = ensure_rng(rng)
        counts = _shard_counts(theta, self.shard_size)
        streams = spawn_seed_sequences(rng, len(counts))
        shards = [
            _rr_shard(graph, target_arr, edge_probs, counts[i], streams[i])
            for i in range(part_index, len(counts), part_count)
        ]
        collection = self._collect_rr(shards, graph.num_nodes)
        obs.count("rr.samples_drawn", len(collection))
        obs.count("rr.members", int(collection.members.size))
        return collection, len(counts)

    @staticmethod
    def _collect_rr(shards: list, num_nodes: int) -> RRCollection:
        if not shards:
            return RRCollection(
                np.empty(0, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                num_nodes,
            )
        return RRCollection.concat(
            [
                RRCollection(members, indptr, num_nodes)
                for members, indptr in shards
            ]
        )

    def cascade_target_counts(
        self,
        graph: TagGraph,
        seed_arr: np.ndarray,
        edge_probs: np.ndarray,
        num_samples: int,
        target_arr: np.ndarray,
        rng: np.random.Generator | int | None = None,
        budget: RunBudget | None = None,
    ) -> np.ndarray:
        """Per-cascade activated-target counts for ``num_samples`` runs.

        Deterministic for a fixed master ``rng`` regardless of
        ``workers`` and of any failure/retry schedule; the Monte-Carlo
        spread estimate is the mean.
        """
        rng = ensure_rng(rng)
        signature = self._signature(
            "cascade", num_samples, rng, extra=seed_arr.size
        )
        counts = _shard_counts(num_samples, self.shard_size)
        streams = spawn_seed_sequences(rng, len(counts))
        graph_ref = self._graph_ref(graph)
        probs_ref: object = edge_probs
        shared_probs = None
        if isinstance(graph_ref, CSRGraphHandle):
            shared_probs = SharedProbs(edge_probs, spill_dir=self.spill_dir)
            probs_ref = shared_probs.handle
        tasks = [
            (graph_ref, seed_arr, probs_ref, count, target_arr, stream)
            for count, stream in zip(counts, streams)
        ]

        def pack(shards):
            return {"counts": np.concatenate(shards)}

        def split(arrays, shards_done):
            return _split_count_prefix(arrays["counts"], counts, shards_done)

        with obs.span(
            "engine.cascade_target_counts", num_samples=int(num_samples),
            mode=self.mode, workers=self.workers,
        ):
            try:
                if budget is not None:
                    budget.charge_samples(num_samples)
                shards = self._run_op(
                    _cascade_shard, tasks, counts, signature, pack, split,
                    budget,
                )
            except BudgetExceededError as exc:
                if exc.partial is None or isinstance(exc.partial, list):
                    exc.partial = (
                        np.concatenate(exc.partial)
                        if exc.partial else np.empty(0, dtype=np.int64)
                    )
                raise
            finally:
                if shared_probs is not None:
                    shared_probs.unlink()
            if shards:
                flat = np.concatenate(shards)
            else:
                flat = np.empty(0, dtype=np.int64)
        obs.count("cascade.samples_drawn", int(flat.size))
        return flat

    def estimate_spread(
        self,
        graph: TagGraph,
        seed_arr: np.ndarray,
        edge_probs: np.ndarray,
        num_samples: int,
        target_arr: np.ndarray,
        rng: np.random.Generator | int | None = None,
        budget: RunBudget | None = None,
    ) -> float:
        """Monte-Carlo ``σ(S, T, C1)`` through the engine (Eq. 5).

        On a budget stop the re-raised error's ``partial`` is the mean
        over however many cascades completed (``0.0`` when none did).
        """
        try:
            counts = self.cascade_target_counts(
                graph, seed_arr, edge_probs, num_samples, target_arr, rng,
                budget=budget,
            )
        except BudgetExceededError as exc:
            done = exc.partial
            if isinstance(done, np.ndarray) and done.size > 0:
                exc.partial = float(done.sum()) / done.size
            else:
                exc.partial = 0.0
            raise
        if counts.size == 0:
            return 0.0
        return float(counts.sum()) / counts.size


class QueryEngineView(SamplingEngine):
    """A telemetry-isolated view over a shared :class:`SamplingEngine`.

    Created by :meth:`SamplingEngine.for_query`. The view inherits every
    sampling knob (mode, workers, shard size, retry policy,
    fault plan, parallel threshold, spill dir) and *delegates pool and
    shared-CSR management to the parent*, so any number of views share
    one set of worker processes and one published copy of each graph.
    What it does **not** share:

    * ``telemetry`` — a fresh :class:`RunTelemetry` bound to the
      registry passed in (or the caller thread's active observation),
      so ``runtime.*`` counters are exact per query;
    * the operation counter — each view numbers its own operations;
    * ``checkpoint`` — always ``None`` (concurrent queries must not
      interleave writes into one checkpoint directory).

    The determinism contract is unchanged: a view runs the same shards
    through the same pool, so results are bit-identical to running the
    parent engine (or a fresh engine with the same knobs) solo.
    """

    def __init__(self, parent: SamplingEngine, registry=None) -> None:
        # Deliberately does NOT call SamplingEngine.__init__: knobs are
        # inherited from the parent, never re-validated or re-defaulted.
        self._parent = parent
        self.mode = parent.mode
        self.workers = parent.workers
        self.shard_size = parent.shard_size
        self.retry_policy = parent.retry_policy
        self.fault_plan = parent.fault_plan
        self.checkpoint = None
        self.parallel_threshold = parent.parallel_threshold
        self.spill_dir = parent.spill_dir
        self.telemetry = RunTelemetry(
            registry=registry
            if registry is not None
            else obs.current_registry()
        )
        self._pool = None  # unused; pool access goes through the parent
        self._pool_lock = parent._pool_lock
        self._op_counter = 0

    @property
    def parent(self) -> SamplingEngine:
        """The engine whose pool this view shares."""
        return self._parent

    def pool(self) -> ProcessPoolExecutor:
        return self._parent.pool()

    def rebuild_pool(self) -> ProcessPoolExecutor:
        return self._parent.rebuild_pool()

    def abort_pool(self) -> None:
        self._parent.abort_pool()

    def _shared_csr(self, graph: TagGraph) -> SharedCSR:
        """Shared-CSR segments live with the parent, like the pool."""
        return self._parent._shared_csr(graph)

    def _unlink_shared(self) -> None:
        """No-op: the parent owns the shared segments."""

    def close(self) -> None:
        """No-op: the parent owns (and eventually closes) the pool."""

    def for_query(self, registry=None) -> "QueryEngineView":
        """Views chain back to the parent, never stack."""
        return QueryEngineView(self._parent, registry=registry)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryEngineView(mode={self.mode!r}, workers={self.workers}, "
            f"telemetry=[{self.telemetry.summary()}])"
        )


def resolve_engine(engine: SamplingEngine | None) -> SamplingEngine:
    """``engine``, or a fresh serial bit-parallel engine for this call.

    Every public sampling entry point reads ``engine=None`` this way.
    The determinism contract makes the fresh engine's answers
    bit-identical to any explicit engine's, serial or pooled. It is
    built per call, never cached: an engine numbers its operations and
    keeps telemetry, so one must not be shared across concurrent
    queries. A long-lived holder (a server) gives each query its own
    :meth:`SamplingEngine.for_query` view instead.
    """
    return engine if engine is not None else SamplingEngine()
