"""CampaignSession — repeated campaigns over one graph with shared indexes.

The lazy-index story (L-TRS, Lemma 3) pays off when *many* queries hit
the same graph: tags indexed for one campaign are reused by the next.
This session object packages that pattern: it owns one long-lived
index manager per scope (a global one for ``ltrs``/``itrs``, one per
target set for ``lltrs``), a single RNG stream, and the configuration,
so callers just issue queries.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.core.joint import JointConfig, jointly_select
from repro.core.problem import JointQuery, JointResult
from repro.diffusion.monte_carlo import estimate_spread
from repro.engine.parallel import SamplingEngine, resolve_engine
from repro.engine.runtime import RunBudget
from repro.graphs.tag_graph import TagGraph
from repro.index.itrs import make_lltrs_manager, make_ltrs_manager
from repro.index.lazy import IndexManager
from repro.seeds.api import SeedSelection, find_seeds
from repro.tags.api import TagSelection, find_tags
from repro.utils.rng import ensure_rng


class CampaignSession:
    """A stateful façade over the library for one graph.

    Parameters
    ----------
    graph:
        The tagged uncertain graph all queries run against.
    config:
        Shared :class:`JointConfig`; its ``seed_engine`` decides how
        index managers are scoped.
    rng:
        One seed/generator for the whole session — successive queries
        consume one stream, so a session is replayable end to end.
    sampler:
        The :class:`~repro.engine.SamplingEngine` shared by every
        query of the session: seed selections sample RR sets and spread
        checks run cascades through it (sharded across its worker pool
        when ``workers > 1``). ``None`` gives the session its own
        serial engine; session queries run one at a time, so it is
        never shared across concurrent queries. The determinism
        contract carries over — a session with a fixed seed replays
        identically for any worker count. A sampler built with a
        :class:`~repro.engine.RetryPolicy`, :class:`FaultPlan`, or
        :class:`~repro.engine.CheckpointManager` makes every session
        query fault tolerant (and, with checkpoints, resumable).
    """

    def __init__(
        self,
        graph: TagGraph,
        config: JointConfig = JointConfig(),
        rng: np.random.Generator | int | None = None,
        sampler: "SamplingEngine | None" = None,
    ) -> None:
        self._graph = graph
        self._config = config
        self._rng = ensure_rng(rng)
        self._sampler = resolve_engine(sampler)
        self._shared_manager: IndexManager | None = None
        self._local_managers: dict[tuple[int, ...], IndexManager] = {}
        self._server = None
        self._base_seed = 0
        self._query_index = 0
        self.queries_run = 0

    @classmethod
    def connect(cls, server, seed: int = 0) -> "CampaignSession":
        """A session whose queries run on a :class:`~repro.serve.CampaignServer`.

        The connected session keeps the exact library-facing API (its
        methods still return :class:`SeedSelection` / ``TagSelection`` /
        ``JointResult`` / ``float``) but routes every query through the
        server, so it transparently benefits from the server's worker
        pool, asset cache, and admission control — and transparently
        shares those with every other connected session.

        Determinism: the ``i``-th query of a session connected with
        ``seed`` always runs with the per-query seed derived from
        ``SeedSequence([seed, i])``, independent of what other sessions
        do concurrently. Two sessions connected with the same seed that
        issue the same query sequence get bit-identical answers (and
        the second one's are likely cache hits).
        """
        session = cls(server.graph, config=server.config)
        session._server = server
        session._base_seed = int(seed)
        return session

    def _next_seed(self) -> int:
        """Deterministic per-query seed for the connected stream."""
        seq = np.random.SeedSequence([self._base_seed, self._query_index])
        self._query_index += 1
        return int(seq.generate_state(1)[0])

    @property
    def server(self):
        """The connected :class:`~repro.serve.CampaignServer`, or ``None``."""
        return self._server

    @property
    def graph(self) -> TagGraph:
        """The session's graph."""
        return self._graph

    def _manager_for(self, targets: Sequence[int]) -> IndexManager | None:
        engine = self._config.seed_engine
        if engine in ("ltrs", "itrs"):
            if self._shared_manager is None:
                self._shared_manager = make_ltrs_manager(self._graph)
            return self._shared_manager
        if engine == "lltrs":
            key = tuple(sorted({int(t) for t in targets}))
            manager = self._local_managers.get(key)
            if manager is None:
                manager = make_lltrs_manager(
                    self._graph, key, self._config.sketch
                )
                self._local_managers[key] = manager
            return manager
        return None

    def seeds(
        self,
        targets: Sequence[int],
        tags: Sequence[str],
        k: int,
        budget: RunBudget | None = None,
    ) -> SeedSelection:
        """Top-``k`` seeds for fixed ``tags``, reusing session indexes."""
        self.queries_run += 1
        if self._server is not None:
            return self._server.find_seeds(
                targets, tags, k,
                engine=self._config.seed_engine,
                seed=self._next_seed(),
                deadline=budget.wall_seconds if budget else None,
                max_samples=budget.max_samples if budget else None,
                max_rr_members=budget.max_rr_members if budget else None,
            ).value
        return find_seeds(
            self._graph, targets, tags, k,
            engine=self._config.seed_engine,
            config=self._config.sketch,
            manager=self._manager_for(targets),
            rng=self._rng,
            sampler=self._sampler,
            budget=budget,
        )

    def tags(
        self, seeds: Sequence[int], targets: Sequence[int], r: int
    ) -> TagSelection:
        """Top-``r`` tags for fixed ``seeds``."""
        self.queries_run += 1
        if self._server is not None:
            return self._server.find_tags(
                seeds, targets, r,
                method=self._config.tag_method,
                seed=self._next_seed(),
            ).value
        return find_tags(
            self._graph, seeds, targets, r,
            method=self._config.tag_method,
            config=self._config.tag_config,
            rng=self._rng,
        )

    def joint(
        self,
        targets: Sequence[int],
        k: int,
        r: int,
        budget: RunBudget | None = None,
    ) -> JointResult:
        """Full Algorithm 2 for one target set.

        Runs on the session's sampler, so a sampler built with a
        checkpoint manager makes the whole joint run
        resumable: replaying the same session (same graph, seed, and
        query sequence) with ``resume=True`` splices the checkpointed
        shard prefixes back in and provably yields the same seeds.
        """
        self.queries_run += 1
        if self._server is not None:
            return self._server.jointly_select(
                targets, k, r,
                seed=self._next_seed(),
                deadline=budget.wall_seconds if budget else None,
                max_samples=budget.max_samples if budget else None,
                max_rr_members=budget.max_rr_members if budget else None,
            ).value
        return jointly_select(
            self._graph,
            JointQuery(targets, k=k, r=r),
            self._config,
            rng=self._rng,
            sampler=self._sampler,
            budget=budget,
        )

    def spread(
        self,
        seeds: Sequence[int],
        targets: Sequence[int],
        tags: Sequence[str],
        num_samples: int | None = None,
        budget: RunBudget | None = None,
    ) -> float:
        """Independent MC estimate of ``σ(S, T, C1)`` for any plan."""
        if self._server is not None:
            return self._server.estimate_spread(
                seeds, targets, tags,
                num_samples=num_samples,
                seed=self._next_seed(),
                deadline=budget.wall_seconds if budget else None,
                max_samples=budget.max_samples if budget else None,
                max_rr_members=budget.max_rr_members if budget else None,
            ).value
        return estimate_spread(
            self._graph, seeds, targets, tags,
            num_samples=num_samples or self._config.eval_samples,
            rng=self._rng,
            engine=self._sampler,
            budget=budget,
        )

    @property
    def indexed_tags(self) -> tuple[str, ...]:
        """Tags currently indexed by the session's shared manager."""
        if self._shared_manager is None:
            return ()
        return self._shared_manager.indexed_tags

    @property
    def telemetry(self) -> dict:
        """The sampler's cumulative runtime counters."""
        return self._sampler.telemetry.as_dict()

    @property
    def metrics(self) -> dict | None:
        """Metrics of the enclosing :func:`repro.obs.observe` scope.

        A grouped counters/gauges/histograms snapshot covering every
        query issued so far inside the scope, or ``None`` when
        observability is off. Individual query results additionally
        carry a full per-call ``report``.
        """
        registry = obs.current_registry()
        return registry.as_dict() if registry is not None else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        base = (
            f"CampaignSession(graph={self._graph!r}, "
            f"queries_run={self.queries_run}"
        )
        summary = self._sampler.telemetry.summary()
        if summary:
            return f"{base}, runtime=[{summary}])"
        return base + ")"
