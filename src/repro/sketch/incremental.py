"""Incremental RR-sketch repair for mutable graphs.

A :class:`RepairableSketch` is an RR-set sketch built so that after a
graph edit only the *affected* sets need resampling, with the repaired
sketch **bit-identical** to a cold rebuild from the edited graph with
the same seed. Two properties make this possible:

1.  **Touch traces.** An RR sample examines edge ``(u, v)``'s coin only
    while dequeuing member ``v`` (scalar path) or while ``v`` is in the
    reverse frontier of the sample's world (bit-parallel path). Either
    way, an edit to edge ``e`` can change a set's membership only if
    ``dst(e)`` was a member *before* the edit — so the flat member
    storage of :class:`~repro.engine.RRCollection` doubles as the touch
    trace, and :meth:`RRCollection.dirty_set_ids` answers "which sets
    does this edit dirty?" from the inverted index. Note membership in
    the *old* set is also necessary for growth: an edit can only add
    reachability through ``dst(e)``, which requires ``dst(e)`` to have
    been reachable already.

2.  **Per-set random streams.** A scalar traversal feeding one
    sequential generator through all of a shard's samples would make
    resampling set ``i`` alone shift every later set's coins. The
    repairable builder instead derives one child ``SeedSequence`` per
    set (spawned from the shard's sequence, *after* drawing the shard's
    roots) and keeps the spawned children on the sketch: a repaired set
    replays exactly its own stream. The bit-parallel path is already
    per-world counter-based — each sample's coins are a pure function
    of ``(edge id, world, key)`` — with one caveat: the coin counter
    strides by the edge count, so the builder freezes an
    ``edge_capacity >= m`` at build time and hashes against *that*
    stride. Edge additions within capacity leave every existing coin
    untouched; growing past capacity forces a cold rebuild
    (:class:`SketchCapacityError`).

Repair is copy-on-write: :meth:`RepairableSketch.repair` returns a new
sketch (sharing shard records and clean storage), so in-flight readers
of the old sketch never observe a splice. :func:`repair_sketches`
repairs several sketches after one edit batch; ``repair`` is its
one-item call. A sketch that cannot be repaired (past its edge
capacity) gets its error back while the others repair.

Cost model
----------
Build and bit-parallel repair share one RR kernel pass,
:func:`~repro.engine.bitworld.bit_rr_pass`. The edited graph is
pre-gathered once per batch (:meth:`~repro.engine.bitworld.RRGather.
of_probabilities`: one live reverse CSR per distinct tag set, ``O(m)``
each), then one pass replays the dirty lanes of every shard of every
dirty sketch — a stream per shard, each under its own key, counter
stride and live edges. Clean lanes are ghost lanes that never get a
bit, and each dirty sample keeps the ``(block, lane)`` world it was
built in. The kernel's fixed per-BFS-level cost is paid once per edit
batch, not once per dirty shard, so a sparse batch costs about as much
as the sets it dirties, plus the pre-gather, the inverted-index probes
and an ``O(θ)`` splice per sketch. A cold build runs all of its shards
in one pass the same way. The scalar path replays each dirty set's own
stream, one traversal per set.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.engine.bitworld import RRGather, RRStream, bit_rr_pass
from repro.engine.parallel import DEFAULT_SHARD_SIZE, _shard_counts
from repro.engine.rr_storage import RRCollection
from repro.exceptions import InvalidQueryError
from repro.graphs.tag_graph import TagGraph
from repro.sketch.rr_sets import _reverse_reachable_set_into
from repro.sketch.theta import SketchConfig, compute_theta, estimate_opt_t
from repro.utils.validation import as_target_array

__all__ = [
    "REPAIR_MODES",
    "RepairableSketch",
    "SketchCapacityError",
    "build_repairable_sketch",
    "repair_sketches",
    "trs_build_repairable_sketch",
]

REPAIR_MODES = ("scalar", "bitparallel")

#: Sub-stream tag separating the TRS pilot's RNG from the build streams,
#: so θ estimation never perturbs (or is perturbed by) sampling coins.
_PILOT_STREAM = 0x70696C
_KEY_MAX = np.iinfo(np.int64).max


class SketchCapacityError(InvalidQueryError):
    """Edits grew the graph past the sketch's frozen edge capacity.

    The bit-parallel coin counter strides by ``edge_capacity``; once the
    edited graph has more edges than that, existing coins can no longer
    be reproduced and the sketch must be rebuilt cold.
    """


@dataclass(frozen=True)
class _Shard:
    """One build shard: its sample range and replay material."""

    start: int  # global id of the shard's first sample
    count: int
    roots: np.ndarray  # per-sample RR roots, shard order
    child_seeds: tuple[np.random.SeedSequence, ...] | None = None  # scalar
    key: int | None = None  # bit-parallel world key


@dataclass(frozen=True)
class RepairableSketch:
    """RR sketch that can be patched in place of resampled wholesale.

    Duck-compatible with :class:`~repro.sketch.TRSSketch` (``rr_sets``,
    ``theta``, ``opt_t_estimate``, ``num_targets``, ``nbytes`` and the
    cover memo), so :func:`~repro.sketch.trs_select_from_sketch`
    consumes one unchanged. A clean promotion keeps the same object and
    so its memoized covers; a repaired sketch starts with none.
    """

    rr: RRCollection
    theta: int
    mode: str
    seed: int
    shard_size: int
    edge_capacity: int  # bit-parallel coin stride; 0 on the scalar path
    target_arr: np.ndarray
    shards: tuple[_Shard, ...]
    num_targets: int
    opt_t_estimate: float | None = None
    # Greedy-cover memo, as on TRSSketch. Not an init field, so the
    # ``replace`` in repair() starts every repaired sketch empty.
    _covers: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- TRSSketch-compatible surface --------------------------------
    @property
    def rr_sets(self) -> RRCollection:
        return self.rr

    @property
    def nbytes(self) -> int:
        shard_bytes = sum(s.roots.nbytes for s in self.shards)
        return int(
            self.rr.members.nbytes + self.rr.indptr.nbytes + shard_bytes
        )

    # -- repair ------------------------------------------------------
    def dirty_set_ids(self, dirty_nodes: np.ndarray) -> np.ndarray:
        """Sets whose touch trace intersects ``dirty_nodes``."""
        return self.rr.dirty_set_ids(dirty_nodes)

    def repair(
        self,
        graph: TagGraph,
        edge_probs: np.ndarray,
        dirty_edges: np.ndarray,
        set_ids: np.ndarray | None = None,
    ) -> tuple["RepairableSketch", dict[str, int]]:
        """Resample only the sets dirtied by ``dirty_edges``.

        ``graph``/``edge_probs`` are the *post-edit* snapshot and its
        edge probabilities for the sketch's tag set. Returns a new
        sketch plus repair stats; the receiver is unmodified. The result
        is bit-identical to :meth:`cold_rebuild` on the same snapshot.
        ``set_ids`` passes in :meth:`dirty_set_ids` of the destinations
        of ``dirty_edges`` when the caller already has it, so it is not
        computed twice. The one-item call of :func:`repair_sketches`.
        """
        (result,) = repair_sketches(
            graph, dirty_edges, [(self, edge_probs, set_ids)]
        )
        if isinstance(result, InvalidQueryError):
            raise result
        return result

    def _check_repairable(
        self, graph: TagGraph, edge_probs: np.ndarray
    ) -> None:
        """Raise unless this sketch can be patched forward to ``graph``."""
        if edge_probs.shape != (graph.num_edges,):
            raise InvalidQueryError(
                f"edge_probs must have length m={graph.num_edges}, "
                f"got shape {edge_probs.shape}"
            )
        if self.mode == "bitparallel" and graph.num_edges > self.edge_capacity:
            raise SketchCapacityError(
                f"graph has {graph.num_edges} edges, past the sketch's "
                f"frozen capacity {self.edge_capacity} — rebuild cold"
            )

    def _resample_scalar(
        self, graph: TagGraph, edge_probs: np.ndarray, set_ids: np.ndarray
    ) -> RRCollection:
        starts = np.array([s.start for s in self.shards], dtype=np.int64)
        visited = np.zeros(graph.num_nodes, dtype=bool)
        sets: list[np.ndarray] = []
        for sid in set_ids.tolist():
            shard = self.shards[
                int(np.searchsorted(starts, sid, side="right")) - 1
            ]
            local = sid - shard.start
            rng = np.random.default_rng(shard.child_seeds[local])
            sets.append(
                _reverse_reachable_set_into(
                    graph, int(shard.roots[local]), edge_probs, rng, visited
                )
            )
        return RRCollection.from_sets(sets, graph.num_nodes)

    def _resample_bitparallel(
        self, graph: TagGraph, edge_probs: np.ndarray, set_ids: np.ndarray
    ) -> RRCollection:
        """Replay the dirty lanes of every shard in one kernel pass."""
        (resampled,) = _replay_dirty(graph, [(self, edge_probs, set_ids)])
        return resampled

    def _dirty_streams(
        self, set_ids: np.ndarray, row: int
    ) -> list[RRStream]:
        """One kernel stream per shard holding a set of ``set_ids``."""
        starts = np.array([s.start for s in self.shards], dtype=np.int64)
        owner = np.searchsorted(starts, set_ids, side="right") - 1
        cuts = np.flatnonzero(np.diff(owner)) + 1
        streams = []
        for shard_idx, ids in zip(
            owner[np.r_[0, cuts]].tolist(), np.split(set_ids, cuts)
        ):
            shard = self.shards[shard_idx]
            streams.append(RRStream(
                shard.roots, shard.key, ids - shard.start, row,
                self.edge_capacity,
            ))
        return streams

    def cold_rebuild(
        self, graph: TagGraph, edge_probs: np.ndarray
    ) -> "RepairableSketch":
        """Rebuild from scratch with the stored seed and geometry.

        θ is *not* re-derived — the repairable contract is that repair
        and rebuild agree bit-for-bit, which requires identical shard
        geometry. Callers wanting a re-sized sketch build a fresh one.
        """
        return build_repairable_sketch(
            graph,
            self.target_arr,
            edge_probs,
            self.theta,
            seed=self.seed,
            mode=self.mode,
            shard_size=self.shard_size,
            edge_capacity=self.edge_capacity or None,
            num_targets=self.num_targets,
            opt_t_estimate=self.opt_t_estimate,
        )


def build_repairable_sketch(
    graph: TagGraph,
    targets: Sequence[int] | np.ndarray,
    edge_probs: np.ndarray,
    theta: int,
    *,
    seed: int,
    mode: str = "scalar",
    shard_size: int | None = None,
    edge_capacity: int | None = None,
    num_targets: int | None = None,
    opt_t_estimate: float | None = None,
) -> RepairableSketch:
    """Sample θ targeted RR sets with per-set repairable randomness.

    ``seed`` must be an integer (not a live generator): the sketch
    stores it so a cold rebuild can replay the exact stream tree.
    ``edge_capacity`` (bit-parallel only) freezes the coin-counter
    stride; it defaults to ``m`` plus 25% headroom (min 64 edges) so
    moderate edge-addition churn repairs in place.
    """
    if mode not in REPAIR_MODES:
        raise InvalidQueryError(
            f"mode must be one of {REPAIR_MODES}, got {mode!r}"
        )
    if theta <= 0:
        raise InvalidQueryError(f"theta must be positive, got {theta}")
    target_arr = as_target_array(
        targets, graph.num_nodes, context="build_repairable_sketch"
    )
    if edge_probs.shape != (graph.num_edges,):
        raise InvalidQueryError(
            f"edge_probs must have length m={graph.num_edges}, "
            f"got shape {edge_probs.shape}"
        )
    if mode == "bitparallel":
        if edge_capacity is None:
            edge_capacity = graph.num_edges + max(64, graph.num_edges // 4)
        if edge_capacity < graph.num_edges:
            raise InvalidQueryError(
                f"edge_capacity {edge_capacity} below current edge count "
                f"{graph.num_edges}"
            )
    else:
        edge_capacity = 0
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE

    master = np.random.default_rng(int(seed))
    counts = _shard_counts(int(theta), int(shard_size))
    streams = master.bit_generator.seed_seq.spawn(len(counts))

    shards: list[_Shard] = []
    start = 0
    for count, stream in zip(counts, streams):
        shard_rng = np.random.default_rng(stream)
        roots = shard_rng.choice(target_arr, size=count)
        if mode == "scalar":
            shards.append(_Shard(
                start, count, roots, child_seeds=tuple(stream.spawn(count))
            ))
        else:
            key = int(shard_rng.integers(_KEY_MAX, dtype=np.int64))
            shards.append(_Shard(start, count, roots, key=key))
        start += count

    if mode == "scalar":
        visited = np.zeros(graph.num_nodes, dtype=bool)
        rr = RRCollection.from_sets(
            [
                _reverse_reachable_set_into(
                    graph, int(root), edge_probs,
                    np.random.default_rng(child), visited,
                )
                for shard in shards
                for root, child in zip(shard.roots, shard.child_seeds)
            ],
            graph.num_nodes,
        )
    else:
        # Every shard's lanes in one kernel pass.
        members, indptr = bit_rr_pass(
            RRGather.of_probabilities(graph, [edge_probs]),
            [
                RRStream(shard.roots, shard.key, stride=edge_capacity)
                for shard in shards
            ],
        )
        rr = RRCollection(members, indptr, graph.num_nodes)
    return RepairableSketch(
        rr=rr,
        theta=int(theta),
        mode=mode,
        seed=int(seed),
        shard_size=int(shard_size),
        edge_capacity=int(edge_capacity),
        target_arr=target_arr,
        shards=tuple(shards),
        num_targets=(
            int(num_targets) if num_targets is not None else target_arr.size
        ),
        opt_t_estimate=opt_t_estimate,
    )


def trs_build_repairable_sketch(
    graph: TagGraph,
    targets: Sequence[int] | np.ndarray,
    tags: Sequence[str],
    k: int,
    *,
    seed: int,
    config: SketchConfig = SketchConfig(),
    mode: str = "scalar",
    shard_size: int | None = None,
    edge_capacity: int | None = None,
    engine=None,
) -> RepairableSketch:
    """TRS pipeline (pilot → θ → sample) on the repairable sampler.

    θ is derived once, at initial build; subsequent repairs keep it (the
    statistical gates tolerate the drift for sparse edits — see
    ``docs/mutability.md``). The pilot runs on a dedicated sub-stream of
    ``seed`` so its RNG consumption cannot shift the build coins.
    """
    edge_probs = graph.edge_probabilities(tags)
    pilot_rng = np.random.default_rng([int(seed), _PILOT_STREAM])
    opt_t = estimate_opt_t(
        graph, targets, edge_probs, k, config, pilot_rng, engine=engine
    )
    target_arr = as_target_array(
        targets, graph.num_nodes, context="trs_build_repairable_sketch"
    )
    theta = compute_theta(
        graph.num_nodes, k, int(target_arr.size), opt_t, config
    )
    return build_repairable_sketch(
        graph,
        target_arr,
        edge_probs,
        theta,
        seed=seed,
        mode=mode,
        shard_size=shard_size,
        edge_capacity=edge_capacity,
        opt_t_estimate=opt_t,
    )


RepairResult = tuple[RepairableSketch, dict[str, int]] | InvalidQueryError


def repair_sketches(
    graph: TagGraph,
    dirty_edges: np.ndarray,
    items: Sequence[
        tuple[RepairableSketch, np.ndarray, np.ndarray | None]
    ],
) -> list[RepairResult]:
    """Repair several sketches after one edit batch, in one kernel pass.

    Each item is ``(sketch, edge_probs, set_ids)``: a sketch, the
    post-edit probabilities of its tag set on ``graph``, and its dirty
    set ids (``None`` computes them from ``dirty_edges``). The dirty
    lanes of every bit-parallel sketch, across all of its shards, replay
    in one :func:`~repro.engine.bitworld.bit_rr_pass`; scalar sketches
    replay their per-set streams. Returns one entry per item: the
    ``(repaired sketch, stats)`` pair of :meth:`RepairableSketch.repair`
    — bit-identical to a cold rebuild — or the
    :class:`~repro.exceptions.InvalidQueryError` (such as
    :class:`SketchCapacityError`) that keeps that one sketch from being
    repaired; the other items still repair.
    """
    dirty_edges = np.unique(np.asarray(dirty_edges, dtype=np.int64))
    if dirty_edges.size and (
        dirty_edges[0] < 0 or dirty_edges[-1] >= graph.num_edges
    ):
        raise InvalidQueryError(
            f"dirty edge ids outside [0, {graph.num_edges})"
        )
    dirty_nodes = np.unique(graph.dst[dirty_edges])
    results: list[RepairResult] = []
    pending = []  # (result index, sketch, edge_probs, set_ids, stats)
    for sketch, edge_probs, set_ids in items:
        try:
            sketch._check_repairable(graph, edge_probs)
        except InvalidQueryError as exc:
            results.append(exc)
            continue
        stats = {
            "dirty_edges": int(dirty_edges.size),
            "dirty_nodes": int(dirty_nodes.size),
            "dirty_sets": 0,
            "total_sets": int(sketch.theta),
            "resampled_members": 0,
        }
        results.append((sketch, stats))
        if not dirty_edges.size:
            continue
        if set_ids is None:
            set_ids = sketch.rr.dirty_set_ids(dirty_nodes)
        stats["dirty_sets"] = int(set_ids.size)
        if not set_ids.size:
            continue
        if sketch.mode == "scalar":
            new_sets = sketch._resample_scalar(graph, edge_probs, set_ids)
            results[-1] = _spliced(sketch, set_ids, new_sets, stats)
            continue
        pending.append((len(results) - 1, sketch, edge_probs, set_ids, stats))
    if pending:
        resampled = _replay_dirty(graph, [item[1:4] for item in pending])
        for (i, sketch, _probs, set_ids, stats), new_sets in zip(
            pending, resampled
        ):
            results[i] = _spliced(sketch, set_ids, new_sets, stats)
    return results


def _spliced(
    sketch: RepairableSketch,
    set_ids: np.ndarray,
    new_sets: RRCollection,
    stats: dict[str, int],
) -> tuple[RepairableSketch, dict[str, int]]:
    """``sketch`` with ``set_ids`` swapped for ``new_sets``, and stats."""
    stats["resampled_members"] = new_sets.total_members
    return replace(sketch, rr=sketch.rr.replaced(set_ids, new_sets)), stats


def _replay_dirty(
    graph: TagGraph,
    items: Sequence[tuple[RepairableSketch, np.ndarray, np.ndarray]],
) -> list[RRCollection]:
    """Replay each bit-parallel item's dirty sets; one kernel pass.

    The pass runs on the union live reverse CSR of the items' edge
    probabilities, one threshold row per distinct probability vector
    (items with the same tag set share one); an edge dead for a row
    keeps threshold 0 there, so it never lands for that row's streams.
    """
    rows: dict[int, int] = {}
    prob_rows: list[np.ndarray] = []
    streams: list[RRStream] = []
    for sketch, edge_probs, set_ids in items:
        row = rows.setdefault(id(edge_probs), len(prob_rows))
        if row == len(prob_rows):
            prob_rows.append(edge_probs)
        streams.extend(sketch._dirty_streams(set_ids, row))
    members, indptr = bit_rr_pass(
        RRGather.of_probabilities(graph, prob_rows), streams,
    )
    out = []
    lo = 0
    for _sketch, _probs, set_ids in items:
        hi = lo + set_ids.size
        out.append(RRCollection(
            members[indptr[lo]:indptr[hi]], indptr[lo:hi + 1] - indptr[lo],
            graph.num_nodes,
        ))
        lo = hi
    return out
