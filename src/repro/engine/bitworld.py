"""Bit-parallel possible-world kernels: 64 worlds per ``uint64`` lane.

Every sampling primitive in this repo asks the same question many times
over: *in a random possible world, who reaches whom?* The scalar oracle
answers it one world at a time. The kernels here pack **64 independent
possible worlds into one machine word**: bit
``b`` of ``mask[v]`` means "node ``v`` is reached in world ``b`` of the
current block", so a single bitwise OR advances 64 BFS traversals at
once and a single popcount accounts 64 sample sizes.

Coin model
----------
Edge coins are *counter-based*: world ``(block, lane)`` decides edge
``e`` by hashing ``((block * m + e) << 6) | lane`` with a SplitMix64
finalizer keyed by a per-shard stream key (``block`` is shard-local,
and ``m`` is the stream's edge stride: the edge count, or a repairable
sketch's frozen edge capacity). The comparison
``(hash >> 11) < ceil(p * 2**53)`` is exactly equivalent to drawing a
53-bit uniform float ``u`` and testing ``u < p`` (including ``p == 1``),
so every coin is a pure function of ``(key, block, edge, lane)``. That
buys three properties the engine's determinism contract needs:

* **replayability** — :func:`world_edge_mask` reconstructs any single
  world's full edge mask, so the scalar fixed-world oracle
  (:func:`repro.sketch.rr_sets.rr_set_from_edge_mask`) can verify any
  lane of any block bit-for-bit;
* **order independence** — lanes can be evaluated in any grouping
  (dense blocks, sparse strips, re-batched block ranges) without
  changing a single coin;
* **worker invariance** — the key comes from the shard's
  ``SeedSequence`` stream, so pooled and serial execution agree.

Root-grouped packing
--------------------
Targeted RR sampling draws roots from the (small) target set, so many
samples share a root. Slots are assigned to samples in stable
root-sorted order, which packs same-root samples into the same 64-world
block: the 64 traversals of a block then overlap heavily and the
frontier collapses from ``O(samples)`` to ``O(distinct (block, node))``
rows. The slot permutation is deterministic (stable sort), recorded via
:func:`rr_world_of_sample`, and inverted during collection so sample
``i`` keeps its drawn root.

Indexed worlds
--------------
The index-based engines (I-TRS / L-TRS / LL-TRS) fix part of each world
in advance: an edge covered by the possible-world index is live in a
lane iff the lane's chosen per-tag worlds hold it. The RR kernel takes
those edges as *forced-live words* — one uint64 per (block, covered
edge) whose bit ``b`` is lane ``b``'s verdict — and draws counter
coins only for the uncovered edges. :func:`transpose_bits64` turns 64
lanes' packed world rows into those per-edge words.

Because every coin is a pure function of its world, any subset of a
shard's samples can be replayed in the worlds it was first drawn in,
and the lanes of several shards can share one traversal: the level
loop looks each 64-lane block's key, counter base (its shard-local id
times its stream's edge stride) and live-CSR row up per block.
:func:`bit_rr_pass` runs any set of streams (:class:`RRStream`, one
shard each) over shared pre-gathers (:class:`RRGather`);
:func:`bit_rr_replay` is its one-stream case and :func:`bit_rr_members`
the replay of every sample. Incremental sketch repair replays the
dirty samples of every dirty sketch of an edit batch in one pass.

:func:`bitparallel_rr_members` and :func:`bitparallel_cascade_counts`
are the graph-level fronts the sampling engine calls per shard.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.obs.profile import kernel_timer
from repro.utils.mathx import stable_argsort
from repro.utils.validation import check_node_array

U64 = np.uint64
_ONE = U64(1)
_FULL = U64(0xFFFFFFFFFFFFFFFF)
_SPLITMIX_C1 = U64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = U64(0x94D049BB133111EB)
_GOLDEN = U64(0x9E3779B97F4A7C15)
_LANES64 = np.arange(64, dtype=np.uint64)

#: Mean active lanes per frontier row above which the cascade kernel
#: evaluates all 64 lane coins of a row in one dense 2-D pass instead
#: of stripping lanes one bit at a time.
DENSE_LANE_THRESHOLD = 8.0

#: Pairs-per-row ratio above which an RR level expands in row space
#: (shared edge gather per (block, node) row) instead of pair space.
ROW_MODE_LANES = 16.0

#: Mean candidate lanes per edge row above which row-space levels hash
#: all 64 lanes densely rather than extracting active lanes first.
ROW_DENSE_LANES = 32.0

#: Soft cap on the ``blocks * nodes`` uint64 visited words of one block
#: batch (32 MiB).
DEFAULT_BLOCK_CELLS = 1 << 22


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (vectorized); the coin hash."""
    z = x * _GOLDEN
    z ^= z >> U64(30)
    z *= _SPLITMIX_C1
    z ^= z >> U64(27)
    z *= _SPLITMIX_C2
    return z ^ (z >> U64(31))


def coin_thresholds(edge_probs: np.ndarray) -> np.ndarray:
    """Packed Bernoulli thresholds: coin succeeds iff ``hash>>11 < thr``.

    ``thr = ceil(p * 2**53)`` makes the integer comparison exactly
    equivalent to ``(hash >> 11) * 2**-53 < p`` — the standard 53-bit
    uniform-float draw — for every ``p`` in ``[0, 1]``.
    """
    return np.ceil(
        np.asarray(edge_probs, dtype=np.float64) * float(1 << 53)
    ).astype(np.uint64)


def live_csr(
    indptr: np.ndarray, csr_edges: np.ndarray, edge_probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Filter a CSR adjacency down to edges with nonzero probability.

    Tag-conditioned probabilities zero out most edges (a query activates
    few tags), so traversals that pre-drop dead edges gather far fewer
    candidates per level. Returns ``(indptr', edges')`` over the same
    node ids with original edge ids preserved.
    """
    keep = edge_probs[csr_edges] > 0.0
    cumulative = np.zeros(csr_edges.size + 1, dtype=np.int64)
    np.cumsum(keep, out=cumulative[1:])
    return cumulative[indptr], csr_edges[keep]


def world_edge_mask(
    num_edges: int, thr53: np.ndarray, key: int, block: int, lane: int
) -> np.ndarray:
    """Full edge-existence mask of one world — the scalar oracle hook.

    Evaluates the same counter hash the kernels use, for every edge of
    world ``(block, lane)``; feeding the result to
    :func:`repro.sketch.rr_sets.rr_set_from_edge_mask` must reproduce
    the bit-parallel kernel's membership for that world exactly.
    """
    eids = np.arange(num_edges, dtype=np.int64)
    ctr = (
        (np.int64(block) * num_edges + eids).astype(np.uint64) << U64(6)
    ) | U64(lane)
    z = mix64(ctr ^ U64(key))
    return (z >> U64(11)) < thr53


def transpose_bits64(rows: np.ndarray) -> np.ndarray:
    """Transpose a batch of 64x64 bit matrices.

    ``rows`` is ``(N, 64)`` uint64; bit ``r`` of ``out[i, c]`` is bit
    ``c`` of ``rows[i, r]``. Six rounds of shift-and-mask swaps
    (one per bit of the row/column index) exchange the off-diagonal
    sub-blocks in place, so a batch of matrices costs a few vector ops
    over its ``64 N`` words instead of a 64x unpack.
    """
    out = np.array(rows, dtype=np.uint64, copy=True, order="C")
    if out.shape[-1] != 64:
        raise ValueError("transpose_bits64 needs rows of 64 words")
    n = out.shape[0]
    width = 32
    mask = U64(0x00000000FFFFFFFF)
    while width:
        # Rows whose index has bit ``width`` clear pair with row+width.
        pairs = out.reshape(n, 64 // (2 * width), 2, width)
        low = pairs[:, :, 0, :]
        high = pairs[:, :, 1, :]
        swap = ((low >> U64(width)) ^ high) & mask
        high ^= swap
        low ^= swap << U64(width)
        width >>= 1
        mask ^= mask << U64(width)
    return out


def rr_world_of_sample(
    roots: np.ndarray, sample: int, num_nodes: int
) -> tuple[int, int]:
    """``(block, lane)`` world coordinates of one RR sample.

    Inverts the root-grouped slot assignment of :func:`bit_rr_members`
    for oracle checks: sample ``i``'s RR set was traversed in this
    world.
    """
    slot_order = stable_argsort(np.asarray(roots, dtype=np.int64), num_nodes)
    slot = int(np.flatnonzero(slot_order == sample)[0])
    return slot >> 6, slot & 63


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """First index of each run of equal values in a sorted key array."""
    boundary = np.empty(sorted_keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def _block_batches(num_blocks: int, num_nodes: int) -> list[tuple[int, int]]:
    """Split blocks into ranges whose visited words stay cache-sized."""
    per = max(1, DEFAULT_BLOCK_CELLS // max(num_nodes, 1))
    return [
        (lo, min(lo + per, num_blocks)) for lo in range(0, num_blocks, per)
    ]


def _bit_rr_block_range(
    gather: "RRGather",
    mat: "_BlockMaterial",
    slots: np.ndarray,
    slot_roots: np.ndarray,
    slot_chunks: list[np.ndarray],
    node_chunks: list[np.ndarray],
    forced: np.ndarray | None = None,
) -> None:
    """Reverse-BFS the slots of one block range; append (slot, node) pairs.

    ``slots`` are ascending fused slots (``64 * block + lane``) of a
    contiguous range of the pass's blocks; a block's lanes left out are
    ghost lanes that never get a bit. The frontier is a pair of (slot,
    node) arrays, while the visited state is one uint64 lane-mask per
    (block, node). Coin material (counter base, key, threshold row) is
    looked up per block through ``mat``, so one traversal serves the
    blocks of several streams and every coin stays a pure function of
    its stream's world. Each level gathers the in-edges of every
    frontier pair, draws the pair's single lane coin, masks out
    already-visited worlds, and canonicalizes survivors via one packed
    ``(block, node, lane)`` sort that deduplicates, groups the
    visited-OR scatter, and fixes the emission order in a single pass.

    Index arrays are int64 throughout: numpy gathers through int32
    indices several times slower than through native ones, which costs
    more than the narrower arrays save.

    ``forced`` (``(blocks here, columns)`` uint64, with the gather's
    ``rev_col`` mapping each edge position to its column or ``-1``)
    replaces the coin of every position with a column: such an edge is
    live in a lane iff the lane's bit of its block's forced word is set.
    Only positions with ``rev_col == -1`` hash a counter coin.
    """
    num_nodes = gather.num_nodes
    rev_indptr = gather.rev_indptr
    rev_parent = gather.rev_parent
    rev_col = gather.rev_col
    node_bits = gather.node_bits
    n_idx = np.int64(num_nodes)
    block_lo = int(slots[0]) >> 6
    blocks_here = ((int(slots[-1]) >> 6) - block_lo) + 1
    visited = np.zeros(blocks_here * num_nodes, dtype=np.uint64)
    node_mask = (1 << node_bits) - 1

    def absorb(
        packed: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fold a sorted canonical (block, node, lane) level into state.

        One sorted pass deduplicates within-level repeats, groups the
        visited OR-scatter, and fixes a deterministic emission order;
        returns the next frontier in both pair form (slot, node) and
        row form (block, node, lane-mask) so the loop can pick the
        cheaper representation per level.
        """
        row_key = packed >> 6
        boundary = np.empty(packed.size, dtype=bool)
        boundary[0] = True
        np.not_equal(packed[1:], packed[:-1], out=boundary[1:])
        unique = np.flatnonzero(boundary)
        if unique.size < packed.size:
            packed = packed[unique]
            row_key = row_key[unique]
        group = _group_starts(row_key)
        group_key = row_key[group]
        masks = np.bitwise_or.reduceat(
            _ONE << (packed & 63).astype(np.uint64), group
        )
        row_block = group_key >> node_bits
        row_node = group_key & node_mask
        visited[(row_block - block_lo) * n_idx + row_node] |= masks
        next_node = row_key & node_mask
        next_slot = ((row_key >> node_bits) << 6) | (packed & 63)
        slot_chunks.append(next_slot)
        node_chunks.append(next_node)
        return next_slot, next_node, row_block, row_node, masks

    # Seed lanes grouped by (block, root); ghost lanes of a ragged tail
    # simply never get a bit and can never activate.
    init_key = ((slots >> 6) - block_lo) * n_idx + slot_roots
    starts = _group_starts(init_key)
    lane_bit = _ONE << (slots & 63).astype(np.uint64)
    init_mask = np.bitwise_or.reduceat(lane_bit, starts)
    visited[init_key[starts]] = init_mask
    slot_chunks.append(slots)
    node_chunks.append(slot_roots)

    frontier_slot = slots
    frontier_node = slot_roots
    row_block = slots[starts] >> 6
    row_node = slot_roots[starts]
    row_mask = init_mask

    while frontier_slot.size:
        if frontier_slot.size >= row_node.size * ROW_MODE_LANES:
            # Row space: lanes of a (block, node) row share their whole
            # edge list, so lane-dense levels expand each row once and
            # draw all lane coins per edge row — a fraction of the
            # array traffic of the pair loop. Root-grouped packing
            # makes the first levels extremely lane-dense.
            csr_row = mat.csr_rows(row_block, row_node)
            edge_start = rev_indptr[csr_row]
            degrees = rev_indptr[csr_row + 1] - edge_start
            total = int(degrees.sum())
            if total == 0:
                return
            cumulative = np.cumsum(degrees)
            positions = np.arange(total, dtype=np.int64) + np.repeat(
                edge_start - (cumulative - degrees), degrees
            )
            er_parent = rev_parent[positions]
            er_block = np.repeat(row_block, degrees)
            cand = np.repeat(row_mask, degrees) & ~visited[
                (er_block - block_lo) * n_idx + er_parent
            ]
            if forced is None:
                row, lane_col = _row_coin_pairs(
                    er_block, positions, cand, mat
                )
            else:
                # Covered rows read their lanes off the forced words;
                # only the rest hash coins.
                col = rev_col[positions]
                is_cov = col >= 0
                crows = np.flatnonzero(is_cov)
                frow, flane = _word_pairs(
                    forced[er_block[crows] - block_lo, col[crows]]
                    & cand[crows]
                )
                urows = np.flatnonzero(~is_cov)
                urow, ulane = _row_coin_pairs(
                    er_block[urows], positions[urows], cand[urows], mat
                )
                row = np.concatenate([crows[frow], urows[urow]])
                lane_col = np.concatenate([flane, ulane])
            if row.size == 0:
                return
            packed = (
                (er_block[row] << node_bits) | er_parent[row]
            ) << 6 | lane_col
        else:
            # Pair space: one coin per (slot, node) frontier pair edge;
            # cheapest once lane masks thin out.
            csr_row = mat.csr_rows(frontier_slot >> 6, frontier_node)
            edge_start = rev_indptr[csr_row]
            degrees = rev_indptr[csr_row + 1] - edge_start
            total = int(degrees.sum())
            if total == 0:
                return
            cumulative = np.cumsum(degrees)
            positions = np.arange(total, dtype=np.int64) + np.repeat(
                edge_start - (cumulative - degrees), degrees
            )
            parent = rev_parent[positions]
            edge_slot = np.repeat(frontier_slot, degrees)
            edge_block = edge_slot >> 6
            lane = (edge_slot & 63).astype(np.uint64)
            visited_key = (edge_block - block_lo) * n_idx + parent
            # One fused filter: the lane's edge must be live (counter
            # coin, or forced word) AND the world must not have reached
            # the parent already.
            if forced is None:
                live = _pair_coins(edge_block, positions, lane, mat)
            else:
                col = rev_col[positions]
                is_cov = col >= 0
                live = np.empty(total, dtype=bool)
                c = np.flatnonzero(is_cov)
                live[c] = (
                    forced[edge_block[c] - block_lo, col[c]] >> lane[c]
                ) & _ONE != 0
                u = np.flatnonzero(~is_cov)
                live[u] = _pair_coins(
                    edge_block[u], positions[u], lane[u], mat
                )
            good = live & ((visited[visited_key] >> lane) & _ONE == 0)
            hit = np.flatnonzero(good)
            if hit.size == 0:
                return
            packed = (
                (edge_block[hit] << node_bits) | parent[hit]
            ) << 6 | (edge_slot[hit] & 63)
        packed.sort()
        frontier_slot, frontier_node, row_block, row_node, row_mask = absorb(
            packed
        )


def _word_pairs(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, lane) of every set bit of a uint64 word array, row-major."""
    bits = np.unpackbits(
        words[:, None].view(np.uint8), axis=1, bitorder="little"
    )
    return np.nonzero(bits)


class _BlockMaterial:
    """Per-block stream material of one kernel pass.

    A world's coin for live edge position ``p`` hashes the counter
    ``base[block] + ctr[p] | lane`` under its stream's key and compares
    against ``thr[p]``. ``base`` is the block's shard-local id times its
    stream's stride, so a stream's coins do not depend on which other
    streams share the pass. A stream's probability row picks its own
    live reverse CSR inside the gather's stacked one: node ``v`` of a
    block on row ``r`` reads CSR row ``r * n + v``. One-stream passes
    skip the per-block lookups: one key stays scalar, one row needs no
    offset, and a pass over every block of one shard computes ``base``
    as ``block * stride``.
    """

    __slots__ = ("ctr", "thr", "base", "stride", "key", "node_off")

    def __init__(self, ctr, thr, base, stride, key, node_off) -> None:
        self.ctr = ctr  # (positions,) edge id << 6
        self.thr = thr  # (positions,) coin thresholds
        self.base = base  # (blocks,) uint64 counter base
        self.stride = stride  # np.uint64 when base == block * stride
        self.key = key  # np.uint64 scalar, or (blocks,) uint64
        self.node_off = node_off  # 0, or (blocks,) row * num_nodes

    def csr_rows(self, blocks: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Stacked reverse-CSR rows of (block, node) pairs."""
        if isinstance(self.node_off, np.ndarray):
            return nodes + self.node_off[blocks]
        return nodes + self.node_off if self.node_off else nodes

    def coins(self, blocks: np.ndarray, positions: np.ndarray):
        """Lane-free counters, keys and thresholds of (block, position)s.

        The key is the pass's scalar key when it has only one.
        """
        if self.stride is not None:
            ctr = blocks.astype(np.uint64) * self.stride
        else:
            ctr = self.base[blocks]
        ctr += self.ctr[positions]
        key = self.key if self.key.ndim == 0 else self.key[blocks]
        return ctr, key, self.thr[positions]


def _row_coin_pairs(
    er_block: np.ndarray,
    positions: np.ndarray,
    cand: np.ndarray,
    mat: _BlockMaterial,
) -> tuple[np.ndarray, np.ndarray]:
    """(row, lane) of every candidate lane whose counter coin lands."""
    if cand.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ebase, key, er_thr = mat.coins(er_block, positions)
    if float(np.bitwise_count(cand).mean()) >= ROW_DENSE_LANES:
        # Near-full rows: hashing all 64 lanes in one 2-D pass beats
        # extracting the active ones first.
        live = _dense_coins(ebase, er_thr, cand, key)
        alive = np.flatnonzero(live)
        bit_row, bit_lane = _word_pairs(live[alive])
        return alive[bit_row], bit_lane
    # Moderate density: expand candidate lanes to pairs and hash
    # exactly one coin per active (edge row, lane).
    crow, clane = _word_pairs(cand)
    if key.ndim:
        key = key[crow]
    z = mix64((ebase[crow] | clane.astype(np.uint64)) ^ key)
    ok = np.flatnonzero((z >> U64(11)) < er_thr[crow])
    return crow[ok], clane[ok]


def _pair_coins(
    edge_block: np.ndarray,
    positions: np.ndarray,
    lane: np.ndarray,
    mat: _BlockMaterial,
) -> np.ndarray:
    """One counter coin per (block, edge position, lane) triple."""
    ctr, key, thr = mat.coins(edge_block, positions)
    return (mix64((ctr | lane) ^ key) >> U64(11)) < thr


class RRGather:
    """Edge-aligned pre-gathers of one RR kernel input graph.

    The level loop indexes each live edge position once instead of
    chaining edge-id lookups per level. Built once per ``(graph,
    probabilities)`` and shared by every stream replayed on it — a cold
    build and a repair alike. ``num_edges`` is the default coin-counter
    stride. ``max_samples`` is accepted and unused: index arrays are
    int64 whatever the pass size.

    :meth:`of_probabilities` stacks one live reverse CSR per
    probability vector (a *row*), so the streams of one pass can each
    traverse their own live edges; the constructor builds one row.

    ``edge_col`` (length ``m``) maps each edge whose liveness comes from
    forced-live words to its column in those words, and every coin edge
    to ``-1``; see :func:`bit_rr_replay`'s ``forced``.
    """

    __slots__ = (
        "num_nodes", "num_edges", "node_bits", "rev_indptr",
        "rev_parent", "rev_thr", "rev_ctr", "rev_col", "num_cols",
    )

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        rev_indptr: np.ndarray,
        rev_edges: np.ndarray,
        src: np.ndarray,
        thr53: np.ndarray,
        max_samples: int | None = None,
        edge_col: np.ndarray | None = None,
    ) -> None:
        self._fill(
            num_nodes, num_edges, rev_indptr, rev_edges, src,
            thr53[rev_edges], edge_col,
        )

    @classmethod
    def of_probabilities(
        cls, graph, prob_rows: Sequence[np.ndarray]
    ) -> "RRGather":
        """Pre-gathers of ``graph``, one stacked row per probability vector.

        Row ``r`` is the live reverse CSR of ``prob_rows[r]`` (CSR rows
        ``r * n`` to ``r * n + n - 1``), so a stream traverses only its
        own live edges; thresholds are computed for live edges only.
        """
        rev_indptr, rev_edges = graph.reverse_csr()
        m = rev_edges.size
        probs = np.stack([p[rev_edges] for p in prob_rows])
        live = np.flatnonzero(probs > 0.0)  # row * m + position, sorted
        # CSR row r * n + v starts at the live count before its edges.
        starts = (
            np.arange(len(prob_rows))[:, None] * m + rev_indptr[None, :-1]
        ).ravel()
        gather = cls.__new__(cls)
        gather._fill(
            graph.num_nodes, graph.num_edges,
            np.append(np.searchsorted(live, starts), live.size),
            rev_edges[live % m], graph.src,
            coin_thresholds(probs.ravel()[live]), None,
        )
        return gather

    def _fill(
        self, num_nodes, num_edges, rev_indptr, rev_edges, src, rev_thr,
        edge_col,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.num_edges = int(num_edges)
        self.node_bits = max(int(num_nodes - 1).bit_length(), 1)
        self.rev_indptr = rev_indptr.astype(np.int64, copy=False)
        self.rev_parent = src[rev_edges].astype(np.int64, copy=False)
        self.rev_thr = rev_thr
        self.rev_ctr = rev_edges.astype(np.uint64) << U64(6)
        if edge_col is None:
            self.rev_col = None
            self.num_cols = 0
        else:
            self.rev_col = edge_col[rev_edges].astype(np.int64, copy=False)
            self.num_cols = int(edge_col.max(initial=-1)) + 1


class RRStream(NamedTuple):
    """One shard's lanes in an RR kernel pass.

    ``roots`` are the whole shard's roots: they fix the root-sorted slot
    layout, so a replayed sample keeps the ``(block, lane)`` world it
    was first drawn in. ``samples`` (ascending ids; all if None) are the
    lanes the pass runs. ``row`` picks the gather's probability row (the
    stream's live edges and coin thresholds) and ``stride`` the
    coin-counter edge stride (a sketch's frozen edge capacity; the
    gather's ``num_edges`` if None).
    """

    roots: np.ndarray
    key: int
    samples: np.ndarray | None = None
    row: int = 0
    stride: int | None = None


def bit_rr_pass(
    gather: RRGather,
    streams: Sequence[RRStream],
    forced=None,
    on_batch=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay the RR sets of several streams in one kernel pass.

    Each stream's lanes keep their shard-local ``(block, lane)`` worlds;
    the pass packs the blocks that hold lanes back to back (fused
    blocks) and looks each block's key, counter base and live-CSR row
    up per block, so every coin is the one a single-stream replay draws
    and the visited words cover only occupied blocks. One traversal
    then pays the level loop's fixed per-level cost once for all
    streams. Returns flat CSR ``(members, indptr)`` with one row per
    requested sample: the streams' samples in stream order, ascending
    within a stream.

    ``forced`` and ``on_batch`` need exactly one stream; see
    :func:`bit_rr_replay`.
    """
    num_nodes = gather.num_nodes
    slot_parts, root_parts, row_parts = [], [], []
    bases, keys, thr_rows, block_counts = [], [], [], []
    layouts = []  # per stream with lanes: (slot -> sample, local blocks)
    num_blocks = num_rows = 0
    for stream in streams:
        roots = np.asarray(stream.roots, dtype=np.int64)
        # slot -> sample id (root-grouped packing)
        slot_order = stable_argsort(roots, num_nodes)
        if stream.samples is None:
            if not roots.size:
                continue
            # Every block holds lanes: fused slots are a shifted range.
            rows = slot_order
            blocks = np.arange((roots.size + 63) // 64, dtype=np.int64)
            fused = np.arange(roots.size, dtype=np.int64) + (num_blocks << 6)
            slot_roots = roots[slot_order]
        else:
            slot_of_sample = np.empty(roots.size, dtype=np.int64)
            slot_of_sample[slot_order] = np.arange(roots.size, dtype=np.int64)
            picked = slot_of_sample[np.asarray(stream.samples, dtype=np.int64)]
            if not picked.size:
                continue
            rows = np.argsort(picked, kind="stable")  # slot -> sample rank
            slots = picked[rows]
            local = slots >> 6
            occupied = np.empty(slots.size, dtype=bool)
            occupied[0] = True
            np.not_equal(local[1:], local[:-1], out=occupied[1:])
            blocks = local[occupied]
            fused = (
                (np.cumsum(occupied) + (num_blocks - 1)) << 6
            ) | (slots & 63)
            slot_roots = roots[slot_order[slots]]
        layouts.append((slot_order, blocks))
        slot_parts.append(fused)
        root_parts.append(slot_roots)
        row_parts.append(rows + num_rows if num_rows else rows)
        stride = gather.num_edges if stream.stride is None else stream.stride
        bases.append(blocks.astype(np.uint64) * (U64(stride) << U64(6)))
        keys.append(stream.key)
        thr_rows.append(stream.row)
        block_counts.append(blocks.size)
        num_blocks += blocks.size
        num_rows += fused.size
    if num_rows == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    if (forced is not None or on_batch is not None) and len(layouts) != 1:
        raise ValueError("forced words and on_batch need exactly one stream")

    slots = _joined(slot_parts)
    slot_roots = _joined(root_parts)
    slot_rows = _joined(row_parts)
    mat = _pass_material(
        gather, bases, keys, thr_rows, block_counts,
        # One whole shard: base == block * stride, no lookup needed.
        U64(stride) << U64(6)
        if len(streams) == 1 and streams[0].samples is None else None,
    )
    if int(slots[-1]) == num_rows - 1:
        row_of_slot = slot_rows  # slots are exactly 0 .. num_rows - 1
    else:
        row_of_slot = np.empty(num_blocks * 64, dtype=np.int64)
        row_of_slot[slots] = slot_rows

    slot_chunks: list[np.ndarray] = []
    node_chunks: list[np.ndarray] = []

    def collect(done: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat CSR of the rows of the first ``done`` slots."""
        every = done == slots.size
        rows = (
            np.arange(num_rows, dtype=np.int64) if every
            else np.sort(slot_rows[:done])
        )
        owner = row_of_slot[np.concatenate(slot_chunks)]
        order = stable_argsort(owner, num_rows - 1)
        members = np.concatenate(node_chunks)[order]
        counts = np.bincount(owner, minlength=num_rows)
        if not every:
            counts = counts[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return rows, members, indptr

    batches = _block_batches(num_blocks, max(num_nodes, gather.num_cols))
    bounds = np.searchsorted(
        slots, [lo * 64 for lo, _ in batches] + [num_blocks * 64]
    ).tolist()
    for (block_lo, block_hi), lo, hi in zip(batches, bounds, bounds[1:]):
        words = None
        if forced is not None:
            # The one stream's shard-local blocks of this batch.
            slot_order, local = layouts[0]
            local = local[block_lo:block_hi]
            first, last = int(local[0]), int(local[-1])
            words = forced(
                slot_order[first * 64:min((last + 1) * 64, slot_order.size)]
            )
            if local.size != last + 1 - first:
                words = words[local - first]
        chunks_before = len(node_chunks)
        _bit_rr_block_range(
            gather, mat, slots[lo:hi], slot_roots[lo:hi], slot_chunks,
            node_chunks, words,
        )
        if on_batch is not None:
            on_batch(
                sum(chunk.size for chunk in node_chunks[chunks_before:]),
                lambda done=hi: collect(done),
            )

    _rows, members, indptr = collect(slots.size)
    return members, indptr


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate, skipping the copy for a single part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _pass_material(
    gather: RRGather,
    bases: list[np.ndarray],
    keys: list[int],
    thr_rows: list[int],
    block_counts: list[int],
    stride: np.uint64 | None,
) -> _BlockMaterial:
    """Per-block material of a pass; scalar where its streams agree."""
    base = np.concatenate(bases)
    if len(set(keys)) == 1:
        key = U64(keys[0])
    else:
        key = np.repeat(np.array(keys, dtype=np.uint64), block_counts)
    if len(set(thr_rows)) == 1:
        node_off = thr_rows[0] * gather.num_nodes
    else:
        node_off = np.repeat(
            np.asarray(thr_rows, dtype=np.intp) * gather.num_nodes,
            block_counts,
        )
    return _BlockMaterial(
        gather.rev_ctr, gather.rev_thr, base, stride, key, node_off
    )


def bit_rr_replay(
    gather: RRGather,
    roots: np.ndarray,
    key: int,
    samples: np.ndarray | None = None,
    forced=None,
    on_batch=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay the RR sets of ``samples`` (ascending ids; all if None).

    The one-stream case of :func:`bit_rr_pass`. Slots are the
    root-sorted positions of the *whole* shard ``roots``, so every
    replayed sample keeps the ``(block, lane)`` world it was first
    drawn in; the lanes of samples left out are ghost lanes that never
    get a bit. Because coins are counter-based, a replayed set is
    bit-identical to the same row of a full run. Returns flat CSR
    ``(members, indptr)`` with one row per requested sample.

    With a gather built with ``edge_col``, ``forced(slot_samples)``
    supplies each block batch's forced-live words: ``slot_samples``
    holds the sample ids of the slots from the batch's first block to
    its last, in slot order (a ragged last block is short), and the
    result is ``(blocks, columns)`` uint64 whose row ``j`` bit ``b`` is
    the verdict for the ``b``-th slot of that range's block ``j``.
    ``on_batch(new_members, partial)`` runs after every block batch;
    ``partial()`` returns ``(rows, members, indptr)`` for the rows
    finished so far (row ``i`` is the ``i``-th requested sample; with
    ``samples=None`` that is sample ``i``), so a caller stopping the
    run can keep them.
    """
    return bit_rr_pass(
        gather, (RRStream(roots, key, samples),), forced, on_batch
    )


def bit_rr_members(
    num_nodes: int,
    num_edges: int,
    rev_indptr: np.ndarray,
    rev_edges: np.ndarray,
    src: np.ndarray,
    roots: np.ndarray,
    thr53: np.ndarray,
    key: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one RR set per root across 64-world blocks; flat CSR out.

    ``rev_indptr``/``rev_edges`` should be the :func:`live_csr`-filtered
    reverse adjacency. Returns ``(members, indptr)`` where sample ``i``
    of ``roots`` owns ``members[indptr[i]:indptr[i+1]]`` (root first,
    level order). Deterministic in ``(roots, thr53, key)`` alone —
    block batching and worker layout cannot change a bit.
    """
    gather = RRGather(
        num_nodes, num_edges, rev_indptr, rev_edges, src, thr53,
        int(roots.size),
    )
    return bit_rr_replay(gather, roots, key)


def _dense_coins(
    ebase: np.ndarray, thr: np.ndarray, cand: np.ndarray, key
) -> np.ndarray:
    """All-64-lane coin evaluation per row (dense frontiers).

    ``key`` is one stream key, or one per row.
    """
    if key.ndim:
        key = key[:, None]
    z = mix64((ebase[:, None] | _LANES64[None, :]) ^ key)
    succ = (z >> U64(11)) < thr[:, None]
    live = np.packbits(succ, axis=1, bitorder="little").view(np.uint64)
    return live.ravel() & cand


def _sparse_coins(
    ebase: np.ndarray, thr: np.ndarray, cand: np.ndarray, key: np.uint64
) -> np.ndarray:
    """Lowest-bit-stripping coin evaluation (sparse frontiers).

    Each pass evaluates one lane per row and drops exhausted rows, so
    total hash work equals the number of active (row, lane) pairs.
    """
    live = np.zeros(cand.size, dtype=np.uint64)
    active = cand
    rows = None
    eb = ebase
    th = thr
    while True:
        low = active & (~active + _ONE)
        lane = np.bitwise_count(low - _ONE).astype(np.uint64)
        z = mix64((eb | lane) ^ key)
        succ = (z >> U64(11)) < th
        contribution = low * succ.astype(np.uint64)
        if rows is None:
            live |= contribution
        else:
            live[rows] |= contribution
        active = active ^ low
        remaining = np.flatnonzero(active)
        if remaining.size == 0:
            return live
        active = active[remaining]
        eb = eb[remaining]
        th = th[remaining]
        rows = remaining if rows is None else rows[remaining]


def bit_cascade_counts(
    num_nodes: int,
    num_edges: int,
    fwd_indptr: np.ndarray,
    fwd_edges: np.ndarray,
    dst: np.ndarray,
    seed_arr: np.ndarray,
    num_samples: int,
    target_arr: np.ndarray,
    thr53: np.ndarray,
    key: int,
) -> np.ndarray:
    """IC cascades across 64-world blocks; per-sample target popcounts.

    All worlds of a block share the seed set, so frontier lane masks
    stay dense and each (node, block) row advances 64 cascades per OR.
    Target accounting unpacks the final lane masks over target rows and
    popcount-sums per lane. Ghost lanes of the ragged tail block start
    inactive and stay inactive.
    """
    if num_samples <= 0 or seed_arr.size == 0:
        return np.zeros(max(num_samples, 0), dtype=np.int64)
    key = U64(key)
    n64 = np.int64(num_nodes)
    m64 = np.int64(num_edges)
    n = int(num_nodes)
    num_blocks = (num_samples + 63) // 64

    counts = np.empty(num_samples, dtype=np.int64)
    for block_lo, block_hi in _block_batches(num_blocks, num_nodes):
        blocks_here = block_hi - block_lo
        visited = np.zeros(blocks_here * n, dtype=np.uint64)
        block_masks = np.full(blocks_here, _FULL, dtype=np.uint64)
        tail = num_samples - (num_blocks - 1) * 64
        if block_hi == num_blocks and tail < 64:
            block_masks[-1] = (_ONE << U64(tail)) - _ONE
        local = np.arange(blocks_here, dtype=np.int64)
        frontier_key = (local[:, None] * n64 + seed_arr[None, :]).ravel()
        frontier_mask = np.repeat(block_masks, seed_arr.size)
        visited[frontier_key] = frontier_mask
        frontier_node = frontier_key % n64
        frontier_block = frontier_key // n64
        while frontier_node.size:
            edge_start = fwd_indptr[frontier_node]
            degrees = fwd_indptr[frontier_node + 1] - edge_start
            total = int(degrees.sum())
            if total == 0:
                break
            cumulative = np.cumsum(degrees)
            positions = np.arange(total, dtype=np.int64) + np.repeat(
                edge_start - (cumulative - degrees), degrees
            )
            eids = fwd_edges[positions]
            edge_block = np.repeat(frontier_block, degrees)
            edge_mask = np.repeat(frontier_mask, degrees)
            child = dst[eids]
            child_key = edge_block * n64 + child
            cand = edge_mask & ~visited[child_key]
            keep = cand != 0
            if not keep.all():
                eids = eids[keep]
                cand = cand[keep]
                edge_block = edge_block[keep]
                child = child[keep]
            if eids.size == 0:
                break
            # Coin counters use the *global* block id so batching over
            # block ranges cannot change any world's coins.
            ebase = (
                (edge_block + block_lo) * m64 + eids
            ).astype(np.uint64) << U64(6)
            thr = thr53[eids]
            if float(np.bitwise_count(cand).mean()) >= DENSE_LANE_THRESHOLD:
                live = _dense_coins(ebase, thr, cand, key)
            else:
                live = _sparse_coins(ebase, thr, cand, key)
            alive = live != 0
            if not alive.any():
                break
            if not alive.all():
                edge_block = edge_block[alive]
                child = child[alive]
                live = live[alive]
            if num_nodes <= 32767 and blocks_here <= 32767:
                o1 = np.argsort(child.astype(np.int16), kind="stable")
                o2 = np.argsort(
                    edge_block[o1].astype(np.int16), kind="stable"
                )
                order = o1[o2]
            else:
                order = np.argsort(edge_block * n64 + child)
            sorted_key = (edge_block * n64 + child)[order]
            group = _group_starts(sorted_key)
            new_mask = np.bitwise_or.reduceat(live[order], group)
            new_key = sorted_key[group]
            new_mask &= ~visited[new_key]
            fresh = new_mask != 0
            if not fresh.all():
                new_key = new_key[fresh]
                new_mask = new_mask[fresh]
            if new_key.size == 0:
                break
            visited[new_key] |= new_mask
            frontier_key = new_key
            frontier_mask = new_mask
            frontier_node = frontier_key % n64
            frontier_block = frontier_key // n64
        # Popcount accounting: lane b of block k is sample k*64+b.
        target_masks = np.ascontiguousarray(
            visited.reshape(blocks_here, n)[:, target_arr]
        )
        bits = np.unpackbits(
            target_masks.reshape(-1)[:, None].view(np.uint8),
            axis=1,
            bitorder="little",
        ).reshape(blocks_here, target_arr.size, 64)
        lane_counts = bits.sum(axis=1, dtype=np.int64).reshape(-1)
        lo = block_lo * 64
        hi = min(block_hi * 64, num_samples)
        counts[lo:hi] = lane_counts[: hi - lo]
    return counts


# ----------------------------------------------------------------------
# Graph-level fronts (what the sampling engine calls per shard)
# ----------------------------------------------------------------------
def bitparallel_rr_members(
    graph,
    roots: np.ndarray,
    edge_probs: np.ndarray,
    key: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one RR set per root with the bit-parallel world kernel.

    Returns flat CSR ``(members, indptr)``: ``members[indptr[i]:
    indptr[i+1]]`` is sample ``i``'s RR set, root first. The coins come
    from the counter-based stream keyed by ``key``, so the result is
    deterministic in ``(roots, edge_probs, key)`` alone, with no
    generator state to thread.

    ``graph`` may be a :class:`~repro.graphs.tag_graph.TagGraph` or a
    :class:`~repro.engine.shared_csr.CSRGraphView`.
    """
    roots = np.asarray(roots, dtype=np.int64)
    check_node_array(roots, graph.num_nodes,
                     context="bitparallel_rr_members")
    with kernel_timer("kernel.bitworld_rr"):
        gather = RRGather.of_probabilities(graph, [edge_probs])
        return bit_rr_replay(gather, roots, key)


def bitparallel_cascade_counts(
    graph,
    seeds: np.ndarray,
    edge_probs: np.ndarray,
    num_samples: int,
    target_arr: np.ndarray,
    key: int,
) -> np.ndarray:
    """Run ``num_samples`` IC cascades bit-parallel; count targets each.

    Returns an int array of length ``num_samples`` with the number of
    activated targets per cascade. Cascade ``i`` lives in lane
    ``i % 64`` of world block ``i // 64`` and the coin for edge ``e``
    in that world is a pure function of ``(key, i, e)``.
    """
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    check_node_array(seeds, graph.num_nodes,
                     context="bitparallel_cascade_counts")
    target_arr = np.asarray(target_arr, dtype=np.int64)
    if seeds.size == 0 or num_samples <= 0:
        return np.zeros(max(num_samples, 0), dtype=np.int64)
    fwd_indptr, fwd_edges = graph.forward_csr()
    with kernel_timer("kernel.bitworld_cascade"):
        thr53 = coin_thresholds(edge_probs)
        live_indptr, live_edges = live_csr(fwd_indptr, fwd_edges, edge_probs)
        return bit_cascade_counts(
            graph.num_nodes, graph.num_edges, live_indptr, live_edges,
            graph.dst, seeds, num_samples, target_arr, thr53, key,
        )
