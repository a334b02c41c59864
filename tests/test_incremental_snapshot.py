"""Incremental snapshot materialization and all-tags-at-once validation.

:meth:`MutableTagGraph.snapshot` rebuilds only the tags edited since the
previous materialization and shares every other tag's arrays by
reference. The property here: after random edit sequences — including
a ``tag_unset`` run that empties a tag out of the vocabulary and a
``compact()`` — the current snapshot equals a ``TagGraph`` built from
scratch out of a plain-dict model of the edits, at every epoch, and so
does the replay path ``snapshot(epoch)`` for every retained epoch.

``TagGraph`` validates all tags in one vectorized pass and falls back
to the per-tag checks only on failure, so the error still names the
offending tag (the first in sorted order when several are bad).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphConstructionError
from repro.graphs import (
    EdgeAdd,
    EdgeRemove,
    MutableTagGraph,
    TagGraph,
    TagSet,
    TagUnset,
)

TAGS = ("a", "b", "c", "d")


class Model:
    """Plain-dict mirror of a mutable graph: the from-scratch oracle."""

    def __init__(self, n: int, rng: np.random.Generator, m: int) -> None:
        self.n = n
        self.src: list[int] = []
        self.dst: list[int] = []
        self.entries: dict[str, dict[int, float]] = {t: {} for t in TAGS}
        self.removed: set[int] = set()
        for _ in range(m):
            self.src.append(int(rng.integers(n)))
            self.dst.append(int(rng.integers(n)))
            eid = len(self.src) - 1
            for tag in TAGS:
                if rng.random() < 0.5:
                    self.entries[tag][eid] = float(rng.uniform(0.05, 1.0))

    def graph(self) -> TagGraph:
        return TagGraph(self.n, self.src, self.dst, {
            tag: (np.array(sorted(e), dtype=np.int64),
                  np.array([e[i] for i in sorted(e)], dtype=np.float64))
            for tag, e in self.entries.items() if e
        })

    def batch(self, rng: np.random.Generator) -> list:
        """A valid random batch, mirrored into the model as it goes."""
        edits = []
        live = [e for e in range(len(self.src)) if e not in self.removed]
        for _ in range(int(rng.integers(1, 5))):
            roll = rng.random()
            if roll < 0.2 or not live:
                u, v = (int(x) for x in rng.integers(0, self.n, 2))
                tag = str(rng.choice(TAGS))
                prob = float(rng.uniform(0.05, 1.0))
                edits.append(EdgeAdd(src=u, dst=v, tag_probs={tag: prob}))
                self.src.append(u)
                self.dst.append(v)
                self.entries[tag][len(self.src) - 1] = prob
                live.append(len(self.src) - 1)
            elif roll < 0.35:
                eid = int(rng.choice(live))
                edits.append(EdgeRemove(edge_id=eid))
                live.remove(eid)
                self.removed.add(eid)
                for entry in self.entries.values():
                    entry.pop(eid, None)
            elif roll < 0.55:
                tag = str(rng.choice(TAGS))
                present = sorted(self.entries[tag])
                if not present:
                    continue
                eid = int(rng.choice(present))
                edits.append(TagUnset(edge_id=eid, tag=tag))
                del self.entries[tag][eid]
            else:
                eid = int(rng.choice(live))
                tag = str(rng.choice(TAGS))
                prob = float(rng.uniform(0.05, 1.0))
                edits.append(TagSet(edge_id=eid, tag=tag, prob=prob))
                self.entries[tag][eid] = prob
        return edits

    def empty_tag(self, tag: str) -> list:
        """Unset every entry of ``tag``: it leaves the vocabulary."""
        edits = [
            TagUnset(edge_id=e, tag=tag) for e in sorted(self.entries[tag])
        ]
        self.entries[tag].clear()
        return edits


def assert_same_graph(got: TagGraph, want: TagGraph) -> None:
    """Exact equality: endpoints, vocabulary, per-tag ids and probs."""
    assert got.num_nodes == want.num_nodes
    np.testing.assert_array_equal(got.src, want.src)
    np.testing.assert_array_equal(got.dst, want.dst)
    assert got.tags == want.tags
    for tag in want.tags:
        g_ids, g_ps = got.tag_edges(tag)
        w_ids, w_ps = want.tag_edges(tag)
        np.testing.assert_array_equal(g_ids, w_ids)
        np.testing.assert_array_equal(g_ps, w_ps)
    for name in ("reverse_csr", "forward_csr"):
        for g_arr, w_arr in zip(getattr(got, name)(), getattr(want, name)()):
            np.testing.assert_array_equal(g_arr, w_arr)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batches=st.integers(3, 10),
    empty_at=st.integers(0, 9),
    compact_at=st.integers(0, 9),
)
def test_snapshot_equals_from_scratch_at_every_epoch(
    seed, batches, empty_at, compact_at
):
    rng = np.random.default_rng(seed)
    model = Model(int(rng.integers(3, 25)), rng, int(rng.integers(1, 40)))
    mutable = MutableTagGraph(model.graph())
    retained: dict[int, TagGraph] = {mutable.epoch: model.graph()}
    for step in range(batches):
        if step == empty_at % batches:
            tag = next((t for t in TAGS if model.entries[t]), None)
            if tag is not None:
                mutable.apply(model.empty_tag(tag))
                assert tag not in mutable.snapshot().tags
        edits = model.batch(rng)
        if edits:
            previous = mutable.snapshot()
            mutable.apply(edits)
            snap = mutable.snapshot()
            if all(isinstance(e, (TagSet, TagUnset)) for e in edits):
                touched = {e.tag for e in edits}
                for tag in set(previous.tags) & set(snap.tags) - touched:
                    # Untouched tags share the previous arrays outright.
                    assert snap.tag_edges(tag)[0].base is (
                        previous.tag_edges(tag)[0].base
                    )
        want = model.graph()
        assert_same_graph(mutable.snapshot(), want)
        retained[mutable.epoch] = want
        if step == compact_at % batches:
            mutable.compact()
            retained = {mutable.epoch: want}
    for epoch, want in retained.items():
        assert_same_graph(mutable.snapshot(epoch), want)


def test_emptied_tag_returns_when_set_again():
    graph = TagGraph(3, [0, 1], [1, 2], {"a": ([0], [0.5]), "b": ([1], [0.4])})
    mutable = MutableTagGraph(graph)
    mutable.apply([TagUnset(edge_id=0, tag="a")])
    assert mutable.snapshot().tags == ("b",)
    mutable.apply([TagSet(edge_id=1, tag="a", prob=0.25)])
    snap = mutable.snapshot()
    assert snap.tags == ("a", "b")
    assert snap.tag_edges("a")[0].tolist() == [1]
    assert snap.tag_edges("b")[0].base is graph.tag_edges("b")[0].base


# ----------------------------------------------------------------------
# Vectorized validation keeps per-tag error messages
# ----------------------------------------------------------------------
GOOD = {"ok": ([0, 1], [0.5, 0.5]), "zz": ([2], [1.0])}


@pytest.mark.parametrize("bad, message", [
    (([1, 1], [0.2, 0.3]), "duplicate edge ids"),
    (([3], [0.2]), "edge ids outside [0, 3)"),
    (([-1], [0.2]), "edge ids outside [0, 3)"),
    (([0], [0.0]), "probabilities must lie in (0, 1]"),
    (([0], [1.5]), "probabilities must lie in (0, 1]"),
    (([0, 1], [0.2]), "must be 1-D and equal length"),
    (([[0, 1]], [[0.2, 0.3]]), "must be 1-D and equal length"),
], ids=["duplicate", "above-range", "negative", "prob-zero",
        "prob-above-one", "shape-mismatch", "two-dimensional"])
def test_invalid_tag_is_named(bad, message):
    with pytest.raises(GraphConstructionError) as exc:
        TagGraph(3, [0, 1, 2], [1, 2, 0], {**GOOD, "mid": bad})
    assert str(exc.value).startswith("tag 'mid': ")
    assert message in str(exc.value)


def test_first_bad_tag_in_sorted_order_is_named():
    with pytest.raises(GraphConstructionError, match="tag 'b': duplicate"):
        TagGraph(3, [0, 1, 2], [1, 2, 0], {
            "c": ([0], [2.0]),  # also bad, but sorts after "b"
            "b": ([2, 2], [0.1, 0.1]),
            "a": ([0], [0.3]),
        })


def test_unsorted_ids_and_shared_edges_are_valid():
    graph = TagGraph(3, [0, 1, 2], [1, 2, 0], {
        "a": ([2, 0, 1], [0.1, 0.2, 1.0]),  # unsorted: takes the sort path
        "b": ([0, 2], [0.3, 0.4]),  # same edge ids as tag "a"
        "c": ([], []),
    })
    assert graph.tags == ("a", "b", "c")
    assert graph.tag_edges("a")[0].tolist() == [2, 0, 1]
