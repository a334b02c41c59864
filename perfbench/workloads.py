"""The three benchmark workloads: inputs, set-up, and correctness oracles.

Every workload turns ``(seed, seconds)`` into a fixed list of wire
requests before anything is timed, so one seed always sends the same
queries. The op count scales with ``seconds`` through a per-workload
rate measured on a 2-core x86 container, so a run measures about
``seconds`` of work; the work is fixed by the arguments, not by a clock.

Requests go through the system's public entry point,
``repro.serve.protocol.handle_line``, as JSON lines. Its target is an
in-process ``CampaignServer`` (``tag-select``, ``seed-serve``) or a
``ShardedCampaignService`` router (``edit-fleet``), which the protocol
hands the request to through ``route_request``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from common import WORK


@dataclass
class Op:
    request: dict
    check: bool = False  # served answer is compared with a direct call


@dataclass
class Answer:
    """A selection whose targeted spread feeds ``quality_frac``."""

    graph: object
    seeds: tuple
    targets: tuple
    tags: tuple
    weight: int = 1


# ----------------------------------------------------------------------
# Input helpers (pure functions of the graph and an rng)
# ----------------------------------------------------------------------


def target_ball(graph, root: int, size: int) -> list[int]:
    """``size`` nodes around ``root`` by undirected BFS (a local campaign)."""
    seen = [int(root)]
    member = {int(root)}
    i = 0
    while len(seen) < size and i < len(seen):
        node = seen[i]
        i += 1
        around = np.concatenate(
            [graph.out_neighbors(node), graph.in_neighbors(node)]
        )
        for nb in around.tolist():
            if nb not in member and len(seen) < size:
                member.add(nb)
                seen.append(nb)
    return sorted(seen)


def upstream_seeds(graph, rng, targets, k: int) -> list[int]:
    """``k`` non-target nodes with an edge into the target set."""
    tset = set(targets)
    cand = set()
    for t in targets:
        cand.update(graph.in_neighbors(t).tolist())
    pool = sorted(cand - tset)
    if len(pool) < k:
        pool = sorted(set(range(graph.num_nodes)) - tset)
    return sorted(int(x) for x in rng.choice(pool, size=k, replace=False))


def zipf_pick(rng, size: int) -> int:
    """An index into a pool of ``size`` items, P(i) ∝ (i + 1)^-0.5.

    A flat Zipf exponent spreads repeats over many campaigns, so the
    hit latency is an average over campaigns rather than the cost of
    whichever one a seed happens to make most popular.
    """
    weights = np.arange(1, size + 1, dtype=float) ** -0.5
    return int(rng.choice(size, p=weights / weights.sum()))


def _save_graph(name: str, graph) -> str:
    from repro.graphs.io import save_tag_graph

    WORK.mkdir(exist_ok=True)
    path = WORK / f"{name}-{id(graph):x}.tsv"
    save_tag_graph(graph, path)
    return str(path)


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------


class Workload:
    """Fixed op list plus the system handle it is sent to.

    Subclasses set the dataset, build the op list in ``make_ops`` and
    the handle in ``open``; :meth:`setup` loads the graph the way
    ``repro serve graph.tsv`` does and runs the warm-up calls.
    """

    name = ""
    dataset = ("yelp", 0.5)
    ops_per_second = 1.0
    #: Op class whose median is reported as ``heavy_p50_cpu_ms``.
    heavy_class = ""
    #: Read ops (edits excluded) set ``p50_cpu_ms`` / ``p90_cpu_ms``.
    write_ops = ("apply_edits",)

    def __init__(self, seed: int, seconds: int) -> None:
        from repro import datasets

        factory = getattr(datasets, self.dataset[0])
        self.base = factory(scale=self.dataset[1]).graph
        self.graph_path = _save_graph(self.name, self.base)
        self.graph = None
        self.handle = None
        self.num_ops = max(100, int(round(self.ops_per_second * seconds)))
        self.ops = self.make_ops(np.random.default_rng([int(seed), 7]))
        # Warm-ups are the same for every seed, so set-up work is too.
        self.warmups = self.make_warmups(np.random.default_rng(8))

    # -- to override ----------------------------------------------------
    def make_ops(self, rng) -> list[Op]:
        raise NotImplementedError

    def make_warmups(self, rng) -> list[dict]:
        raise NotImplementedError

    def open(self, graph):
        raise NotImplementedError

    def verify(self, replies: list[dict]) -> list[str]:
        raise NotImplementedError

    def answers(self, replies: list[dict]) -> list[Answer]:
        raise NotImplementedError

    # -- shared ---------------------------------------------------------
    def setup(self) -> None:
        from repro.graphs.io import load_tag_graph
        from repro.serve import protocol

        self.graph = load_tag_graph(self.graph_path)
        self.handle = self.open(self.graph)
        for request in self.warmups:
            reply = protocol.handle_line(self.handle, json.dumps(request))
            if reply.get("ok") is not True:
                raise RuntimeError(f"warm-up failed: {reply}")

    def worker_pids(self) -> list[int]:
        """Processes besides this one that serve the ops (fleet workers)."""
        return []

    def close(self) -> None:
        handle, self.handle = self.handle, None
        if handle is not None:
            handle.close()

    def cleanup(self) -> None:
        try:
            os.unlink(self.graph_path)
            WORK.rmdir()
        except OSError:
            pass


def _selection_answers(ops, replies, graph_of):
    """Group identical served selections so each is evaluated once."""
    grouped: dict[tuple, Answer] = {}
    for op, reply in zip(ops, replies):
        if reply.get("ok") is not True:
            continue
        req = op.request
        kind = req["op"]
        if kind == "find_seeds":
            seeds, tags = tuple(reply["seeds"]), tuple(req["tags"])
        elif kind == "find_tags":
            seeds, tags = tuple(req["seeds"]), tuple(reply["tags"])
        elif kind == "joint":
            seeds, tags = tuple(reply["seeds"]), tuple(reply["tags"])
        else:
            continue
        key = (seeds, tuple(req["targets"]), tags, reply.get("epoch", 0))
        if key in grouped:
            grouped[key].weight += 1
        else:
            grouped[key] = Answer(
                graph_of(reply), seeds, tuple(req["targets"]), tags
            )
    return list(grouped.values())


def _same(reply: dict, fields: dict) -> str | None:
    got = {k: reply.get(k) for k in fields}
    return None if got == fields else f"served {got} != direct {fields}"


# ----------------------------------------------------------------------
# tag-select: the paper's Algorithms 1 and 2, always cold
# ----------------------------------------------------------------------


class TagSelect(Workload):
    name = "tag-select"
    dataset = ("yelp", 0.5)
    ops_per_second = 6.0
    heavy_class = "joint:miss"
    targets_size = 25
    joint_every = 5  # every 5th op is Algorithm 2: 20% joint

    def config(self):
        from repro import SketchConfig, TagSelectionConfig
        from repro.core.joint import JointConfig

        # Sized so find_tags takes ~0.07 s and joint ~0.5 s on yelp-0.5:
        # each path sweep hits max_queue, which keeps per-query cost flat.
        # Exact enumeration stops at 10 edges (2^10 worlds): at the
        # default 14, about one query in a hundred enumerated 2^14 worlds
        # for seconds, and the run's throughput swung with the seed.
        return JointConfig(
            max_rounds=2,
            sketch=SketchConfig(
                pilot_samples=100, theta_min=300, theta_max=1000
            ),
            tag_config=TagSelectionConfig(
                per_pair_paths=3, max_path_targets=20, max_queue=1500,
                exact_edge_limit=10,
            ),
        )

    def _query(self, rng, root: int, index: int, seed: int) -> dict:
        targets = target_ball(self.base, root, self.targets_size)
        if index % self.joint_every == self.joint_every - 1:
            return {"op": "joint", "targets": targets, "k": 3, "r": 2,
                    "seed": seed}
        return {
            "op": "find_tags",
            "seeds": upstream_seeds(self.base, rng, targets, 3),
            "targets": targets,
            "r": 1 + index % 3,
            "seed": seed,
        }

    def make_ops(self, rng):
        # Catalog entry i fixes a target ball, the op (every 5th entry
        # runs Algorithm 2), r and the seed set, the same for every
        # seed; the seed draws the order and each query's RNG seed. Cost
        # and quality then vary with the algorithms' choices, not with a
        # seed's luck in drawing easy or hard neighbourhoods.
        catalog = np.random.default_rng(9).permutation(self.base.num_nodes)
        ops = []
        for i in rng.permutation(self.num_ops).tolist():
            root = int(catalog[i % catalog.size])
            request = self._query(np.random.default_rng([9, i]), root, i,
                                  int(rng.integers(2**31)))
            ops.append(Op(request, check=i % 20 in (0, 19)))
        return ops

    def make_warmups(self, rng):
        root = int(rng.integers(self.base.num_nodes))
        return [self._query(rng, root, i, seed=10**6 + i) for i in (0, 4)]

    def open(self, graph):
        from repro.serve import CampaignServer

        return CampaignServer(graph, config=self.config(), pool_size=1)

    def verify(self, replies):
        from repro import find_tags
        from repro.core.joint import jointly_select
        from repro.core.problem import JointQuery

        cfg = self.config()
        problems = []
        for op, reply in zip(self.ops, replies):
            if not op.check or reply.get("ok") is not True:
                continue
            q = op.request
            if q["op"] == "find_tags":
                direct = find_tags(
                    self.graph, sorted(set(q["seeds"])), q["targets"], q["r"],
                    config=cfg.tag_config, rng=q["seed"],
                )
                want = {"tags": list(direct.tags),
                        "spread": float(direct.estimated_spread)}
            else:
                direct = jointly_select(
                    self.graph, JointQuery(tuple(q["targets"]), k=q["k"],
                                           r=q["r"]),
                    cfg, rng=q["seed"],
                )
                want = {"seeds": [int(s) for s in direct.seeds],
                        "tags": list(direct.tags),
                        "spread": float(direct.spread),
                        "rounds": int(direct.rounds)}
            bad = _same(reply, want)
            if bad:
                problems.append(f"{q['op']} seed={q['seed']}: {bad}")
        return problems

    def answers(self, replies):
        return _selection_answers(self.ops, replies, lambda _r: self.graph)


# ----------------------------------------------------------------------
# seed-serve: cached TRS sketches under a Zipf-repeated campaign mix
# ----------------------------------------------------------------------


class SeedServe(Workload):
    name = "seed-serve"
    dataset = ("twitter", 1.0)
    ops_per_second = 100.0
    heavy_class = "find_seeds:miss"
    #: Of every 20 ops, 2 are spreads (10%) and 6 bring a new campaign
    #: or spread (a miss); the rest repeat a Zipf-chosen earlier one.
    spread_slots = frozenset({9, 19})
    new_slots = frozenset({0, 3, 6, 9, 12, 15})
    targets_size = 40
    k = 8

    def config(self):
        from repro.core.joint import JointConfig

        return JointConfig()

    def sampler(self):
        from repro import SamplingEngine

        return SamplingEngine(mode="bitparallel", workers=1)

    def _campaign(self, rng, index: int) -> dict:
        targets = target_ball(
            self.base, int(rng.integers(self.base.num_nodes)),
            self.targets_size,
        )
        tags = sorted(str(t) for t in rng.choice(
            self.base.tags, size=3, replace=False))
        return {"op": "find_seeds", "targets": targets, "tags": tags,
                "k": self.k, "engine": "trs", "seed": index}

    def _spread(self, rng, index: int) -> dict:
        camp = self._campaign(rng, index)
        return {"op": "spread",
                "seeds": upstream_seeds(self.base, rng, camp["targets"], 5),
                "targets": camp["targets"], "tags": camp["tags"],
                "num_samples": 1000, "seed": index}

    def make_ops(self, rng):
        # The op kind and new-versus-repeat follow a fixed 20-op cycle,
        # and the new campaigns and spreads come from a fixed catalog, so
        # every seed builds the same sketches in the same order; the
        # seed draws which earlier one each repeat sends. Miss cost and
        # cache size then do not depend on a seed's luck in drawing
        # large or small campaigns.
        catalog = np.random.default_rng(9)
        pools: dict = {"find_seeds": [], "spread": []}
        ops = []
        for i in range(self.num_ops):
            slot = i % 20
            kind = "spread" if slot in self.spread_slots else "find_seeds"
            pool = pools[kind]
            if slot in self.new_slots or not pool:
                make = self._spread if kind == "spread" else self._campaign
                pool.append(make(catalog, i))
                request = pool[-1]
            else:
                request = pool[zipf_pick(rng, len(pool))]
            ops.append(Op(dict(request), check=i % 25 == 0))
        return ops

    def make_warmups(self, rng):
        camp = self._campaign(rng, 10**6)
        spread = self._spread(rng, 10**6 + 1)
        return [camp, camp, spread, spread]  # miss then hit, per op

    def open(self, graph):
        from repro.serve import CampaignServer

        self._engine = self.sampler()
        return CampaignServer(graph, config=self.config(),
                              sampler=self._engine, pool_size=1)

    def close(self) -> None:
        super().close()
        engine = getattr(self, "_engine", None)
        if engine is not None:
            engine.close()

    def direct(self, graph, q: dict, sampler) -> dict:
        """The direct library call a served read must equal."""
        import repro
        from repro.serve import canonical_tags

        tags = list(canonical_tags(q["tags"]))
        if q["op"] == "find_seeds":
            sel = repro.find_seeds(
                graph, q["targets"], tags, q["k"], engine="trs",
                config=self.config().sketch, rng=q["seed"], sampler=sampler,
            )
            return {"seeds": [int(s) for s in sel.seeds],
                    "spread": float(sel.estimated_spread)}
        value = repro.estimate_spread(
            graph, sorted(set(q["seeds"])), q["targets"], tags,
            num_samples=q["num_samples"], rng=q["seed"], engine=sampler,
        )
        return {"spread": float(value)}

    def verify(self, replies):
        sampler = self.sampler()
        problems = []
        try:
            for op, reply in zip(self.ops, replies):
                if not op.check or reply.get("ok") is not True:
                    continue
                bad = _same(reply, self.direct(self.graph, op.request,
                                               sampler))
                if bad:
                    problems.append(f"{op.request['op']}: {bad}")
        finally:
            sampler.close()
        return problems

    def answers(self, replies):
        return _selection_answers(self.ops, replies, lambda _r: self.graph)


# ----------------------------------------------------------------------
# edit-fleet: the same reads through a mutable 1-worker fleet, plus edits
# ----------------------------------------------------------------------


class EditFleet(SeedServe):
    name = "edit-fleet"
    ops_per_second = 80.0
    heavy_class = "apply_edits:-"
    #: Reads cycle over a fixed catalog of resident campaigns, the same
    #: for every seed (the seed draws the read order and the edits), so
    #: every edit batch repairs the same sketches and reads stay hits.
    campaigns = 12
    reads_per_edit = 20
    edits_per_batch = 2
    remove_share = 0.3
    _epochs = None

    def make_ops(self, rng):
        catalog = np.random.default_rng(9)
        campaigns = [self._campaign(catalog, c)
                     for c in range(self.campaigns)]
        removed: set[int] = set()
        ops = []
        check = True  # the first read, and the first after each batch
        for i in range(self.num_ops):
            if i % (self.reads_per_edit + 1) == self.reads_per_edit:
                edits = self._edits(rng, campaigns, removed)
                ops.append(Op({"op": "apply_edits", "edits": edits}))
                check = True
                continue
            request = campaigns[int(rng.integers(len(campaigns)))]
            ops.append(Op(dict(request), check=check))
            check = False
        return ops

    def _edits(self, rng, campaigns, removed) -> list[dict]:
        """Edits on in-edges of a resident campaign's targets.

        Every RR set rooted at a target examines all of its in-edges, so
        an edit there dirties about θ/|T| sets of each sketch holding
        that target: a cost that varies little from edit to edit.
        """
        g = self.base
        edits = []
        while len(edits) < self.edits_per_batch:
            camp = campaigns[int(rng.integers(len(campaigns)))]
            target = int(rng.choice(camp["targets"]))
            eids = [e for e in g.in_edge_ids(target).tolist()
                    if e not in removed]
            if not eids:
                continue
            eid = int(rng.choice(eids))
            if rng.random() < self.remove_share:
                removed.add(eid)
                edits.append({"op": "edge_remove", "edge_id": eid})
            else:
                edits.append({"op": "tag_set", "edge_id": eid,
                              "tag": str(rng.choice(camp["tags"])),
                              "prob": round(float(rng.uniform(0.05, 0.3)), 4)})
        return edits

    def make_warmups(self, rng):
        # One read miss, one hit, and one edit batch. The warm-up edit
        # only sets tag probabilities, so no later edit can conflict with
        # it; the run's epochs start after it.
        camp = self._campaign(rng, 10**6)
        edge = next(int(e) for t in camp["targets"]
                    for e in self.base.in_edge_ids(t))
        edit = {"op": "tag_set", "edge_id": edge, "tag": camp["tags"][0],
                "prob": 0.1}
        return [camp, camp, {"op": "apply_edits", "edits": [edit]}]

    def _replayed(self):
        """A ``MutableTagGraph`` that has applied the warm-up edits."""
        from repro.graphs import MutableTagGraph, edits_from_dicts

        mutable = MutableTagGraph(self.graph)
        for request in self.warmups:
            if request["op"] == "apply_edits":
                mutable.apply(edits_from_dicts(request["edits"]))
        return mutable

    def config(self):
        from repro import SketchConfig
        from repro.core.joint import JointConfig

        # A smaller θ cap keeps each repaired sketch cheap, so a run
        # holds enough edit batches for a steady median.
        return JointConfig(sketch=SketchConfig(theta_max=5000))

    def spec(self):
        from repro.serve import WorkerSpec

        return WorkerSpec(config=self.config(), engine_mode="bitparallel",
                          pool_size=1, mutable=True,
                          repair_mode="bitparallel")

    def open(self, graph):
        from repro.serve import ShardedCampaignService

        # share_graph=False: the worker gets a pickled copy, so the run
        # writes nothing outside its checkout (no /dev/shm segments).
        return ShardedCampaignService(graph, workers=1, spec=self.spec(),
                                      share_graph=False)

    def worker_pids(self) -> list[int]:
        return [p for p in self.handle.worker_pids().values() if p]

    def close(self) -> None:
        Workload.close(self)

    def epochs(self) -> dict:
        """The graph at every epoch the measured phase served, by epoch."""
        from repro.graphs import edits_from_dicts

        if self._epochs is None:
            mutable = self._replayed()
            self._epochs = {mutable.epoch: mutable.snapshot()}
            for op in self.ops:
                if op.request["op"] == "apply_edits":
                    mutable.apply(edits_from_dicts(op.request["edits"]))
                    self._epochs[mutable.epoch] = mutable.snapshot()
        return self._epochs

    def verify(self, replies):
        """Each sampled read equals a cold in-process rebuild at its epoch."""
        from repro.graphs import edits_from_dicts
        from repro.serve import CampaignServer

        sampler = self.sampler()
        mutable = self._replayed()
        problems = []
        epoch = mutable.epoch
        try:
            for op, reply in zip(self.ops, replies):
                q = op.request
                if q["op"] == "apply_edits":
                    mutable.apply(edits_from_dicts(q["edits"]))
                    epoch += 1
                    if reply.get("ok") is True and reply["epoch"] != epoch:
                        problems.append(f"edit epoch {reply['epoch']} != "
                                        f"{epoch}")
                    continue
                if reply.get("ok") is True and reply.get("epoch") != epoch:
                    problems.append(f"read at epoch {reply.get('epoch')}, "
                                    f"expected {epoch}")
                if not op.check or reply.get("ok") is not True:
                    continue
                with CampaignServer(mutable, config=self.config(),
                                    sampler=sampler, pool_size=1,
                                    repair_mode="bitparallel") as cold:
                    want = cold.find_seeds(q["targets"], q["tags"], q["k"],
                                           engine="trs", seed=q["seed"])
                bad = _same(reply, {
                    "seeds": [int(s) for s in want.value.seeds],
                    "spread": float(want.value.estimated_spread),
                    "epoch": epoch,
                })
                if bad:
                    problems.append(f"epoch {epoch} find_seeds: {bad}")
        finally:
            sampler.close()
        return problems

    def answers(self, replies):
        graphs = self.epochs()
        return _selection_answers(
            self.ops, replies, lambda reply: graphs[reply["epoch"]]
        )


WORKLOADS = {w.name: w for w in (TagSelect, SeedServe, EditFleet)}
