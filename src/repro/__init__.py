"""repro — joint seed & tag selection for targeted influence maximization.

A from-scratch Python reproduction of *"Finding Seeds and Relevant Tags
Jointly: For Targeted Influence Maximization in Social Networks"*
(Xiangyu Ke, Arijit Khan, Gao Cong; SIGMOD 2018).

Quickstart
----------
>>> from repro import datasets, JointQuery, jointly_select
>>> data = datasets.yelp(scale=0.2)
>>> targets = datasets.community_targets(data, "vegas", size=50, rng=0)
>>> result = jointly_select(
...     data.graph, JointQuery(targets, k=5, r=5), rng=0
... )  # doctest: +SKIP
>>> result.seeds, result.tags  # doctest: +SKIP

Package map
-----------
``repro.graphs``
    The tagged uncertain graph substrate.
``repro.diffusion``
    IC cascades, Monte-Carlo and exact spread estimation.
``repro.sketch``
    Targeted reverse sketching (TRS) with the Theorem 5 guarantee.
``repro.index``
    Per-tag possible-world indexing: I-TRS, L-TRS, LL-TRS.
``repro.engine``
    Bit-parallel sampling substrate with optional multi-process
    fan-out (``SamplingEngine``, ``RRCollection``).
``repro.seeds`` / ``repro.tags``
    Seed finding and tag finding (batch-paths vs individual-paths).
``repro.core``
    The joint iterative framework (Algorithm 2) and the baseline greedy.
``repro.datasets``
    Synthetic analogues of the paper's four evaluation networks.
``repro.serve``
    Concurrent campaign serving: a thread-safe ``CampaignServer``
    answering many queries over one graph with single-flight,
    byte-accounted cross-query asset reuse (RR sketches, warm results,
    frozen indexes) — served answers stay bit-identical to direct
    library calls.
"""

from repro import analysis, datasets
from repro.core.baseline import BaselineConfig, baseline_greedy
from repro.core.joint import JointConfig, jointly_select
from repro.core.problem import HistoryEntry, JointQuery, JointResult
from repro.core.session import CampaignSession
from repro.diffusion.monte_carlo import estimate_spread, estimate_spread_fraction
from repro.engine.parallel import SamplingEngine
from repro.engine.rr_storage import RRCollection
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineRejectedError,
    EstimationError,
    GraphConstructionError,
    InvalidQueryError,
    QueryRejectedError,
    QueryShedError,
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.graphs.builders import (
    TagGraphBuilder,
    graph_from_columns,
    graph_from_quadruples,
)
from repro.graphs.io import load_tag_graph, save_tag_graph
from repro.graphs.tag_graph import TagGraph
from repro.seeds.api import SeedSelection, find_seeds
from repro.serve import CampaignServer, ServeResponse
from repro.sketch.theta import SketchConfig
from repro.tags.api import TagSelection, find_tags
from repro.tags.paths import TagSelectionConfig

__version__ = "1.0.0"

__all__ = [
    "BaselineConfig",
    "CampaignServer",
    "CampaignSession",
    "CircuitOpenError",
    "ConfigurationError",
    "DeadlineRejectedError",
    "EstimationError",
    "GraphConstructionError",
    "HistoryEntry",
    "InvalidQueryError",
    "JointConfig",
    "JointQuery",
    "JointResult",
    "QueryRejectedError",
    "QueryShedError",
    "RRCollection",
    "ReproError",
    "SamplingEngine",
    "SeedSelection",
    "ServeResponse",
    "ServerClosedError",
    "ServerOverloadedError",
    "SketchConfig",
    "TagGraph",
    "TagGraphBuilder",
    "TagSelection",
    "TagSelectionConfig",
    "analysis",
    "baseline_greedy",
    "datasets",
    "estimate_spread",
    "estimate_spread_fraction",
    "find_seeds",
    "find_tags",
    "graph_from_columns",
    "graph_from_quadruples",
    "jointly_select",
    "load_tag_graph",
    "save_tag_graph",
    "__version__",
]
