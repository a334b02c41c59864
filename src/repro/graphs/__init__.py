"""Tagged uncertain graph substrate.

The central type is :class:`TagGraph`: a directed graph whose edges carry
*conditional* influence probabilities ``P(e | c)`` per tag ``c``, exactly
as in the paper's problem model (Section 2.1). Everything else in the
library — diffusion simulation, reverse sketching, path enumeration —
operates on this structure.
"""

from repro.graphs.aggregation import (
    TopicModel,
    independent_aggregation,
    topic_aggregation,
)
from repro.graphs.builders import (
    TagGraphBuilder,
    graph_from_columns,
    graph_from_quadruples,
)
from repro.graphs.io import load_tag_graph, save_tag_graph
from repro.graphs.mutable import (
    EdgeAdd,
    EdgeRemove,
    GraphEdit,
    MutableTagGraph,
    TagSet,
    TagUnset,
    edit_from_dict,
    edits_from_dicts,
)
from repro.graphs.stats import GraphStats, graph_stats
from repro.graphs.tag_graph import TagGraph
from repro.graphs.views import induced_subgraph, local_region_nodes

__all__ = [
    "EdgeAdd",
    "EdgeRemove",
    "GraphEdit",
    "GraphStats",
    "MutableTagGraph",
    "TagGraph",
    "TagGraphBuilder",
    "TagSet",
    "TagUnset",
    "TopicModel",
    "edit_from_dict",
    "edits_from_dicts",
    "graph_from_columns",
    "graph_from_quadruples",
    "graph_stats",
    "independent_aggregation",
    "induced_subgraph",
    "load_tag_graph",
    "local_region_nodes",
    "save_tag_graph",
    "topic_aggregation",
]
