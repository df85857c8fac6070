"""Graph-database substrate: multi-labeled multi-edge directed graphs.

This subpackage implements the paper's data model (Definition 3) with
the exact memory representation assumed by the complexity analysis
(Section 2.2): every vertex exposes its ``In``/``Out`` edge arrays and
degrees in O(1), and every edge exposes its source, target, label set
and ``TgtIdx`` — its position inside ``In(Tgt(e))`` — in O(1).

Public entry points:

* :class:`~repro.graph.database.Graph` — the immutable database;
* :class:`~repro.graph.builder.GraphBuilder` — ergonomic construction
  by vertex/label *names*;
* :mod:`repro.graph.generators` — synthetic databases for tests,
  examples and benchmarks;
* :mod:`repro.graph.io` — JSON and edge-list import and export;
* :mod:`repro.graph.segment` — the one binary layout of a graph, which
  shared memory publishes and WAL snapshots write to disk;
* :mod:`repro.graph.property_graph` — property graphs (edges with data
  values) and their projection to multi-labeled databases via named
  boolean predicates, the abstraction the paper's Section 1 describes.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.database import Graph
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_edge_list,
    load_json,
    load_property_graph_json,
    property_graph_from_dict,
    property_graph_to_dict,
    save_edge_list,
    save_json,
    save_property_graph_json,
)
from repro.graph.property_graph import (
    LabelRule,
    Projection,
    PropertyGraph,
    project,
    type_is,
)
from repro.graph.validate import validate_graph

__all__ = [
    "Graph",
    "GraphBuilder",
    "LabelRule",
    "Projection",
    "PropertyGraph",
    "graph_from_dict",
    "graph_to_dict",
    "load_edge_list",
    "load_json",
    "load_property_graph_json",
    "project",
    "property_graph_from_dict",
    "property_graph_to_dict",
    "save_edge_list",
    "save_json",
    "save_property_graph_json",
    "type_is",
    "validate_graph",
]
