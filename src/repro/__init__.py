"""repro — Distinct Shortest Walk Enumeration for RPQs.

A from-scratch Python implementation of

    Claire David, Nadime Francis, Victor Marsault.
    *Distinct Shortest Walk Enumeration for RPQs.*  PODS 2024.
    arXiv:2312.05505.

Given a multi-labeled multi-edge graph database, two vertices and a
regular path query, enumerate **all shortest matching walks, each
exactly once**, with O(|D|×|A|) preprocessing and O(λ×|A|) delay.

Quickstart — the fluent ``repro.api`` façade::

    from repro import Database, GraphBuilder

    b = GraphBuilder()
    b.add_edge("Alix", "Dan", ["h", "s"])
    b.add_edge("Dan", "Bob", ["h"])
    db = Database(b.build())

    for row in db.query("h* s (h | s)*").from_("Alix").to("Bob"):
        print(row.walk.describe())

Every query goes through :meth:`Database.query`: the CLI, the JSONL
:class:`QueryService` and the ``repro serve`` workers all build on it.
The engine classes (:class:`DistinctShortestWalks`,
:class:`DistinctCheapestWalks`, :class:`MultiTargetShortestWalks`) are
the uncached layer underneath; :func:`regex_to_nfa` compiles an
expression to the automaton they take.

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
reproduction of the paper's claims.
"""

from repro.api import Cursor, Database, Query, ResultSet, Row

from repro.automata import (
    ANY,
    EPSILON,
    NFA,
    parse_rpq,
    regex_to_nfa,
    thompson_nfa,
)
from repro.core import (
    DistinctCheapestWalks,
    DistinctShortestWalks,
    MultiTargetShortestWalks,
    Walk,
    count_distinct_shortest,
    count_shortest_product_paths,
    count_total_multiplicity,
)
from repro.exceptions import (
    AutomatonError,
    CostError,
    GraphError,
    PatternSyntaxError,
    QueryError,
    RegexSyntaxError,
    ReproError,
)
from repro.graph import (
    Graph,
    GraphBuilder,
    LabelRule,
    PropertyGraph,
    project,
)
from repro.live import LiveGraph, MutationBatch
from repro.query import PathPattern, analyze, parse_pattern
from repro.service import QueryRequest, QueryResponse, QueryService

__version__ = "1.0.0"

__all__ = [
    "ANY",
    "AutomatonError",
    "CostError",
    "Cursor",
    "Database",
    "DistinctCheapestWalks",
    "DistinctShortestWalks",
    "EPSILON",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "LabelRule",
    "LiveGraph",
    "MultiTargetShortestWalks",
    "MutationBatch",
    "NFA",
    "PathPattern",
    "PatternSyntaxError",
    "PropertyGraph",
    "Query",
    "QueryError",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ResultSet",
    "Row",
    "RegexSyntaxError",
    "ReproError",
    "Walk",
    "analyze",
    "count_distinct_shortest",
    "count_shortest_product_paths",
    "count_total_multiplicity",
    "parse_pattern",
    "parse_rpq",
    "project",
    "regex_to_nfa",
    "thompson_nfa",
]
