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

Legacy entry points (kept as thin shims over the façade — prefer the
builder calls on the right for new code):

=====================================================  =====================================================
 old entry point                                        façade equivalent
=====================================================  =====================================================
``DistinctShortestWalks(g, q, s, t).enumerate()``      ``db.query(q).from_(s).to(t).run()``
``DistinctCheapestWalks(g, q, s, t).enumerate()``      ``db.query(q).cheapest().from_(s).to(t).run()``
``MultiTargetShortestWalks(g, q, s).walks_to(t)``      ``db.query(q).from_(s).to_all().run()``
``SimpleShortestWalks`` (simple-setting enumerator)    a baseline now: ``repro.baselines.SimpleShortestWalks``
``rpq(q).shortest_walks(g, s, t)``                     ``db.query(q).from_(s).to(t).run().walks()``
``rpq(q).shortest_walks_with_multiplicity(g, s, t)``   ``….with_multiplicity().run()``
``rpq(q).cheapest_walks(g, s, t)``                     ``….cheapest().run()``
``QueryService.execute(QueryRequest(q, s, t))``        ``db.query(q).from_(s).to(t).limit(n).cursor(c).run()``
``repro query GRAPH Q S T`` (CLI)                      routes through the façade internally
=====================================================  =====================================================

The engine classes remain fully supported as the *uncached* low-level
layer; the ``RPQ`` helpers, the batch :class:`QueryService` and the
CLI now delegate to :mod:`repro.api`, so they share one plan cache,
one annotation cache and one pagination/cursor model.

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
reproduction of the paper's claims.
"""

from repro.api import Cursor, Database, Query, ResultSet, Row

from repro.automata import (
    ANY,
    EPSILON,
    NFA,
    equivalent,
    glushkov_nfa,
    language_key,
    minimize,
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
    distinct_shortest_walks,
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
from repro.live import LiveGraph, MutationBatch, StandingQuery
from repro.query import RPQ, PathPattern, analyze, parse_pattern, rpq
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
    "RPQ",
    "ResultSet",
    "Row",
    "RegexSyntaxError",
    "ReproError",
    "StandingQuery",
    "Walk",
    "analyze",
    "count_distinct_shortest",
    "count_shortest_product_paths",
    "count_total_multiplicity",
    "distinct_shortest_walks",
    "equivalent",
    "glushkov_nfa",
    "language_key",
    "minimize",
    "parse_pattern",
    "parse_rpq",
    "project",
    "regex_to_nfa",
    "rpq",
    "thompson_nfa",
]
