"""``repro.service`` — a batched, caching RPQ serving layer.

The paper's pipeline (compile → ``Annotate`` → ``Trim`` → ``Enumerate``,
Figure 2) front-loads all the expensive work into per-(query, source)
structures that are *read-only at enumeration time* — exactly the shape
a serving layer wants.  :class:`QueryService` exploits that with two
caches and an in-order batch executor.

Architecture
------------

**Plan cache** (LRU, default 256 entries).  Key::

    (graph_name, graph_version, query_text, restriction)

Value: the query's automaton (:func:`repro.automata.regex_to_nfa`)
plus the graph-specific :class:`~repro.core.compile.CompiledQuery` —
i.e. the regex parse, Thompson construction, ε-elimination,
label-id re-keying and the dense/firing-label layouts, all paid once
per distinct query text per graph version.

**Annotation cache** (LRU, default 128 entries).  Key::

    (graph_name, graph_version, query_text, source_id, cheapest)

Value: a
:class:`~repro.core.multi_target.MultiTargetShortestWalks` — the
``Annotate`` of Section 5.3, run to the first asked target's BFS level
and deepened on demand (to exhaustion when every target is read), plus
its ``Trim`` product.  One entry answers requests for any target from
that source: λ_t and the start-state certificate of a target settled
in the levels done are read off the cached annotation in O(|F|), and
only the O(answers·λ·|A|) enumeration itself runs per request.

**Invalidation.**  Graphs are immutable objects; "mutation" is
re-registering a name via :meth:`QueryService.register_graph`, which
bumps the graph's integer version.  Both cache keys embed the version,
so stale entries can never be hit; they are additionally purged
eagerly (:meth:`~repro.service.cache.LRUCache.drop_where`) so they do
not occupy capacity until LRU eviction.

**Thread-safety.**  A batch runs in order, but callers' own threads
may share one service.  That rests on three guards:

1. the caches are lock-protected with *single-flight* misses — racing
   threads build a given plan/annotation exactly once
   (:meth:`~repro.service.cache.LRUCache.fetch`);
2. the graph's lazy CSR views and successor tuples are built once,
   under the lock of its :class:`~repro.graph.database.LabelIndex`,
   so concurrent first use is safe — and registration pre-warms them
   off the request path
   (:meth:`~repro.graph.database.Graph.warm_indexes`);
3. every enumeration reads the
   annotation's :class:`~repro.datastructures.packed.PackedCells`
   store, which a build for another target only appends to (single
   flight under the store's lock, a node's span published after its
   cells; a build of stored nodes takes no lock), and keeps
   its queue cursors private to its own generator — any number of
   requests share one cached instance.

**Pagination.**  ``limit``/``offset`` plus a resume ``cursor`` (the
previous page's ``next_cursor`` — the last walk's edge ids).  The
cursor seeks in O(λ) by the guided descent of the paper's
``NextOutput`` (Theorem 18: the DFS is re-positioned from the previous
output alone), once per page.  A request's ``mode`` field is accepted
and validated against :data:`~repro.api.query.MODES` but selects
nothing, so every mode name gives the same rows, order and cursors.

**Budgets.**  ``timeout_ms`` is checked between outputs; by Theorem 2
the overshoot past the deadline is one delay, O(λ·|A|).  A timed-out
response carries the partial page and a cursor to resume it.

**Where the machinery lives.**  Since the ``repro.api`` façade
landed, the registry, both caches and the execution path described
above are implemented in :class:`repro.api.Database` and shared with
every other entry point (the CLI, the ``repro serve`` workers);
:class:`QueryService` is the JSONL protocol adapter on top — request
parsing/validation, response rendering, the in-order batch
executor, the slow-query log and the service metrics (kept in a
:class:`repro.obs.Observability` bundle — see :mod:`repro.obs`).
"""

from repro.service.cache import CacheStats, LRUCache
from repro.service.requests import (
    MutationRequest,
    MutationResponse,
    QueryRequest,
    QueryResponse,
    RequestError,
    read_requests_jsonl,
)
from repro.service.service import QueryService, ServiceError

__all__ = [
    "CacheStats",
    "LRUCache",
    "MutationRequest",
    "MutationResponse",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "RequestError",
    "ServiceError",
    "read_requests_jsonl",
]
