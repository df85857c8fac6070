"""The :func:`rpq` front-end: parse once, query anywhere.

>>> from repro.query import rpq
>>> from repro.workloads.fraud import example9_graph
>>> query = rpq("h* s (h | s)*")
>>> walks = list(query.shortest_walks(example9_graph(), "Alix", "Bob"))
>>> len(walks)
4

Since the ``repro.api`` façade landed, every execution method here is
a thin shim over :class:`repro.api.Database` — repeat calls on the
same graph object share the per-graph plan/annotation caches
(:meth:`repro.api.Database.for_graph`), and the historical mode
quirks are gone: every enumeration method accepts ``mode`` and
defaults to ``"auto"``.

**Modes.**  ``shortest`` (and its multiplicity variant) and
``cheapest`` support ``auto`` / ``iterative`` / ``memoryless``.
``"auto"`` resolves to the façade's cached ``iterative`` execution.

Prefer the façade directly for anything beyond a one-shot call::

    from repro.api import Database
    db = Database(graph)
    db.query("h* s (h | s)*").from_("Alix").to("Bob").limit(10).run()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterator, List, Optional, Tuple

from repro.automata import parse_rpq, regex_to_nfa
from repro.automata.nfa import NFA
from repro.automata.regex_ast import RegexNode, ast_size
from repro.core.engine import DistinctShortestWalks
from repro.core.walks import Walk
from repro.graph.database import Graph
from repro.query.plan import QueryPlan, analyze

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.api.query import Query
    from repro.core.multi_target import MultiTargetShortestWalks


class RPQ:
    """A compiled regular path query.

    Holds both the parsed AST and the compiled automaton; the
    construction method is a visible, benchmarkable choice
    (``thompson`` keeps Corollary 20's bounds; ``glushkov`` trades
    ε-freeness for O(|R|²) transitions).
    """

    def __init__(self, expression: str, method: str = "thompson") -> None:
        self.expression = expression
        self.method = method
        self.ast: RegexNode = parse_rpq(expression)
        self.automaton: NFA = regex_to_nfa(self.ast, method=method)

    @property
    def size(self) -> int:
        """|R| — the expression size used in Corollary 20."""
        return ast_size(self.ast)

    # -- execution ----------------------------------------------------------

    def query(self, graph: Graph) -> "Query":
        """A façade query-builder for this RPQ on ``graph``'s shared
        :class:`~repro.api.Database` — the full fluent API (endpoint
        shapes, pagination, ``explain``/``stats``)."""
        from repro.api.database import Database

        return Database.for_graph(graph).query(self)

    def engine(
        self,
        graph: Graph,
        source: Hashable,
        target: Hashable,
        mode: str = "auto",
    ) -> DistinctShortestWalks:
        """A raw single-pair engine — the uncached low-level escape
        hatch (no plan/annotation reuse; prefer :meth:`query`)."""
        return DistinctShortestWalks(
            graph, self.automaton, source, target, mode=mode
        )

    def shortest_walks(
        self,
        graph: Graph,
        source: Hashable,
        target: Hashable,
        mode: str = "auto",
        semantics: str = "walks",
    ) -> Iterator[Walk]:
        """Enumerate distinct shortest matching walks.

        ``semantics`` selects the walk restriction: ``"walks"``
        (default), ``"trails"`` (no repeated edge) or ``"simple"``
        (no repeated vertex) — see
        :meth:`repro.api.query.Query.semantics`.
        """
        return (
            self.query(graph).from_(source).to(target).mode(mode)
            .semantics(semantics).run().walks()
        )

    def any_walk(
        self,
        graph: Graph,
        source: Hashable,
        target: Hashable,
    ) -> Optional[Walk]:
        """One shortest witness walk, or ``None`` — the cheap
        single-answer mode (one ``Annotate`` BFS run, no enumeration
        machinery)."""
        rows = (
            self.query(graph).from_(source).to(target).any_walk()
            .run().all()
        )
        return rows[0].walk if rows else None

    def shortest_walks_with_multiplicity(
        self,
        graph: Graph,
        source: Hashable,
        target: Hashable,
        mode: str = "auto",
    ) -> Iterator[Tuple[Walk, int]]:
        """Enumerate ``(walk, number of accepting runs)`` pairs.

        Historically hard-coded ``mode="iterative"``; now any engine
        mode works (the runs are recomputed per output either way).
        """
        rows = (
            self.query(graph).from_(source).to(target).mode(mode)
            .with_multiplicity().run()
        )
        return ((row.walk, row.multiplicity) for row in rows)

    def cheapest_walks(
        self,
        graph: Graph,
        source: Hashable,
        target: Hashable,
        mode: str = "auto",
    ) -> Iterator[Walk]:
        """Enumerate distinct cheapest matching walks (edge costs).

        ``mode`` is ``auto`` / ``iterative`` / ``memoryless``.
        """
        return (
            self.query(graph).cheapest().from_(source).to(target)
            .mode(mode).run().walks()
        )

    def to_all_targets(
        self, graph: Graph, source: Hashable
    ) -> "MultiTargetShortestWalks":
        """Shared-preprocessing enumeration towards every target.

        Each call returns an *independent*
        :class:`~repro.core.multi_target.MultiTargetShortestWalks`
        (built over the graph's cached compiled plan), so callers may
        interleave its eager enumerations freely.  For result sharing
        across calls, use the façade's ``to_all`` shape instead.
        """
        from repro.api.database import Database

        return Database.for_graph(graph).multi_target(self, source)

    def plan(self, graph: Graph) -> QueryPlan:
        """Input analysis for this query against ``graph``."""
        return analyze(graph, self.automaton)

    # -- conveniences ------------------------------------------------------------

    def lam(
        self, graph: Graph, source: Hashable, target: Hashable
    ) -> Optional[int]:
        """λ for this query on an instance (``None`` when unmatched)."""
        return self.query(graph).from_(source).to(target).run().lam

    def count(
        self, graph: Graph, source: Hashable, target: Hashable
    ) -> int:
        """Number of distinct shortest matching walks."""
        return self.query(graph).from_(source).to(target).count()

    def first(
        self, graph: Graph, source: Hashable, target: Hashable, k: int
    ) -> List[Walk]:
        """The first ``k`` answers in enumeration order."""
        rows = (
            self.query(graph).from_(source).to(target).limit(k).run()
        )
        return [row.walk for row in rows]

    def __repr__(self) -> str:
        return f"RPQ({self.expression!r}, method={self.method!r})"


def rpq(expression: str, method: str = "thompson") -> RPQ:
    """Compile a regular path query expression."""
    return RPQ(expression, method=method)
