"""The fluent, lazy :class:`Query` builder.

A query is assembled from three *orthogonal* axes and only executed by
a terminal call:

* **endpoint shape** — :meth:`Query.from_` / :meth:`Query.to` (pair),
  :meth:`Query.to_all` (one source, every reachable target),
  :meth:`Query.from_any` (multi-source via a virtual super-source:
  answers are the walks from *any* of the given sources that are
  globally shortest/cheapest among them), and :meth:`Query.all_pairs`
  (every source × every reachable target, per-pair λ);
* **semantics** — two sub-axes.  The *objective*:
  :meth:`Query.shortest` (default, minimal edge count) or
  :meth:`Query.cheapest` (minimal total edge cost).  The *walk
  restriction*: ``walks`` (default — the paper's distinct shortest
  walks), :meth:`Query.trails` (no repeated edge),
  :meth:`Query.simple_paths` (no repeated vertex), or
  :meth:`Query.any_walk` (one shortest witness per bucket, the
  Cypher/GQL ``ANY`` cheap mode); :meth:`Query.semantics` selects
  either sub-axis by name.  Plus the :meth:`Query.with_multiplicity`
  modifier (annotate each row with its number of accepting runs) and
  the :meth:`Query.count` terminal;
* **execution** — pagination (:meth:`Query.limit` /
  :meth:`Query.offset` / :meth:`Query.cursor`) and :meth:`Query.timeout_ms`.

Builder methods return a *new* query (copy-on-write), so a base query
can be forked freely::

    base = db.query("h* s (h | s)*").from_("Alix")
    pair = base.to("Bob").limit(10)
    fan  = base.to_all()

**Modes.**  There is one way to enumerate: every query runs one DFS
per page, concurrency-safe and positioned by one O(λ) seek from the
cursor — Theorem 18's ``NextOutput``, which no tier runs before every
row.  :data:`MODES` (``auto``, ``iterative``, ``memoryless``) is an
inert vocabulary kept for callers that still send a mode name:
:meth:`Query.mode`, the JSONL request's ``mode`` field and ``repro
serve --mode`` validate it and select nothing.  That holds whatever
the cache sizes: a database with its annotation cache
disabled runs the same engine and returns the same rows and cursors —
it only retains nothing.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.rows import Cursor, Row
from repro.exceptions import QueryError, is_int

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.api.database import Database
    from repro.api.result import ResultSet
    from repro.query.plan import QueryPlan

#: Walk restrictions — the one spelling the service requests and the
#: CLI import.
RESTRICTIONS = ("walks", "trails", "simple", "any")
#: Mode names a request may still send; each selects nothing.
MODES = ("iterative", "memoryless", "auto")
_SEMANTICS = ("shortest", "cheapest")
_new = object.__new__


def is_budget(value: Any) -> bool:
    """A valid ``timeout_ms``: a finite non-negative number (a NaN
    deadline never expires, so NaN and ±inf are refused)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value < math.inf
    )


class Query:
    """A lazily executed RPQ against one :class:`~repro.api.Database`.

    Do not construct directly — use
    :meth:`repro.api.Database.query`.
    """

    # Every axis's default lives on the class, so an instance holds
    # only what its builder calls set, and a copy-on-write step is
    # one copy of that small ``__dict__``.
    _graph_name: Optional[str] = None
    _source: Optional[Hashable] = None
    _sources: Optional[Tuple[Hashable, ...]] = None
    _target: Optional[Hashable] = None
    _to_all = False
    _all_pairs = False
    _semantics = "shortest"
    _restriction = "walks"
    _multiplicity = False
    _mode = "auto"
    _limit: Optional[int] = None
    _offset = 0
    _cursor: Optional[Cursor] = None
    _timeout_ms: Optional[float] = None

    def __init__(self, db: "Database", expression: str) -> None:
        self._db = db
        self._expression = expression

    def _with(self, axis: str, value: Any) -> "Query":
        """A copy of this query with attribute ``axis`` set to ``value``."""
        fields = self.__dict__.copy()
        fields[axis] = value
        q = _new(Query)
        q.__dict__ = fields
        return q

    @classmethod
    def _of(cls, db: "Database", expression: str, **axes: Any) -> "Query":
        """A query with every axis in ``axes`` set in one step — for a
        caller that has checked each value as the builder methods do
        (:class:`~repro.service.QueryService` and its validated
        requests)."""
        axes["_db"] = db
        axes["_expression"] = expression
        q = _new(cls)
        q.__dict__ = axes
        return q

    # -- graph / plan axis ---------------------------------------------------

    def on(self, graph_name: Optional[str]) -> "Query":
        """Select a registered graph by name (``None`` = the sole one)."""
        return self._with("_graph_name", graph_name)

    # -- endpoint shape axis -------------------------------------------------

    def from_(self, source: Hashable) -> "Query":
        """Single source vertex (name or id)."""
        if self._sources is not None:
            raise QueryError("from_() conflicts with an earlier from_any()")
        return self._with("_source", source)

    def from_any(self, sources: Sequence[Hashable]) -> "Query":
        """Multi-source: a virtual super-source over ``sources``.

        The answers are the matching walks that start at *any* of the
        given sources and are shortest (cheapest) **among all of
        them** — exactly the walks a virtual ε-super-source in front
        of the sources would yield, computed by taking the minimum of
        the per-source λ over the shared multi-target annotations.
        """
        if isinstance(sources, (str, bytes)):
            raise QueryError(
                "from_any() takes a sequence of sources, not one "
                f"{type(sources).__name__}; use from_() for one source"
            )
        sources = tuple(sources)
        if not sources:
            raise QueryError("from_any() needs at least one source")
        if self._source is not None:
            raise QueryError("from_any() conflicts with an earlier from_()")
        return self._with("_sources", sources)

    def to(self, target: Hashable) -> "Query":
        """Single target vertex (name or id)."""
        if self._to_all:
            raise QueryError("to() conflicts with an earlier to_all()")
        return self._with("_target", target)

    def to_all(self) -> "Query":
        """Every reachable target (ascending vertex-id order)."""
        if self._target is not None:
            raise QueryError("to_all() conflicts with an earlier to()")
        return self._with("_to_all", True)

    def all_pairs(self) -> "Query":
        """Every source × every reachable target, per-pair λ."""
        if (
            self._source is not None
            or self._sources is not None
            or self._target is not None
            or self._to_all
        ):
            raise QueryError(
                "all_pairs() replaces from_/from_any/to/to_all; "
                "start from a fresh query"
            )
        return self._with("_all_pairs", True)

    # -- semantics axis ------------------------------------------------------

    def shortest(self) -> "Query":
        """Minimal edge count (the default)."""
        return self._with("_semantics", "shortest")

    def cheapest(self) -> "Query":
        """Minimal total edge cost (strictly positive integer costs)."""
        return self._with("_semantics", "cheapest")

    def walks(self) -> "Query":
        """Back to the default walk semantics (no restriction)."""
        return self._with("_restriction", "walks")

    def trails(self) -> "Query":
        """Restrict answers to trails: no edge repeated in a walk.

        rλ (the answer length) is the minimal length of a *restricted*
        matching walk — at least the walk λ, and strictly larger when
        every shortest walk repeats an edge (the executor then falls
        back to a guided product-DFS; see :mod:`repro.core.restricted`).
        """
        return self._with("_restriction", "trails")

    def simple_paths(self) -> "Query":
        """Restrict answers to simple paths: no vertex repeated."""
        return self._with("_restriction", "simple")

    def any_walk(self) -> "Query":
        """One shortest witness walk per bucket (Cypher/GQL ``ANY``).

        The cheap mode: one ``Annotate`` BFS run, stopped at the
        target's level, whose distances the witness is read back from —
        no Trim/Enumerate machinery, no annotation-cache entry
        — honoring ``limit``/``offset``/``timeout_ms``/cursors at the
        row level.  The witness length equals the plain-walks λ.
        """
        return self._with("_restriction", "any")

    def semantics(self, which: str) -> "Query":
        """Select a semantics sub-axis by name.

        ``"shortest"`` / ``"cheapest"`` pick the objective (legacy
        vocabulary); ``"walks"`` / ``"trails"`` / ``"simple"`` /
        ``"any"`` pick the walk restriction — the two compose, except
        that ``cheapest`` supports only the unrestricted ``walks``
        form (checked at execution time).
        """
        if which in _SEMANTICS:
            return self.cheapest() if which == "cheapest" else self.shortest()
        if which not in RESTRICTIONS:
            raise QueryError(
                f"unknown semantics {which!r}; expected one of "
                f"{_SEMANTICS + RESTRICTIONS}"
            )
        return self._with("_restriction", which)

    def with_multiplicity(self, enabled: bool = True) -> "Query":
        """Annotate each row with its number of accepting runs (§5.3)."""
        return self._with("_multiplicity", enabled)

    # -- execution axis ------------------------------------------------------

    def mode(self, mode: str) -> "Query":
        """Name a mode from :data:`MODES`: validated and shown by
        :meth:`explain`, but it selects nothing — every query pages
        through one DFS."""
        if mode not in MODES:
            raise QueryError(
                f"unknown mode {mode!r}; expected one of {MODES}"
            )
        return self._with("_mode", mode)

    def limit(self, n: Optional[int]) -> "Query":
        """Page size; ``None`` = all answers."""
        if n is not None and (not is_int(n) or n < 1):
            raise QueryError("limit must be a positive integer or None")
        return self._with("_limit", n)

    def offset(self, n: int) -> "Query":
        """Rows to skip before the page starts (O(offset) walk work)."""
        if not is_int(n) or n < 0:
            raise QueryError("offset must be a non-negative integer")
        return self._with("_offset", n)

    def cursor(
        self, token: Union[Cursor, Dict[str, Any], Sequence[int], None]
    ) -> "Query":
        """Resume right after a previous page's ``next_cursor``.

        Accepts the :class:`~repro.api.rows.Cursor` object, its
        ``to_dict()`` payload, or (for pair queries) a bare edge-id
        list — the batch service's token.  Seeking is O(λ); streams
        with nothing to seek in (the restricted fallback, an any-walk
        witness) replay.
        """
        return self._with(
            "_cursor",
            None if token is None else Cursor.coerce(token).validate_edges(),
        )

    def timeout_ms(self, budget: Optional[float]) -> "Query":
        """Wall-clock budget; on expiry the page is partial and
        resumable via ``next_cursor``."""
        if budget is not None and not is_budget(budget):
            raise QueryError("timeout_ms must be a finite non-negative number")
        return self._with("_timeout_ms", budget)

    # -- shape resolution ----------------------------------------------------

    def _shape(self) -> Tuple:
        """``(kind, ...)`` — validated endpoint shape."""
        if self._all_pairs:
            return ("all_pairs",)
        if self._sources is not None:
            if self._to_all:
                return ("many_to_all", self._sources)
            if self._target is not None:
                return ("many_to_one", self._sources, self._target)
            raise QueryError("from_any() needs to(...) or to_all()")
        if self._source is not None:
            if self._to_all:
                return ("one_to_all", self._source)
            if self._target is not None:
                return ("pair", self._source, self._target)
            raise QueryError("from_() needs to(...) or to_all()")
        raise QueryError(
            "query has no endpoint shape; call from_()/from_any()/"
            "all_pairs() first"
        )

    # -- terminals -----------------------------------------------------------

    def run(self) -> "ResultSet":
        """Execute: preprocessing now, enumeration lazily."""
        return self._db._run(self)

    execute = run

    def __iter__(self) -> Iterator[Row]:
        return iter(self.run())

    def count(self, method: str = "enumerate") -> int:
        """Total number of answers (pagination knobs and
        :meth:`with_multiplicity` are ignored).

        ``method="enumerate"`` counts by enumerating;
        ``method="dp"`` uses the memoized backward-tree dynamic
        program — exponentially faster on answer sets with many
        shared suffixes.  The DP (and Remark 17's entry-count bound it
        rests on) applies to the unrestricted **walks** semantics
        only: trails/simple answer sets are not products of per-level
        predecessor counts, and any-walk has no answer *set* — those
        modes count by enumeration, and ``method="dp"`` raises
        :class:`~repro.exceptions.QueryError` under them.
        """
        return self._db._count(self, method)

    def explain(self) -> "QueryPlan":
        """The input-analysis plan, extended with façade routing."""
        return self._db._explain(self)

    def stats(self) -> Dict[str, Any]:
        """Execute, drain, and report per-phase timings + cache hits."""
        rs = self.run()
        rows = sum(1 for _ in rs)
        return {
            "rows": rows,
            "lam": rs.lam,
            "timed_out": rs.timed_out,
            "skipped": rs.skipped,
            **rs.stats,
        }

    def targets(self) -> List[Tuple[Hashable, int]]:
        """``(target_name, λ_t)`` per reachable target, in result
        order — only for the ``to_all`` shapes."""
        return self._db._targets(self)

    def __repr__(self) -> str:
        try:
            shape: Tuple = self._shape()
        except QueryError:
            shape = ("unshaped",)
        return (
            f"Query({self._expression!r}, shape={shape!r}, "
            f"semantics={self._semantics!r}, "
            f"restriction={self._restriction!r}, mode={self._mode!r})"
        )
