"""``repro.api`` — the one fluent query API over every engine.

The paper's pipeline (compile → ``Annotate`` → ``Trim`` →
``Enumerate``, Figure 2) has one front door, :meth:`Database.query`;
the batch service, the serve workers and the CLI all go through it::

    from repro.api import Database

    db = Database(graph)                      # plan + annotation caches
    rs = (db.query("h* s (h | s)*")
            .from_("Alix").to("Bob")          # endpoint shape
            .limit(10)                        # page size
            .run())                           # → streaming ResultSet
    for row in rs:
        print(row.source, "→", row.target, row.walk.describe())
    rs.next_cursor                            # resume token (or None)

Three orthogonal axes (see :mod:`repro.api.query` for the full
matrix):

* **endpoint shape** — ``from_().to()`` (pair), ``from_().to_all()``,
  ``from_any([...]).to(...)`` / ``.to_all()`` (multi-source via a
  virtual super-source), ``all_pairs()``;
* **semantics** — ``shortest`` (default) / ``cheapest`` /
  ``count()`` / ``with_multiplicity()``;
* **execution** — ``limit`` / ``offset`` / ``cursor`` pagination with
  one O(λ) seek per page, ``timeout_ms`` budgets, ``explain()`` and
  ``stats()``.

Because :class:`Database` wraps the graph registry and the
plan/annotation caches that :mod:`repro.service` introduced,
*interactive* callers get the batch path's repeat-query speedup for
free; :class:`~repro.service.QueryService` and the CLI ``query``
command are thin adapters over this package.  The engine classes in
:mod:`repro.core` stay as the uncached layer underneath.
"""

from repro.api.database import Database, MutationResult
from repro.api.query import Query
from repro.api.result import ResultSet
from repro.api.rows import Cursor, Row

__all__ = [
    "Cursor",
    "Database",
    "MutationResult",
    "Query",
    "ResultSet",
    "Row",
]
