"""User-facing RPQ layer.

Run a regular path query expression with
:meth:`repro.api.Database.query`; compile one to an automaton with
:func:`repro.automata.regex_to_nfa`.

* :func:`~repro.query.pattern.parse_pattern` — GQL-flavoured path
  patterns (``ALL SHORTEST (a)-[:h|:s]->+(b)``) over the same engine;
* :func:`~repro.query.plan.analyze` — linear-time input analysis and
  engine selection, per the paper's remark that detecting the
  "simpler setting" is free.
"""

from repro.query.pattern import PathPattern, parse_pattern
from repro.query.plan import QueryPlan, analyze

__all__ = [
    "PathPattern",
    "QueryPlan",
    "analyze",
    "parse_pattern",
]
