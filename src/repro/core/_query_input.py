"""Normalization of user-supplied queries (NFA / AST / RPQ string)."""

from __future__ import annotations

from typing import Union

from repro.automata.nfa import NFA
from repro.automata.regex_ast import RegexNode

QueryLike = Union[NFA, RegexNode, str]


def as_nfa(query: QueryLike) -> NFA:
    """Accept an NFA as-is; compile ASTs and strings via Thompson.

    Thompson is the one regex construction because it preserves
    Corollary 20's bounds (the compiled query is ε-closed afterwards,
    see :mod:`repro.core.compile`).
    """
    if isinstance(query, NFA):
        return query
    # Imported here to avoid a package-level dependency cycle.
    from repro.automata import regex_to_nfa

    return regex_to_nfa(query)
