"""A catalog of benchmark queries, keyed by scenario.

Each entry is a plain RPQ expression string (see
:mod:`repro.automata.regex_parser` for the syntax); run one with
:meth:`repro.api.Database.query` or compile it with
:func:`repro.automata.regex_to_nfa`.
"""

from __future__ import annotations

from typing import Dict

QUERY_CATALOG: Dict[str, str] = {
    # -- the paper's example -------------------------------------------------
    "example9": "h* s (h | s)*",
    # -- fraud scenario -------------------------------------------------------
    "laundering_chain": "s s* h?",
    "any_suspicious": "(h | w | c)* s (h | w | c | s)*",
    "wire_only": "w+",
    "high_value_pair": "h h",
    # -- social scenario ---------------------------------------------------------
    "friends_of_friends": "knows knows",
    "friend_circle": "knows{1,3}",
    "influencer_reach": "follows+ mentions",
    "any_connection": "(knows | follows)* mentions",
    "degrees_of_separation": ". . .",
    # -- synthetic / stress ---------------------------------------------------------
    "star_a": "a*",
    "alt_ab": "(a | b)*",
    "a_then_b": "a* b a*",
    "bounded": "a{2,5}",
    "nested": "((a b)* | (b a)*) a?",
}
