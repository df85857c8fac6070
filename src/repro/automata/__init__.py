"""Automata substrate: NFAs, ε-NFAs, and the regex→NFA construction.

The paper's queries (Definition 6) are nondeterministic finite automata
over the database's label alphabet; Section 5 extends the algorithm to
ε-transitions and to queries given as regular expressions, via the
Thompson construction (Theorem 19) — the one construction production
runs, since it keeps |A| linear in the query (Corollary 20).  The
Glushkov construction the tests compare against lives beside the other
oracles, in :mod:`repro.baselines.glushkov`.

Public entry points:

* :class:`~repro.automata.nfa.NFA` and the :data:`EPSILON` /
  :data:`ANY` label sentinels;
* :func:`~repro.automata.regex_parser.parse_rpq` — regular path query
  expressions to ASTs;
* :func:`~repro.automata.thompson.thompson_nfa`;
* :func:`regex_to_nfa` — one-stop compilation helper;
* :mod:`repro.automata.ops` — ε-elimination, reversal, trimming,
  product, determinism and unambiguity testing.

The language toolbox the tests hold these to — closure combinators,
subset construction, minimization and language equivalence — runs on
no production path, so it lives among the oracles
(:mod:`repro.baselines.closure`, :mod:`repro.baselines.determinize`,
:mod:`repro.baselines.minimize`, :mod:`repro.baselines.equivalence`).
"""

from repro.automata.nfa import ANY, EPSILON, NFA
from repro.automata.ops import (
    is_deterministic,
    is_unambiguous,
    product,
    remove_epsilon,
    reverse,
    trim,
)
from repro.automata.regex_ast import (
    AnyAtom,
    Concat,
    EpsilonAtom,
    Label,
    Optional,
    Plus,
    Repeat,
    Star,
    Union,
    ast_size,
    desugar,
)
from repro.automata.regex_parser import parse_rpq
from repro.automata.thompson import thompson_nfa


def regex_to_nfa(expression) -> NFA:
    """Compile a regular path query to Thompson's ε-NFA (Theorem 19):
    O(|R|) states and transitions, which keeps the paper's O(|R|·|D|)
    preprocessing bound (Corollary 20).

    ``expression`` may be a string (parsed with :func:`parse_rpq`) or an
    already-built AST node.
    """
    ast = parse_rpq(expression) if isinstance(expression, str) else expression
    return thompson_nfa(ast)


__all__ = [
    "ANY",
    "EPSILON",
    "NFA",
    "AnyAtom",
    "Concat",
    "EpsilonAtom",
    "Label",
    "Optional",
    "Plus",
    "Repeat",
    "Star",
    "Union",
    "ast_size",
    "desugar",
    "is_deterministic",
    "is_unambiguous",
    "parse_rpq",
    "product",
    "regex_to_nfa",
    "remove_epsilon",
    "reverse",
    "thompson_nfa",
    "trim",
]
