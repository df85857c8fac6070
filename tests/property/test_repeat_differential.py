"""The nested == flat column: a bounded repeat's chain against its flat
desugar.

Production's Thompson construction builds ``X{m,n}`` with
``n − m ≥ 2`` as ``m`` copies of ``X`` and the right-nested optional
chain ``(X(X(…)?)?)?``; :func:`~repro.automata.regex_ast.desugar`
writes it flat, ``n − m`` optionals ``(ε|X)``, and is kept as its
oracle.  Each seeded case draws a graph (``random_graph``) and a
regex of the differential harness's grammar (``random_regex``)
wrapped in bounded repeats — alone, nested, after a prefix, or in a
union — and every ``{m,n}`` of the query catalog runs too, on random
graphs over its labels.  From every source, on unit costs and on a
randomly costed copy (``cheapest``):

* ``thompson_nfa(ast)`` and ``thompson_nfa(desugar(ast))`` reach the
  same targets with the same walks, in the same order;
* the façade's ``to_all()`` page is that sequence, and each row's
  multiplicity is :func:`~repro.baselines.runs.count_accepting_runs`
  on the chained automaton; each flat walk's count is the reference's
  on the flat automaton.  The two counts may differ — a counted repeat
  matches ``k`` copies in one way, the flat form in one way per choice
  of ``k`` optionals — but the chain's never exceeds the flat's.

A failure replays with::

    DIFF_SEED_BASE=<base> PYTHONPATH=src python -m pytest \\
        "tests/property/test_repeat_differential.py::test_nested_equals_flat[<case>]"
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api import Database
from repro.automata import parse_rpq, thompson_nfa
from repro.automata.regex_ast import desugar
from repro.baselines.oracle import costed_copy, random_graph, random_regex
from repro.baselines.runs import count_accepting_runs
from repro.core.compile import compile_epsilon_free
from repro.core.multi_target import MultiTargetShortestWalks
from repro.graph.generators import random_multilabel
from repro.workloads.queries import QUERY_CATALOG

SEED_BASE = int(os.environ.get("DIFF_SEED_BASE", "0"))
N_CASES = int(os.environ.get("DIFF_REPEAT_CASES", "100"))

_ALPHABET = ("a", "b")

#: Every catalog query with a ``{m,n}``.
_CATALOG_REPEATS = sorted(
    text for text in QUERY_CATALOG.values() if "{" in text
)

#: ``[walks compared, cases where the flat form weighs a walk above
#: the chain]``, for the non-degeneracy guard at the end.
_seen = [0, 0]


def _repeated_regex(rng: random.Random) -> str:
    inner = random_regex(rng, 2, alphabet=_ALPHABET)
    lo = rng.randint(0, 2)
    text = f"({inner}){{{lo},{lo + rng.randint(2, 4)}}}"
    roll = rng.random()
    if roll < 0.25:
        lo = rng.randint(0, 1)
        text = f"({text}){{{lo},{lo + rng.randint(1, 3)}}}"
    elif roll < 0.5:
        text = f"{random_regex(rng, 1, alphabet=_ALPHABET)} {text}"
    elif roll < 0.75:
        text = f"{text} | {random_regex(rng, 2, alphabet=_ALPHABET)}"
    return text


def _walks(graph, nfa, source, cheapest):
    engine = MultiTargetShortestWalks(graph, nfa, source, cheapest=cheapest)
    return [(t, walk.edges) for t, walk in engine.all_walks()]


def _check(graph, seed, text, context) -> None:
    below = False
    ast = parse_rpq(text)
    nested, flat = thompson_nfa(ast), thompson_nfa(desugar(ast))
    costed = costed_copy(graph, random.Random(seed ^ 0xC057))
    for g, cheapest in ((graph, False), (costed, True)):
        nested_cq = compile_epsilon_free(g, nested)
        flat_cq = compile_epsilon_free(g, flat)
        base = Database(g).query(text).with_multiplicity()
        if cheapest:
            base = base.cheapest()
        for source in g.vertices():
            where = f"{context} cheapest={cheapest} source={source}"
            walks = _walks(g, nested, source, cheapest)
            assert walks == _walks(g, flat, source, cheapest), where
            rows = base.from_(source).to_all().run().all()
            assert [(row.target, row.walk.edges) for row in rows] == walks
            for row in rows:
                edges = row.walk.edges
                runs = count_accepting_runs(nested_cq, edges)
                flat_runs = count_accepting_runs(flat_cq, edges)
                assert row.multiplicity == runs, f"{edges} ({where})"
                assert 1 <= runs <= flat_runs, f"{edges} ({where})"
                _seen[0] += 1
                below = below or runs < flat_runs
    _seen[1] += below


@pytest.mark.parametrize("case", range(N_CASES))
def test_nested_equals_flat(case: int) -> None:
    seed = SEED_BASE + 130_000 + case
    rng = random.Random(seed)
    graph = random_graph(rng, alphabet=_ALPHABET)
    text = _repeated_regex(rng)
    _check(graph, seed, text, f"seed={seed} regex={text!r}")


@pytest.mark.parametrize("text", _CATALOG_REPEATS)
@pytest.mark.parametrize("draw", range(3))
def test_catalog_repeats_nested_equals_flat(text: str, draw: int) -> None:
    seed = SEED_BASE + 135_000 + draw
    labels = tuple(sorted(thompson_nfa(parse_rpq(text)).alphabet()))
    graph = random_multilabel(
        6, 14, alphabet=labels + ("z",), max_labels_per_edge=2, seed=seed,
    )
    _check(graph, seed, text, f"seed={seed} regex={text!r}")


def test_the_column_sees_the_chain() -> None:
    """Runs after the cases (pytest keeps file order): the column must
    compare many walks, and in a case in ten or more weigh one below
    the flat form (22–34 of 106 on bases 0–4000), or it checks nothing
    the language test does not."""
    if _seen[0] == 0:
        pytest.skip("nested == flat cases did not run (filtered out?)")
    assert _seen[0] >= 10 * N_CASES, _seen
    assert 10 * _seen[1] >= N_CASES, _seen
