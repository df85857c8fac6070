"""The multiplicity column of the differential harness: every row a
``with_multiplicity()`` page weighs equals the per-walk rerun of the
automaton (:func:`repro.baselines.runs.count_accepting_runs`).

Production weighs a page's rows with one suffix-sharing counter
(:func:`repro.core.multiplicity.run_counter`), so a row's count
depends on the rows before it in the page unless the counter drops
exactly the maps it must.  Each seeded case draws a
``random_multilabel`` graph and a random regex, runs it through the
façade (Thompson, ε-bearing, counted on its ε-eliminated form) on unit
costs and on a randomly costed copy (``cheapest``), and checks against
the reference:

* the pair page read straight through, then cut after every row and
  resumed from that cursor, and at an offset;
* ``from_any(S).to(t)`` pages, whose cells end at one target and share
  suffixes across cells, and ``to_all()`` pages, whose cells do not;
* ``trails``, ``simple`` and ``any`` rows (unit costs: the restrictions
  are length-based);

and, on unit costs, that a pair's page sum is ``count_total_multiplicity``.
Glushkov's ε-free automaton as written (:mod:`repro.baselines.glushkov`)
runs through the engine beside it: the pair's walks are the façade's,
in its order, and each weighs as the reference on its own automaton —
read straight through, resumed after every row, and to every target.
A failure replays with::

    DIFF_SEED_BASE=<base> PYTHONPATH=src python -m pytest \
        "tests/property/test_multiplicity_differential.py::test_rows_weigh_as_the_reference[<case>]"
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api import Database
from repro.automata import parse_rpq, regex_to_nfa
from repro.baselines import glushkov_nfa
from repro.baselines.oracle import costed_copy, random_regex
from repro.baselines.runs import count_accepting_runs
from repro.core.compile import compile_epsilon_free
from repro.core.count import count_total_multiplicity
from repro.core.multi_target import MultiTargetShortestWalks
from repro.core.multiplicity import run_counter
from repro.graph.generators import random_multilabel

SEED_BASE = int(os.environ.get("DIFF_SEED_BASE", "0"))
N_CASES = int(os.environ.get("DIFF_FACADE_CASES", "40"))

#: Pages longer than this are cut at every row only up to here; the
#: rest of the page is still weighed read straight through.
_CUT_ROWS = 60

#: Two labels on dense small graphs: most pairs match, and edges that
#: carry both labels give rows of multiplicity above 1.
_ALPHABET = ("a", "b")

#: ``[rows weighed, rows of multiplicity > 1]`` over the cases run, for
#: the non-degeneracy guard at the end.
_weighed = [0, 0]


def _draw_case(seed: int):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    graph = random_multilabel(
        n, rng.randint(2 * n, 4 * n), alphabet=_ALPHABET,
        max_labels_per_edge=rng.randint(1, 2), seed=seed,
    )
    expression = random_regex(rng, alphabet=_ALPHABET)
    sources = rng.sample(range(n), rng.randint(1, n))
    return graph, expression, sources, rng.randrange(n)


def _check(rows, cq, context) -> None:
    for row in rows:
        assert row.multiplicity == count_accepting_runs(
            cq, row.walk.edges
        ), f"{row.walk.edges} ({context})"
        assert row.multiplicity >= 1, context
        _weighed[0] += 1
        _weighed[1] += row.multiplicity > 1


def _weigh(walks, cq, context) -> None:
    """One counter over a stream of walks, as a page weighs its rows."""
    counter = run_counter(cq)
    for edges in walks:
        multiplicity = counter(edges)
        assert multiplicity == count_accepting_runs(cq, edges), (
            f"{edges} ({context})"
        )
        _weighed[0] += 1
        _weighed[1] += multiplicity > 1


def _check_glushkov(g, cheapest, expression, source, t, expected, context):
    """Glushkov's automaton through the engine: the façade's walks, in
    its order, each weighed as the reference on its own automaton."""
    nfa = glushkov_nfa(parse_rpq(expression))
    cq = compile_epsilon_free(g, nfa)
    engine = MultiTargetShortestWalks(g, nfa, source, cheapest=cheapest)
    walks = [w.edges for w in engine.walks_to(t)]
    assert walks == expected, context
    _weigh(walks, cq, context)
    for k in range(min(len(walks), _CUT_ROWS) - 1):
        tail = [w.edges for w in engine.walks_to(t, resume_after=walks[k])]
        assert tail == walks[k + 1:], f"resumed k={k} {context}"
        _weigh(tail, cq, f"resumed k={k} {context}")
    _weigh(
        [w.edges for _, w in engine.all_walks()], cq, f"to_all {context}"
    )


def _check_every_cursor(query, rows, cq, context) -> None:
    """Cut the page after each of its first rows and resume there: the
    resumed page's counter starts cold, and must weigh as the reference
    does from its first row on."""
    expected = [row.walk.edges for row in rows]
    for k in range(min(len(rows), _CUT_ROWS) - 1):
        head = query.limit(k + 1).run()
        head_rows = head.all()
        assert [r.walk.edges for r in head_rows] == expected[: k + 1]
        _check(head_rows, cq, f"head k={k} {context}")
        tail = query.cursor(head.next_cursor).run().all()
        assert [r.walk.edges for r in tail] == expected[k + 1:], context
        _check(tail, cq, f"resumed k={k} {context}")
    if rows:
        offset = query.offset(len(rows) // 2).run().all()
        assert [r.walk.edges for r in offset] == expected[len(rows) // 2:]
        _check(offset, cq, f"offset {context}")


@pytest.mark.parametrize("case", range(N_CASES))
def test_rows_weigh_as_the_reference(case: int) -> None:
    seed = SEED_BASE + 70_000 + case
    graph, expression, sources, target = _draw_case(seed)
    costed = costed_copy(graph, random.Random(seed ^ 0xC057))
    names = [graph.vertex_name(v) for v in sources]
    source, t = names[0], graph.vertex_name(target)
    nfa = regex_to_nfa(expression)
    for g, cheapest in ((graph, False), (costed, True)):
        context = (
            f"seed={seed} regex={expression!r} "
            f"cheapest={cheapest} S={names} t={t}"
        )
        cq = compile_epsilon_free(g, nfa)
        base = Database(g).query(expression)
        if cheapest:
            base = base.cheapest()
        base = base.with_multiplicity()

        pair = base.from_(source).to(t)
        rows = pair.run().all()
        _check(rows, cq, context)
        _check_every_cursor(pair, rows, cq, context)
        _check_glushkov(
            g, cheapest, expression, source, t,
            [r.walk.edges for r in rows], f"glushkov {context}",
        )
        if not cheapest:
            s_id, t_id = g.vertex_id(source), g.vertex_id(t)
            lam, total = count_total_multiplicity(cq, s_id, t_id)
            assert sum(r.multiplicity for r in rows) == total, context
            assert (lam is None) == (not rows), context

        many = base.from_any(names)
        _check(many.to(t).run().all(), cq, f"from_any {context}")
        _check(many.to_all().run().all(), cq, f"to_all {context}")
        _check(base.from_(source).to_all().run().all(), cq, context)
        if cheapest:
            continue
        for kind in ("trails", "simple"):
            restricted = pair.semantics(kind)
            rows = restricted.run().all()
            _check(rows, cq, f"{kind} {context}")
            _check_every_cursor(restricted, rows, cq, f"{kind} {context}")
        _check(pair.any_walk().run().all(), cq, f"any {context}")


def test_the_column_weighs_ambiguous_rows() -> None:
    """Runs after the cases (pytest keeps file order): the column must
    weigh many rows, and rows with more than one run among them, or it
    checks nothing a per-row rerun would not."""
    if _weighed[0] == 0:
        pytest.skip("multiplicity cases did not run (filtered out?)")
    assert _weighed[0] >= 20 * N_CASES, _weighed
    assert _weighed[1] >= _weighed[0] // 20, _weighed
