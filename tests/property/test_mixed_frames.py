"""Mixed stacks and cuts inside a run.

The one DFS of :mod:`repro.core.enumerate` keeps two frame forms on one
stack: a frame whose certificate is a single state walks its cell run
(and, under unit costs, emits the whole last level as a run), a frame
with more states merges queue heads.  The seeded cases here are the
ones whose enumeration visits **both** — checked on certificates
rebuilt from the queues' inspection view, not on the loop — under unit
costs and on a randomly costed copy of the same graph (same edge ids):

* the sequence equals the recursive paper pipeline's (run on the
  automaton as written), content and order, and the memoryless stream
  (a fresh generator resumed after each output) equals the one-shot one;
* ``resume_after`` at **every** output — each cell of a last-level run,
  its last cell included — yields the one-shot tail;
* a generator ``close()``\\ d mid-stream, then a fresh one resumed on
  the last walk read, carries on correctly;
* a λ-length edge list that is not an output raises the typed cursor
  error on the first ``next()``.

Seeds are offset by ``DIFF_SEED_BASE`` (+90 000, disjoint from the
other harnesses), so the CI ``property-tests`` matrix multiplies the
cases.  The regexes are ones whose certificates can grow past one
state *after* the compile merged same-past states — two classes with
different pasts that share vertices; ``(a|b|c|d)+``, which sat here
while Thompson's copies kept its certificates at two states, compiles
to singletons now.  A one-state automaton (``a*``) never merges and is
the diamond suites' business.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache, partial
from itertools import islice

import pytest

from repro.automata import regex_to_nfa
from repro.baselines.oracle import costed_copy
from repro.baselines.paper_pipeline import (
    annotate_reference,
    cheapest_annotate_reference,
    enumerate_walks_recursive,
    trim_maps,
)
from repro.core.annotate import annotate
from repro.core.cheapest import cheapest_annotate
from repro.core.compile import compile_epsilon_free, compile_query
from repro.core.enumerate import enumerate_walks
from repro.core.trim import trim
from repro.exceptions import QueryError
from repro.graph.generators import random_multilabel

from tests.conftest import one_seek_per_output

SEED_BASE = int(os.environ.get("DIFF_SEED_BASE", "0"))
N_CASES = 48

_ALPHABET = ("a", "b", "c", "d")
_REGEXES = ("(a|b)* c (a|b|c)*", "(a|b)* a (a|b|c|d)*")
#: Pairs with more outputs than this are passed over: every output is
#: a cut, so a case costs O(outputs²).
_MAX_OUTPUTS = 150


def _certificate_sizes(graph, cells, t, states, sequence) -> set:
    """``{|S(w)|}`` over the internal nodes ``w`` of the backward-search
    tree, by Lemma 15 on the queues as :meth:`PackedCells.items` shows
    them: ``S(e · w)`` unions the predecessors found for ``e`` in the
    queues of ``S(w)``."""
    sizes = set()
    for walk in sequence:
        u, certificate = t, set(states)
        for e in reversed(walk):
            sizes.add(len(certificate))
            certificate = {
                q
                for p in certificate
                for edge, preds in cells.items(u, p)
                if edge == e
                for q in preds
            }
            u = graph.src(e)
    return sizes


def _check_every_cut(args, sequence, cost_of, context) -> None:
    """One-shot == memoryless, resumed == the tail at every output,
    close-then-resume, and the typed error for a foreign cursor."""
    open_stream = partial(enumerate_walks, *args, cost_of=cost_of)
    memoryless = one_seek_per_output(open_stream)
    assert [w.edges for w in memoryless] == sequence, context
    for k, cursor in enumerate(sequence):
        for name, run in (
            ("enumerate_walks", open_stream),
            ("one seek per output", partial(one_seek_per_output, open_stream)),
        ):
            tail = run(resume_after=cursor)
            assert [w.edges for w in tail] == sequence[k + 1:], (
                f"{name} resumed after output {k} ({context})"
            )
    # Abandon a generator at every position in turn — inside a
    # last-level run as often as not — and carry on from what it read.
    for k in range(1, len(sequence)):
        generator = enumerate_walks(*args, cost_of=cost_of)
        read = [next(generator).edges for _ in range(k)]
        generator.close()
        rest = enumerate_walks(*args, cost_of=cost_of, resume_after=read[-1])
        assert read + [w.edges for w in rest] == sequence, (
            f"closed after {k} outputs ({context})"
        )
    # Same length, same endpoints of the cursor check, not an output:
    # the first walk with its last edge swapped for a foreign one.
    graph, outputs = args[0], set(sequence)
    for e in graph.edges():
        foreign = sequence[0][:-1] + (e,)
        if foreign not in outputs:
            with pytest.raises(QueryError, match="cursor does not match"):
                next(enumerate_walks(
                    *args, cost_of=cost_of, resume_after=foreign
                ))
            break


def _richest_mixed_pair(graph, cq):
    """The (s, t) whose unit-cost enumeration visits both frame forms
    and has the most outputs within the cap — or ``None``."""
    best, best_outputs = None, 1
    for s in graph.vertices():
        for t in graph.vertices():
            ann = annotate(cq, s, t)
            if ann.lam is None or ann.lam < 2:
                continue
            cells = trim(graph, ann)
            sequence = [
                w.edges
                for w in islice(
                    enumerate_walks(
                        graph, cells, ann.lam, t, ann.target_states
                    ),
                    _MAX_OUTPUTS + 1,
                )
            ]
            if not best_outputs < len(sequence) <= _MAX_OUTPUTS:
                continue
            sizes = _certificate_sizes(
                graph, cells, t, ann.target_states, sequence
            )
            if 1 in sizes and max(sizes) > 1:
                best, best_outputs = (s, t), len(sequence)
    return best


@lru_cache(maxsize=None)
def _draw_case(case: int):
    """``(seed, graph, regex, mixed pair or None)`` of one case."""
    seed = SEED_BASE + 90_000 + case
    rng = random.Random(seed)
    n = rng.randint(6, 9)
    graph = random_multilabel(
        n, rng.randint(3 * n, 5 * n), alphabet=_ALPHABET, seed=seed
    )
    expression = _REGEXES[case % len(_REGEXES)]
    cq = compile_query(graph, regex_to_nfa(expression))
    return seed, graph, expression, _richest_mixed_pair(graph, cq)


@pytest.mark.parametrize("case", range(N_CASES))
def test_both_frame_forms_on_one_stack(case: int) -> None:
    seed, graph, expression, pair = _draw_case(case)
    if pair is None:
        pytest.skip(f"seed={seed}: no pair visits both frame forms")
    nfa = regex_to_nfa(expression)
    s, t = pair
    context = f"seed={seed} regex={expression!r} s={s} t={t}"

    for costed in (False, True):
        leg = f"{'costed' if costed else 'unit'} {context}"
        g = costed_copy(graph, random.Random(seed)) if costed else graph
        # The oracle runs the automaton as written, the engine the
        # merged one: same sequence.
        cq, written = compile_query(g, nfa), compile_epsilon_free(g, nfa)
        if costed:
            ann = cheapest_annotate(cq, s, t)
            ref = cheapest_annotate_reference(written, s, t)
            cost_of, oracle_cost = g.cost_array.__getitem__, {"cost_of": g.cost}
        else:
            ann, ref = annotate(cq, s, t), annotate_reference(written, s, t)
            cost_of, oracle_cost = None, {}
        args = (g, trim(g, ann), ann.lam, t, ann.target_states)
        sequence = [w.edges for w in enumerate_walks(*args, cost_of=cost_of)]
        recursive = enumerate_walks_recursive(
            g, trim_maps(g, ref), ref.lam, t, ref.target_states, **oracle_cost
        )
        assert sequence == [w.edges for w in recursive] != [], leg
        _check_every_cut(args, sequence, cost_of, leg)


def test_a_third_of_the_cases_mix_frame_forms() -> None:
    """If a generator change made mixed stacks rare, the column would
    silently stop testing what it is named for — fail instead."""
    kept = sum(_draw_case(case)[3] is not None for case in range(N_CASES))
    assert 3 * kept >= N_CASES, (
        f"only {kept}/{N_CASES} cases visit both frame forms"
    )
