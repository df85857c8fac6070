"""One harness for the compile transformation.

``compile_query`` hands the engine the *same-past quotient* of the
automaton ``compile_epsilon_free`` compiles as written (see
:mod:`repro.core.compile`).  Per seeded case — a random graph over
``a b c``, a random regex over ``a b c d`` (no edge carries ``d``)
built by Thompson and by Glushkov, and a random hand-built NFA (several
initial and final states, self-loops, ``ANY``, ε, absent labels) — the
two compiles of each automaton are held to:

* **language** — the NFAs rebuilt from ``delta`` / ``initial_closure``
  / ``final`` are :func:`repro.automata.equivalence.equivalent`;
* **the quotient, exactly** — a naive fixpoint (every signature, every
  round; nothing shared with the worklist in ``src``) computes the
  coarsest backward bisimulation of the as-written compile; it *is* one
  (members agree on initial-ness and on their past), it is the coarsest
  (no two classes share a signature), and the merged compile is its
  quotient row for row once mapped through ``written``: the
  representatives (a final member if any, else the smallest id) are
  ``written``, each holding its class's rows, and ``delta`` /
  ``initial_closure`` / ``final`` name nothing else; compiling the
  merged automaton again merges and renumbers nothing;
* **ids dense** — the merged compile has one id per class, ``written``
  strictly increasing; ``compile_epsilon_free`` and the ε-kept compile
  keep ``n_states`` and ``final`` as given;
* **merged == as-written, end to end** — same λ and the same walk
  *sequence* from annotate → trim → enumerate on every (source, target)
  pair, and from the Dijkstra annotate on a randomly costed copy.

Sizes are pinned timing-free (``live_states``: co-accessible states,
states after the merge; what a merged automaton still costs the DFS in
``TgtIdx`` reads is pinned in ``test_delay_bound.py``), and the worklist
is held to its bound as a *count* of signatures computed.  Seeds are offset by ``DIFF_SEED_BASE``
(+120 000, disjoint from the other harnesses), so the CI
``property-tests`` matrix multiplies the cases.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache
from math import log2

import pytest

from repro.automata import ANY, EPSILON, NFA, parse_rpq, regex_to_nfa
from repro.automata.equivalence import equivalent
from repro.baselines import glushkov_nfa
from repro.baselines.oracle import costed_copy, random_graph, random_regex
from repro.core import compile as compile_module
from repro.core.compile import compile_epsilon_free, compile_query
from repro.graph.generators import chain, random_multilabel
from repro.workloads.fraud import example9_automaton, example9_graph
from repro.workloads.transport import TRANSPORT_QUERIES, transport_network
from repro.workloads.worstcase import wide_nfa

from tests.conftest import packed_walks

SEED_BASE = int(os.environ.get("DIFF_SEED_BASE", "0"))
N_CASES = 100

_QUERY_ALPHABET = ("a", "b", "c", "d")  # The graphs stop at "c".


def _random_nfa(rng: random.Random) -> NFA:
    n = rng.randint(1, 6)
    nfa = NFA(n)
    symbols = list(_QUERY_ALPHABET) * 3 + [ANY, EPSILON]
    for _ in range(rng.randint(0, 4 * n)):
        # One draw in four is a self-loop.
        q = rng.randrange(n)
        p = q if rng.random() < 0.25 else rng.randrange(n)
        nfa.add_transition(q, rng.choice(symbols), p)
    nfa.set_initial(*rng.sample(range(n), rng.randint(1, min(n, 3))))
    nfa.set_final(*rng.sample(range(n), rng.randint(0, min(n, 3))))
    return nfa


@lru_cache(maxsize=None)
def _draw_case(case: int):
    seed = SEED_BASE + 120_000 + case
    rng = random.Random(seed)
    graph = random_graph(rng)
    expression = random_regex(rng, alphabet=_QUERY_ALPHABET)
    automata = {
        "thompson": regex_to_nfa(expression),
        "glushkov": glushkov_nfa(parse_rpq(expression)),
        "hand-built": _random_nfa(rng),
    }
    return seed, graph, expression, automata


def _rebuilt(cq, final) -> NFA:
    """The NFA a compile runs, over label names."""
    nfa = NFA(cq.n_states)
    for q, row in enumerate(cq.delta):
        for a, targets in row.items():
            for p in targets:
                nfa.add_transition(q, cq.graph.label_name(a), p)
    nfa.set_initial(*cq.initial_closure)
    nfa.set_final(*final)
    return nfa


def _coarsest_same_past(written):
    """The classes of the as-written compile's co-accessible states,
    by full passes until nothing splits."""
    live = {q for q in range(written.n_states) if written.delta[q]}
    live |= written.final
    entering = {p: [] for p in live}
    for q in live:
        for a, targets in written.delta[q].items():
            for p in targets:
                entering[p].append((a, q))
    cls = {q: 0 for q in live}
    while True:
        signature = {
            q: (
                q in written.initial_closure,
                frozenset((a, cls[r]) for a, r in entering[q]),
            )
            for q in live
        }
        # Split every class by signature; a class never re-joins.
        ids = {}
        refined = {
            q: ids.setdefault((cls[q], signature[q]), len(ids)) for q in live
        }
        if len(ids) == len(set(cls.values())):
            break
        cls = refined
    classes = {}
    for q, c in cls.items():
        classes.setdefault(c, set()).add(q)
    # A backward bisimulation: members agree on their signature…
    by_class = {c: {signature[q] for q in qs} for c, qs in classes.items()}
    assert all(len(sigs) == 1 for sigs in by_class.values())
    # …and the coarsest: classes that agreed could have been one.
    assert len({next(iter(sigs)) for sigs in by_class.values()}) == len(classes)
    return list(classes.values())


@pytest.mark.parametrize("case", range(N_CASES))
def test_merged_is_the_quotient_of_as_written(case: int) -> None:
    seed, graph, expression, automata = _draw_case(case)
    for name, nfa in automata.items():
        context = f"seed={seed} {name} regex={expression!r}"
        merged = compile_query(graph, nfa)
        written = compile_epsilon_free(graph, nfa)
        classes = _coarsest_same_past(written)

        # Ids: dense after the merge, as given by the other two compiles.
        assert merged.n_states == len(classes), context
        assert all(
            a < b for a, b in zip(merged.written, merged.written[1:])
        ), context
        assert merged.automaton is nfa, context
        for kept in (written, compile_query(graph, nfa, eliminate_epsilon=False)):
            assert kept.n_states == nfa.n_states, context
            assert kept.final == nfa.final, context
            assert kept.written == tuple(range(nfa.n_states)), context

        # The quotient, exactly, read through the class map.
        rep_of = {}
        for block in classes:
            rep = min(block & written.final or block)
            rep_of.update(dict.fromkeys(block, rep))
        reps = sorted(set(rep_of.values()))
        assert merged.written == tuple(reps), context
        rows = {rep: {} for rep in reps}
        for q, rep in rep_of.items():
            for a, targets in written.delta[q].items():
                rows[rep].setdefault(a, set()).update(
                    rep_of[p] for p in targets
                )
        expected = tuple(
            {a: tuple(sorted(ts)) for a, ts in rows[rep].items()} for rep in reps
        )
        back = merged.written.__getitem__
        assert tuple(
            {a: tuple(map(back, ts)) for a, ts in row.items()}
            for row in merged.delta
        ) == expected, context
        assert set(map(back, merged.initial_closure)) == {
            rep_of[q] for q in written.initial_closure
        }, context
        assert set(map(back, merged.final)) == written.final & set(reps), context
        assert merged.live_states == (len(rep_of), len(classes)), context
        assert written.live_states == (len(rep_of), len(rep_of)), context

        # Language; and the quotient has nothing left to merge.
        quotient = _rebuilt(merged, merged.final)
        assert equivalent(quotient, _rebuilt(written, written.final)), context
        if merged.initial_closure:  # Else nothing starts: no query.
            again = compile_query(graph, quotient)
            assert again.live_states == (len(classes), len(classes)), context
            assert again.written == tuple(range(len(classes))), context
            assert again.delta == merged.delta, context

        # Merged == as-written, end to end.
        costed = costed_copy(graph, random.Random(seed))
        for g, cheapest in ((graph, False), (costed, True)):
            m, w = compile_query(g, nfa), compile_epsilon_free(g, nfa)
            for s in g.vertices():
                for t in g.vertices():
                    assert packed_walks(m, s, t, cheapest) == packed_walks(
                        w, s, t, cheapest
                    ), f"{context} cheapest={cheapest} s={s} t={t}"


def test_the_merge_is_not_vacuous() -> None:
    """A Thompson automaton shrinks in at least a case in four (37–53
    of 100 on the CI bases; the rest mostly need the absent ``d``), a
    hand-built one in one in twenty, and the total drops by a tenth —
    if the generator stopped drawing mergeable automata the case above
    would check nothing."""
    before = after = 0
    shrunk = dict.fromkeys(("thompson", "glushkov", "hand-built"), 0)
    for case in range(N_CASES):
        _, graph, _, automata = _draw_case(case)
        for name, nfa in automata.items():
            co_accessible, kept = _live_states(graph, nfa)
            before, after = before + co_accessible, after + kept
            shrunk[name] += kept < co_accessible
    assert 4 * shrunk["thompson"] >= N_CASES, shrunk
    assert 20 * shrunk["hand-built"] >= N_CASES, shrunk
    assert 10 * after <= 9 * before, (before, after)


def _live_states(graph, query):
    nfa = query if isinstance(query, NFA) else regex_to_nfa(query)
    cq = compile_query(graph, nfa)
    assert cq.n_states == cq.live_states[1]
    return cq.live_states


def test_pinned_sizes() -> None:
    """Co-accessible states → states the engine runs, machine-free."""
    big = random_multilabel(40, 160, alphabet=("a", "b", "c", "d"), seed=1)
    for query, sizes in (
        ("(a|b)* c (a|b|c)*", (7, 2)),  # big_cold's three…
        ("a b* c", (4, 3)),
        ("(a|b|c|d)+", (9, 2)),
        ("(a|b)*", (3, 1)),  # …chain800's…
        ("a*", (2, 1)),
        ("(a|b)*a(a|b){12}", (28, 14)),
    ):
        assert _live_states(big, query) == sizes, query
    network = transport_network(12, seed=1)
    for name, sizes in (  # …and the four the transport workloads send.
        ("ground_only", (5, 2)),
        ("fly_then_ground", (4, 2)),
        ("no_bus", (5, 2)),
        ("one_flight_max", (6, 2)),
    ):
        assert _live_states(network, TRANSPORT_QUERIES[name]) == sizes, name
    # m states entered by every state on every label: the initial one
    # and the rest.
    for m in (2, 5, 10):
        assert _live_states(big, wide_nfa(m)) == (m, 2)
    # Figure 3's two states have different pasts.
    fig1, fig3 = example9_graph(), example9_automaton()
    assert compile_query(fig1, fig3).live_states == (2, 2)
    assert compile_query(fig1, fig3).delta == compile_epsilon_free(fig1, fig3).delta


@pytest.mark.parametrize("expression", ["a{400}", "(a|b){300}"])
def test_refinement_is_a_worklist(expression: str, monkeypatch) -> None:
    """Counted repetition is a chain of singletons found one per round:
    a refinement that signs every state every round computes
    Θ(|Q|²) signatures on it, the worklist O(|Δ| log |Q|)."""
    graph = chain(2, ("a", "b"))
    nfa = regex_to_nfa(expression)
    written = compile_epsilon_free(graph, nfa)
    states, transitions = written.live_states[0], written.delta_size
    computed = []
    real = compile_module._past

    def counted(entering, cls):
        computed.append(1)
        return real(entering, cls)

    monkeypatch.setattr(compile_module, "_past", counted)
    assert compile_query(graph, nfa).live_states[0] == states
    assert states <= len(computed) <= transitions * log2(states)
