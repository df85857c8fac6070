"""EXP-DETBLOWUP — why the algorithm must handle NFAs directly.

Section 1: a user's regular expression "does not translate to a
deterministic automaton without a possible exponential increase in
size".  The classic witness family is

    R_n  =  (a|b)* a (a|b){n}            ("n-th letter from the end is a")

whose NFA is linear in ``n`` while its minimal DFA needs ``2**(n+1)``
states.  This suite certifies the blowup with exact state counts and
shows what it costs operationally: the engine's preprocessing over the
NFA stays flat while a determinize-first pipeline grows exponentially.
"""

from __future__ import annotations

import time

from repro.automata import parse_rpq, thompson_nfa
from repro.baselines import glushkov_nfa
from repro.baselines.determinize import determinize
from repro.baselines.minimize import minimize
from repro.core.engine import DistinctShortestWalks
from repro.graph.generators import chain

_NS = (4, 6, 8, 10)


def _expression(n: int) -> str:
    return f"(a|b)* a (a|b){{{n}}}"


def test_state_blowup_is_exponential(benchmark, print_table):
    rows = []
    dfa_sizes = []
    for n in _NS:
        ast = parse_rpq(_expression(n))
        thompson = thompson_nfa(ast)
        glushkov = glushkov_nfa(ast)
        dfa = minimize(thompson)
        rows.append(
            [
                n,
                thompson.n_states,
                glushkov.n_states,
                determinize(glushkov).n_states,
                dfa.n_states,
            ]
        )
        dfa_sizes.append(dfa.n_states)
        # The textbook bound, exactly.
        assert dfa.n_states == 2 ** (n + 1)
    benchmark.pedantic(
        lambda: minimize(thompson_nfa(parse_rpq(_expression(8)))),
        rounds=2,
        iterations=1,
    )
    print_table(
        "EXP-DETBLOWUP (a): NFA vs DFA sizes for (a|b)* a (a|b)^n",
        ["n", "|Q| Thompson", "|Q| Glushkov", "|Q| subset DFA", "|Q| min DFA"],
        rows,
    )
    assert dfa_sizes[-1] == 2 ** (_NS[-1] + 1)


def test_nfa_engine_avoids_blowup(benchmark, print_table):
    """Preprocessing with the NFA stays flat; with the DFA it explodes."""
    graph = chain(24, labels=("a", "b"), parallel=1)
    rows = []
    nfa_times, dfa_times = [], []
    for n in _NS:
        ast = parse_rpq(_expression(n))
        nfa = thompson_nfa(ast)

        t0 = time.perf_counter()
        engine = DistinctShortestWalks(graph, nfa, "v0", "v24")
        engine.preprocess()
        t1 = time.perf_counter()
        nfa_times.append(t1 - t0)

        dfa = determinize(glushkov_nfa(ast))
        t2 = time.perf_counter()
        dfa_engine = DistinctShortestWalks(graph, dfa, "v0", "v24")
        dfa_engine.preprocess()
        t3 = time.perf_counter()
        dfa_times.append(t3 - t2)

        assert engine.lam == dfa_engine.lam
        rows.append(
            [
                n,
                nfa.n_states,
                dfa.n_states,
                f"{(t1 - t0) * 1e3:.2f} ms",
                f"{(t3 - t2) * 1e3:.2f} ms",
            ]
        )
    benchmark.pedantic(lambda: engine.preprocess(), rounds=2, iterations=1)
    print_table(
        "EXP-DETBLOWUP (b): preprocessing, NFA engine vs determinize-first",
        ["n", "|Q| NFA", "|Q| DFA", "NFA preprocess", "DFA preprocess"],
        rows,
    )
    # The DFA pipeline must degrade relative to the NFA pipeline as n
    # grows (ratio at n=10 ≫ ratio at n=4).
    first_ratio = dfa_times[0] / nfa_times[0]
    last_ratio = dfa_times[-1] / nfa_times[-1]
    assert last_ratio > 4 * first_ratio, (first_ratio, last_ratio)
