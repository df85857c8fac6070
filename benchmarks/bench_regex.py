"""EXP-C20 — regex queries: Thompson (Corollary 20) vs Glushkov.

Thompson yields O(|R|) states/transitions (plus ε, which compilation
closes); Glushkov yields |R|+1 states but up to O(|R|²) transitions.
On union-heavy expressions the Glushkov transition count grows
quadratically while Thompson's stays linear — we measure both the
automaton sizes and the end-to-end pipeline, and assert identical
answers.  The pipeline columns show what the engine's compile left of
each construction (co-accessible states → states after the same-past
merge): the merge is where Thompson's ε-closure copies go.
"""

from __future__ import annotations

import pytest

from repro.automata import thompson_nfa
from repro.automata.regex_ast import ast_size
from repro.automata.regex_parser import parse_rpq
from repro.baselines import glushkov_nfa
from repro.bench import loglog_slope, time_call
from repro.core.compile import compile_query
from repro.core.engine import DistinctShortestWalks
from repro.graph.generators import random_multilabel


#: Production's construction and the baseline it is measured against.
_CONSTRUCTIONS = {"thompson": thompson_nfa, "glushkov": glushkov_nfa}


def _union_heavy(k: int) -> str:
    """(a | a | ... | a)* b — k alternatives; Glushkov gets k² follows."""
    return "(" + " | ".join(["a"] * k) + ")* b"


def test_construction_sizes(benchmark, print_table):
    rows, sizes_r, thompson_deltas, glushkov_deltas = [], [], [], []
    for k in (2, 4, 8, 16):
        ast = parse_rpq(_union_heavy(k))
        r = ast_size(ast)
        thom = thompson_nfa(ast)
        glus = glushkov_nfa(ast)
        sizes_r.append(r)
        thompson_deltas.append(thom.transition_count)
        glushkov_deltas.append(glus.transition_count)
        rows.append(
            [
                k,
                r,
                thom.n_states,
                thom.transition_count,
                glus.n_states,
                glus.transition_count,
            ]
        )
    thompson_slope = loglog_slope(sizes_r, thompson_deltas)
    glushkov_slope = loglog_slope(sizes_r, glushkov_deltas)
    rows.append(
        ["slope", "", "", f"{thompson_slope:.2f}", "", f"{glushkov_slope:.2f}"]
    )
    benchmark.pedantic(
        lambda: (thompson_nfa(ast), glushkov_nfa(ast)), rounds=3, iterations=1
    )
    print_table(
        "EXP-C20 (a): construction sizes on (a|...|a)* b",
        ["k", "|R|", "Thompson |Q|", "Thompson |Δ|", "Glushkov |Q|",
         "Glushkov |Δ|"],
        rows,
    )
    assert thompson_slope < 1.3, "Thompson transitions must grow linearly"
    assert glushkov_slope > 1.6, "Glushkov transitions grow quadratically"


def test_end_to_end_same_answers(benchmark, print_table):
    graph = random_multilabel(
        400, 4_000, alphabet=("a", "b"), seed=13,
        ensure_path=("src", "dst", 5),
    )
    rows = []
    for k in (2, 8, 16):
        expression = _union_heavy(k)
        results = {}
        timings = {}
        states = {}
        for method, construct in _CONSTRUCTIONS.items():
            nfa = construct(parse_rpq(expression))
            states[method] = "{} → {}".format(
                *compile_query(graph, nfa).live_states
            )

            def run():
                engine = DistinctShortestWalks(graph, nfa, "src", "dst")
                return sorted(w.edges for w in engine.enumerate())

            timings[method] = time_call(run, repeat=2)
            results[method] = run()
        assert results["thompson"] == results["glushkov"]
        rows.append(
            [
                k,
                len(results["thompson"]),
                f"{timings['thompson'] * 1e3:.1f} ms",
                states["thompson"],
                f"{timings['glushkov'] * 1e3:.1f} ms",
                states["glushkov"],
            ]
        )
    benchmark.pedantic(run, rounds=2, iterations=1)
    print_table(
        "EXP-C20 (b): end-to-end pipeline, Thompson vs Glushkov",
        ["k", "answers", "thompson", "states", "glushkov", "states"],
        rows,
    )


@pytest.mark.parametrize("method", ["thompson", "glushkov"])
def test_pipeline_benchmark(benchmark, method):
    graph = random_multilabel(
        300, 3_000, alphabet=("a", "b"), seed=13,
        ensure_path=("src", "dst", 5),
    )
    nfa = _CONSTRUCTIONS[method](parse_rpq(_union_heavy(8)))

    def run():
        return DistinctShortestWalks(graph, nfa, "src", "dst").count()

    benchmark(run)
