"""EXP-T2-PRE — Theorem 2's preprocessing bound O(|D| × |A|).

Two sweeps:

* database scaling: fixed query, random multi-label graphs of growing
  |D| — the log-log slope of preprocessing time vs |D| must be ≈ 1
  (linear), certainly below 1.5 (ruling out quadratic);
* query scaling: fixed database, complete m-state NFAs of growing |Δ| —
  again slope ≈ 1 in |Δ|.  Compiled **as written**
  (``compile_epsilon_free``): the m states of ``wide_nfa(m)`` have one
  past, so the engine's compile runs two states whatever m and the
  paper's |A| axis would go flat.
"""

from __future__ import annotations

import pytest

from repro.automata import regex_to_nfa
from repro.bench import loglog_slope, time_call
from repro.core.annotate import annotate
from repro.core.compile import compile_epsilon_free, compile_query
from repro.core.trim import trim
from repro.graph.generators import random_multilabel
from repro.workloads.worstcase import wide_nfa

_QUERY = regex_to_nfa("(a | b)* c (a | b | c)*")


def _preprocess(graph, nfa, source, target, compiler=compile_query):
    cq = compiler(graph, nfa)
    ann = annotate(cq, source, target)
    trim(graph, ann)


@pytest.mark.parametrize("n_edges", [2_000, 4_000, 8_000, 16_000])
def test_preprocessing_scales_with_database(benchmark, n_edges):
    graph = random_multilabel(
        n_vertices=max(64, n_edges // 8),
        n_edges=n_edges,
        seed=42,
        ensure_path=("src", "dst", 6),
    )
    s, t = graph.vertex_id("src"), graph.vertex_id("dst")
    benchmark.extra_info["graph_size"] = graph.size()
    benchmark.pedantic(
        _preprocess, args=(graph, _QUERY, s, t), rounds=3, iterations=1
    )


def test_database_scaling_is_linear(benchmark, print_table):
    sizes, times = [], []
    rows = []
    for n_edges in (1_000, 2_000, 4_000, 8_000, 16_000):
        graph = random_multilabel(
            n_vertices=max(64, n_edges // 8),
            n_edges=n_edges,
            seed=42,
            ensure_path=("src", "dst", 6),
        )
        s, t = graph.vertex_id("src"), graph.vertex_id("dst")
        elapsed = time_call(lambda: _preprocess(graph, _QUERY, s, t), repeat=3)
        sizes.append(graph.size())
        times.append(elapsed)
        rows.append([graph.size(), n_edges, f"{elapsed * 1e3:.2f} ms"])
    slope = loglog_slope(sizes, times)
    rows.append(["slope", "", f"{slope:.3f}"])
    # One representative benchmark record for the largest instance.
    benchmark.pedantic(
        _preprocess, args=(graph, _QUERY, s, t), rounds=2, iterations=1
    )
    print_table(
        "EXP-T2-PRE (a): preprocessing vs |D| (fixed A) — slope ≈ 1",
        ["|D|", "|E|", "preprocessing"],
        rows,
    )
    assert slope < 1.5, f"preprocessing super-linear in |D|: {slope:.2f}"


def test_query_scaling_is_linear(benchmark, print_table):
    graph = random_multilabel(
        n_vertices=300, n_edges=3_000, seed=7, ensure_path=("src", "dst", 5)
    )
    s, t = graph.vertex_id("src"), graph.vertex_id("dst")
    sizes, times, rows = [], [], []
    for m in (2, 4, 8, 16):
        nfa = wide_nfa(m, ("a", "b"))
        delta_size = nfa.transition_count
        elapsed = time_call(
            lambda: _preprocess(graph, nfa, s, t, compile_epsilon_free),
            repeat=3,
        )
        sizes.append(delta_size)
        times.append(elapsed)
        rows.append([m, delta_size, f"{elapsed * 1e3:.2f} ms"])
    slope = loglog_slope(sizes, times)
    rows.append(["slope", "", f"{slope:.3f}"])
    benchmark.pedantic(
        _preprocess,
        args=(graph, nfa, s, t, compile_epsilon_free),
        rounds=2,
        iterations=1,
    )
    print_table(
        "EXP-T2-PRE (b): preprocessing vs |Δ| as written (fixed D) — slope ≈ 1",
        ["|Q|", "|Δ|", "preprocessing"],
        rows,
    )
    # |Δ| grows quadratically in m while the work is linear in |Δ|.
    assert slope < 1.4, f"preprocessing super-linear in |Δ|: {slope:.2f}"
