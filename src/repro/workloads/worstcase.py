"""Adversarial instance families for the complexity experiments.

* :func:`duplicate_bomb` — one single shortest walk witnessed by
  ``m**k`` product paths: the instance from the paper's introduction
  where naive product enumeration repeats the same answer
  exponentially many times (experiment EXP-NAIVE);
* :func:`diamond_chain` — ``p**k`` distinct answers, for enumeration
  throughput and delay measurements;
* :func:`wide_nfa` — a complete m-state NFA used to scale |A|
  independently of |D| in the delay experiments (EXP-T2-DELAY);
* :func:`decoy_indegree` — a diamond chain whose in-degrees are
  inflated by never-matched decoy edges: the instance that separates
  the trimmed enumeration from the factor-``d`` strawman of
  Section 3.2 (experiment EXP-ABL-TRIM);
* :func:`label_soup` — a diamond chain drowned in labels the query
  never fires on: the instance that separates the label-indexed
  product-BFS (cost ∝ matching labels only) from the edge-major scan
  (cost ∝ OutDeg(v) × |Lbl(e)|) — the EXP-ADJ tables of
  ``EXPERIMENTS.md`` — and a step-counted delay adversary
  (``tests/property/test_delay_instrumentation.py``).
"""

from __future__ import annotations

from typing import Tuple

from repro.automata.nfa import NFA
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain
from repro.graph.database import Graph


def wide_nfa(m: int, labels: Tuple[str, ...] = ("a", "b")) -> NFA:
    """Complete NFA: every state reaches every state on every label.

    All states are initial-reachable witnesses: state 0 is initial, all
    states are final, so every walk over ``labels`` matches — with
    ``m**k`` accepting runs for a walk of length ``k``.
    |Δ| = m² × len(labels).
    """
    nfa = NFA(m)
    for q in range(m):
        for p in range(m):
            for a in labels:
                nfa.add_transition(q, a, p)
    nfa.set_initial(0)
    nfa.set_final(*range(m))
    return nfa


def duplicate_bomb(
    k: int, m: int, labels: Tuple[str, ...] = ("a", "b")
) -> Tuple[Graph, NFA, str, str]:
    """One walk, ``m**k`` product paths.

    The database is a simple chain of ``k`` multi-labeled edges (so
    exactly one shortest walk from end to end); the query is the
    complete ``m``-state NFA.  Naive product-path enumeration visits
    ``m**k`` shortest product paths to emit that single answer, while
    the paper's algorithm outputs it after O(|D|×|A|) preprocessing
    with O(λ×|A|) delay.

    Returns ``(graph, nfa, source_name, target_name)``.
    """
    graph = chain(k, labels=labels, parallel=1)
    return graph, wide_nfa(m, labels), "v0", f"v{k}"


def diamond_chain(
    k: int, parallel: int = 2, labels: Tuple[str, ...] = ("a",)
) -> Tuple[Graph, NFA, str, str]:
    """``parallel**k`` distinct shortest walks, all of length ``k``.

    Each hop of the chain has ``parallel`` parallel edges; the query is
    the single-state "accept anything" automaton, so every combination
    of edge choices is a distinct answer.  Used to measure enumeration
    throughput and per-output delay on large answer sets.

    Returns ``(graph, nfa, source_name, target_name)``.
    """
    graph = chain(k, labels=labels, parallel=parallel)
    nfa = NFA(1)
    for a in labels:
        nfa.add_transition(0, a, 0)
    nfa.set_initial(0)
    nfa.set_final(0)
    return graph, nfa, "v0", f"v{k}"


def decoy_indegree(
    k: int,
    parallel: int = 2,
    decoys: int = 0,
    label: str = "a",
    decoy_label: str = "x",
) -> Tuple[Graph, NFA, str, str]:
    """A diamond chain whose in-degrees are padded with decoy edges.

    Same answer set as :func:`diamond_chain` (``parallel**k`` walks of
    length ``k`` matching ``label*``), but every chain vertex also
    receives ``decoys`` in-edges from an unreachable hub, labeled
    ``decoy_label`` which the query does not mention.  The decoys are
    inserted *before* the real edges, so they occupy the low ``TgtIdx``
    positions that a cell-by-cell scan of ``B_u[p]`` must cross first.

    The annotation ignores the decoys entirely (the hub is unreachable
    from the source), so:

    * the trimmed enumeration's delay is independent of ``decoys``
      (Theorem 2 — the queues only ever contain real edges), while
    * the untrimmed strawman (:mod:`repro.baselines.untrimmed`) scans
      ``decoys`` empty cells per tree node — the factor ``d`` of
      Section 3.2.

    Returns ``(graph, nfa, source_name, target_name)``.
    """
    builder = GraphBuilder()
    builder.add_vertex("v0")
    if decoys:
        builder.add_vertex("decoy_hub")
    for i in range(1, k + 1):
        for _ in range(decoys):
            builder.add_edge("decoy_hub", f"v{i}", [decoy_label])
        for _ in range(parallel):
            builder.add_edge(f"v{i - 1}", f"v{i}", [label])
    nfa = NFA(1)
    nfa.add_transition(0, label, 0)
    nfa.set_initial(0)
    nfa.set_final(0)
    return builder.build(), nfa, "v0", f"v{k}"


def label_soup(
    k: int,
    parallel: int = 2,
    extra_labels: int = 8,
    noise_out: int = 4,
    label: str = "a",
) -> Tuple[Graph, NFA, str, str]:
    """A diamond chain where almost every label never fires.

    Two orthogonal label inflations over :func:`diamond_chain`:

    * every matching chain edge *additionally* carries ``extra_labels``
      noise labels ``x0 .. x{extra_labels-1}`` — the edge-major scan
      probes Δ once per label and misses on all but ``label``;
    * every chain vertex also gets ``noise_out`` out-edges (to the next
      vertex) carrying only noise labels — the edge-major scan walks
      them in full, the label-indexed one never sees them.

    Answer set unchanged: ``parallel**k`` walks of length ``k``
    matching ``label*``.  With the defaults each frontier expansion
    costs the reference traversal 22 (edge, label) probes — 2 matching
    edges × 9 labels + 4 noise edges × 1 label — versus 2 CSR hits in
    the indexed one, which is the O(OutDeg × |Lbl|) → O(Σ_a |Out_a|)
    separation of the CSR layer at its starkest.

    Returns ``(graph, nfa, source_name, target_name)``.
    """
    noise = [f"x{j}" for j in range(extra_labels)]
    builder = GraphBuilder()
    builder.add_vertex("v0")
    for i in range(1, k + 1):
        for _ in range(parallel):
            builder.add_edge(f"v{i - 1}", f"v{i}", [label] + noise)
        for j in range(noise_out if extra_labels else 0):
            builder.add_edge(f"v{i - 1}", f"v{i}", [noise[j % extra_labels]])
    nfa = NFA(1)
    nfa.add_transition(0, label, 0)
    nfa.set_initial(0)
    nfa.set_final(0)
    return builder.build(), nfa, "v0", f"v{k}"
