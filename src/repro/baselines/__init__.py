"""Baseline algorithms the paper compares against (or warns about).

* :mod:`repro.baselines.naive` — shortest-path enumeration in the
  product graph with a stored dedup set: the strawman of Section 1,
  which can emit exponentially many duplicates per answer;
* :mod:`repro.baselines.all_shortest_words` — from-scratch
  Ackerman–Shallit enumeration of the shortest words of an NFA's
  language in radix order (Theorem 21);
* :mod:`repro.baselines.martens_trautner` — the Theorem 1 / Appendix A
  reduction of Distinct Shortest Walks to All Shortest Words;
* :mod:`repro.baselines.glushkov` — the position construction
  (ε-free, up to O(|R|²) transitions, Section 5.2): a second
  regex → NFA construction the tests run the pipeline on beside
  production's Thompson;
* :mod:`repro.baselines.untrimmed` — the factor-``d`` ablation of
  Section 3.2: ``Enumerate`` reading the raw ``B`` maps with no
  ``Trim`` step;
* :mod:`repro.baselines.paper_pipeline` — Figure 2 transcribed on the
  paper's own structures (dict ``L``/``B``, restartable queues, skip
  arrays, recursive ``Enumerate``): the content and order oracle for
  the packed pipeline of :mod:`repro.core`, and the only home of
  Section 5.1's ε-native ``PossiblyVisit`` and of the pairing-heap arm
  of the Dijkstra ``Annotate``;
* :mod:`repro.baselines.cons_list`,
  :mod:`repro.baselines.restartable_queue`,
  :mod:`repro.baselines.resumable_index`,
  :mod:`repro.baselines.pairing_heap` — the paper's Section 2.1
  containers and the decrease-key heap that transcription runs on;
* :mod:`repro.baselines.runs` — Section 5.3's per-walk rerun of the
  automaton, the run-count reference for production's suffix-sharing
  counter;
* :mod:`repro.baselines.simple` — the folklore product-BFS enumerator
  for the "simpler setting" (single-labeled database, deterministic
  automaton): a cross-check there, and EXP-SIMPLE's comparison row;
* :mod:`repro.baselines.oracle` — exhaustive ground truth used only by
  the test suite;
* the language toolbox — :mod:`repro.baselines.closure` (the regular
  operations on NFAs), :mod:`repro.baselines.determinize` (subset
  construction), :mod:`repro.baselines.minimize` (Hopcroft /
  Brzozowski minimization, canonical language keys) and
  :mod:`repro.baselines.equivalence` (language equivalence and
  inclusion with shortest counterexamples): the language oracles that
  hold the regex constructions and the compile-time quotient to their
  languages;
* :mod:`repro.baselines.validate` — every structural invariant of a
  built graph re-checked, the graph oracle for the builder, the
  readers and the generators;
* :mod:`repro.baselines.deltas` — Section 6's delta-encoded output
  stream (a "perspectives" artefact, measured by EXP-DELTA).

:mod:`repro.core` and the tiers above it never import this package.
"""

from repro.baselines.all_shortest_words import all_shortest_words
from repro.baselines.glushkov import glushkov_nfa
from repro.baselines.martens_trautner import (
    ProductAutomaton,
    build_product_automaton,
    martens_trautner_walks,
)
from repro.baselines.naive import NaiveStats, naive_enumerate
from repro.baselines.oracle import oracle_answer_set, oracle_lam
from repro.baselines.paper_pipeline import (
    annotate_reference,
    cheapest_annotate_reference,
    enumerate_walks_recursive,
    recursive_walks,
)
from repro.baselines.runs import count_accepting_runs
from repro.baselines.simple import SimpleShortestWalks
from repro.baselines.untrimmed import UntrimmedStats, enumerate_untrimmed

__all__ = [
    "NaiveStats",
    "ProductAutomaton",
    "SimpleShortestWalks",
    "UntrimmedStats",
    "all_shortest_words",
    "annotate_reference",
    "build_product_automaton",
    "cheapest_annotate_reference",
    "count_accepting_runs",
    "enumerate_untrimmed",
    "enumerate_walks_recursive",
    "glushkov_nfa",
    "martens_trautner_walks",
    "naive_enumerate",
    "oracle_answer_set",
    "oracle_lam",
    "recursive_walks",
]
