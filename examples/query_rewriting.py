#!/usr/bin/env python
"""Query rewriting with the automata toolbox.

A query optimizer rewrites RPQs — simplifying unions, narrowing
wildcards, merging alternatives — and must prove each rewrite safe.
This example exercises the language toolbox that ships beside the
test oracles in :mod:`repro.baselines` (no production path runs it):

* :func:`~repro.baselines.equivalence.equivalent` /
  ``counterexample`` — is the rewrite the same query?  If not, which
  word separates them?
* :func:`~repro.baselines.minimize.minimize` / ``language_key`` —
  canonical forms for caching per-query artifacts across syntactic
  variants;
* closure combinators (``union_nfa``, ``difference_nfa``, ...) —
  compose queries algebraically, then run them on the database.

Run:  python examples/query_rewriting.py
"""

from repro import DistinctShortestWalks, regex_to_nfa
from repro.baselines.closure import difference_nfa, union_nfa
from repro.baselines.equivalence import counterexample, equivalent, is_subset
from repro.baselines.minimize import language_key, minimize
from repro.workloads.fraud import example9_graph


def main() -> None:
    graph = example9_graph()

    # 1. A rewrite that IS safe: factor the union out of the star.
    original = regex_to_nfa("(h | s)* s (h | s)*")
    rewritten = regex_to_nfa("(h* s)+ h*")
    print("rewrite  (h|s)* s (h|s)*  →  (h* s)+ h*")
    print(f"  equivalent: {equivalent(original, rewritten)}")
    assert equivalent(original, rewritten)

    # 1b. A classic non-obvious equivalence: Example 9's query already
    # IS "at least one suspicious transfer" — anchoring the first s
    # after h* loses nothing, because the first s of any word works.
    example9 = regex_to_nfa("h* s (h | s)*")
    print("\nrewrite  (h|s)* s (h|s)*  →  h* s (h|s)*")
    print(f"  equivalent: {equivalent(original, example9)}")
    assert equivalent(original, example9)

    # 2. A rewrite that is NOT safe — with the shortest witness.
    wrong = regex_to_nfa("s (h | s)*")  # "Starts suspicious" ≠ original.
    witness = counterexample(original, wrong)
    print("\nrewrite  (h|s)* s (h|s)*  →  s (h|s)*")
    print(f"  equivalent: {equivalent(original, wrong)}")
    print(f"  shortest separating word: {''.join(witness)!r}")
    # The rewrite only narrowed the query; the tool confirms which way:
    print(f"  s (h|s)*  ⊆  (h|s)* s (h|s)*: {is_subset(wrong, original)}")
    assert witness is not None
    assert is_subset(wrong, original)
    assert not is_subset(original, wrong)

    # 3. Canonical keys deduplicate per-query caches.
    variants = ["s | h s", "(h? s)", "h s | s"]
    keys = {language_key(regex_to_nfa(v)) for v in variants}
    print(f"\n{len(variants)} syntactic variants, {len(keys)} language(s)")
    assert len(keys) == 1
    dfa = minimize(regex_to_nfa(variants[0]))
    print(f"  minimal DFA: {dfa.n_states} states")

    # 4. Compose queries algebraically and run the result.
    fraud = regex_to_nfa("h* s (h | s)*")
    benign = regex_to_nfa("h+")
    either = union_nfa(fraud, benign)
    engine = DistinctShortestWalks(graph, either, "Alix", "Bob")
    print(f"\nunion query (fraud ∪ all-high-value): λ = {engine.lam}, "
          f"{engine.count()} answer(s)")
    assert engine.lam == 2  # hh now matches via the benign branch.

    # Fraud-only answers = union minus benign.
    only_fraud = difference_nfa(fraud, benign)
    engine2 = DistinctShortestWalks(graph, only_fraud, "Alix", "Bob")
    print(f"difference query (fraud \\ high-value): λ = {engine2.lam}, "
          f"{engine2.count()} answer(s)")
    assert engine2.lam == 3


if __name__ == "__main__":
    main()
