#!/usr/bin/env python
"""Fraud detection on a synthetic bank-transfer network.

Scales the Example 9 scenario up: 500 accounts, a few thousand
transfers labeled ``h`` (high value), ``s`` (suspicious), ``w`` (wire),
``c`` (cash).  Shows:

* RPQ queries with the full expression syntax (unions, stars, bounded
  repetitions);
* the query planner explaining which engine runs;
* multiplicities as a crude "how suspicious is this walk" signal;
* one-source-to-many-targets: where can the mule account reach?

Run:  python examples/fraud_detection.py
"""

from repro import Database, regex_to_nfa
from repro.query import analyze
from repro.workloads.fraud import fraud_network


def main() -> None:
    graph = fraud_network(
        n_accounts=500, n_transfers=3_000, seed=2024, chain_length=5
    )
    print(f"transfer network: {graph}")
    db = Database(graph)
    source, sink = "acct0", "acct499"

    # 1. Classic laundering pattern: anything, then a suspicious hop,
    #    then anything — restricted to "money actually moving" labels.
    laundering = "(h | w | c)* s (h | w | c | s)*"
    pair = db.query(laundering).from_(source).to(sink)
    result = pair.run()
    print(f"\nquery: {laundering}")
    print(f"  λ = {result.lam}")
    walks = list(result.walks())
    print(f"  distinct shortest walks: {len(walks)}")
    for walk in walks[:5]:
        print(f"    {walk.describe()}")
    if len(walks) > 5:
        print(f"    ... and {len(walks) - 5} more")

    # 2. The planner explains itself (multi-labeled data -> general
    #    algorithm; Theorem 2 bounds).
    print("\nplanner analysis:")
    print(analyze(graph, regex_to_nfa(laundering)).explain())

    # 3. Multiplicities: walks whose label sets admit many accepting
    #    runs are "suspicious in many ways".
    print("\nwalks ranked by number of accepting runs:")
    ranked = sorted(
        pair.with_multiplicity().run(), key=lambda row: -row.multiplicity
    )
    for row in ranked[:3]:
        print(f"  {row.multiplicity:4d} runs  {row.walk.describe()}")

    # 4. Multi-target: everything reachable from the mule account by a
    #    short chain of exclusively-suspicious transfers.
    reached = dict(db.query("s{1,3}").from_(source).to_all().targets())
    print(
        f"\naccounts reachable from {source} via 1-3 suspicious hops: "
        f"{len(reached)}"
    )
    for name in sorted(reached)[:10]:
        print(f"  {name} (λ = {reached[name]})")


if __name__ == "__main__":
    main()
