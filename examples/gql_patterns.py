#!/usr/bin/env python
"""Query the fraud network with GQL-flavoured path patterns.

The paper motivates Distinct Shortest Walks as the core task of the
all-shortest-walks semantics used by GSQL (TigerGraph), G-Core, PGQL
and the GQL ISO standard (Section 1).  Those languages write queries
as *path patterns*; this example runs several of them over the Figure 1
database through :func:`repro.parse_pattern`:

* ``ALL SHORTEST`` — every distinct shortest matching walk (the
  paper's problem);
* ``ANY SHORTEST`` — one representative walk;
* multi-segment patterns with anonymous interior nodes;
* GQL-style ``:label`` sigils and per-segment quantifiers.

Run:  python examples/gql_patterns.py
"""

from repro import Database, parse_pattern
from repro.workloads.fraud import example9_graph


PATTERNS = [
    # Example 9, verbatim semantics: all shortest, each walk once.
    "ALL SHORTEST (Alix)-[:h* :s (:h|:s)*]->(Bob)",
    # One representative answer (GQL's ANY SHORTEST).
    "ANY SHORTEST (Alix)-[h* s (h|s)*]->(Bob)",
    # Two hops of anything, then one suspicious transfer.
    "ALL SHORTEST (Alix)-->()-->()-[s]->(Bob)",
    # One-or-more high-value transfers, then suspicious ones.
    "ALL SHORTEST (Alix)-[h]->+()-[s]->{1,2}(Bob)",
]


def main() -> None:
    graph = example9_graph()
    db = Database(graph)
    print(f"database: {graph}\n")

    for text in PATTERNS:
        pattern = parse_pattern(text)
        print(text)
        print(f"  compiled RPQ: {pattern.regex}")
        walks = list(pattern.query(db).run().walks())
        if not walks:
            print("  no matching walk\n")
            continue
        for walk in walks:
            print(f"  {walk.describe()}")
        print()


if __name__ == "__main__":
    main()
