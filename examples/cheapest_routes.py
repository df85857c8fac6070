#!/usr/bin/env python
"""Distinct Cheapest Walks: label-constrained routing with edge costs.

A small intermodal transport network: cities connected by ``train``,
``bus`` and ``flight`` edges carrying travel costs.  The Section 5.3
extension replaces the BFS of ``Annotate`` with a Dijkstra traversal,
enumerating **all cost-minimal** walks that match the query — here,
"no more flying after the first ground segment", the kind of policy
constraint plain shortest-path algorithms cannot express.

Run:  python examples/cheapest_routes.py
"""

from repro import DistinctCheapestWalks, GraphBuilder, regex_to_nfa


def build_network():
    builder = GraphBuilder()
    legs = [
        # src, dst, mode, cost
        ("Paris", "Lyon", "train", 40),
        ("Paris", "Lyon", "bus", 25),
        ("Paris", "Nice", "flight", 80),
        ("Lyon", "Nice", "train", 45),
        ("Lyon", "Nice", "bus", 30),
        ("Lyon", "Marseille", "train", 35),
        ("Marseille", "Nice", "train", 20),
        ("Marseille", "Nice", "bus", 15),
        ("Paris", "Marseille", "flight", 70),
        ("Paris", "Marseille", "train", 60),
        ("Nice", "Genoa", "bus", 25),
        ("Marseille", "Genoa", "flight", 55),
    ]
    for src, dst, mode, cost in legs:
        builder.add_edge(src, dst, [mode], cost=cost)
    return builder.build()


def main() -> None:
    graph = build_network()
    print(f"transport network: {graph}\n")

    # Policy: any number of flights first, then ground only.
    policy = "flight* (train | bus)*"
    engine = DistinctCheapestWalks(
        graph, regex_to_nfa(policy), "Paris", "Genoa"
    )

    print(f"policy: {policy}")
    print(f"cheapest compliant cost Paris → Genoa: {engine.cheapest_cost}")
    print("all cost-minimal itineraries:")
    for walk in engine.enumerate():
        modes = " + ".join(labels[0] for labels in walk.label_sets())
        print(f"  {walk.describe()}")
        print(f"      total {walk.cost()}, modes: {modes}")

    # Contrast: unconstrained cheapest (any label sequence).
    anything = regex_to_nfa("(train | bus | flight)+")
    free = DistinctCheapestWalks(graph, anything, "Paris", "Genoa")
    print(f"\nwithout the policy the cheapest cost is {free.cheapest_cost}:")
    for walk in free.enumerate():
        print(f"  {walk.describe()}  (total {walk.cost()})")

    # Ties are first-class citizens: every cost-minimal walk is listed,
    # exactly once — the "distinct" in Distinct Cheapest Walks.
    ground = regex_to_nfa("(train | bus)+")
    tie_engine = DistinctCheapestWalks(graph, ground, "Paris", "Nice")
    walks = list(tie_engine.enumerate())
    print(
        f"\nground-only Paris → Nice: {len(walks)} tie(s) at cost "
        f"{tie_engine.cheapest_cost}"
    )
    for walk in walks:
        print(f"  {walk.describe()}")

    # At scale: the same policies over a generated 200-city network
    # (ring of train/bus legs + flight hubs).
    from repro.workloads.transport import (
        TRANSPORT_QUERIES,
        antipodal_pair,
        transport_network,
    )

    big = transport_network(200, seed=0)
    src, tgt = antipodal_pair(big)
    print(f"\ngenerated network: {big} — {src} → {tgt}")
    for name, expr in sorted(TRANSPORT_QUERIES.items()):
        engine = DistinctCheapestWalks(big, regex_to_nfa(expr), src, tgt)
        count = engine.count()
        print(
            f"  {name:<15} cheapest {str(engine.cheapest_cost):>5}, "
            f"{count} tie(s)"
        )


if __name__ == "__main__":
    main()
