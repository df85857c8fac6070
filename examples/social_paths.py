#!/usr/bin/env python
"""Shortest connection paths in a social network.

A preferential-attachment social graph with ``knows`` / ``follows`` /
``mentions`` edges (some edges carry several labels at once — the
multi-labeled data model the paper is built for).  Shows:

* "degrees of separation" with the wildcard query ``. .``-style;
* asymmetric relations (``follows+ mentions``);
* why *distinct walk* semantics matters: parallel interactions between
  the same two people are different answers;
* streaming consumption: take the first k answers and stop — the
  enumeration is lazy, that is the whole point of bounded delay.

Run:  python examples/social_paths.py
"""

from repro import Database
from repro.workloads.social import social_network


def main() -> None:
    graph = social_network(n_people=400, avg_degree=8, seed=7)
    print(f"social graph: {graph}")
    db = Database(graph)
    alice, bob = "p3", "p250"

    # 1. Degrees of separation, any relationship at all.
    lam = db.query(".{1,6}").from_(alice).to(bob).run().lam
    print(f"\n{alice} and {bob} are {lam} hops apart (any relation)")

    # 2. Influence chains: follows... then a mention.
    influence = db.query("follows+ mentions").from_(alice).to(bob)
    lam = influence.run().lam
    if lam is None:
        print(f"no follows-chain from {alice} ends with a mention of {bob}")
    else:
        print(
            f"shortest follows→mention chains ({lam} hops): "
            f"{influence.count()}"
        )

    # 3. Friend-of-friend walks — stream just the first few.
    fof = db.query("knows knows").from_(alice).to("p10").limit(3)
    print(f"\nfirst friend-of-friend walks {alice} → p10:")
    for walk in fof.run().walks():
        print(f"  {walk.describe()}")

    # 4. Distinctness on multi-edges: between a popular pair there may
    #    be both a follows-edge and a follows+mentions edge; walks
    #    through either are distinct answers even though the vertex
    #    sequences coincide.
    mixed = db.query("(knows | follows | mentions){2}")
    walks = list(mixed.from_(alice).to("p10").run().walks())
    by_vertices = {}
    for walk in walks:
        by_vertices.setdefault(tuple(walk.vertex_names()), []).append(walk)
    duplicated_routes = {
        route: ws for route, ws in by_vertices.items() if len(ws) > 1
    }
    print(
        f"\n2-hop walks {alice} → p10: {len(walks)} distinct walks over "
        f"{len(by_vertices)} vertex routes"
    )
    for route, ws in list(duplicated_routes.items())[:2]:
        print(f"  route {' -> '.join(map(str, route))} has {len(ws)} walks:")
        for walk in ws:
            print(f"    {walk.describe()}")


if __name__ == "__main__":
    main()
