#!/usr/bin/env python
"""One source, many targets: sweeping a fraud network (§5.3).

An investigator starts from one account and asks: *which accounts can
be reached by a laundering-style chain, how far are they, and through
which transfers?*  Running the full algorithm once per candidate target
would repeat the preprocessing |V| times; the paper's one-source-to-
many-targets extension saturates a single ``Annotate`` pass and then
enumerates per target at no extra preprocessing cost.

Run:  python examples/investigation_sweep.py
"""

from collections import defaultdict

from repro import MultiTargetShortestWalks, regex_to_nfa
from repro.workloads.fraud import fraud_network


def main() -> None:
    # A 300-account transfer network with a planted mule chain.
    graph = fraud_network(
        n_accounts=300, n_transfers=1500, suspicious_rate=0.12, seed=5
    )
    print(f"network: {graph}")

    # Laundering pattern: suspicious transfers possibly capped by one
    # high-value cash-out.
    query = "s s* h?"
    print(f"query:   {query}\n")

    sweep = MultiTargetShortestWalks(graph, regex_to_nfa(query), "acct0")
    reached = sweep.reached_targets()
    print(f"accounts reachable by the pattern: {len(reached)}\n")

    # Group by distance: the fraud ring's "shells" around the source.
    by_distance = defaultdict(list)
    for target in reached:
        by_distance[sweep.lam_for(target)].append(target)

    for distance in sorted(by_distance)[:4]:
        members = by_distance[distance]
        print(f"λ = {distance}: {len(members)} account(s)")
        # Show the full evidence for the first account of each shell.
        sample = members[0]
        name = graph.vertex_name(sample)
        walks = list(sweep.walks_to(sample))
        print(f"  e.g. {name} — {len(walks)} distinct shortest chain(s):")
        for walk in walks[:3]:
            print(f"    {walk.describe()}")
        if len(walks) > 3:
            print(f"    ... and {len(walks) - 3} more")
        print()

    # The same sweep with per-target engines would redo Annotate once
    # per account; the shared pass does it once (see EXP-EXT-MT for the
    # measured gap).


if __name__ == "__main__":
    main()
