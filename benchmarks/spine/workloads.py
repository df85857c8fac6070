"""The six workloads: what each generates from the seed, and why.

A workload is a graph, a request list, the cache budgets its tiers run
with, the tier its end-to-end numbers are taken at, and the assertions
that make its answers trustworthy.  The program under test only ever
sees the generated inputs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.automata import regex_to_nfa
from repro.baselines import martens_trautner_walks, oracle_lam
from repro.baselines.oracle import oracle_walk_matches
from repro.core import compile_query
from repro.graph.generators import chain, random_multilabel
from repro.workloads.transport import TRANSPORT_QUERIES, transport_network
from repro.workloads.worstcase import diamond_chain

from tiers import Answer

Request = Dict[str, Any]

_TRANSPORT = [
    TRANSPORT_QUERIES[name]
    for name in ("ground_only", "fly_then_ground", "no_bus", "one_flight_max")
]
_BIG_QUERIES = ["(a|b)* c (a|b|c)*", "a b* c", "(a|b|c|d)+"]

#: The Martens–Trautner reference costs O(|E|×|Δ|) in pure python to
#: set up and enumerates every answer: it is consulted on graphs up to
#: this many edges and trusted as complete up to this many walks (a
#: 48-hop ground route has 2^48).  Beyond either, the sample is checked
#: for λ, validity, distinctness and count only.
_REFERENCE_MAX_EDGES = 20_000
_REFERENCE_MAX_WALKS = 4_096


class WrongAnswer(AssertionError):
    """An answer failed a correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def _request(query: str, source, target, limit: Optional[int]) -> Request:
    return {
        "query": query,
        "source": source,
        "target": target,
        "limit": limit,
        "mode": "memoryless",
    }


@dataclass(frozen=True)
class Spec:
    name: str
    #: Tier the end-to-end numbers are taken at: what this workload's
    #: user calls.  "engine" | "serve" | "durable".
    tier: str
    #: Tiers the traced run walks, innermost first.
    trace_tiers: Tuple[str, ...]
    generate: Callable[[int, bool], Tuple[Any, List[Request]]]
    check: Callable[[Any, List[Request], List[Answer], int], None]
    plan_cache: int = 64
    annotation_cache: int = 128
    #: Engine tier: edge tuples retained per request (None = all).
    keep: Optional[int] = None
    #: (low, high) the annotation-cache hit rate of the timed reads must
    #: lie within, where the workload's claim rests on it.
    hit_rate: Optional[Tuple[float, float]] = None


# -- generators --------------------------------------------------------------


def _diamond(seed: int, smoke: bool):
    k = 10 if smoke else 18
    graph, _nfa, source, target = diamond_chain(k)
    # The family is deterministic: the seed has nothing to vary.
    return graph, [_request("a*", source, target, None)]


def _chain(seed: int, smoke: bool):
    hops, limit = (60, 200) if smoke else (800, 2000)
    graph = chain(hops, labels=("a", "b"), parallel=2)
    return graph, [_request("(a|b)*", "v0", f"v{hops}", limit)]


def _big(seed: int, smoke: bool):
    n, m = (600, 3_000) if smoke else (10_000, 50_000)
    graph = random_multilabel(
        n, m, alphabet=("a", "b", "c", "d"), max_labels_per_edge=2, seed=seed
    )
    rng = random.Random(seed)

    def pick(labels_of) -> str:
        # An endpoint every query can leave (enter): all four labels
        # present, so that no request is trivially empty.
        while True:
            v = rng.randrange(n)
            if len(labels_of(v)) == 4:
                return f"v{v}"

    return graph, [
        _request(q, pick(graph.out_labels), pick(graph.in_labels), 10)
        for q in _BIG_QUERIES
        for _ in range(2)
    ]


def _transport_pairs(seed: int, n: int, n_sources: int) -> List[Request]:
    # Targets a few stops down the ring: every query then has a short
    # answer (λ ≤ 6) and the requests cost about the same, so the
    # latency percentiles describe one population and not whichever
    # mixture of 1-hop flights and 48-hop ground routes the seed drew.
    rng = random.Random(seed)
    sources = rng.sample(range(n), n_sources)
    return [
        _request(q, f"city{s}", f"city{(s + rng.randint(3, 6)) % n}", 10)
        for q in _TRANSPORT
        for s in sources
    ]


def _transport(hub_fraction: float, n_sources: int):
    def generate(seed: int, smoke: bool):
        n = 32 if smoke else 96
        graph = transport_network(n, hub_fraction=hub_fraction, seed=seed)
        return graph, _transport_pairs(seed, n, n_sources // 2 if smoke else n_sources)

    return generate


#: ``mutate_mix`` rounds per pass: one batch in this many touches a
#: queried label.
ROUNDS_PER_PASS = 4


class MutationStream:
    """Seeded 4-op batches for ``mutate_mix``: adds and removes.

    Every fourth batch touches ``train`` (a label every query fires
    on), the rest ``ferry`` (a label none does).  ``train`` edges lead
    to dead-end depots and ``ferry`` edges are never traversed, so the
    answers stay what they were — which lets every read be checked —
    while the cache sees exactly the invalidation a real write causes.
    Only edges the stream added are removed, so base edge ids survive
    compaction.
    """

    _WINDOW = {"train": 4, "ferry": 12}

    def __init__(self, seed: int, n_cities: int) -> None:
        self._rng = random.Random(seed + 7919)
        self._n = n_cities
        self._round = 0
        self._added = {"train": deque(), "ferry": deque()}

    def next_batch(self, live) -> Tuple[List[Dict[str, Any]], bool]:
        """``(ops, touches_queried_label)`` for the next round."""
        rng = self._rng
        queried = self._round % ROUNDS_PER_PASS == 0
        self._round += 1
        label = "train" if queried else "ferry"
        added = self._added[label]
        ops: List[Dict[str, Any]] = []
        taken = set()
        n_removes = 2 if len(added) >= self._WINDOW[label] else 0
        for _ in range(n_removes):
            src, tgt = added.popleft()
            u, v = live.vertex_id(src), live.vertex_id(tgt)
            edge = next(
                e
                for e in live.parallel_edges(u, v)
                if e not in taken and live.label_names_of(e) == (label,)
            )
            taken.add(edge)
            ops.append({"op": "remove_edge", "edge": edge})
        for _ in range(4 - n_removes):
            src = f"city{rng.randrange(self._n)}"
            tgt = (
                f"depot{rng.randrange(8)}"
                if queried
                else f"city{rng.randrange(self._n)}"
            )
            added.append((src, tgt))
            ops.append(
                {"op": "add_edge", "src": src, "tgt": tgt, "labels": [label],
                 "cost": rng.randint(5, 20)}
            )
        return ops, queried


# -- correctness -------------------------------------------------------------


def check_against_baselines(graph, request: Request, answer: Answer) -> None:
    """λ, validity and distinctness — and the whole set when affordable."""
    nfa = regex_to_nfa(request["query"])
    source = graph.resolve_vertex(request["source"])
    target = graph.resolve_vertex(request["target"])
    _require(
        oracle_lam(graph, nfa, source, target) == answer.lam,
        f"λ differs from the oracle on {request}",
    )
    _require(
        len(set(answer.edges)) == len(answer.edges), f"duplicate walk on {request}"
    )
    for edges in answer.edges:
        _require(
            len(edges) == answer.lam
            and oracle_walk_matches(graph, nfa, edges, source, target),
            f"walk {edges} does not answer {request}",
        )
    limit = request.get("limit")
    if graph.edge_count > _REFERENCE_MAX_EDGES:
        return
    # The reduction needs the query's ε-transitions kept.
    compiled = compile_query(graph, nfa, eliminate_epsilon=False)
    reference = {
        w.edges
        for w in islice(
            martens_trautner_walks(compiled, source, target),
            _REFERENCE_MAX_WALKS + 1,
        )
    }
    if len(reference) > _REFERENCE_MAX_WALKS:
        _require(len(answer.edges) == limit, f"short page on {request}")
        return
    expected = len(reference) if limit is None else min(limit, len(reference))
    _require(
        set(answer.edges) <= reference and len(answer.edges) == expected,
        f"answer set differs from Martens–Trautner on {request}",
    )


def _check_diamond(graph, requests, answers, seed) -> None:
    k = graph.vertex_count - 1
    (answer,) = answers
    _require(answer.lam == k, f"λ = {answer.lam}, expected {k}")
    _require(answer.outputs == 2**k, f"{answer.outputs} walks, expected 2^{k}")
    _require(
        len(set(answer.edges)) == len(answer.edges) == min(2**k, 2**14),
        "kept prefix is not distinct",
    )


def _check_chain(graph, requests, answers, seed) -> None:
    hops = graph.vertex_count - 1
    (request,), (answer,) = requests, answers
    _require(answer.lam == hops, f"λ = {answer.lam}, expected {hops}")
    _require(
        len(set(answer.edges)) == answer.outputs == request["limit"],
        "expected `limit` distinct walks",
    )


def _check_sample(sample_size: int):
    def check(graph, requests, answers, seed) -> None:
        rng = random.Random(seed)
        for i in rng.sample(range(len(requests)), min(sample_size, len(requests))):
            check_against_baselines(graph, requests[i], answers[i])

    return check


# -- the workloads -----------------------------------------------------------

SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "diamond_enum", "engine", ("engine",), _diamond, _check_diamond,
            keep=2**14,
        ),
        Spec("chain800", "engine", ("engine",), _chain, _check_chain),
        Spec("big_cold", "engine", ("engine",), _big, _check_sample(2)),
        Spec(
            "transport_hot", "serve", ("engine", "db", "service", "serve"),
            _transport(0.7, 16), _check_sample(4), hit_rate=(0.99, 1.0),
        ),
        Spec(
            "transport_thrash", "serve", ("engine", "db", "service", "serve"),
            _transport(0.7, 16), _check_sample(4), annotation_cache=24,
            hit_rate=(0.0, 0.0),
        ),
        Spec(
            "mutate_mix", "durable", ("engine", "db", "durable"),
            _transport(0.2, 4), _check_sample(4),
        ),
    )
}

WHY: Dict[str, str] = {
    "diamond_enum": (
        "diamond_chain(k=18): 36 edges, 2^18 answers; Annotate+Trim are "
        "<1 ms so Enumerate does all the work (engine tier, every walk read)"
    ),
    "chain800": (
        "800-hop double-labelled chain, (a|b)*, first 2000 walks per cold "
        "engine request: every layer's cost grows with lambda, none dominates"
    ),
    "big_cold": (
        "random_multilabel(10k vertices, 50k edges), three queries x two "
        "endpoint pairs, cold engine requests: saturating Annotate+Trim are "
        ">99% and graph build is setup_s"
    ),
    "transport_hot": (
        "64 (query, source) pairs over TCP, caches hold the working set "
        "(hit rate 100%): the api/service/serve tier taxes are the request"
    ),
    "transport_thrash": (
        "64 pairs scanned cyclically through a 24-entry annotation LRU over "
        "TCP: every request re-annotates, so compute outweighs the tier taxes"
    ),
    "mutate_mix": (
        "durable Database: rounds of one 4-op batch (every 4th touches a "
        "queried label) + 16 reads, then recover(): writes beside reads"
    ),
}
