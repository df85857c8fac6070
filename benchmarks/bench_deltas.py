"""EXP-DELTA — §6 perspectives: delta-encoded outputs.

The paper's closing remarks: much of the delay is spent *writing the
answer down* (λ symbols), yet consecutive answers share large parts;
emitting only the difference can shrink the amortized output.  Because
the DFS emits answers grouped by shared suffixes, the natural encoding
is "reuse the last k edges of the previous answer".

This suite measures the compression on diamond chains (2^k answers of
length k): the full stream costs k symbols per answer, the delta
stream tends to ~3 symbols per answer regardless of k — and decoding
reproduces the exact stream.
"""

from __future__ import annotations

from repro.baselines.deltas import delta_decode, delta_encode, stream_sizes
from repro.core.engine import DistinctShortestWalks
from repro.workloads.worstcase import diamond_chain


def test_delta_compression_ratio(benchmark, print_table):
    rows = []
    per_answer = []
    for k in (6, 8, 10, 12):
        graph, nfa, s, t = diamond_chain(k, parallel=2)
        engine = DistinctShortestWalks(graph, nfa, s, t)
        engine.preprocess()
        records, symbols = stream_sizes(delta_encode(engine.enumerate()))
        answers = 2 ** k
        assert records == answers
        full = answers * k
        per_answer.append(symbols / answers)
        rows.append(
            [
                k,
                answers,
                full,
                symbols,
                f"{full / symbols:.2f}x",
                f"{symbols / answers:.2f}",
            ]
        )
    benchmark.pedantic(
        lambda: stream_sizes(delta_encode(engine.enumerate())),
        rounds=2,
        iterations=1,
    )
    print_table(
        "EXP-DELTA: full output vs delta-encoded output (symbols)",
        ["k", "answers", "full", "delta", "ratio", "delta/answer"],
        rows,
    )
    # Amortized delta size is bounded while full output grows with k.
    assert per_answer[-1] < 4.0
    assert per_answer[-1] < per_answer[0] * 1.5


def test_delta_round_trip(benchmark):
    graph, nfa, s, t = diamond_chain(9, parallel=2)
    engine = DistinctShortestWalks(graph, nfa, s, t)
    engine.preprocess()
    original = [w.edges for w in engine.enumerate()]
    deltas = list(delta_encode(engine.enumerate()))
    decoded = [w.edges for w in delta_decode(graph, deltas)]
    assert decoded == original

    def run():
        return sum(
            1 for _ in delta_decode(graph, delta_encode(engine.enumerate()))
        )

    count = benchmark(run)
    assert count == 2 ** 9
