"""Memoryless enumeration — ``NextOutput`` (paper, Section 4.2, Thm 18).

A *memoryless* enumeration algorithm computes the (i+1)-th output from
the i-th output and the (read-only) precomputed structures alone; no
cursor state survives between outputs.  The paper obtains this by
making the queues ``C_u[p]`` *seekable* (``ResumableTrim``): given the
previous output ``w``, a guided descent re-positions the DFS along
``w``'s path in the backward-search tree, then the ordinary DFS resumes
and produces exactly the next leaf.

That is :func:`repro.core.enumerate.enumerate_walks` with
``resume_after=w``, run for a single output — this module holds no DFS
of its own, and the first call pulls the target's cells into the
annotation's store (every later one finds them built).  The output sequence is therefore the eager one by
construction, and the delay is O(λ × |A| × log max-InDeg): the seek is
a binary search per (frame, state) where the paper's skip pointer is
O(1), because the cells store only non-empty positions.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Optional, Sequence

from repro.core.enumerate import CostFn, enumerate_walks
from repro.core.walks import Walk
from repro.datastructures.packed import PackedCells
from repro.graph.database import Graph


def next_output(
    graph: Graph,
    cells: PackedCells,
    budget: Optional[int],
    target: int,
    start_states: FrozenSet[int],
    previous_edges: Optional[Sequence[int]] = None,
    cost_of: Optional[CostFn] = None,
) -> Optional[Walk]:
    """Compute the output following ``previous_edges`` (or the first).

    ``previous_edges`` is the edge sequence of the previously returned
    walk (source → target order); ``None`` requests the first output.
    Returns ``None`` when the enumeration is finished, and raises
    :class:`~repro.exceptions.QueryError` when ``previous_edges`` is
    not an output of this enumeration.
    """
    return next(
        enumerate_walks(
            graph, cells, budget, target, start_states, cost_of,
            resume_after=previous_edges,
        ),
        None,
    )


def enumerate_memoryless(
    graph: Graph,
    cells: PackedCells,
    budget: Optional[int],
    target: int,
    start_states: FrozenSet[int],
    cost_of: Optional[CostFn] = None,
    resume_after: Optional[Sequence[int]] = None,
) -> Iterator[Walk]:
    """The Theorem-18 generator: one :func:`next_output` per step.

    Each step forgets everything except the previous walk — the
    artefact the paper's memoryless bound is measured on.
    ``resume_after`` starts strictly after that output.
    """
    walk = next_output(
        graph, cells, budget, target, start_states, resume_after, cost_of
    )
    while walk is not None:
        yield walk
        walk = next_output(
            graph, cells, budget, target, start_states, walk.edges, cost_of
        )
