"""The ``Annotate`` preprocessing (paper, Figure 2 lines 6-33).

``Annotate`` performs a breadth-first traversal of the product
``D × A`` from the source.  The paper has it populate, for every vertex
``u``:

* ``L_u`` — for each automaton state ``p``, the length of a shortest
  walk from ``s`` to ``u`` whose label can take ``A`` from an initial
  state to ``p`` (Lemma 10(1));
* ``B_u`` — for each state ``p`` and each in-edge position
  ``TgtIdx(e)``, the list of *predecessor states* ``q`` witnessing such
  a shortest walk ending with edge ``e`` (Lemma 10(2)), one entry per
  firing transition (Lemma 10(3)).

Only ``L`` is stored.  Every ``B`` entry of a node first reached at
level ℓ is a product edge from level ℓ − 1 into it, so ``B`` is a
function of ``L`` and the graph, and ``Trim`` reads it back from there
for the nodes an asked target's walks pass through
(:mod:`repro.core.trim`, :class:`~repro.datastructures.packed.PackedCells`).
The traversal stops at the end of the first BFS level in which the
target is reached in a final state — that level is λ.  With
``saturate=True`` it instead runs until no new ``(vertex, state)`` pair
exists, which is the one-source-to-many-targets mode of Section 5.3.

Stopping and resuming
---------------------

A node's level is final once its level is done, and so is every cell
``Trim`` pulls for it: a cell of a level-ℓ node reads ``dist`` at level
ℓ − 1 only.  A target ``t`` is *settled* once it is reached in a final
state within the levels done, or once the BFS is exhausted: from then
on its λ, its start certificate and every cell its enumeration reads
are final.  The stop rule is that test — O(|F|) per level boundary,
never per reached pair.  :class:`AnnotateBFS` holds the state between
boundaries (``dist``, the frontier, the level rule's counts and
candidates — see *Two level directions*), so a traversal stopped at
one target resumes toward another exactly as the one-shot run would
have continued, and the cells already pulled stay valid: a deepening
level writes only unreached slots.  :func:`annotate` runs it once, and
a cached multi-target entry (:mod:`repro.core.multi_target`) keeps it
and deepens on demand.

ε-transitions are closed at compile time
(:mod:`repro.core.compile`); a compile that kept them is refused.
Section 5.1's on-the-fly ``PossiblyVisit`` is transcribed, with the
answers it drops, in :mod:`repro.baselines.paper_pipeline`.

Complexity: O(|V| × |Q| + |E| × |Δ|), i.e. O(|D| × |A|) — with |A|
the *compiled* automaton, which keeps only co-accessible states and one
state per class of same-past states, numbered densely
(:mod:`repro.core.compile`): the traversal never creates a product
node ``(u, p)`` from which no accepting run can continue, nor two
nodes at one vertex that exactly the same walks reach, and the one
|V| × |Q| array, ``dist``, has a slot per state it runs — 2 per vertex
on ``(a|b)* c (a|b|c)*``, not the 20 its Thompson automaton is written
with.

What an annotation holds
------------------------

``L`` as one flat per-(vertex, state) integer array (``dist[v·|Q| +
p]``, ``-1`` = unreached) and one append-only
:class:`~repro.datastructures.packed.PackedCells` store, empty until
``Trim`` pulls a target's cells into it; both are shared by every
snapshot of a deepening traversal.  **These are the only
representation of** ``L`` **and** ``B``: ``Trim``, the enumerator,
``NextOutput`` and the counting DP read them directly.  Remark 17's
entry count is what the store holds, an O(1) read.

:attr:`Annotation.L` and :attr:`Annotation.B` are read-only views
*derived from* them — the paper's ``L[u][p]`` / ``B[u][p][i]`` maps,
``B`` pulling every reached node — for inspection and the Figure-3
checks; nothing builds an annotation from them.

Label-indexed traversal
-----------------------

The product graph only has an edge ``(v, q) → (u, p)`` where an edge
label and an automaton transition *agree*, so :func:`annotate` expands
a frontier pair ``(v, q)`` by iterating only the labels in
``labels(Δ(q)) ∩ labels(Out(v))`` and, per such label ``a``, only the
edges of ``Out_a(v)`` — served in O(1) per label by the graph's
label-indexed CSR adjacency (:attr:`repro.graph.database.Graph.out_csr`)
and the per-state moves ``(a, Δ(q, a))`` the compile resolved once
(:attr:`~repro.core.compile.CompiledQuery.moves`).  The per-pair cost
drops from O(OutDeg(v) × |Lbl|) dict probes to
O(Σ_{a ∈ labels(q)} |Out_a(v)|).

Two level directions
--------------------

A top-down level pays once for each product edge leaving its frontier
— the O(|D| × |A|) term — and on a dense product most of those edges
land on a node settled at an earlier level.  So each level is expanded
one of two ways (the direction-optimizing BFS of Beamer, Asanović and
Patterson, SC'12):

* **top-down** — the frontier expands over its out-edges, as above;
* **bottom-up** — each unreached *candidate* ``(u, p)`` walks
  ``In_a(u)`` through the in-CSR (:attr:`~repro.graph.database.Graph.in_csr`)
  for every label ``a`` with ``Δ⁻¹(p, a)`` non-empty
  (:attr:`~repro.core.compile.CompiledQuery.delta_inv`) and joins level
  ℓ at the first edge whose source holds some ``q ∈ Δ⁻¹(p, a)`` at
  level ℓ − 1 — one predecessor proves the level.

Both reach exactly the nodes first reached at ℓ: the same ``dist``.

**The level rule.**  The two directions cost the frontier's
out-product-degree and the unreached nodes' in-product-degree, and a
level goes bottom-up when the first is larger.  Both are estimated per
state from weights computed once per compile and graph epoch
(:class:`_LevelCosts`): per label ``a`` the edge count ``|E_a|``, read
off the CSR bucket offsets, gives an average node of state ``q`` a
top-down cost of one bucket lookup per move plus ``Σ_a |Δ(q, a)| ·
|E_a|`` / ``n_eff`` probes, and the same over ``Δ⁻¹`` for bottom-up;
``n_eff`` is one past the last vertex with an in-edge on a label the
query fires on, since no vertex beyond it is ever entered.  Until a
bottom-up level is in reach, an O(1) bound decides: the frontier at the
costliest state's weight against the nodes still open at the cheapest
one, from an exact count of the reached nodes an edge can enter.  When
that count says none is left open, the level is empty and is not
expanded (a chain's last level).  Once the bound admits a bottom-up
level, one C-level pass over ``dist`` lists
the candidates per state — only vertices below ``n_eff``, only states
something enters — and from then on each boundary counts the
frontier's states and weighs exactly.  The candidate lists shrink at
each bottom-up level, stay in the :class:`AnnotateBFS` across resumed
runs, and are dropped with the frontier at exhaustion.

The rule reads only the state at the boundary — level sizes, counts,
weights of the labels the query fires on — so a run stopped and
resumed takes each level the way the one-shot run does (the deepened ==
saturated columns are exact), and so does a run over a
:class:`~repro.live.LiveGraph` epoch that gained vertices and edges on
other labels since.  The rule has no option.

The one product BFS
-------------------

This is the only breadth-first traversal of ``D × A`` in
:mod:`repro.core`, whichever way its levels go, and everything that is
a function of its levels reads a run of it rather than traversing
again: the ``ANY`` mode's single witness is read back from ``dist``
(:meth:`AnnotateBFS.witness`), and the duplicate-blowup counters of
:mod:`repro.core.count` are one forward pass over the target's pulled
cells.  The Dijkstra variant (:mod:`repro.core.cheapest`) settles nodes
in cost order, which levels do not give, and the restricted fallback
DFS (:mod:`repro.core.restricted`) enumerates walks longer than λ; both
stay separate traversals.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import compress, count
from operator import itemgetter, mul
from typing import FrozenSet, List, Optional, Tuple

from repro.core.compile import CompiledQuery
from repro.datastructures.packed import BackMap, LengthMap, PackedCells

__all__ = [
    "Annotation",
    "AnnotateBFS",
    "BackMap",
    "LengthMap",
    "annotate",
]


class Annotation:
    """Output of :func:`annotate` (and of the Dijkstra variant).

    ``lam`` is ``None`` when the target was given but no matching walk
    exists.  For saturated runs (multi-target), per-target values are
    derived with :meth:`target_info`; a multi-target annotation of the
    first ``steps`` levels serves the targets :meth:`settled` in them.

    The interior is the flat ``dist`` array plus the ``packed`` cell
    store, which ``Trim`` fills per asked target (module docstring);
    :attr:`L` / :attr:`B` are read-only mapping views derived from them.
    """

    __slots__ = (
        "source", "target", "lam", "target_states", "saturated", "steps",
        "final", "initial_closure", "n", "n_states", "dist", "packed",
        "_L", "_B",
    )

    def __init__(
        self,
        source: int,
        target: Optional[int],
        lam: Optional[int],
        target_states: FrozenSet[int],
        dist: array,
        packed: PackedCells,
        saturated: bool = False,
        steps: int = 0,
        final: FrozenSet[int] = frozenset(),
        initial_closure: FrozenSet[int] = frozenset(),
    ) -> None:
        self.source = source
        self.target = target
        self.lam = lam
        self.target_states = target_states
        self.saturated = saturated
        self.steps = steps
        self.final = final
        self.initial_closure = initial_closure
        self.dist = dist
        self.packed = packed
        self.n = packed.n
        self.n_states = packed.n_states
        self._L: Optional[List[LengthMap]] = None
        self._B: Optional[List[BackMap]] = None

    def __repr__(self) -> str:
        return (
            f"Annotation(source={self.source}, target={self.target}, "
            f"lam={self.lam}, |V|={self.n})"
        )

    # -- the paper's mapping views ---------------------------------------

    @property
    def L(self) -> List[LengthMap]:
        """Per-vertex ``L`` maps (read-only view; lazy)."""
        if self._L is None:
            self._L = _unflatten(self.dist, self.n, self.n_states)
        return self._L

    @property
    def B(self) -> List[BackMap]:
        """Per-vertex ``B`` maps (read-only view; lazy): pulls the
        cells of every reached node into the store first — of every
        node at a cost up to λ for a Dijkstra run stopped at its
        target, whose farther nodes are not final — for inspection
        only."""
        if self._B is None:
            self.packed.build_reached(None if self.saturated else self.lam)
            self._B = self.packed.to_maps()
        return self._B

    # -- per-target reads --------------------------------------------------

    def target_info(self, t: int) -> Tuple[Optional[int], FrozenSet[int]]:
        """``(λ_t, S_t)`` for an arbitrary target ``t``.

        ``λ_t`` is the length (cost) of a shortest (cheapest) matching
        walk from the source to ``t``; ``S_t`` the final states reached
        at that length.  Only meaningful on saturated annotations, for
        the annotation's own target, or for a target :meth:`settled`
        in it.

        ``t`` may exceed the vertex range this annotation was built
        over: live graphs (:mod:`repro.live`) grow, and a cached
        annotation whose query fires on no mutated label stays valid —
        a vertex added later is then provably unreachable for it (any
        edge into the new vertex carries only labels the query cannot
        fire on, else the entry would have been evicted), so the
        answer is the usual "no matching walk".
        """
        return _target_info(self.dist, self.n, self.n_states, self.final, t)

    def settled(self, t: Optional[int]) -> bool:
        """Whether :meth:`target_info` of ``t`` — and every cell its
        enumeration reads — is final in this annotation (``t=None``:
        every target's, i.e. the traversal is exhausted).

        A target reached in a final state within the ``steps`` levels
        done is settled.  The bound matters for a multi-target entry:
        it shares ``dist`` with the traversal that deepens it, whose
        later levels may fill slots beyond ``steps`` while this
        annotation is being read; a settled target's slots are never
        rewritten.  A vertex beyond the range built over is settled
        (unreachable, see :meth:`target_info`).
        """
        if self.saturated:
            return True
        if t is None:
            return False
        if not 0 <= t < self.n:
            return True
        dist = self.dist
        base = t * self.n_states
        done = self.steps
        for f in self.final:  # A loop, not any(): this is every read's check.
            if 0 <= dist[base + f] <= done:
                return True
        return False

    def annotation_entries(self) -> int:
        """Number of predecessor entries the cell store holds — what
        ``Trim`` pulled for the targets asked so far (all of ``B``
        once the :attr:`B` view was read).  Used by the memory
        experiment (EXP-MEM) against Remark 17's O(|E| × |Δ|) bound.
        O(1)."""
        return self.packed.entries()

    @property
    def nbytes(self) -> int:
        """Bytes held by the annotation — ``dist`` plus the cell store
        (:attr:`PackedCells.nbytes`) — in O(1).  ``dist`` is counted
        even where a multi-target entry shares it with the traversal
        deepening it."""
        return len(self.dist) * self.dist.itemsize + self.packed.nbytes


def _target_info(
    dist: array, n: int, n_states: int, final: FrozenSet[int], t: int
) -> Tuple[Optional[int], FrozenSet[int]]:
    """``(λ_t, S_t)`` read off ``dist``: the least level of ``t`` in a
    final state and the final states at it (``(None, ∅)`` when ``t``
    is unreached or beyond the ``n`` vertices ``dist`` covers).  At the
    source, level 0 holds exactly the start states."""
    if not 0 <= t < n:
        return None, frozenset()
    base = t * n_states
    lam_t = None
    states = []
    for f in final:
        level = dist[base + f]
        if level >= 0:
            if lam_t is None or level < lam_t:
                lam_t, states = level, [f]
            elif level == lam_t:
                states.append(f)
    return lam_t, frozenset(states)


def _reached(dist: array, keys) -> bool:
    """Whether any of ``keys`` holds a level — a loop, not ``any()``
    over a generator: it runs at every level boundary of a stopped
    BFS, and on a deep narrow product those boundaries are many."""
    for k in keys:
        if dist[k] >= 0:
            return True
    return False


def _unflatten(flat: array, n: int, n_states: int) -> List[LengthMap]:
    """Convert the flat per-(vertex, state) array back to ``L`` dicts.

    ``-1`` marks unreached pairs; O(|V| × |Q|), only ever run for the
    :attr:`Annotation.L` view.
    """
    L: List[LengthMap] = []
    pos = 0
    for _ in range(n):
        row: LengthMap = {}
        for p in range(n_states):
            d = flat[pos]
            if d >= 0:
                row[p] = d
            pos += 1
        L.append(row)
    return L


class _LevelCosts:
    """What the level rule of :meth:`AnnotateBFS.run` weighs, per
    compiled query and graph epoch (module docstring).

    ``n_eff`` is one past the last vertex with an in-edge on a label
    the query fires on: no vertex beyond it is ever entered, so it is
    the vertex range the unreached nodes are counted over and the
    candidates listed from.  ``c_out[q]`` is ``n_eff`` × the cost of
    expanding an average node of state ``q`` top-down: one CSR bucket
    lookup per move plus its ``Σ_a |Δ(q, a)| · |E_a| / n_eff`` product
    edges, with ``|E_a|`` read off the CSR bucket offsets; ``c_in[p]``
    is the same over ``Δ⁻¹(p, ·)`` for collecting a node of state ``p``
    bottom-up (0: nothing enters ``p``).  ``enterable`` counts the
    nodes an edge can enter — every ``(u, p)`` with ``u < n_eff`` and
    ``c_in[p] > 0``, a superset of those ever entered.

    Built per cold request too, so in plain loops: a generator per
    state costs more than the arithmetic on a small automaton.
    """

    __slots__ = ("in_indptr", "n_eff", "c_out", "c_in", "max_out", "min_in", "enterable")

    def __init__(self, cq: CompiledQuery, graph, in_indptr) -> None:
        n = graph.vertex_count
        self.in_indptr = in_indptr
        edges = {}
        n_eff = 0
        for a in set().union(*cq.delta):
            lo, hi = a * n, (a + 1) * n
            end = in_indptr[hi]
            edges[a] = end - in_indptr[lo]
            # The first bucket offset at the label's end: the last
            # vertex with such an in-edge is the one before it.
            last = bisect_left(in_indptr, end, lo, hi) - lo
            if last > n_eff:
                n_eff = last
        self.n_eff = n_eff
        c_out = []
        for steps in cq.moves:
            c = len(steps) * n_eff
            for a, targets in steps:
                c += len(targets) * edges[a]
            c_out.append(c)
        c_in = []
        for row in cq.delta_inv:
            c = len(row) * n_eff
            for a, sources in row.items():
                c += len(sources) * edges[a]
            c_in.append(c)
        entered = [c for c in c_in if c]
        self.c_out = c_out
        self.c_in = c_in
        self.max_out = max(c_out, default=0)
        self.min_in = min(entered, default=0)
        self.enterable = n_eff * len(entered)


def _level_costs(cq: CompiledQuery, graph) -> _LevelCosts:
    """The level rule's weights for ``cq`` over the graph's current
    epoch: built once and cached on the compile, rebuilt in O(|Σ| +
    |A| + log |V|) when a :class:`~repro.live.LiveGraph` epoch brings
    new CSR offsets."""
    in_indptr = graph.in_csr[0]
    costs = cq.level_costs
    if costs is None or costs.in_indptr is not in_indptr:
        costs = cq.level_costs = _LevelCosts(cq, graph, in_indptr)
    return costs


def _bottom_up_cheaper(
    current: List[Tuple[int, int]],
    unreached: List[int],
    costs: _LevelCosts,
    reached_since: bool,
) -> bool:
    """The exact level rule: whether the frontier ``current``'s
    out-product-degree exceeds the unreached nodes' in-product-degree,
    both weighed per state.  ``reached_since``: the frontier was reached
    after ``unreached`` was counted, so it is taken off first."""
    by_state = Counter(map(itemgetter(1), current))
    if reached_since:
        for p, k in by_state.items():
            unreached[p] -= k
    c_out = costs.c_out
    return sum([c_out[q] * k for q, k in by_state.items()]) > sum(
        map(mul, unreached, costs.c_in)
    )


class AnnotateBFS:
    """The ``Annotate`` BFS between level boundaries: ``dist``, the
    frontier (``next_pairs`` at distance ``level``), what the level rule
    keeps, and the one cell store ``Trim`` fills from ``dist``.

    :meth:`run` expands whole levels until a stop target is settled
    (module docstring) or the product is exhausted, and may be called
    again to continue; :meth:`annotation` wraps the levels done, and
    :meth:`witness` reads one shortest walk back from ``dist``.  The
    levels and ``dist`` are the one-shot traversal's whatever the stops
    in between, and so is each level's direction: it depends only on
    the state at the boundary.

    Each :meth:`run` re-reads the graph's flat views and CSR bucket
    bases, so a traversal kept across :class:`~repro.live.LiveGraph`
    mutations that touch no label the query fires on continues over the
    current epoch (such mutations cannot add a product edge; a vertex
    added since the first run is never reached, and the key space stays
    the one the first run allocated).  An epoch's ``in_csr`` holds live
    edges only — a tombstone carries no label — so a bottom-up level
    reads no liveness column.
    """

    __slots__ = (
        "cq", "source", "n", "n_states", "dist", "cells", "next_pairs",
        "level", "entered", "unreached", "candidates",
    )

    def __init__(self, cq: CompiledQuery, source: int) -> None:
        cq.require_epsilon_free()
        self.cq = cq
        self.source = source
        self.n = n = cq.graph.vertex_count
        self.n_states = n_states = cq.n_states
        # L, flattened: dist[v * |Q| + p], -1 = unreached.
        self.dist = array("q", [-1]) * (n * n_states)
        # Trim's cells, pulled from dist per asked target: made by the
        # first annotation() and shared by every later one.
        self.cells: Optional[PackedCells] = None
        self.next_pairs: List[Tuple[int, int]] = []
        self.level = 0
        source_base = source * n_states
        for p in sorted(cq.initial_closure):
            self.dist[source_base + p] = 0
            self.next_pairs.append((source, p))
        # The level rule's state: the reached nodes an edge can enter
        # (for the bound; each boundary adds its whole frontier, so the
        # level-0 nodes no edge enters start it below zero), then — once
        # a bottom-up level is in reach — the unreached count and the
        # candidate vertices per state.
        costs = _level_costs(cq, cq.graph)
        self.entered = (
            -sum(1 for p in cq.initial_closure if not costs.c_in[p])
            if source < costs.n_eff
            else -len(self.next_pairs)
        )
        self.unreached: Optional[List[int]] = None
        self.candidates: Optional[List[List[int]]] = None

    @property
    def exhausted(self) -> bool:
        """No product node is left to discover."""
        return not self.next_pairs

    def _list_candidates(self, costs: _LevelCosts) -> List[int]:
        """Per state, the vertices below ``n_eff`` not yet reached in it
        — one C-level pass over ``dist`` — and their counts, returned."""
        n_states = self.n_states
        stop = min(costs.n_eff, self.n) * n_states
        with memoryview(self.dist) as view:
            self.candidates = [
                list(compress(count(), map((-1).__eq__, view[p:stop:n_states])))
                if c else []
                for p, c in enumerate(costs.c_in)
            ]
        self.unreached = list(map(len, self.candidates))
        return self.unreached

    def run(self, target: Optional[int] = None) -> None:
        """Expand levels until ``target`` is settled; with no
        ``target``, until the product is exhausted.

        Each level goes the way the level rule (module docstring)
        finds cheaper.  Top-down is the label-indexed traversal: the
        frontier's pairs expand over ``labels(Δ(q)) ∩ labels(Out(v))``
        through the out-CSR.  Bottom-up, each candidate ``(u, p)``
        probes ``In_a(u)`` through the in-CSR for every label ``a``
        with ``Δ⁻¹(p, a)`` non-empty (``CompiledQuery.delta_inv``) and
        joins the level at the first edge whose source holds a
        ``q ∈ Δ⁻¹(p, a)`` one level down.  Both write ``dist`` only.
        """
        cq = self.cq
        graph = cq.graph
        n = graph.vertex_count
        n_states = self.n_states
        tgt_arr = graph.tgt_array
        indptr, csr_edges = graph.out_csr
        out_labels = graph.out_labels_array
        moves = cq.moves
        delta = cq.delta
        costs = _level_costs(cq, graph)
        max_out, min_in, enterable = costs.max_out, costs.min_in, costs.enterable
        # The target's final-state slots: the stop test reads these.
        stop_keys = (
            () if target is None
            else [target * n_states + f for f in cq.final]
        )
        dist = self.dist
        next_pairs = self.next_pairs
        level = self.level
        entered = self.entered
        unreached = self.unreached
        while next_pairs:
            if _reached(dist, stop_keys):
                break
            level += 1
            current, next_pairs = next_pairs, []
            if unreached is None:
                # The bound: the frontier at its costliest state against
                # the nodes still open at their cheapest, O(1) a level.
                entered += len(current)
                if len(current) * max_out > (enterable - entered) * min_in:
                    if entered == enterable:
                        continue  # Every node an edge can enter is reached.
                    unreached = self._list_candidates(costs)
                    if _bottom_up_cheaper(current, unreached, costs, False):
                        self._bottom_up(level, next_pairs)
                        continue
            elif _bottom_up_cheaper(current, unreached, costs, True):
                self._bottom_up(level, next_pairs)
                continue
            for v, q in current:
                steps = moves[q]
                mine = out_labels[v]
                if len(steps) > len(mine):
                    # Intersect from the cheaper side.
                    row = delta[q]
                    steps = [(a, row[a]) for a in mine if a in row]
                for a, targets in steps:
                    b = a * n + v
                    start, end = indptr[b], indptr[b + 1]
                    if start == end:
                        continue
                    for e in csr_edges[start:end]:
                        u = tgt_arr[e]
                        u_base = u * n_states
                        for p in targets:
                            key = u_base + p
                            if dist[key] < 0:
                                # First time state p is reached at vertex u.
                                dist[key] = level
                                next_pairs.append((u, p))
        self.next_pairs = next_pairs
        self.level = level
        self.entered = entered
        if not next_pairs:
            self.unreached = self.candidates = None

    def _bottom_up(self, level: int, next_pairs: List[Tuple[int, int]]) -> None:
        """Expand ``level`` bottom-up (module docstring): each candidate
        probes its in-edges until one comes from the level below and
        then joins ``next_pairs``; one with none stays a candidate."""
        cq = self.cq
        graph = cq.graph
        n = graph.vertex_count
        n_states = self.n_states
        in_indptr, in_edges = graph.in_csr
        src_arr = graph.src_array
        dist = self.dist
        prev = level - 1
        candidates = self.candidates
        for p, row in enumerate(cq.delta_inv):
            if not row:
                continue  # Nothing enters p: no candidates.
            into = row.items()
            rest: List[int] = []
            for u in candidates[p]:
                key = u * n_states + p
                if dist[key] >= 0:
                    continue  # Reached by a top-down level since.
                joined = False
                for a, sources in into:
                    b = a * n + u
                    start, end = in_indptr[b], in_indptr[b + 1]
                    if start == end:
                        continue
                    for e in in_edges[start:end]:
                        base = src_arr[e] * n_states
                        for q in sources:
                            if dist[base + q] == prev:
                                joined = True
                                break
                        if joined:
                            break
                    if joined:
                        break
                if joined:
                    dist[key] = level
                    next_pairs.append((u, p))
                else:
                    rest.append(u)
            candidates[p] = rest

    def target_info(self, t: int) -> Tuple[Optional[int], FrozenSet[int]]:
        """``(λ_t, S_t)`` within the levels done — what
        :meth:`Annotation.target_info` reads."""
        return _target_info(self.dist, self.n, self.n_states, self.cq.final, t)

    def witness(self, t: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """``(λ_t, edge ids)`` of one shortest matching walk to ``t``,
        read back from ``dist`` alone — ``None`` when ``t`` is not
        reached in a final state within the levels done.

        From ``(t, f)`` on level ``ℓ = λ_t`` (``f`` the least final
        state there), each step takes the first in-edge ``e`` of the
        current vertex, in ascending edge id, whose source ``w`` has
        ``dist[w·|Q| + q] = ℓ − 1`` for some ``q`` with ``f ∈ Δ(q, a)``,
        ``a ∈ labels(e)`` (the least such ``a``, then ``q``), and goes on
        from ``(w, q)`` down to level 0, the source in a start state.
        Such an edge exists at every step — the BFS discovered ``(v, f)``
        from level ``ℓ − 1`` — so the walk is shortest and matches.

        A :class:`~repro.live.LiveGraph` keeps a removed edge in its
        ``In`` slot (the slot is its ``TgtIdx``), so the labels are read
        from ``live_label_array``, where that slot is empty.  O(λ ·
        InDeg · |Lbl| · |Δ⁻¹|) per target; no parent pointer is kept
        and no cell is built.
        """
        lam, states = self.target_info(t)
        if lam is None:
            return None
        graph = self.cq.graph
        src_arr = graph.src_array
        live_labels = graph.live_label_array
        in_array = graph.in_array
        delta_inv = self.cq.delta_inv
        dist = self.dist
        n_states = self.n_states

        def step(v: int, p: int, level: int) -> Tuple[int, int, int]:
            """``(e, w, q)``: the edge into ``(v, p)`` from level
            ``level``, its source and the state there."""
            into = delta_inv[p]
            for e in in_array[v]:
                w = src_arr[e]
                w_base = w * n_states
                for a in live_labels[e]:
                    for q in into.get(a, ()):
                        if dist[w_base + q] == level:
                            return e, w, q
            raise AssertionError("a BFS node has no predecessor")

        edges = [0] * lam
        v, p = t, min(states)
        for level in range(lam - 1, -1, -1):
            edges[level], v, p = step(v, p, level)
        return lam, tuple(edges)

    def annotation(self, target: Optional[int], saturated: bool) -> Annotation:
        """An :class:`Annotation` of the levels done: this traversal's
        ``dist`` and cell store (shared, not copied) — O(1)."""
        cq = self.cq
        if self.cells is None:
            self.cells = PackedCells(
                cq.graph, self.n, self.n_states, self.dist, cq.delta_inv
            )
        return Annotation(
            source=self.source,
            target=target,
            lam=None,
            target_states=frozenset(),
            saturated=saturated,
            steps=self.level,
            final=cq.final,
            initial_closure=cq.initial_closure,
            dist=self.dist,
            packed=self.cells,
        )


def annotate(
    cq: CompiledQuery,
    source: int,
    target: Optional[int] = None,
    saturate: bool = False,
) -> Annotation:
    """Run the ``Annotate`` BFS for query ``cq`` from ``source``.

    With a ``target``, stops at the end of level λ (the first level
    reaching the target in a final state; level 0 when the trivial walk
    ``⟨s⟩`` matches); with ``saturate=True`` (or no target) runs to
    exhaustion of the reachable product.  One :class:`AnnotateBFS`
    run; no cell is built until ``Trim`` asks for a target's.
    """
    stop = None if saturate else target
    bfs = AnnotateBFS(cq, source)
    bfs.run(stop)
    annotation = bfs.annotation(target, saturated=stop is None)
    if stop is not None:
        annotation.lam, annotation.target_states = annotation.target_info(stop)
    return annotation
