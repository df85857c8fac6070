"""The ``Annotate`` preprocessing (paper, Figure 2 lines 6-33).

``Annotate`` performs a breadth-first traversal of the product
``D × A`` and populates, for every vertex ``u``:

* ``L_u`` — for each automaton state ``p``, the length of a shortest
  walk from ``s`` to ``u`` whose label can take ``A`` from an initial
  state to ``p`` (Lemma 10(1));
* ``B_u`` — for each state ``p`` and each in-edge position
  ``TgtIdx(e)``, the list of *predecessor states* ``q`` witnessing such
  a shortest walk ending with edge ``e`` (Lemma 10(2)).  Lists may
  contain duplicates (one entry per firing transition), bounded by
  ``Σ_a |Δ⁻¹(a, p)|`` (Lemma 10(3)).

The traversal stops at the end of the first BFS level in which the
target is reached in a final state — that level is λ.  With
``saturate=True`` it instead runs until no new ``(vertex, state)`` pair
exists, which is the one-source-to-many-targets mode of Section 5.3.

Stopping and resuming
---------------------

Every ``B`` entry of a product node ``(u, p)`` is logged while the BFS
expands level ``dist[u·|Q| + p]``, so once levels ``0…ℓ`` are done
every node at distance ≤ ℓ holds all of its entries.  A target ``t`` is
*settled* once it is reached in a final state within the levels done,
or once the BFS is exhausted: from then on its λ, its start
certificate and every cell its enumeration reads are final.  The stop
rule is that test — O(|F|) per level boundary, never per reached pair.
:class:`AnnotateBFS` holds the state between boundaries (``dist``, the
frontier, the entry log), so a traversal stopped at one target resumes
toward another exactly as the one-shot run would have continued:
:func:`annotate` runs it once, and a cached multi-target entry
(:mod:`repro.core.multi_target`) keeps it and deepens on demand.

ε-transitions are closed at compile time
(:mod:`repro.core.compile`); a compile that kept them is refused.
Section 5.1's on-the-fly ``PossiblyVisit`` is transcribed, with the
answers it drops, in :mod:`repro.baselines.paper_pipeline`.

Complexity: O(|V| × |Q| + |E| × |Δ|), i.e. O(|D| × |A|) — with |A|
the *compiled* automaton, which keeps only co-accessible states and one
state per class of same-past states, numbered densely
(:mod:`repro.core.compile`): the traversal never creates a product
node ``(u, p)`` from which no accepting run can continue, nor two
nodes at one vertex that exactly the same walks reach, and the key
space ``dist``, the pack and the cells allocate is |V| × the states it
runs — 2 per vertex on ``(a|b)* c (a|b|c)*``, not the 20 its Thompson
automaton is written with.

Packed annotation layout
------------------------

The BFS carries ``L`` as one flat per-(vertex, state) integer array
(``dist[v·|Q| + p]``, ``-1`` = unreached) and logs every ``B`` entry as
an append-only ``(key, TgtIdx, predecessor)`` triple; on return the log
is radix-packed into a :class:`~repro.datastructures.packed.PackedBack`
(:meth:`~repro.datastructures.packed.PackedBack.from_entries`: bucket
by ``TgtIdx``, then a stable scatter by key — linear, no comparison
sort) — entries grouped by product node, ``TgtIdx``-ascending within a
node (exactly Lemma 11's order), append order preserved within a cell.
**These arrays are the only representation of** ``L`` **and** ``B``:
``Trim``, ``ResumableTrim``, the enumerator, ``NextOutput`` and the
counting DP read them directly (Remark 17's entry count is the packed
array length, an O(1) read).

:attr:`Annotation.L` and :attr:`Annotation.B` are read-only views
*derived from* the arrays — the paper's ``L[u][p]`` / ``B[u][p][i]``
maps, each cell's witnesses in the traversal's append order with
duplicates kept — for inspection and the Figure-3 checks; nothing
builds an annotation from them.  Within-cell *order* is
traversal-specific and unobservable downstream, because ``Trim`` sorts
and dedups the certificates of every cell it keeps.

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

The one product BFS
-------------------

This is the only breadth-first traversal of ``D × A`` in
:mod:`repro.core`, and everything that is a function of its levels
reads a run of it rather than traversing again: the ``ANY`` mode's
single witness is read back from ``dist``
(:meth:`AnnotateBFS.witness`), and the duplicate-blowup counters of
:mod:`repro.core.count` are one forward pass over the entry log.  The
Dijkstra variant (:mod:`repro.core.cheapest`) settles nodes in cost
order, which levels do not give, and the restricted fallback DFS
(:mod:`repro.core.restricted`) enumerates walks longer than λ; both
stay separate traversals.
"""

from __future__ import annotations

from array import array
from typing import FrozenSet, List, Optional, Tuple

from repro.core.compile import CompiledQuery
from repro.datastructures.packed import BackMap, LengthMap, PackedBack, PackedCells

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

    The interior is the flat ``dist`` array plus the ``packed`` entry
    store (module docstring); :attr:`L` / :attr:`B` are read-only
    mapping views derived from them on first access.
    """

    __slots__ = (
        "source", "target", "lam", "target_states", "saturated", "steps",
        "final", "initial_closure", "n", "n_states", "dist", "packed",
        "_L", "_B", "_cells",
    )

    def __init__(
        self,
        source: int,
        target: Optional[int],
        lam: Optional[int],
        target_states: FrozenSet[int],
        dist: array,
        packed: PackedBack,
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
        self._cells: Optional[PackedCells] = None

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
        """Per-vertex ``B`` maps (read-only view; lazy)."""
        if self._B is None:
            self._B = self.packed.to_maps()
        return self._B

    # -- packed accessors ------------------------------------------------

    def packed_cells(self, graph) -> PackedCells:
        """The shared ``Trim`` cell structure (built once, cached).

        Both :func:`~repro.core.trim.trim` and
        :func:`~repro.core.trim.resumable_trim` return views of this
        one object, so the O(entries) slicing pass runs at most once
        per annotation.
        """
        if self._cells is None:
            self._cells = PackedCells(graph, self.packed)
        return self._cells

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
        """Total number of predecessor entries stored in ``B``.

        Used by the memory experiment (EXP-MEM) to check Remark 17's
        O(|E| × |Δ|) bound.  O(1): the count *is* the packed array
        length.
        """
        return len(self.packed)

    @property
    def nbytes(self) -> int:
        """Bytes held by the annotation's arrays — ``dist``, the packed
        ``B`` store and, once built, the ``Trim`` cells — in O(1):
        length × item size of each.  ``dist`` is counted even where a
        multi-target entry shares it with the traversal deepening it."""
        total = len(self.dist) * self.dist.itemsize + self.packed.nbytes
        if self._cells is not None:
            total += self._cells.nbytes
        return total


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


class AnnotateBFS:
    """The ``Annotate`` BFS between level boundaries: ``dist``, the
    frontier (``next_pairs`` at distance ``level``) and the append-only
    ``B`` entry log.

    :meth:`run` expands whole levels until a stop target is settled
    (module docstring) or the product is exhausted, and may be called
    again to continue; :meth:`annotation` packs the whole log, and
    :meth:`witness` reads one shortest walk back from ``dist`` without
    it.  The sequence of levels and log entries is the one-shot
    traversal's whatever the stops in between.

    Each :meth:`run` re-reads the graph's flat views and CSR bucket
    bases, so a traversal kept across :class:`~repro.live.LiveGraph`
    mutations that touch no label the query fires on continues over the
    current epoch (such mutations cannot add a product edge; a vertex
    added since the first run is never reached, and the key space stays
    the one the first run allocated).
    """

    __slots__ = (
        "cq", "source", "n", "n_states", "dist", "next_pairs", "level",
        "ent_key", "ent_ti", "ent_pred",
    )

    def __init__(self, cq: CompiledQuery, source: int) -> None:
        cq.require_epsilon_free()
        self.cq = cq
        self.source = source
        self.n = n = cq.graph.vertex_count
        self.n_states = n_states = cq.n_states
        # L, flattened: dist[v * |Q| + p], -1 = unreached.
        self.dist = array("q", [-1]) * (n * n_states)
        # The B entry log: (key, TgtIdx, predecessor) triples.
        self.ent_key = array("q")
        self.ent_ti = array("q")
        self.ent_pred = array("q")
        self.next_pairs: List[Tuple[int, int]] = []
        self.level = 0
        source_base = source * n_states
        for p in sorted(cq.initial_closure):
            self.dist[source_base + p] = 0
            self.next_pairs.append((source, p))

    def __len__(self) -> int:
        """Entries logged so far."""
        return len(self.ent_pred)

    @property
    def exhausted(self) -> bool:
        """No product node is left to discover."""
        return not self.next_pairs

    def run(self, target: Optional[int] = None, entries: int = 0) -> None:
        """Expand levels until ``target`` is settled and the log holds
        at least ``entries`` entries; with no ``target``, until the
        product is exhausted.

        This is the label-indexed traversal (module docstring):
        frontier pairs expand over ``labels(Δ(q)) ∩ labels(Out(v))``
        through the graph's CSR adjacency, recording ``B`` entries into
        the append-only log (no per-entry dict or list allocation).
        """
        cq = self.cq
        graph = cq.graph
        n = graph.vertex_count
        n_states = self.n_states
        tgt_arr = graph.tgt_array
        ti_arr = graph.tgt_idx_array
        indptr, csr_edges = graph.out_csr
        out_labels = graph.out_labels_array
        moves = cq.moves
        delta = cq.delta
        # The target's final-state slots: the stop test reads these.
        stop_keys = (
            () if target is None
            else [target * n_states + f for f in cq.final]
        )
        dist = self.dist
        ent_pred = self.ent_pred
        key_append = self.ent_key.append
        ti_append = self.ent_ti.append
        pred_append = ent_pred.append
        next_pairs = self.next_pairs
        level = self.level
        while next_pairs:
            if len(ent_pred) >= entries and _reached(dist, stop_keys):
                break
            level += 1
            current, next_pairs = next_pairs, []
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
                            known = dist[key]
                            if known < 0:
                                # First time state p is reached at vertex u.
                                dist[key] = level
                                next_pairs.append((u, p))
                                key_append(key)
                                ti_append(ti_arr[e])
                                pred_append(q)
                            elif known == level:
                                # Another walk of the same (minimal) length
                                # reaches p at u: record the extra witness.
                                key_append(key)
                                ti_append(ti_arr[e])
                                pred_append(q)
        self.next_pairs = next_pairs
        self.level = level

    def target_info(self, t: int) -> Tuple[Optional[int], FrozenSet[int]]:
        """``(λ_t, S_t)`` within the levels done — what
        :meth:`Annotation.target_info` reads, without packing the log."""
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
        ``In`` slot (the slot is its ``TgtIdx``), so an edge that
        qualifies is taken only if its source's ``Out`` list, which
        holds live edges only, still has it.  O(λ · (InDeg · |Lbl| ·
        |Δ⁻¹| + OutDeg)) per target; no parent pointer is kept and the
        log is not read.
        """
        lam, states = self.target_info(t)
        if lam is None:
            return None
        graph = self.cq.graph
        src_arr = graph.src_array
        label_array = graph.label_array
        in_array = graph.in_array
        out_array = graph.out_array
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
                for a in label_array[e]:
                    for q in into.get(a, ()):
                        if dist[w_base + q] == level and e in out_array[w]:
                            return e, w, q
            raise AssertionError("a BFS node has no predecessor")

        edges = [0] * lam
        v, p = t, min(states)
        for level in range(lam - 1, -1, -1):
            edges[level], v, p = step(v, p, level)
        return lam, tuple(edges)

    def annotation(self, target: Optional[int], saturated: bool) -> Annotation:
        """An :class:`Annotation` of the levels done: this traversal's
        ``dist`` (shared, not copied) and its whole log, packed."""
        cq = self.cq
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
            packed=PackedBack.from_entries(
                self.n, self.n_states, self.ent_key, self.ent_ti,
                self.ent_pred,
            ),
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
    run, packed.
    """
    stop = None if saturate else target
    bfs = AnnotateBFS(cq, source)
    bfs.run(stop)
    annotation = bfs.annotation(target, saturated=stop is None)
    if stop is not None:
        annotation.lam, annotation.target_states = annotation.target_info(stop)
    return annotation
