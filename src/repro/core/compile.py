"""Query compilation: align an NFA with a database's label interning.

The paper assumes (Section 2.3) that ``Δ(q, a)`` is an O(1) lookup
returning a duplicate-free list.  Databases intern labels to dense
integer ids, so before running the algorithm we re-key the automaton's
transition table by label *id*.  This step also:

* drops transitions on labels that no edge of the database carries
  (they can never fire, and keeping them would only slow the BFS);
* expands :data:`~repro.automata.nfa.ANY` wildcards over the database's
  concrete alphabet;
* ε-closes the transition relation (``Δ'(q, a) = closure(Δ(q, a))``,
  start states = ``closure(I)``), unless ``eliminate_epsilon=False``;
* keeps only the **co-accessible** states — those from which a final
  state is still reachable over the resulting ``Δ ∪ Δ_ε`` (one backward
  reachability from ``F``, O(|A|)).  Every other state is deleted from
  all target tuples, from ``eps`` and from ``initial_closure``, and its
  own row is cleared.  After ε-closure a Thompson automaton is mostly
  such states: everything that had only ε-moves can be entered but
  never left, so ``(a|b)* c (a|b|c)*`` compiles to 20 states of which
  7 survive.  A removed state lies on no accepting run, so the product
  nodes it would have spawned carry no answer: walk sets, enumeration
  order and run counts (multiplicities) are unchanged, only the part
  of ``D × A`` that ``Annotate`` walks, logs and packs shrinks.  The
  trim alone renumbers nothing: :func:`compile_epsilon_free` and a
  compile that keeps ε leave ``n_states`` and ``final`` as given.
  Which states survive depends only on the database's label *set*
  (through the dropped transitions), the same thing a cached plan is
  already evicted on.
* merges the states with the **same past** (:func:`compile_query` with
  ε eliminated, nothing else): the coarsest partition whose classes are
  both-or-neither in ``initial_closure`` and entered by the same set of
  *(label, class of predecessor)* — a backward bisimulation.  Such
  states are reached by exactly the same words, so one of them holding
  the union of their rows accepts no new word and loses none: language,
  λ, walk sets and enumeration order (``TgtIdx``-lexicographic from the
  target, a property of the graph) are unchanged.  After ε-closure the
  states of one closure are entered alike: the 7 states above are 2
  classes, ``(a|b)*`` is one.  A class's representative (a final member
  if any, else the smallest) takes the rows of all its members; the
  rest are deleted the way a dead state is.  The classes are then
  numbered **densely**, 0…k−1 in the order of their representatives'
  ids (``CompiledQuery.written`` maps them back), so ``n_states`` is k
  and every per-(vertex, state) array a traversal allocates is |V|×k,
  not |V| × the states as written: on ``(a|b)* c (a|b|c)*`` 2 slots per
  vertex instead of 20.  The numbering is monotone, so every tie that
  breaks on state id breaks as it would on the representatives' ids.
  Dense ids depend on which states survive, hence, like the trim, on
  the label set a cached plan is evicted on; an annotation is read only
  through the compile it was built with.  Run counts
  are *not* preserved — they belong to the automaton as written — so
  :func:`compile_epsilon_free` does not merge, nor does a compile that
  keeps ε; nothing reads one compile's state ids in another.  The
  refinement signs again only the successors of states that changed
  class, the largest part of a split keeping the class id:
  O(|Δ| log |Q|) signatures.

Compilation is O(|A|·|Q| + wildcard expansion); it never touches the
database, preserving the O(|D| × |A|) preprocessing bound.
:meth:`CompiledQuery.size` — that bound's |A| — is the automaton the
traversal runs: for the merged compile its classes and transitions, so
``ns_per_da`` compares across compiles of one query whatever survives.
The as-written compiles count every id, dead ones included.

A note on ε-handling (deviation from the paper's Section 5.1).  The
paper eliminates ε on the fly inside ``Annotate`` via ``PossiblyVisit``
and claims no extra cost.  Transcribed literally, that routine only
propagates predecessor entries through ε-closures when a state is
reached *for the first time* at a BFS level; when the same direct
target is re-reached at the same level through a different edge, its
ε-successors — in particular final states of a Thompson automaton —
never learn about the new edge, and the enumeration silently drops
answers (``tests/core/test_epsilon.py`` contains the regression).  We
therefore ε-close the relation here, at query-compile time: this is
equivalent to running the ε-free algorithm on the ε-eliminated
automaton, costs nothing per database, and inflates |Δ| by at most a
factor |Q| in the worst case.  ``eliminate_epsilon=False`` keeps the raw
ε tables for the oracles (``repro.baselines``: the transcribed
``PossiblyVisit``, the Martens–Trautner reduction); :mod:`repro.core`
refuses such a compile (:meth:`CompiledQuery.require_epsilon_free`).
"""

from __future__ import annotations

from itertools import count
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.automata.nfa import ANY, EPSILON, NFA
from repro.automata.ops import remove_epsilon
from repro.exceptions import QueryError
from repro.graph.database import Graph


class CompiledQuery:
    """An NFA re-keyed to a specific database's label ids.

    Attributes mirror the paper's automaton tuple:

    * ``n_states`` — |Q|: ``automaton.n_states``, or in a merged compile
      the number of classes it left (``live_states[1]``);
    * ``initial`` — I (as given; a merged compile has no ε and no id
      for a dead or merged-away state, so there it is
      ``initial_closure``, sorted);
    * ``initial_closure`` — the co-accessible part of the ε-closure of
      I: the states an accepting run may start in;
    * ``final`` — F;
    * ``delta`` — per-state dict: label id → non-empty tuple of
      (co-accessible) successor states; ``{}`` for a removed state;
    * ``eps`` — per-state tuple of (co-accessible) ε-successors;
    * ``delta_size`` — |Δ| after compilation (counts expanded wildcard
      transitions and ε-transitions);
    * ``live_states`` — (co-accessible states, those the merge left);
      for ``explain`` and the compile span, no traversal reads it;
    * ``written`` — per state, the ``automaton`` id it stands for (its
      class representative's in a merged compile, strictly increasing;
      ``0…n_states−1`` otherwise).  No traversal reads it.

    Three derived tables are resolved once per compile:

    * ``moves`` — per state ``q``, its moves ``(a, Δ(q, a))`` in
      ascending label order: what the Dijkstra variant and the folklore
      baseline expand a product node by, and what the level rule of
      ``Annotate`` weighs;
    * ``gathers`` — per state ``q``, ``moves[q]`` grouped by equal
      target tuple: ``(labels, Δ(q, a))`` pairs, labels ascending, the
      groups in order of their first label — what a top-down level of
      ``Annotate`` gathers one successor set for, so ``(a|b|c|d)+``
      gathers four labels into one;
    * ``delta_inv`` — ``delta`` reversed: per state ``p``, label id →
      ``Δ⁻¹(a, p)``, the states ``q`` with ``p ∈ Δ(q, a)``, ascending —
      what a witness is read back by
      (:meth:`repro.core.annotate.AnnotateBFS.witness`).

    ``level_costs`` is filled by the first ``Annotate`` run over the
    compile — the per-state weights its level rule reads, derived from
    the graph's per-label edge counts (:mod:`repro.core.annotate`) —
    so a cached plan computes them once per graph epoch.
    """

    __slots__ = (
        "graph",
        "automaton",
        "n_states",
        "initial",
        "initial_closure",
        "final",
        "delta",
        "eps",
        "has_eps",
        "delta_size",
        "live_states",
        "written",
        "moves",
        "gathers",
        "delta_inv",
        "level_costs",
    )

    def __init__(
        self,
        graph: Graph,
        automaton: NFA,
        n_states: int,
        initial: Tuple[int, ...],
        initial_closure: FrozenSet[int],
        final: FrozenSet[int],
        delta: Tuple[Dict[int, Tuple[int, ...]], ...],
        eps: Tuple[Tuple[int, ...], ...],
        live_states: Tuple[int, int],
        written: Tuple[int, ...],
    ) -> None:
        self.graph = graph
        self.automaton = automaton
        self.n_states = n_states
        self.initial = initial
        self.initial_closure = initial_closure
        self.final = final
        self.delta = delta
        self.eps = eps
        self.live_states = live_states
        self.written = written
        self.has_eps = any(eps)
        self.delta_size = sum(
            len(ts) for d in delta for ts in d.values()
        ) + sum(len(es) for es in eps)
        self.moves: Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], ...] = tuple(
            tuple(sorted(d.items())) for d in delta
        )
        gathers = []
        for steps in self.moves:
            groups: Dict[Tuple[int, ...], List[int]] = {}
            for a, targets in steps:
                groups.setdefault(targets, []).append(a)
            gathers.append(
                tuple((tuple(labels), ts) for ts, labels in groups.items())
            )
        self.gathers: Tuple[
            Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...], ...
        ] = tuple(gathers)
        into: List[Dict[int, List[int]]] = [{} for _ in range(n_states)]
        for q, d in enumerate(delta):
            for a, ts in d.items():
                for p in ts:
                    into[p].setdefault(a, []).append(q)
        self.delta_inv: Tuple[Dict[int, Tuple[int, ...]], ...] = tuple(
            {a: tuple(qs) for a, qs in d.items()} for d in into
        )
        self.level_costs: Optional[object] = None

    def size(self) -> int:
        """The compiled ``|A| = |Q| + |Δ|`` (alphabet shared with D)."""
        return self.n_states + self.delta_size

    def require_epsilon_free(self) -> None:
        """Refuse a compile that kept ε: every :mod:`repro.core`
        function handed a compiled query calls this first.  Section
        5.1's ε-native traversal loses answers (module docstring), so
        it runs only as the oracle's transcription,
        :func:`repro.baselines.paper_pipeline.annotate_reference`."""
        if self.has_eps:
            raise QueryError(
                "repro.core runs ε-free compiles only; compile with "
                "compile_query(graph, automaton) (ε is closed at compile "
                "time) — compile_query(..., eliminate_epsilon=False) is "
                "for the oracles in repro.baselines"
            )

    def __repr__(self) -> str:
        return (
            f"CompiledQuery(|Q|={self.n_states}, |Δ|={self.delta_size}, "
            f"ε={'yes' if self.has_eps else 'no'})"
        )


def _past(entering, cls) -> FrozenSet[Tuple[int, int]]:
    """The (label, class of predecessor) pairs entering a state."""
    return frozenset([(a, cls[q]) for a, q in entering])


def _same_past_classes(live, initial, entering, rows) -> List[set]:
    """The multi-state classes of the coarsest backward bisimulation of
    ``live`` (module docstring); ``rows[q]``: label → live successors."""
    members = {True: live & initial, False: live - initial}
    cls: Dict[int, int] = {q: c for c, qs in members.items() for q in qs}
    past = dict.fromkeys(members)  # c → the signature its members had last
    fresh, dirty = count(2), set(live)
    while dirty:
        signed: Dict[int, Dict[object, List[int]]] = {}
        for q in dirty:
            if len(members[c := cls[q]]) > 1:  # a singleton cannot split
                parts = signed.setdefault(c, {})
                parts.setdefault(_past(entering[q], cls), []).append(q)
        dirty = set()
        for c, parts in signed.items():
            # ``rest`` members were not signed: they still have ``old``.
            block, old = members[c], past[c]
            rest = len(block) - sum(map(len, parts.values()))
            stay = max(parts, key=lambda s: len(parts[s]))
            if rest + len(parts.get(old, ())) >= len(parts[stay]):
                stay = old
            elif rest:
                parts.setdefault(old, []).extend(block.difference(*parts.values()))
            past[c] = stay
            for s, qs in parts.items():
                if s != stay:
                    block.difference_update(qs)
                    new = next(fresh)
                    members[new], past[new] = set(qs), s
                    for q in qs:
                        cls[q] = new
                        dirty.update(*rows[q].values())
    return [block for block in members.values() if len(block) > 1]


def _compile(
    graph: Graph, automaton: NFA, eliminate_epsilon: bool, merge: bool
) -> CompiledQuery:
    if automaton.n_states == 0 or not automaton.initial:
        raise QueryError("query automaton has no initial state")

    n = automaton.n_states
    all_label_ids = tuple(range(graph.label_count))
    delta_sets: List[Dict[int, set]] = [{} for _ in range(n)]
    eps_lists: List[List[int]] = [[] for _ in range(n)]

    for q in automaton.states():
        for label, targets in automaton.transitions_from(q):
            if label is EPSILON:
                # Duplicate-free by NFA invariant.
                eps_lists[q].extend(targets)
            elif label is ANY:
                for a in all_label_ids:
                    delta_sets[q].setdefault(a, set()).update(targets)
            else:
                if graph.has_label(label):
                    a = graph.label_id(label)
                    delta_sets[q].setdefault(a, set()).update(targets)

    if eliminate_epsilon and any(eps_lists):
        # Per-state ε-closures, O(|Q| × |Δ_ε|) once per query.
        closures: List[Tuple[int, ...]] = []
        for q in range(n):
            seen = {q}
            stack = [q]
            while stack:
                state = stack.pop()
                for nxt in eps_lists[state]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            closures.append(tuple(seen))
        for d in delta_sets:
            for a, targets in d.items():
                closed = set(targets)
                for p in targets:
                    closed.update(closures[p])
                d[a] = closed
        eps_lists = [[] for _ in range(n)]

    # Co-accessible trim: one backward reachability from F over
    # Δ ∪ Δ_ε, O(|A|).
    preds: List[List[int]] = [[] for _ in range(n)]
    for q in range(n):
        for targets in delta_sets[q].values():
            for p in targets:
                preds[p].append(q)
        for p in eps_lists[q]:
            preds[p].append(q)
    live = set(automaton.final)
    stack = list(live)
    while stack:
        for q in preds[stack.pop()]:
            if q not in live:
                live.add(q)
                stack.append(q)

    initial_closure = automaton.eps_closure(automaton.initial)
    co_accessible = len(live)
    if merge:
        # Same-past quotient: the representative takes its class's rows,
        # the other members leave the way a dead state does.
        entering: Dict[int, List[Tuple[int, int]]] = {p: [] for p in live}
        for q in live:
            for a, targets in delta_sets[q].items():
                targets &= live
                for p in targets:
                    entering[p].append((a, q))
        for block in _same_past_classes(live, initial_closure, entering, delta_sets):
            rep = min(block & automaton.final or block)
            for q in block - {rep}:
                for a, targets in delta_sets[q].items():
                    delta_sets[rep].setdefault(a, set()).update(targets)
                delta_sets[q] = {}
                live.discard(q)

    # The merged compile numbers the representatives 0…k−1 in written
    # order; the others keep every id.  A dead state has no live
    # successor (it would be live), so filtering the targets also
    # empties its own row.
    written = tuple(sorted(live)) if merge else tuple(range(n))
    dense = {q: i for i, q in enumerate(written)}
    delta: Tuple[Dict[int, Tuple[int, ...]], ...] = tuple(
        {
            a: tuple(dense[p] for p in sorted(kept))
            for a, ts in delta_sets[q].items()
            if (kept := ts & live)
        }
        for q in written
    )
    eps = tuple(tuple(dense[p] for p in eps_lists[q] if p in live) for q in written)
    starts = frozenset(dense[q] for q in initial_closure & live)

    return CompiledQuery(
        graph=graph,
        automaton=automaton,
        n_states=len(written),
        initial=tuple(sorted(starts if merge else automaton.initial)),
        initial_closure=starts,
        final=frozenset(dense[q] for q in automaton.final & live),
        delta=delta,
        eps=eps,
        live_states=(co_accessible, len(live)),
        written=written,
    )


def compile_query(
    graph: Graph, automaton: NFA, eliminate_epsilon: bool = True
) -> CompiledQuery:
    """Compile ``automaton`` for execution against ``graph``.

    With ``eliminate_epsilon=True`` (the default) the compiled ``delta``
    is ε-closed, ``eps`` is empty and same-past states are merged, the
    classes numbered 0…k−1 (``written`` maps them back) — see the module
    docstring for why.  ``eliminate_epsilon=False`` keeps the
    raw ε tables, which only the oracles traverse (every function of
    :mod:`repro.core` refuses them).  Either way only co-accessible states
    keep transitions (same docstring); a query none of whose accepting
    paths survives the database's label set compiles to an empty
    ``initial_closure``.  Raises :class:`~repro.exceptions.QueryError`
    when the automaton has no states or no initial state (such queries
    match nothing and are almost always caller bugs).
    """
    return _compile(graph, automaton, eliminate_epsilon, eliminate_epsilon)


def compile_epsilon_free(graph: Graph, automaton: NFA) -> CompiledQuery:
    """Compile the automaton **as written** — ε-eliminated,
    co-accessible, *not* merged: the form run counting (multiplicities,
    product paths) is defined on, and what the oracles and the paper's
    |A| sweeps run.  State ids are those of ``automaton``."""
    if automaton.has_epsilon:
        automaton = remove_epsilon(automaton)
    return _compile(graph, automaton, True, False)
