"""Query planning: detect which setting an input lies in.

The paper (Section 1): *"it takes linear time to check whether a given
automaton A is deterministic and a given database D is single-labeled.
Thus, detecting that the input lies in the more favourable setting and
running the more efficient algorithm instead can be done at no
additional cost."*  :func:`analyze` performs exactly those checks and
records the reasoning, so users can ask a plan to explain itself.  It
reports the *setting*; what runs is the general engine either way (the
folklore enumerator for the favourable setting is a baseline it
outruns, see :mod:`repro.baselines.simple`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.automata.determinize import is_deterministic
from repro.automata.nfa import NFA
from repro.automata.ops import is_unambiguous
from repro.graph.database import Graph


def graph_is_single_labeled(graph: Graph) -> bool:
    """Linear-time check: does every edge carry exactly one label?"""
    return all(len(graph.labels(e)) == 1 for e in graph.edges())


def simple_eligible(graph: Graph, automaton: NFA) -> bool:
    """Does the input lie in the "simpler setting" — a single-labeled
    database and a deterministic (hence ε-free, single-initial)
    automaton?  Both checks are linear, as the paper points out."""
    return graph_is_single_labeled(graph) and is_deterministic(automaton)


@dataclass
class QueryPlan:
    """Outcome of :func:`analyze`."""

    single_labeled: bool
    deterministic: bool
    has_epsilon: bool
    unambiguous: bool
    #: The setting detected: "simple" (walks ↔ product paths, an
    #: O(λ)-delay enumeration exists) or "general" (duplicates possible,
    #: the paper's O(λ×|A|) delay).
    engine: str = "general"
    reasons: List[str] = field(default_factory=list)
    graph_size: int = 0
    automaton_size: int = 0
    #: What the engine runs, where a compile is at hand (the façade's
    #: ``explain``): states as written, co-accessible, left by the
    #: same-past merge, and the compiled |Δ|.
    compiled: Tuple[int, ...] = ()

    def explain(self) -> str:
        """Multi-line human-readable account of the decision."""
        lines = [
            f"engine: {self.engine}",
            f"database: size {self.graph_size}, "
            f"single-labeled: {self.single_labeled}",
            f"automaton: size {self.automaton_size}, "
            f"deterministic: {self.deterministic}, "
            f"ε-transitions: {self.has_epsilon}, "
            f"unambiguous: {self.unambiguous}",
        ]
        if self.compiled:
            lines.append(
                "compiled: {} states as written, {} co-accessible, {} after "
                "the same-past merge, |Δ| {}".format(*self.compiled)
            )
        lines.extend(f"- {reason}" for reason in self.reasons)
        return "\n".join(lines)


def analyze(graph: Graph, automaton: NFA, check_ambiguity: bool = True) -> QueryPlan:
    """Classify the input (see the module docstring).

    The single-labeled and determinism checks are linear; the
    unambiguity check (used only for reporting — related work [11, 17]
    assumes it) costs up to O(|Δ|²) and can be disabled with
    ``check_ambiguity=False``.
    """
    single = graph_is_single_labeled(graph)
    deterministic = is_deterministic(automaton)
    has_eps = automaton.has_epsilon
    unambiguous = (
        deterministic
        if deterministic
        else (is_unambiguous(automaton) if check_ambiguity else False)
    )
    plan = QueryPlan(
        single_labeled=single,
        deterministic=deterministic,
        has_epsilon=has_eps,
        unambiguous=unambiguous,
        graph_size=graph.size(),
        automaton_size=automaton.size(),
    )
    if single and deterministic:
        plan.engine = "simple"
        plan.reasons.append(
            "single-labeled database + deterministic automaton: "
            "walks and product paths are in bijection, so an O(λ)-delay "
            "product-BFS enumeration exists; the general engine runs "
            "here too (same answers, and faster on its packed cells)"
        )
    else:
        plan.engine = "general"
        if not single:
            plan.reasons.append(
                "multi-labeled edges introduce nondeterminism in the data"
            )
        if not deterministic:
            plan.reasons.append(
                "nondeterministic query automaton "
                "(duplicates possible in the product)"
            )
        plan.reasons.append(
            "using the paper's algorithm: O(|D|×|A|) preprocessing, "
            "O(λ×|A|) delay"
        )
    return plan
