"""Abstract syntax trees for regular path query expressions.

The surface syntax (see :mod:`repro.automata.regex_parser`) supports
the usual operators plus RPQ conveniences; the AST mirrors it
one-to-one.  :func:`desugar` expands ``+``, ``?`` and ``{m,n}`` into
the *core* operators (label / ε / wildcard / concatenation / union /
star), writing ``X{m,n}`` flat, as ``n − m`` optionals ``(ε|X)``.
Production's :func:`~repro.automata.thompson.thompson_nfa` compiles
sugar itself and chains a bounded repeat linearly; the flat form is its
test oracle, and what the Glushkov baseline reads.

Nodes are immutable value objects: they compare and hash structurally
and render back to parseable syntax via ``str()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional as Opt
from typing import Tuple

from repro.exceptions import RegexSyntaxError


class RegexNode:
    """Base class of all AST nodes."""

    #: Binding strength, used to place parentheses when pretty-printing.
    _precedence = 3

    def _wrap(self, child: "RegexNode") -> str:
        text = str(child)
        if child._precedence < self._precedence:
            return f"({text})"
        return text


@dataclass(frozen=True)
class Label(RegexNode):
    """A single label atom, e.g. ``h`` or ``'high value'``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise RegexSyntaxError("empty label", 0)

    def __str__(self) -> str:
        if self.name.isidentifier() or (
            self.name.replace("-", "_").isidentifier()
        ):
            return self.name
        escaped = self.name.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"


@dataclass(frozen=True)
class AnyAtom(RegexNode):
    """The wildcard ``.`` — matches any single database label."""

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class EpsilonAtom(RegexNode):
    """The empty word ``ε``."""

    def __str__(self) -> str:
        return "ε"


@dataclass(frozen=True)
class Concat(RegexNode):
    """Concatenation of two or more parts (juxtaposition)."""

    parts: Tuple[RegexNode, ...]
    _precedence = 2

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise RegexSyntaxError("concatenation needs >= 2 parts", 0)

    def __str__(self) -> str:
        return " ".join(self._wrap(p) for p in self.parts)


@dataclass(frozen=True)
class Union(RegexNode):
    """Alternation ``e1 | e2 | ...``."""

    parts: Tuple[RegexNode, ...]
    _precedence = 1

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise RegexSyntaxError("union needs >= 2 parts", 0)

    def __str__(self) -> str:
        return " | ".join(self._wrap(p) for p in self.parts)


@dataclass(frozen=True)
class Star(RegexNode):
    """Kleene star ``e*``."""

    child: RegexNode

    def __str__(self) -> str:
        return f"{self._wrap(self.child)}*"


@dataclass(frozen=True)
class Plus(RegexNode):
    """One-or-more ``e+`` (sugar for ``e e*``)."""

    child: RegexNode

    def __str__(self) -> str:
        return f"{self._wrap(self.child)}+"


@dataclass(frozen=True)
class Optional(RegexNode):
    """Zero-or-one ``e?`` (sugar for ``ε | e``)."""

    child: RegexNode

    def __str__(self) -> str:
        return f"{self._wrap(self.child)}?"


@dataclass(frozen=True)
class Repeat(RegexNode):
    """Bounded repetition ``e{lo,hi}``; ``hi=None`` means unbounded.

    ``e{3}`` abbreviates ``e{3,3}``; ``e{2,}`` abbreviates unbounded.
    The automaton holds ``hi`` copies of ``e`` (``lo + 1`` when
    unbounded) and stays linear in them, since Thompson chains the
    optional copies ``(e(e(…)?)?)?``; a counted repeat matches ``k``
    copies of ``e`` in exactly one way.
    """

    child: RegexNode
    lo: int
    hi: Opt[int] = field(default=None)

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise RegexSyntaxError("repetition lower bound must be >= 0", 0)
        if self.hi is not None and self.hi < self.lo:
            raise RegexSyntaxError("repetition bounds out of order", 0)

    def __str__(self) -> str:
        body = self._wrap(self.child)
        if self.hi is None:
            return f"{body}{{{self.lo},}}"
        if self.hi == self.lo:
            return f"{body}{{{self.lo}}}"
        return f"{body}{{{self.lo},{self.hi}}}"


def _concat(parts: Tuple[RegexNode, ...]) -> RegexNode:
    if not parts:
        return EpsilonAtom()
    if len(parts) == 1:
        return parts[0]
    return Concat(parts)


def desugar(node: RegexNode) -> RegexNode:
    """Expand ``+``, ``?`` and ``{m,n}`` into core operators.

    The result uses only :class:`Label`, :class:`AnyAtom`,
    :class:`EpsilonAtom`, :class:`Concat`, :class:`Union` and
    :class:`Star`.
    """
    if isinstance(node, (Label, AnyAtom, EpsilonAtom)):
        return node
    if isinstance(node, Concat):
        return _concat(tuple(desugar(p) for p in node.parts))
    if isinstance(node, Union):
        return Union(tuple(desugar(p) for p in node.parts))
    if isinstance(node, Star):
        return Star(desugar(node.child))
    if isinstance(node, Plus):
        child = desugar(node.child)
        return Concat((child, Star(child)))
    if isinstance(node, Optional):
        return Union((EpsilonAtom(), desugar(node.child)))
    if isinstance(node, Repeat):
        child = desugar(node.child)
        mandatory: Tuple[RegexNode, ...] = tuple([child] * node.lo)
        if node.hi is None:
            return _concat(mandatory + (Star(child),))
        optional: Tuple[RegexNode, ...] = tuple(
            Union((EpsilonAtom(), child)) for _ in range(node.hi - node.lo)
        )
        return _concat(mandatory + optional)
    raise TypeError(f"unknown regex node: {node!r}")


def ast_size(node: RegexNode) -> int:
    """|R| — number of atoms and operators, used in complexity bounds."""
    if isinstance(node, (Label, AnyAtom, EpsilonAtom)):
        return 1
    if isinstance(node, (Concat, Union)):
        return 1 + sum(ast_size(p) for p in node.parts)
    if isinstance(node, (Star, Plus, Optional)):
        return 1 + ast_size(node.child)
    if isinstance(node, Repeat):
        return 1 + ast_size(node.child)
    raise TypeError(f"unknown regex node: {node!r}")
