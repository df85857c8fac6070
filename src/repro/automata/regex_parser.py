"""Parser for regular path query expressions.

Grammar (whitespace separates tokens; juxtaposition = concatenation)::

    expr    := term ('|' term)*
    term    := factor factor*
    factor  := atom postfix*
    postfix := '*' | '+' | '?' | '{' INT (',' INT?)? '}'
    atom    := LABEL | QUOTED | '.' | 'ε' | '(' expr ')'

    LABEL   := [A-Za-z_][A-Za-z0-9_-]*
    QUOTED  := '...'  or  "..."  with backslash escapes
    INT     := [0-9]+

Examples::

    h* s (h | s)*          # the paper's Example 9 query
    knows{2,4} worksAt
    'high value'+ .        # quoted label, then any label

The parser is a hand-written recursive descent with precise error
positions — a query front-end's error messages are user-facing.
"""

from __future__ import annotations

from typing import List, Optional as Opt, Tuple

from repro.automata.regex_ast import (
    AnyAtom,
    Concat,
    EpsilonAtom,
    Label,
    Optional,
    Plus,
    RegexNode,
    Repeat,
    Star,
    Union,
)
from repro.exceptions import RegexSyntaxError

_PUNCT = {"|", "(", ")", "*", "+", "?", "{", "}", ",", "."}
_EPSILON_TOKENS = {"ε", "<eps>"}

#: Deepest nesting a query may use: open ``( … )`` groups, plus
#: postfix operators stacked on one another that do not fold (such as
#: ``{m,n}{m,n}``).  Each group costs the recursive descent four frames
#: and Thompson's build at most three (a ``?``, ``+`` or flat ``{m,n}``
#: builds through its one-level expansion), so the cap
#: keeps a hostile query a :class:`~repro.exceptions.RegexSyntaxError`
#: at the first group or operator past it, far below Python's
#: recursion limit.
MAX_GROUP_DEPTH = 100

#: Largest count ``{m,n}`` may name (RE2's cap): ``a{k}`` expands to
#: ``k`` copies of ``a``, so a larger count is a
#: :class:`~repro.exceptions.RegexSyntaxError` at its ``{``.
MAX_REPEAT_COUNT = 1000

#: Most atoms a repeat or a ``+`` may expand to: ``X{m,n}`` is ``n``
#: copies of ``X`` (``X{m,}`` is ``m + 1``), so nested repeats
#: multiply — ``a{1000}{1000}`` would be a million copies — and ``X+``
#: is ``X X*``, two, so nested ``+`` groups double.  A repeat whose
#: count times its operand's expanded size passes the cap is a
#: :class:`~repro.exceptions.RegexSyntaxError` at its ``{``, a ``+``
#: whose doubled operand does at the ``+``.
MAX_EXPANDED_SIZE = 5000

#: The postfix operators a chain folds: ``X**``, ``X*?``, ``X?*``,
#: ``X+*``, ``X*+``, ``X+?`` and ``X?+`` all denote ``X*``; ``X++`` is
#: ``X+`` and ``X??`` is ``X?``.  So an operator on a node that the
#: previous operator of the chain built replaces it.
_POSTFIX = {"*": Star, "+": Plus, "?": Optional}
_FOLD = {
    (Star, Star): Star, (Star, Optional): Star, (Optional, Star): Star,
    (Plus, Star): Star, (Star, Plus): Star, (Plus, Optional): Star,
    (Optional, Plus): Star, (Plus, Plus): Plus,
    (Optional, Optional): Optional,
}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind  # 'label' | 'quoted' | 'int' | punctuation itself
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.text!r}, {self.pos})"


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch in "'\"":
            quote, start = ch, i
            i += 1
            chars: List[str] = []
            while i < n and source[i] != quote:
                if source[i] == "\\" and i + 1 < n:
                    chars.append(source[i + 1])
                    i += 2
                else:
                    chars.append(source[i])
                    i += 1
            if i >= n:
                raise RegexSyntaxError("unterminated quoted label", start)
            i += 1  # closing quote
            if not chars:
                raise RegexSyntaxError("empty quoted label", start)
            tokens.append(_Token("quoted", "".join(chars), start))
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(_Token("int", source[start:i], start))
            continue
        if ch == "ε":
            tokens.append(_Token("epsilon", ch, i))
            i += 1
            continue
        if source.startswith("<eps>", i):
            tokens.append(_Token("epsilon", "<eps>", i))
            i += 5
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] in "_-"):
                i += 1
            tokens.append(_Token("label", source[start:i], start))
            continue
        raise RegexSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, source: str) -> None:
        self._source = source
        self._tokens = _tokenize(source)
        self._index = 0
        self._depth = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Opt[_Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise RegexSyntaxError("unexpected end of expression", len(self._source))
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise RegexSyntaxError(
                f"expected {kind!r}, found {token.text!r}", token.pos
            )
        return token

    # -- grammar ---------------------------------------------------------------

    # Each rule returns ``(node, nesting, size)``: the groups and
    # stacked postfix operators the node holds on its deepest path,
    # which the cap adds to the groups still open around it, and the
    # atoms the node expands to once its repeats are copied out.

    def parse(self) -> RegexNode:
        node, _, _ = self._expr()
        leftover = self._peek()
        if leftover is not None:
            raise RegexSyntaxError(
                f"unexpected {leftover.text!r}", leftover.pos
            )
        return node

    def _expr(self) -> Tuple[RegexNode, int, int]:
        node, nesting, size = self._term()
        parts = [node]
        while (token := self._peek()) is not None and token.kind == "|":
            self._next()
            node, inner, more = self._term()
            parts.append(node)
            nesting = max(nesting, inner)
            size += more
        return (parts[0] if len(parts) == 1 else Union(tuple(parts))), nesting, size

    _ATOM_STARTERS = {"label", "quoted", "epsilon", ".", "("}

    def _term(self) -> Tuple[RegexNode, int, int]:
        node, nesting, size = self._factor()
        parts = [node]
        while (token := self._peek()) is not None and (
            token.kind in self._ATOM_STARTERS
        ):
            node, inner, more = self._factor()
            parts.append(node)
            nesting = max(nesting, inner)
            size += more
        return (parts[0] if len(parts) == 1 else Concat(tuple(parts))), nesting, size

    def _factor(self) -> Tuple[RegexNode, int, int]:
        node, nesting, size = self._atom()
        chained = False  # Whether ``node`` is the chain's own result.
        operand = size  # The expanded size of ``node.child`` once chained.
        while (token := self._peek()) is not None:
            op = _POSTFIX.get(token.kind)
            if op is None and token.kind != "{":
                break
            fold = _FOLD.get((type(node), op)) if chained else None
            if fold is not None:
                # X** is X*: the operator replaces the one before it.
                self._next()
                node = fold(node.child)
                size = self._postfix_size(fold, operand, token)
                continue
            if chained:
                nesting += 1
                if self._depth + nesting > MAX_GROUP_DEPTH:
                    raise RegexSyntaxError(
                        "postfix operators stacked and groups nested "
                        f"deeper than {MAX_GROUP_DEPTH}", token.pos,
                    )
            operand = size
            if op is None:
                node, size = self._repeat(node, size)
            else:
                self._next()
                node = op(node)
                size = self._postfix_size(op, size, token)
            chained = True
        return node, nesting, size

    @staticmethod
    def _postfix_size(op, size: int, token: _Token) -> int:
        """The expanded size of ``op`` over an operand of ``size``:
        ``X+`` is ``X X*``, two copies, so nested ``+`` groups double;
        past :data:`MAX_EXPANDED_SIZE` it is a
        :class:`~repro.exceptions.RegexSyntaxError` at the ``+``."""
        if op is not Plus:
            return size
        if 2 * size > MAX_EXPANDED_SIZE:
            raise RegexSyntaxError(
                f"'+' expands past {MAX_EXPANDED_SIZE} atoms", token.pos
            )
        return 2 * size

    def _repeat(self, node: RegexNode, size: int) -> Tuple[RegexNode, int]:
        open_token = self._expect("{")
        lo = self._count(self._expect("int"), open_token)
        hi: Opt[int] = lo
        token = self._next()
        if token.kind == ",":
            nxt = self._next()
            if nxt.kind == "int":
                hi = self._count(nxt, open_token)
                self._expect("}")
            elif nxt.kind == "}":
                hi = None
            else:
                raise RegexSyntaxError(
                    f"expected count or '}}', found {nxt.text!r}", nxt.pos
                )
        elif token.kind != "}":
            raise RegexSyntaxError(
                f"expected ',' or '}}', found {token.text!r}", token.pos
            )
        try:
            node = Repeat(node, lo, hi)
        except RegexSyntaxError as exc:
            raise RegexSyntaxError(str(exc).split(" (at")[0], open_token.pos)
        size *= lo + 1 if hi is None else hi
        if size > MAX_EXPANDED_SIZE:
            raise RegexSyntaxError(
                f"repetition expands past {MAX_EXPANDED_SIZE} atoms", open_token.pos
            )
        return node, size

    @staticmethod
    def _count(token: _Token, open_token: _Token) -> int:
        """A ``{m,n}`` count, refused past :data:`MAX_REPEAT_COUNT` at
        the ``{`` (read by length first: a count of thousands of digits
        is never turned into an ``int``)."""
        digits = token.text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_REPEAT_COUNT)) or (
            int(digits) > MAX_REPEAT_COUNT
        ):
            raise RegexSyntaxError(
                f"repetition count exceeds {MAX_REPEAT_COUNT}", open_token.pos
            )
        return int(digits)

    def _atom(self) -> Tuple[RegexNode, int, int]:
        token = self._next()
        if token.kind in ("label", "quoted"):
            return Label(token.text), 0, 1
        if token.kind == "epsilon":
            return EpsilonAtom(), 0, 1
        if token.kind == ".":
            return AnyAtom(), 0, 1
        if token.kind == "(":
            if self._depth == MAX_GROUP_DEPTH:
                raise RegexSyntaxError(
                    f"groups nested deeper than {MAX_GROUP_DEPTH}", token.pos
                )
            self._depth += 1
            node, nesting, size = self._expr()
            self._expect(")")
            self._depth -= 1
            return node, nesting + 1, size
        raise RegexSyntaxError(f"unexpected {token.text!r}", token.pos)


def parse_rpq(source: str) -> RegexNode:
    """Parse a regular path query expression into an AST.

    Raises :class:`~repro.exceptions.RegexSyntaxError` with the offending
    position on malformed input.
    """
    if not source or not source.strip():
        raise RegexSyntaxError("empty expression", 0)
    return _Parser(source).parse()
