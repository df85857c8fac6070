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

from typing import List, Optional as Opt

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

#: Deepest ``( … )`` nesting a query may use.  Each group costs the
#: recursive descent four frames, so the cap keeps a hostile query a
#: :class:`~repro.exceptions.RegexSyntaxError` at the first group past
#: it, far below Python's recursion limit.
MAX_GROUP_DEPTH = 100


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

    def parse(self) -> RegexNode:
        node = self._expr()
        leftover = self._peek()
        if leftover is not None:
            raise RegexSyntaxError(
                f"unexpected {leftover.text!r}", leftover.pos
            )
        return node

    def _expr(self) -> RegexNode:
        parts = [self._term()]
        while (token := self._peek()) is not None and token.kind == "|":
            self._next()
            parts.append(self._term())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    _ATOM_STARTERS = {"label", "quoted", "epsilon", ".", "("}

    def _term(self) -> RegexNode:
        parts = [self._factor()]
        while (token := self._peek()) is not None and (
            token.kind in self._ATOM_STARTERS
        ):
            parts.append(self._factor())
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def _factor(self) -> RegexNode:
        node = self._atom()
        while (token := self._peek()) is not None:
            if token.kind == "*":
                self._next()
                node = Star(node)
            elif token.kind == "+":
                self._next()
                node = Plus(node)
            elif token.kind == "?":
                self._next()
                node = Optional(node)
            elif token.kind == "{":
                node = self._repeat(node)
            else:
                break
        return node

    def _repeat(self, node: RegexNode) -> RegexNode:
        open_token = self._expect("{")
        lo = int(self._expect("int").text)
        hi: Opt[int] = lo
        token = self._next()
        if token.kind == ",":
            nxt = self._next()
            if nxt.kind == "int":
                hi = int(nxt.text)
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
            return Repeat(node, lo, hi)
        except RegexSyntaxError as exc:
            raise RegexSyntaxError(str(exc).split(" (at")[0], open_token.pos)

    def _atom(self) -> RegexNode:
        token = self._next()
        if token.kind in ("label", "quoted"):
            return Label(token.text)
        if token.kind == "epsilon":
            return EpsilonAtom()
        if token.kind == ".":
            return AnyAtom()
        if token.kind == "(":
            if self._depth == MAX_GROUP_DEPTH:
                raise RegexSyntaxError(
                    f"groups nested deeper than {MAX_GROUP_DEPTH}", token.pos
                )
            self._depth += 1
            node = self._expr()
            self._expect(")")
            self._depth -= 1
            return node
        raise RegexSyntaxError(f"unexpected {token.text!r}", token.pos)


def parse_rpq(source: str) -> RegexNode:
    """Parse a regular path query expression into an AST.

    Raises :class:`~repro.exceptions.RegexSyntaxError` with the offending
    position on malformed input.
    """
    if not source or not source.strip():
        raise RegexSyntaxError("empty expression", 0)
    return _Parser(source).parse()
