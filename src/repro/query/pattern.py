"""GQL-flavoured path patterns over the shortest-walk engine.

All-shortest-walks is "one of the most widespread semantics in
practice" (paper, Section 1): it is the semantics of GSQL/TigerGraph
and G-Core, and is supported by PGQL and the GQL ISO standard.  Those
languages phrase queries as *path patterns* —
``ALL SHORTEST (a)-[:h|:s]->+(b)`` — rather than bare regular
expressions.  This module provides that surface syntax, compiled down
to the library's RPQ engine.

Supported grammar (a pragmatic GQL subset; whitespace is free)::

    pattern  := [mode] node segment+
    mode     := 'ANY' 'SHORTEST' | 'ALL' 'SHORTEST' | 'SHORTEST'
                                                (default: ALL SHORTEST)
    node     := '(' NAME? ')'        endpoints must be named; interior
                                     nodes must be anonymous '()'
    segment  := arrow node
    arrow    := '-[' SPEC ']->' QUANT?  |  '-->' QUANT?
    QUANT    := '*' | '+' | '?' | '{' INT [',' INT?] '}'
    SPEC     := a regular path query expression
                (:mod:`repro.automata.regex_parser` syntax); GQL-style
                ':' sigils before labels are tolerated and ignored

``-->`` abbreviates ``-[.]->`` (one edge, any label).  Consecutive
segments concatenate; a quantifier applies to its segment's SPEC.

>>> from repro.workloads.fraud import example9_graph
>>> p = parse_pattern("ALL SHORTEST (Alix)-[h* s (h|s)*]->(Bob)")
>>> len(list(p.run(example9_graph())))
4
>>> one = parse_pattern("ANY SHORTEST (Alix)-[h* s (h|s)*]->(Bob)")
>>> len(list(one.run(example9_graph())))
1

Semantics note: ``ANY SHORTEST`` returns one shortest matching walk
(one ``Annotate`` BFS run and a witness read back from its distances,
no enumeration machinery); ``ALL SHORTEST`` returns every one, each exactly once —
precisely the paper's Distinct Shortest Walks problem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.core.engine import DistinctShortestWalks
from repro.core.walks import Walk
from repro.exceptions import PatternSyntaxError
from repro.graph.database import Graph
from repro.query.rpq import RPQ

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.api.database import Database
    from repro.api.query import Query

_MODES = ("all", "any")


class PathPattern:
    """A parsed path pattern: endpoints + compiled RPQ + mode.

    Build with :func:`parse_pattern`.  The compiled regular expression
    is exposed as :attr:`regex` (useful for logging and for tests);
    the underlying :class:`~repro.query.rpq.RPQ` as :attr:`rpq`.
    """

    def __init__(
        self,
        expression: str,
        mode: str,
        source: str,
        target: str,
        regex: str,
    ) -> None:
        self.expression = expression
        self.mode = mode
        self.source = source
        self.target = target
        self.regex = regex
        self.rpq = RPQ(regex)

    def engine(
        self, graph: Graph, mode: str = "auto"
    ) -> DistinctShortestWalks:
        """A shortest-walk engine for this pattern on ``graph``."""
        return self.rpq.engine(graph, self.source, self.target, mode=mode)

    def query(self, db: "Database") -> "Query":
        """This pattern as one façade query on ``db``: the pair shape,
        under the any-walk semantics for ``ANY SHORTEST``."""
        query = db.query(self.rpq).from_(self.source).to(self.target)
        return query.any_walk() if self.mode == "any" else query

    def run(self, graph: Graph) -> Iterator[Walk]:
        """Evaluate the pattern on ``graph``'s shared database.

        ``ALL SHORTEST`` yields every distinct shortest matching walk;
        ``ANY SHORTEST`` yields at most one.
        """
        from repro.api.database import Database

        return self.query(Database.for_graph(graph)).run().walks()

    def __repr__(self) -> str:
        return (
            f"PathPattern({self.mode.upper()} SHORTEST "
            f"({self.source}) -[{self.regex}]-> ({self.target}))"
        )


def parse_pattern(text: str) -> PathPattern:
    """Parse a GQL-flavoured path pattern (see the module docstring)."""
    scanner = _Scanner(text)
    mode = scanner.parse_mode()
    nodes: List[Tuple[Optional[str], int]] = [scanner.parse_node()]
    segments: List[str] = []
    while True:
        segments.append(scanner.parse_arrow())
        nodes.append(scanner.parse_node())
        scanner.skip_ws()
        if scanner.at_end():
            break
    if not segments:  # pragma: no cover - parse_arrow raises first.
        raise PatternSyntaxError("pattern needs at least one edge", 0)

    source, source_pos = nodes[0]
    target, target_pos = nodes[-1]
    if source is None:
        raise PatternSyntaxError(
            "the source endpoint must be named", source_pos
        )
    if target is None:
        raise PatternSyntaxError(
            "the target endpoint must be named", target_pos
        )
    for name, pos in nodes[1:-1]:
        if name is not None:
            raise PatternSyntaxError(
                f"interior node ({name}) must be anonymous: a regular "
                "path query cannot pin intermediate vertices",
                pos,
            )
    regex = " ".join(segments)
    return PathPattern(
        expression=text,
        mode=mode,
        source=source,
        target=target,
        regex=regex,
    )


class _Scanner:
    """Character-level scanner for the pattern grammar."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    # -- plumbing ------------------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def skip_ws(self) -> None:
        while not self.at_end() and self.text[self.pos].isspace():
            self.pos += 1

    def error(self, message: str) -> PatternSyntaxError:
        return PatternSyntaxError(message, self.pos)

    def expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def _word(self) -> str:
        start = self.pos
        while not self.at_end() and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    # -- grammar -------------------------------------------------------

    def parse_mode(self) -> str:
        """``ANY SHORTEST`` / ``ALL SHORTEST`` / ``SHORTEST`` / none."""
        self.skip_ws()
        checkpoint = self.pos
        first = self._word().upper()
        if first in ("ANY", "ALL"):
            self.skip_ws()
            second = self._word().upper()
            if second != "SHORTEST":
                raise self.error(
                    f"expected SHORTEST after {first}, got {second!r}"
                )
            return "any" if first == "ANY" else "all"
        if first == "SHORTEST":
            return "all"
        self.pos = checkpoint  # Not a mode keyword: no mode given.
        return "all"

    def parse_node(self) -> Tuple[Optional[str], int]:
        """``( name? )`` → (name or None, position)."""
        self.skip_ws()
        start = self.pos
        self.expect("(")
        end = self.text.find(")", self.pos)
        if end < 0:
            raise self.error("unterminated node: missing ')'")
        name = self.text[self.pos:end].strip()
        self.pos = end + 1
        return (name if name else None), start

    def parse_arrow(self) -> str:
        """An arrow segment → its regular-expression fragment."""
        self.skip_ws()
        if self.text.startswith("-->", self.pos):
            self.pos += 3
            spec = "."
        elif self.text.startswith("-[", self.pos):
            self.pos += 2
            spec = self._bracket_spec()
            self.skip_ws()
            self.expect("->")
        else:
            raise self.error("expected '-[' or '-->'")
        quant = self._quantifier()
        return f"({spec}){quant}" if quant else f"({spec})"

    def _bracket_spec(self) -> str:
        """Scan to the matching ``]``; strip GQL ':' sigils.

        Quoted labels (single or double quotes, backslash escapes) may
        contain ``]`` and ``:`` freely.
        """
        start = self.pos
        chars: List[str] = []
        quote: Optional[str] = None
        while not self.at_end():
            ch = self.text[self.pos]
            if quote is not None:
                chars.append(ch)
                if ch == "\\" and self.pos + 1 < len(self.text):
                    chars.append(self.text[self.pos + 1])
                    self.pos += 2
                    continue
                if ch == quote:
                    quote = None
                self.pos += 1
                continue
            if ch in "'\"":
                quote = ch
                chars.append(ch)
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                spec = "".join(chars).strip()
                if not spec:
                    raise PatternSyntaxError(
                        "empty edge specification", start
                    )
                return spec
            if ch == ":":
                chars.append(" ")  # GQL sigil: ':h|:s' ≡ 'h|s'.
                self.pos += 1
                continue
            chars.append(ch)
            self.pos += 1
        raise PatternSyntaxError("unterminated '-[': missing ']'", start)

    def _quantifier(self) -> str:
        """``*``, ``+``, ``?`` or ``{m,n}`` after an arrow, if any."""
        self.skip_ws()
        if self.at_end():
            return ""
        ch = self.text[self.pos]
        if ch in "*+?":
            self.pos += 1
            return ch
        if ch == "{":
            end = self.text.find("}", self.pos)
            if end < 0:
                raise self.error("unterminated quantifier: missing '}'")
            body = self.text[self.pos + 1:end].strip()
            self.pos = end + 1
            parts = [p.strip() for p in body.split(",")]
            if not all(p.isdigit() or p == "" for p in parts) or not parts[
                0
            ].isdigit() or len(parts) > 2:
                raise self.error(f"bad quantifier body {{{body}}}")
            return "{" + body.replace(" ", "") + "}"
        return ""
