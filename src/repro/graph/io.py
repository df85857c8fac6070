"""Persistence for graph databases.

Two formats are supported:

* **JSON** — a single document with explicit vertex, label and edge
  arrays; lossless (keeps edge order, hence ``TgtIdx`` and enumeration
  order, and costs).
* **edge list** — a friendly line-based text format::

      # comment
      Alix -> Cassie : h
      Alix -> Dan    : h, s
      Eve  -> Bob    : h, s @ 3      # optional cost after '@'

  Vertices appear in first-use order; lossless for everything the
  algorithm cares about.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Dict, Union

from repro.exceptions import GraphError, is_int
from repro.graph.builder import GraphBuilder
from repro.graph.database import Graph

_PathLike = Union[str, Path]

_EDGE_RE = re.compile(
    r"^\s*(?P<src>[^\s-][^:>]*?)\s*->\s*(?P<tgt>[^:]+?)\s*:\s*(?P<labels>[^@]+?)"
    r"\s*(?:@\s*(?P<cost>\d+))?\s*$"
)


def graph_to_dict(graph: Graph) -> Dict[str, object]:
    """Serialize a graph to a JSON-compatible dictionary.

    Vertex names are kept as they are, so a name must be a ``str`` or an
    ``int`` (not a ``bool``) — what JSON reads back unchanged; any other
    name is refused with :class:`~repro.exceptions.GraphError`.
    """
    vertices = [graph.vertex_name(v) for v in graph.vertices()]
    for name in vertices:
        if not _is_vertex_name(name):
            raise GraphError(
                f"vertex name {name!r} is not a str or an int: JSON would "
                "not read it back as written"
            )
    return {
        "format": "repro-graph",
        "version": 1,
        "vertices": vertices,
        "labels": list(graph.alphabet),
        "edges": [
            {
                "src": graph.src(e),
                "tgt": graph.tgt(e),
                "labels": list(graph.labels(e)),
                **({"cost": graph.cost(e)} if graph.has_costs else {}),
            }
            for e in graph.edges()
        ],
    }


def graph_from_dict(data: Dict[str, object]) -> Graph:
    """Inverse of :func:`graph_to_dict`.

    The document is checked in one pass for what :class:`Graph` assumes
    of its input — unique vertex names, each a string or an ``int``, and
    unique string label names; per edge, an
    object with in-range ``src``/``tgt`` vertex ids, a non-empty list of
    distinct in-range label ids and, when given, a positive ``int``
    cost — and refused with :class:`~repro.exceptions.GraphError`,
    naming the first offence, instead of failing later inside a query.
    """
    if not isinstance(data, dict) or data.get("format") != "repro-graph":
        raise GraphError("not a repro-graph document")
    vertices = _names(data, "vertices", _is_vertex_name, "strings or ints")
    labels = _names(data, "labels", _is_label_name, "strings")
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise GraphError("'edges' must be a list")
    n, k = len(vertices), len(labels)
    src, tgt, label_sets, costs = [], [], [], []
    for i, edge in enumerate(edges):
        if not isinstance(edge, dict):
            raise GraphError(f"edge {i} is not an object")
        u, v, ids = edge.get("src"), edge.get("tgt"), edge.get("labels")
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            raise GraphError(
                f"edge {i}: 'src' and 'tgt' must be vertex ids below {n}"
            )
        if type(ids) is not list or not ids or not all(
            type(a) is int and 0 <= a < k for a in ids
        ) or len(set(ids)) != len(ids):
            raise GraphError(
                f"edge {i}: 'labels' must be a non-empty list of distinct "
                f"label ids below {k}"
            )
        cost = edge.get("cost", 1)
        if type(cost) is not int or cost < 1:
            raise GraphError(f"edge {i}: cost must be a positive int")
        src.append(u)
        tgt.append(v)
        label_sets.append(tuple(ids))
        costs.append(cost)
    any_cost = any("cost" in edge for edge in edges)
    return Graph(
        vertex_names=vertices,
        label_names=labels,
        src=src,
        tgt=tgt,
        labels=label_sets,
        costs=costs if any_cost else None,
    )


def _is_vertex_name(name: object) -> bool:
    return isinstance(name, str) or is_int(name)


def _is_label_name(name: object) -> bool:
    return isinstance(name, str)


def _names(
    data: Dict[str, object], key: str, ok: Callable[[object], bool], what: str
) -> list:
    names = data.get(key)
    if not (
        isinstance(names, list)
        and all(ok(x) for x in names)
        and len(set(names)) == len(names)
    ):
        raise GraphError(f"{key!r} must be a list of distinct {what}")
    return names


def save_json(graph: Graph, path: _PathLike) -> None:
    """Write a graph to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=1)


def load_json(path: _PathLike) -> Graph:
    """Read a graph previously written by :func:`save_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))


def save_edge_list(graph: Graph, path: _PathLike) -> None:
    """Write a graph in the human-editable edge-list format."""
    lines = ["# repro edge list"]
    for e in graph.edges():
        line = (
            f"{graph.vertex_name(graph.src(e))} -> "
            f"{graph.vertex_name(graph.tgt(e))} : "
            + ", ".join(graph.label_names_of(e))
        )
        if graph.has_costs:
            line += f" @ {graph.cost(e)}"
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_edge_list(path: _PathLike) -> Graph:
    """Read a graph in the edge-list format (see module docstring)."""
    builder = GraphBuilder()
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _EDGE_RE.match(line)
        if match is None:
            raise GraphError(f"cannot parse edge on line {lineno}: {raw!r}")
        labels = [part.strip() for part in match["labels"].split(",") if part.strip()]
        cost = int(match["cost"]) if match["cost"] else None
        builder.add_edge(
            match["src"].strip(), match["tgt"].strip(), labels, cost=cost
        )
    return builder.build()


def property_graph_to_dict(pg) -> Dict[str, object]:
    """Serialize a :class:`~repro.graph.property_graph.PropertyGraph`.

    Vertex names must be JSON-compatible (strings in practice) and
    property values JSON-serializable; the structure round-trips
    through :func:`property_graph_from_dict`.
    """
    return {
        "format": "repro-property-graph",
        "version": 1,
        "vertices": [
            {"name": name, "properties": dict(pg.vertex_properties(name))}
            for name in pg.vertices()
        ],
        "edges": [
            {"src": src, "tgt": tgt, "properties": dict(props)}
            for _eid, src, tgt, props in pg.edges()
        ],
    }


def property_graph_from_dict(data: Dict[str, object]):
    """Rebuild a property graph serialized by :func:`property_graph_to_dict`."""
    from repro.graph.property_graph import PropertyGraph

    if data.get("format") != "repro-property-graph":
        raise GraphError(
            "not a repro property-graph document "
            f"(format = {data.get('format')!r})"
        )
    pg = PropertyGraph()
    for vertex in data.get("vertices", ()):
        pg.add_vertex(vertex["name"], **vertex.get("properties", {}))
    for edge in data.get("edges", ()):
        pg.add_edge(edge["src"], edge["tgt"], **edge.get("properties", {}))
    return pg


def save_property_graph_json(pg, path: _PathLike) -> None:
    """Write a property graph as JSON."""
    Path(path).write_text(
        json.dumps(property_graph_to_dict(pg), indent=2), encoding="utf-8"
    )


def load_property_graph_json(path: _PathLike):
    """Read a property graph written by :func:`save_property_graph_json`."""
    return property_graph_from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
