"""Unit tests for graph persistence (JSON and edge-list formats)."""

import pytest

from repro.exceptions import GraphError
from repro.graph import (
    GraphBuilder,
    graph_from_dict,
    graph_to_dict,
    load_edge_list,
    load_json,
    save_edge_list,
    save_json,
    validate_graph,
)
from repro.workloads.fraud import example9_graph


def _assert_graphs_equal(g1, g2):
    assert g1.vertex_count == g2.vertex_count
    assert g1.edge_count == g2.edge_count
    for e in g1.edges():
        assert str(g1.vertex_name(g1.src(e))) == str(g2.vertex_name(g2.src(e)))
        assert str(g1.vertex_name(g1.tgt(e))) == str(g2.vertex_name(g2.tgt(e)))
        assert g1.label_names_of(e) == g2.label_names_of(e)
        assert g1.tgt_idx(e) == g2.tgt_idx(e)
        assert g1.cost(e) == g2.cost(e)


class TestDictRoundtrip:
    def test_example9(self):
        g = example9_graph()
        clone = graph_from_dict(graph_to_dict(g))
        _assert_graphs_equal(g, clone)
        validate_graph(clone)

    def test_costs_preserved(self):
        b = GraphBuilder()
        b.add_edge("x", "y", ["a"], cost=5)
        g = b.build()
        clone = graph_from_dict(graph_to_dict(g))
        assert clone.has_costs
        assert clone.cost(0) == 5

    def test_bad_format_rejected(self):
        with pytest.raises(GraphError):
            graph_from_dict({"format": "something-else"})

    def test_empty_graph(self):
        clone = graph_from_dict(graph_to_dict(GraphBuilder().build()))
        assert clone.vertex_count == 0

    def test_int_and_str_vertex_names_round_trip(self, tmp_path):
        """An ``int`` name reloads as that ``int``, beside a ``str``
        that spells it: ``1`` and ``"1"`` stay two vertices."""
        b = GraphBuilder()
        b.add_edge(1, "1", ["a"])
        b.add_edge("1", 2, ["a"])
        g = b.build()
        path = tmp_path / "g.json"
        save_json(g, path)
        clone = load_json(path)
        names = [clone.vertex_name(v) for v in clone.vertices()]
        assert names == [1, "1", 2]
        assert clone.resolve_vertex(1) != clone.resolve_vertex("1")
        assert graph_to_dict(clone) == graph_to_dict(g)

    @pytest.mark.parametrize("name", [True, 1.5, ("a", 1), None])
    def test_other_vertex_names_refused_at_save(self, name):
        b = GraphBuilder()
        b.add_edge(name, "x", ["a"])
        with pytest.raises(GraphError, match="vertex name"):
            graph_to_dict(b.build())


def _edited(edit):
    """Example 9's document with one field edited in place."""
    doc = graph_to_dict(example9_graph())
    edit(doc, doc["edges"][0])
    return doc


#: Documents that break an invariant ``Graph`` relies on, each with the
#: edit that breaks it.  Before the one-pass check, most of them loaded
#: and failed inside a query (IndexError, TypeError) or raised a bare
#: KeyError / TypeError from the loader.
MALFORMED = {
    "label id out of range": lambda d, e: e.update(labels=[99]),
    "label given by name": lambda d, e: e.update(labels=["h"]),
    "empty label set": lambda d, e: e.update(labels=[]),
    "duplicate label ids": lambda d, e: e.update(labels=[0, 0]),
    "labels not a list": lambda d, e: e.update(labels=0),
    "zero cost": lambda d, e: e.update(cost=0),
    "negative cost": lambda d, e: e.update(cost=-2),
    "float cost": lambda d, e: e.update(cost=1.5),
    "bool cost": lambda d, e: e.update(cost=True),
    "missing tgt": lambda d, e: e.pop("tgt"),
    "source out of range": lambda d, e: e.update(src=len(d["vertices"])),
    "negative target": lambda d, e: e.update(tgt=-1),
    "endpoint by name": lambda d, e: e.update(src=d["vertices"][0]),
    "edge not an object": lambda d, e: d["edges"].append([0, 1, [0]]),
    "edges not a list": lambda d, e: d.update(edges=5),
    "duplicate vertex names": lambda d, e: d["vertices"].append(
        d["vertices"][0]
    ),
    "unhashable vertex name": lambda d, e: d["vertices"].append([1]),
    "bool vertex name": lambda d, e: d["vertices"].append(True),
    "float vertex name": lambda d, e: d["vertices"].append(1.5),
    "int label name": lambda d, e: d["labels"].append(7),
    "duplicate label names": lambda d, e: d["labels"].append(d["labels"][0]),
    "missing labels": lambda d, e: d.pop("labels"),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_refused_with_graph_error(self, name):
        with pytest.raises(GraphError):
            graph_from_dict(_edited(MALFORMED[name]))

    def test_a_valid_costed_document_round_trips(self, tmp_path):
        b = GraphBuilder()
        b.add_edge("x", "y", ["a", "b"], cost=3)
        b.add_edge("y", "x", ["b"], cost=1)
        b.add_edge("y", "y", ["a"], cost=7)
        g = b.build()
        path = tmp_path / "g.json"
        save_json(g, path)
        clone = load_json(path)
        validate_graph(clone)
        _assert_graphs_equal(g, clone)
        assert graph_to_dict(clone) == graph_to_dict(g)

    def test_refused_before_a_query_can_run(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_edited(MALFORMED["label given by name"])))
        with pytest.raises(GraphError, match="edge 0"):
            load_json(path)


class TestJsonFiles:
    def test_roundtrip(self, tmp_path):
        g = example9_graph()
        path = tmp_path / "g.json"
        save_json(g, path)
        _assert_graphs_equal(g, load_json(path))


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = example9_graph()
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        _assert_graphs_equal(g, load_edge_list(path))

    def test_parse_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(
            "# header comment\n"
            "\n"
            "Alix -> Bob : h, s   # inline comment\n"
            "Bob -> Alix : h\n"
        )
        g = load_edge_list(path)
        assert g.vertex_count == 2
        assert g.edge_count == 2
        assert set(g.label_names_of(0)) == {"h", "s"}

    def test_parse_with_costs(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a -> b : x @ 42\n")
        g = load_edge_list(path)
        assert g.has_costs
        assert g.cost(0) == 42

    def test_bad_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a -> b : x\nthis is nonsense\n")
        with pytest.raises(GraphError, match="line 2"):
            load_edge_list(path)

    def test_costs_roundtrip(self, tmp_path):
        b = GraphBuilder()
        b.add_edge("x", "y", ["a"], cost=3)
        b.add_edge("y", "x", ["b", "a"], cost=9)
        path = tmp_path / "g.txt"
        save_edge_list(b.build(), path)
        g = load_edge_list(path)
        assert g.cost(0) == 3 and g.cost(1) == 9


class TestPropertyGraphJson:
    def _sample(self):
        from repro.graph.property_graph import PropertyGraph

        pg = PropertyGraph()
        pg.add_vertex("Alix", country="FR")
        pg.add_edge(
            "Alix", "Dan", rel_type="transfer", cost=3,
            amount=25_000, flagged=True,
        )
        pg.add_edge("Dan", "Bob", amount=900, flagged=False)
        return pg

    def test_dict_round_trip(self):
        from repro.graph.io import (
            property_graph_from_dict,
            property_graph_to_dict,
        )

        pg = self._sample()
        clone = property_graph_from_dict(property_graph_to_dict(pg))
        assert clone.vertex_count == pg.vertex_count
        assert clone.edge_count == pg.edge_count
        assert clone.vertex_properties("Alix") == {"country": "FR"}
        assert clone.edge(0) == pg.edge(0)
        assert clone.edge(1) == pg.edge(1)

    def test_file_round_trip(self, tmp_path):
        from repro.graph.io import (
            load_property_graph_json,
            save_property_graph_json,
        )

        pg = self._sample()
        path = tmp_path / "pg.json"
        save_property_graph_json(pg, path)
        clone = load_property_graph_json(path)
        assert clone.edge(0) == pg.edge(0)

    def test_projection_survives_round_trip(self, tmp_path):
        from repro.graph.io import (
            load_property_graph_json,
            save_property_graph_json,
        )
        from repro.graph.property_graph import project
        from repro.workloads.fraud import (
            example9_property_graph,
            example9_rules,
        )

        path = tmp_path / "fraud.json"
        save_property_graph_json(example9_property_graph(), path)
        clone = load_property_graph_json(path)
        original = project(example9_property_graph(), example9_rules())
        reloaded = project(clone, example9_rules())
        assert original.graph.edge_count == reloaded.graph.edge_count
        for e in range(original.graph.edge_count):
            assert original.graph.label_names_of(e) == (
                reloaded.graph.label_names_of(e)
            )

    def test_bad_format_rejected(self):
        import pytest

        from repro.exceptions import GraphError
        from repro.graph.io import property_graph_from_dict

        with pytest.raises(GraphError, match="format"):
            property_graph_from_dict({"format": "something-else"})
