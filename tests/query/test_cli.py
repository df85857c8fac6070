"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.io import save_edge_list, save_json
from repro.workloads.fraud import example9_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fraud.txt"
    save_edge_list(example9_graph(), path)
    return str(path)


@pytest.fixture
def json_graph_file(tmp_path):
    path = tmp_path / "fraud.json"
    save_json(example9_graph(), path)
    return str(path)


class TestQueryCommand:
    def test_basic_query(self, graph_file, capsys):
        code = main(["query", graph_file, "h* s (h | s)*", "Alix", "Bob"])
        out = capsys.readouterr().out
        assert code == 0
        assert "λ = 3" in out
        assert out.count("Alix") == 4  # One line per walk.

    def test_json_input(self, json_graph_file, capsys):
        code = main(
            ["query", json_graph_file, "h* s (h | s)*", "Alix", "Bob"]
        )
        assert code == 0
        assert "λ = 3" in capsys.readouterr().out

    def test_no_match_exit_code(self, graph_file, capsys):
        code = main(["query", graph_file, "h", "Bob", "Alix"])
        assert code == 1
        assert "no matching walk" in capsys.readouterr().out

    def test_limit(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "h* s (h | s)*", "Alix", "Bob",
             "--limit", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stopped after 2" in out

    def test_multiplicity_flag(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "h* s (h | s)*", "Alix", "Bob",
             "--multiplicity"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[3 runs]" in out

    def test_count_flag(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "h* s (h | s)*", "Alix", "Bob", "--count"]
        )
        assert code == 0
        assert "total answers: 4" in capsys.readouterr().out

    def test_all_targets(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "h* s (h | s)*", "Alix", "--all-targets"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("Bob", "Cassie", "Dan", "Eve"):
            assert f"=== {name}" in out

    def test_missing_target_is_error(self, graph_file, capsys):
        code = main(["query", graph_file, "h", "Alix"])
        assert code == 2
        assert "TARGET" in capsys.readouterr().err

    def test_cheapest(self, tmp_path, capsys):
        path = tmp_path / "costs.txt"
        path.write_text("a -> b : x @ 9\na -> b : x @ 2\n")
        code = main(["query", str(path), "x", "a", "b", "--cheapest"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cheapest matching cost: 2" in out

    def test_query_has_no_mode_flag(self, graph_file, capsys):
        """Every query pages through one DFS: argparse refuses
        ``--mode``, whatever name it carries."""
        for mode in ("iterative", "memoryless", "recursive"):
            with pytest.raises(SystemExit) as refused:
                main(
                    ["query", graph_file, "h* s (h | s)*", "Alix", "Bob",
                     "--mode", mode]
                )
            assert refused.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_vertex(self, graph_file, capsys):
        code = main(["query", graph_file, "h", "Nobody", "Bob"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_expression(self, graph_file, capsys):
        code = main(["query", graph_file, "h |", "Alix", "Bob"])
        assert code == 2


class TestPlanCommand:
    def test_plan(self, graph_file, capsys):
        code = main(["plan", graph_file, "h* s (h | s)*"])
        out = capsys.readouterr().out
        assert code == 0
        assert "engine: general" in out


class TestStatsCommand:
    def test_stats(self, graph_file, capsys):
        code = main(["stats", graph_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "vertices: 5" in out
        assert "edges: 8" in out
        assert "h" in out

    def test_missing_file(self, capsys):
        code = main(["stats", "/nonexistent/file.json"])
        assert code == 2


class TestPatternCommand:
    def test_all_shortest_pattern(self, graph_file, capsys):
        code = main(
            ["pattern", graph_file,
             "ALL SHORTEST (Alix)-[h* s (h|s)*]->(Bob)"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "compiled RPQ" in out
        assert "λ = 3" in out
        assert out.count("-e") // 3 == 4  # Four 3-edge walks printed.

    def test_any_shortest_pattern(self, graph_file, capsys):
        code = main(
            ["pattern", graph_file,
             "ANY SHORTEST (Alix)-[:h* :s (:h|:s)*]->(Bob)"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("Alix -") == 1  # A single walk.

    def test_one_annotation_per_invocation(
        self, graph_file, capsys, monkeypatch
    ):
        """``repro pattern`` is one façade query: λ and the rows come
        from the same ``run()`` — one Annotate BFS run, stopped at the
        pair's target — and ``ANY SHORTEST`` is one such run too, its
        witness read back from the run's distances.  (It used to build
        one engine for λ and a second one for the walks.)"""
        from repro.core.annotate import AnnotateBFS

        runs = []
        run = AnnotateBFS.run

        def counting_run(bfs, target=None):
            runs.append(target)
            return run(bfs, target)

        monkeypatch.setattr(AnnotateBFS, "run", counting_run)
        assert main(
            ["pattern", graph_file,
             "ALL SHORTEST (Alix)-[h* s (h|s)*]->(Bob)"]
        ) == 0
        assert len(runs) == 1 and runs[0] is not None
        assert "λ = 3" in capsys.readouterr().out
        del runs[:]
        assert main(
            ["pattern", graph_file,
             "ANY SHORTEST (Alix)-[h* s (h|s)*]->(Bob)"]
        ) == 0
        assert len(runs) == 1 and runs[0] is not None
        assert "λ = 3" in capsys.readouterr().out

    def test_no_match(self, graph_file, capsys):
        code = main(["pattern", graph_file, "(Bob)-[h]->(Alix)"])
        assert code == 1
        assert "no matching walk" in capsys.readouterr().out

    def test_syntax_error_exit_code(self, graph_file, capsys):
        code = main(["pattern", graph_file, "(Alix)-[h]->("])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_pattern_limit(self, graph_file, capsys):
        code = main(
            ["pattern", graph_file,
             "ALL SHORTEST (Alix)-[h* s (h|s)*]->(Bob)", "--limit", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stopped after 1" in out


class TestCountCommand:
    def test_counts_and_blowup(self, graph_file, capsys):
        code = main(["count", graph_file, "h* s (h | s)*", "Alix", "Bob"])
        out = capsys.readouterr().out
        assert code == 0
        assert "distinct shortest walks: 4" in out
        assert "shortest product paths" in out
        assert "total accepting runs" in out

    def test_no_match(self, graph_file, capsys):
        code = main(["count", graph_file, "h", "Bob", "Alix"])
        assert code == 1

    def test_unknown_vertex_is_input_error(self, graph_file, capsys):
        code = main(["count", graph_file, "h", "Nobody", "Bob"])
        assert code == 2


class TestBatchCommand:
    @pytest.fixture
    def requests_file(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            '{"query": "h* s (h | s)*", "source": "Alix", "target": "Bob",'
            ' "id": 1}\n'
            "# comments and blank lines are ignored\n"
            "\n"
            '{"query": "h* s (h | s)*", "source": "Alix", "target": "Eve",'
            ' "limit": 1, "id": 2}\n'
            '{"query": "h", "source": "Bob", "target": "Alix", "id": 3}\n'
        )
        return str(path)

    def test_round_trip(self, graph_file, requests_file, capsys):
        code = main(["batch", graph_file, requests_file])
        out = capsys.readouterr().out
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert responses[0]["status"] == "ok"
        assert responses[0]["lam"] == 3
        assert len(responses[0]["walks"]) == 4
        assert responses[0]["walks"][0]["vertices"][0] == "Alix"
        # Paged request: one walk plus a resume cursor.
        assert len(responses[1]["walks"]) == 1
        assert responses[1]["next_cursor"] is not None
        # No matching walk is not an error.
        assert responses[2]["status"] == "empty"
        assert responses[2]["walks"] == []

    def test_cursor_resume_round_trip(self, graph_file, tmp_path, capsys):
        first = tmp_path / "page1.jsonl"
        first.write_text(
            '{"query": "h* s (h | s)*", "source": "Alix", "target": "Bob",'
            ' "limit": 2}\n'
        )
        code = main(["batch", graph_file, str(first)])
        assert code == 0
        page1 = json.loads(capsys.readouterr().out.splitlines()[0])
        second = tmp_path / "page2.jsonl"
        second.write_text(
            json.dumps(
                {
                    "query": "h* s (h | s)*",
                    "source": "Alix",
                    "target": "Bob",
                    "cursor": page1["next_cursor"],
                }
            )
            + "\n"
        )
        code = main(["batch", graph_file, str(second)])
        assert code == 0
        page2 = json.loads(capsys.readouterr().out.splitlines()[0])
        edges = [w["edges"] for w in page1["walks"] + page2["walks"]]
        assert len(edges) == 4 and len({tuple(e) for e in edges}) == 4

    def test_request_error_exit_code(self, graph_file, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"query": "h |", "source": "Alix", "target": "Bob"}\n'
            '{"query": "h", "source": "Alix", "target": "Dan"}\n'
        )
        code = main(["batch", graph_file, str(path)])
        out = capsys.readouterr().out
        assert code == 1  # Batch ran; one request errored.
        statuses = [json.loads(line)["status"] for line in out.splitlines()]
        assert statuses == ["error", "ok"]

    def test_malformed_jsonl_is_input_error(self, graph_file, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"query": "h", "source": "Alix"\n')
        code = main(["batch", graph_file, str(path)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_requests_file(self, graph_file, capsys):
        code = main(["batch", graph_file, "/nonexistent/requests.jsonl"])
        assert code == 2

    def test_stats_flag(self, graph_file, requests_file, capsys):
        code = main(["batch", graph_file, requests_file, "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        stats = json.loads(captured.err)
        assert stats["requests"] == 3
        assert stats["plan_cache"]["hits"] >= 1

    def test_batch_has_no_workers_or_mode_flag(
        self, graph_file, requests_file, capsys
    ):
        """A batch runs in order and names no mode: argparse refuses
        both flags."""
        for extra in (["--workers", "1"], ["--mode", "iterative"]):
            with pytest.raises(SystemExit) as exc:
                main(["batch", graph_file, requests_file] + extra)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_mode_is_validated_but_inert(self, graph_file, capsys):
        """``serve --mode`` still parses and refuses unknown names; it
        selects nothing."""
        args = build_parser().parse_args(
            ["serve", graph_file, "--mode", "memoryless"]
        )
        assert args.mode == "memoryless"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", graph_file, "--mode", "recursive"]
            )
        assert "invalid choice" in capsys.readouterr().err

    def test_cold_cache_flags(self, graph_file, requests_file, capsys):
        code = main(
            ["batch", graph_file, requests_file,
             "--plan-cache", "0", "--annotation-cache", "0", "--stats"]
        )
        captured = capsys.readouterr()
        assert code == 0
        stats = json.loads(captured.err)
        assert stats["plan_cache"]["hits"] == 0
        assert stats["annotation_cache"]["hits"] == 0
        first = json.loads(captured.out.splitlines()[0])
        assert first["status"] == "ok" and len(first["walks"]) == 4


class TestLimitParity:
    """The text path pages through ``Query.limit`` as ``--json`` does,
    so both accept and refuse the same limits."""

    SHAPES = [
        ["Bob"], ["--all-targets"], ["Bob", "--cheapest"],
        ["Bob", "--multiplicity"],
    ]

    @pytest.mark.parametrize("limit", ["0", "-3"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(s))
    def test_text_and_json_refuse_the_same_limits(
        self, graph_file, capsys, shape, limit
    ):
        argv = ["query", graph_file, "h* s (h | s)*", "Alix", *shape,
                "--limit", limit]
        for extra in ([], ["--json"]):
            assert main(argv + extra) == 2, extra
            captured = capsys.readouterr()
            assert captured.out == "", extra
            assert "limit must be a positive integer or None" in captured.err

    @pytest.mark.parametrize("limit", [1, 3, 4, 9])
    def test_text_and_json_print_the_same_page(
        self, graph_file, capsys, limit
    ):
        argv = ["query", graph_file, "h* s (h | s)*", "Alix", "Bob",
                "--limit", str(limit)]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        walks = json.loads(capsys.readouterr().out)["walks"]
        assert len(walks) == min(limit, 4)  # Example 9 has 4 answers.
        assert text.count("Alix") == len(walks)
        stopped = f"... (stopped after {limit})"
        assert (stopped in text) == (limit < 4)

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_pattern_refuses_the_same_limits(self, graph_file, capsys, limit):
        code = main(
            ["pattern", graph_file,
             "ALL SHORTEST (Alix)-[h* s (h|s)*]->(Bob)", "--limit", limit]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "λ" not in captured.out
        assert "limit must be a positive integer or None" in captured.err


class TestJsonOutput:
    def test_query_json(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "h* s (h | s)*", "Alix", "Bob", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["lam"] == 3
        assert len(payload["walks"]) == 4
        first = payload["walks"][0]
        assert first["vertices"][0] == "Alix"
        assert first["vertices"][-1] == "Bob"
        assert first["length"] == 3
        assert len(first["labels"]) == 3

    def test_query_json_respects_limit(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "h* s (h | s)*", "Alix", "Bob",
             "--json", "--limit", "2"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["walks"]) == 2

    def test_query_json_no_match(self, graph_file, capsys):
        code = main(["query", graph_file, "h", "Bob", "Alix", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["lam"] is None and payload["walks"] == []

    def test_query_json_all_targets(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "h s?", "Alix", "--all-targets", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["targets"]
        for info in payload["targets"].values():
            assert info["lam"] >= 1
            assert info["walks"]

    def test_query_json_cheapest(self, tmp_path, capsys):
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        builder.add_edge("a", "b", ["x"], cost=2)
        builder.add_edge("a", "b", ["x"], cost=5)
        path = tmp_path / "costs.txt"
        save_edge_list(builder.build(), path)
        code = main(
            ["query", str(path), "x", "a", "b", "--cheapest", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["lam"] == 2  # Cheapest cost.
        assert len(payload["walks"]) == 1
        assert payload["walks"][0]["cost"] == 2
