"""The JSONL ``mutate`` request type and the CLI ``mutate`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graph.builder import GraphBuilder
from repro.graph.io import load_json, save_json
from repro.live import LiveGraph
from repro.service import (
    MutationRequest,
    QueryRequest,
    QueryService,
    RequestError,
    read_requests_jsonl,
)


def _graph():
    b = GraphBuilder()
    b.add_edge("A", "B", ["h"])
    b.add_edge("B", "C", ["h"])
    b.add_edge("A", "C", ["s"])
    for i in range(6):  # Headroom below the auto-compact threshold.
        b.add_edge(f"p{i}", f"p{i+1}", ["pad"])
    return b.build()


def _service() -> QueryService:
    service = QueryService()
    service.register_graph("g", LiveGraph(_graph()))
    return service


class TestWireModel:
    def test_jsonl_dispatch(self) -> None:
        lines = [
            '{"query": "h+", "source": "A", "target": "C"}',
            '{"mutate": [{"op": "remove_edge", "edge": 0}]}',
            "# comment",
            '{"mutate": [{"op": "add_vertex", "name": "z"}],'
            ' "compact": "never", "id": 7}',
        ]
        parsed = list(read_requests_jsonl(lines))
        assert isinstance(parsed[0], QueryRequest)
        assert isinstance(parsed[1], MutationRequest)
        assert parsed[2].compact == "never" and parsed[2].id == 7

    def test_bad_ops_rejected_at_parse(self) -> None:
        with pytest.raises(RequestError):
            list(
                read_requests_jsonl(
                    ['{"mutate": [{"op": "explode"}]}']
                )
            )
        with pytest.raises(RequestError):
            MutationRequest(ops=[]).validate()
        with pytest.raises(RequestError):
            MutationRequest(
                ops=[{"op": "add_vertex", "name": "v"}], compact="later"
            ).validate()
        with pytest.raises(RequestError):
            list(
                read_requests_jsonl(
                    ['{"mutate": [{"op": "add_vertex", "name": "v"}],'
                     ' "extra": 1}']
                )
            )

    def test_round_trip(self) -> None:
        request = MutationRequest(
            ops=[{"op": "remove_edge", "edge": 3}], graph="g", id="m1"
        ).validate()
        again = read_requests_jsonl(
            [json.dumps(request.to_dict())]
        )
        assert next(iter(again)).to_dict() == request.to_dict()


class TestServiceExecution:
    def test_execute_mutation_and_requery(self) -> None:
        service = _service()
        response = service.execute(
            MutationRequest(
                ops=[
                    {
                        "op": "add_edge",
                        "src": "A",
                        "tgt": "C",
                        "labels": ["h"],
                    }
                ],
                id="w1",
            )
        )
        assert response.ok and response.status == "ok"
        assert response.id == "w1"
        assert response.result["added_edges"] == 1
        query = service.execute(QueryRequest("h+", "A", "C"))
        assert query.lam == 1

    def test_error_response_not_exception(self) -> None:
        service = _service()
        response = service.execute(
            MutationRequest(ops=[{"op": "remove_edge", "edge": 999}])
        )
        assert response.status == "error"
        assert "999" in response.error

    def test_stats_counters(self) -> None:
        service = _service()
        service.execute(QueryRequest("h+", "A", "C"))
        service.execute(
            MutationRequest(
                ops=[
                    {"op": "add_edge", "src": "A", "tgt": "C",
                     "labels": ["h"]},
                    {"op": "add_vertex", "name": "z"},
                ]
            )
        )
        stats = service.stats()
        assert stats["mutations"] == 1
        assert stats["mutation_ops"] == 2
        assert stats["requests"] == 2
        assert stats["evicted_annotations"] == 1

    def test_batch_barrier_read_your_writes(self) -> None:
        service = _service()
        requests = list(
            read_requests_jsonl(
                [
                    '{"query": "h+", "source": "A", "target": "C"}',
                    '{"mutate": [{"op": "add_edge", "src": "A",'
                    ' "tgt": "C", "labels": ["h"]}]}',
                    '{"query": "h+", "source": "A", "target": "C"}',
                    '{"query": "s", "source": "A", "target": "C"}',
                ]
            )
        )
        responses = service.execute_batch(requests)
        assert [r.status for r in responses] == ["ok"] * 4
        assert responses[0].lam == 2  # Pre-barrier world.
        assert responses[2].lam == 1  # Post-barrier world.
        assert responses[3].lam == 1

    def test_mutation_on_plain_graph_promotes(self) -> None:
        service = QueryService()
        service.register_graph("g", _graph())
        response = service.execute(
            MutationRequest(
                ops=[{"op": "add_vertex", "name": "z"}]
            )
        )
        assert response.ok
        assert response.result["promoted"] is True


class TestCliMutate:
    def _write_inputs(self, tmp_path):
        graph_path = tmp_path / "g.json"
        save_json(_graph(), graph_path)
        ops_path = tmp_path / "ops.jsonl"
        ops_path.write_text(
            '{"op": "add_edge", "src": "C", "tgt": "D", "labels": ["h"]}\n'
            "# a comment line\n"
            '{"op": "remove_edge", "edge": 2}\n'
        )
        return graph_path, ops_path

    def test_mutate_prints_receipt(self, tmp_path, capsys) -> None:
        graph_path, ops_path = self._write_inputs(tmp_path)
        assert main(["mutate", str(graph_path), str(ops_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["added_edges"] == 1
        assert payload["removed_edges"] == 1
        assert payload["touched_labels"] == ["h", "s"]

    def test_mutate_save_round_trips(self, tmp_path, capsys) -> None:
        graph_path, ops_path = self._write_inputs(tmp_path)
        out_path = tmp_path / "updated.json"
        assert (
            main(
                [
                    "mutate",
                    str(graph_path),
                    str(ops_path),
                    "--save",
                    str(out_path),
                ]
            )
            == 0
        )
        updated = load_json(out_path)
        base = _graph()
        assert updated.edge_count == base.edge_count  # -1 +1.
        assert updated.has_vertex("D")
        # The saved graph is compacted: dense ids, queryable as usual.
        assert main(
            ["query", str(out_path), "h+", "B", "D"]
        ) == 0

    def test_mutate_bad_ops_exit_2(self, tmp_path, capsys) -> None:
        graph_path, _ = self._write_inputs(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"op": "remove_edge"}\n')
        assert main(["mutate", str(graph_path), str(bad)]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("# nothing\n")
        assert main(["mutate", str(graph_path), str(empty)]) == 2

    def test_batch_subcommand_accepts_mutations(
        self, tmp_path, capsys
    ) -> None:
        graph_path, _ = self._write_inputs(tmp_path)
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"query": "h+", "source": "A", "target": "C"}\n'
            '{"mutate": [{"op": "add_edge", "src": "A", "tgt": "C",'
            ' "labels": ["h"]}]}\n'
            '{"query": "h+", "source": "A", "target": "C"}\n'
        )
        assert main(["batch", str(graph_path), str(requests)]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert lines[0]["lam"] == 2
        assert lines[1]["status"] == "ok" and "result" in lines[1]
        assert lines[2]["lam"] == 1
