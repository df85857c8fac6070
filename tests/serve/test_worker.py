"""Unit tests for the worker-side payload executor (no processes)."""

from __future__ import annotations

import json

import pytest

from repro.graph.builder import GraphBuilder
from repro.serve.worker import execute_payload
from repro.service import QueryService


@pytest.fixture
def service() -> QueryService:
    builder = GraphBuilder()
    builder.add_edge("A", "B", ["h"])
    builder.add_edge("B", "C", ["s"])
    svc = QueryService()
    svc.register_graph("default", builder.build())
    return svc


def test_good_query(service: QueryService) -> None:
    response = execute_payload(
        service, {"query": "h s", "source": "A", "target": "C"}
    )
    assert response["status"] == "ok"
    assert response["lam"] == 2


def test_non_dict_payload(service: QueryService) -> None:
    response = execute_payload(service, ["not", "a", "dict"])
    assert response["status"] == "error"
    assert "JSON object" in response["error"]


def test_mutation_payload_is_not_owner(service: QueryService) -> None:
    response = execute_payload(
        service, {"mutate": [{"op": "add_vertex", "name": "Z"}], "id": 9}
    )
    assert response["status"] == "error"
    assert response["code"] == "not_owner"
    assert response["id"] == 9


def test_parse_error_is_structured(service: QueryService) -> None:
    response = execute_payload(
        service, {"query": "h", "source": "A", "target": "B", "bogus": 1}
    )
    assert response["status"] == "error"
    assert "bogus" in response["error"]


@pytest.mark.parametrize("field", ["source", "target", "graph"])
def test_unhashable_name_is_a_request_error(
    service: QueryService, field: str
) -> None:
    payload = {"query": "h", "source": "A", "target": "B", "id": 3}
    payload[field] = [payload.get(field, "default")]
    response = execute_payload(service, payload)
    assert response["status"] == "error"
    assert "code" not in response
    assert response["error"] == f"'{field}' must be hashable, got list"
    assert response["id"] == 3


def test_engine_error_stays_in_band(service: QueryService) -> None:
    response = execute_payload(
        service, {"query": "h", "source": "nope", "target": "B"}
    )
    assert response["status"] == "error"
    assert "nope" in response["error"]


@pytest.mark.parametrize("budget", ["NaN", "Infinity"])
def test_non_finite_timeout_is_a_request_error(
    service: QueryService, budget: str
) -> None:
    payload = json.loads(
        '{"query": "h s", "source": "A", "target": "C", "id": 4, '
        f'"timeout_ms": {budget}}}'
    )
    response = execute_payload(service, payload)
    assert response["status"] == "error"
    assert "timeout_ms" in response["error"]
    assert response["id"] == 4
