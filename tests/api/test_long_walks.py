"""Serving paths answer deep instances — no recursion depth in any mode.

``mode="recursive"`` used to transcribe the paper's ``Enumerate`` with
recursion depth λ, so a 1200-hop chain crashed ``Database`` (and the
engine) with a bare ``RecursionError`` instead of a typed error.  The
mode is gone — the transcription lives on as the order oracle in
:mod:`repro.baselines.paper_pipeline` — and every mode that remains is
iterative: the same instance must return its first walks in all of
them, and a request for ``recursive`` is refused at validation.
"""

import pytest

from repro.api import Database
from repro.exceptions import QueryError
from repro.graph.generators import chain
from repro.service import QueryRequest, QueryService, RequestError

HOPS = 1200
QUERY = "(a|b)*"


@pytest.fixture(scope="module")
def deep_chain():
    return chain(HOPS, ("a", "b"), parallel=2)


def test_first_walks_of_a_1200_hop_chain_in_every_mode(deep_chain):
    db = Database(deep_chain)
    pair = db.query(QUERY).from_("v0").to(f"v{HOPS}").limit(3)
    pages = {}
    for mode in ("auto", "iterative", "memoryless"):
        result = pair.mode(mode).run()
        pages[mode] = [row.walk.edges for row in result]
        assert result.lam == HOPS, mode
        assert len(pages[mode]) == 3, mode
        assert all(len(edges) == HOPS for edges in pages[mode]), mode
    assert pages["auto"] == pages["iterative"] == pages["memoryless"]


def test_recursive_mode_is_refused_before_anything_runs(deep_chain):
    db = Database(deep_chain)
    with pytest.raises(QueryError, match="unknown mode 'recursive'"):
        db.query(QUERY).from_("v0").to(f"v{HOPS}").mode("recursive")
    request = QueryRequest(QUERY, "v0", f"v{HOPS}", mode="recursive", limit=3)
    with pytest.raises(RequestError, match="unknown mode 'recursive'"):
        request.validate()
    service = QueryService()
    service.register_graph("chain", deep_chain)
    try:
        response = service.execute(request)
    finally:
        service.close()
    assert response.status == "error"
    assert "unknown mode 'recursive'" in response.error
