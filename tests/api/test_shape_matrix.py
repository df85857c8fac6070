"""Every endpoint shape is the composition of its pair cells.

The façade executor answers every shape × semantics from one ordered
stream of ``(source, target)`` cells (DESIGN.md §4).  This seeded
matrix pins the property that design rests on — from the outside, so
it holds for any executor: on random instances, for each of walks /
trails / simple / any (+ cheapest on a randomly costed copy) and with
the annotation cache on (128) and off (0),

* ``all_pairs()``, ``from_(s).to_all()``, ``from_any(S).to(t)`` and
  ``from_any(S).to_all()`` equal the composition of their *pair*
  queries row for row — source, target, λ, edges, order — with the
  super-source rule for ``from_any`` (per target, the deduped
  caller-order sources attaining the minimal λ; only the first of them
  under ``any``), and ``ResultSet.lam`` is that minimum for
  ``from_any(S).to(t)``;
* ``targets()`` is the distinct ``(target, λ)`` of the rows;
* ``count("dp") == count("enumerate")`` on every shape (walks and
  cheapest, where the DP applies);
* every shape re-assembled from ``limit=1`` cursor pages equals its
  one-shot stream;
* cache capacity selects no algorithm: capacity 0 and 128 agree row
  for row in ``auto``, ``iterative`` and ``memoryless``, a cursor cut
  under one resumes to the same tail under the other, and
  ``explain()`` names the same resolved mode — on the pair shape too,
  where a second engine used to be selected.

Seeds are offset by ``DIFF_SEED_BASE`` (+70 000, disjoint from the
differential harness's draws), so the CI semantics-fuzz matrix covers
disjoint ranges and a failure replays by seed.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.api import Database
from repro.baselines.oracle import costed_copy, random_regex
from repro.graph.generators import random_multilabel

SEED_BASE = int(os.environ.get("DIFF_SEED_BASE", "0"))
N_CASES = 16
_ALPHABET = ("a", "b")

_SEMANTICS = ("walks", "trails", "simple", "any", "cheapest")
_CAPACITIES = (128, 0)
_MODES = ("auto", "iterative", "memoryless")

#: ``(source, target, λ, edges)`` — what a row is compared on.
_RowKey = Tuple[str, str, int, Tuple[int, ...]]


def _draw(seed: int):
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    # Two labels only, so that most regexes match somewhere and most
    # cells hold several walks.
    graph = random_multilabel(
        n, rng.randint(2 * n, 3 * n), alphabet=_ALPHABET, seed=seed
    )
    costed = costed_copy(graph, rng)
    names = [graph.vertex_name(v) for v in graph.vertices()]
    sources = [rng.choice(names) for _ in range(3)]  # Duplicates welcome.
    return (
        graph, costed, random_regex(rng, alphabet=_ALPHABET), names,
        sources, rng.choice(names),
    )


def _keys(rows) -> List[_RowKey]:
    return [(r.source, r.target, r.lam, r.walk.edges) for r in rows]


def _base(db: Database, expression: str, semantics: str, mode: str = "auto"):
    query = db.query(expression).mode(mode)
    if semantics == "cheapest":
        return query.cheapest()
    return query.semantics(semantics)


def _drain_pages(query) -> List[_RowKey]:
    out: List[_RowKey] = []
    cursor = None
    while True:
        page = query.limit(1).cursor(cursor).run()
        rows = _keys(page)
        out += rows
        cursor = page.next_cursor
        if cursor is None:
            return out
        assert rows, "a page with a next_cursor must not be empty"


class _Pairs:
    """The pair queries of one (database, semantics), memoized."""

    def __init__(self, base) -> None:
        self._base = base
        self._memo: Dict[
            Tuple[str, str], Tuple[Optional[int], List[_RowKey]]
        ] = {}

    def __call__(self, s: str, t: str):
        if (s, t) not in self._memo:
            result = self._base.from_(s).to(t).run()
            rows = _keys(result)
            assert all(lam == result.lam for _, _, lam, _ in rows)
            assert (result.lam is None) == (not rows)
            self._memo[s, t] = (result.lam, rows)
        return self._memo[s, t]

    def minimal(self, sources, t: str, first_only: bool):
        """Super-source view of target ``t``: ``(λ*, rows)``."""
        ordered = list(dict.fromkeys(sources))
        lams = [self(s, t)[0] for s in ordered]
        reached = [lam for lam in lams if lam is not None]
        if not reached:
            return None, []
        best = min(reached)
        winners = [s for s, lam in zip(ordered, lams) if lam == best]
        if first_only:
            winners = winners[:1]
        return best, [row for s in winners for row in self(s, t)[1]]


def _expected(pairs: _Pairs, names, sources, target, semantics):
    first_only = semantics == "any"
    global_lam, many_to_one = pairs.minimal(sources, target, first_only)
    return {
        "one_to_all": [
            row for t in names for row in pairs(sources[0], t)[1]
        ],
        "all_pairs": [
            row for s in names for t in names for row in pairs(s, t)[1]
        ],
        "many_to_one": many_to_one,
        "many_to_all": [
            row
            for t in names
            for row in pairs.minimal(sources, t, first_only)[1]
        ],
    }, global_lam


def _shapes(base, sources, target, pair=None):
    shapes = {
        "one_to_all": base.from_(sources[0]).to_all(),
        "all_pairs": base.all_pairs(),
        "many_to_one": base.from_any(sources).to(target),
        "many_to_all": base.from_any(sources).to_all(),
    }
    if pair is not None:
        shapes["pair"] = base.from_(pair[0]).to(pair[1])
    return shapes


def _mode_text(query) -> str:
    (line,) = [r for r in query.explain().reasons if ", mode " in r]
    return line.split(", via ")[0]


@pytest.mark.parametrize("case", range(N_CASES))
def test_shapes_compose_from_pair_cells(case: int) -> None:
    seed = SEED_BASE + 70_000 + case
    graph, costed, expression, names, sources, target = _draw(seed)
    context = (
        f"seed={seed} regex={expression!r} sources={sources} "
        f"target={target}"
    )

    for semantics in _SEMANTICS:
        instance = costed if semantics == "cheapest" else graph
        one_shot: Dict[int, Dict[str, List[_RowKey]]] = {}
        for capacity in _CAPACITIES:
            where = f"{semantics} capacity={capacity} ({context})"
            db = Database(instance, annotation_cache_size=capacity)
            base = _base(db, expression, semantics)
            expected, global_lam = _expected(
                _Pairs(base), names, sources, target, semantics
            )
            one_shot[capacity] = {}
            for shape, query in _shapes(base, sources, target).items():
                result = query.run()
                rows = _keys(result)
                assert rows == expected[shape], f"{shape} {where}"
                one_shot[capacity][shape] = rows
                if shape == "many_to_one":
                    assert result.lam == global_lam, where
                if shape.endswith("to_all"):
                    distinct = list(
                        dict.fromkeys((t, lam) for _, t, lam, _ in rows)
                    )
                    assert query.targets() == distinct, f"{shape} {where}"
                if semantics in ("walks", "cheapest"):
                    assert (
                        query.count("dp") == query.count() == len(rows)
                    ), f"{shape} {where}"
                assert _drain_pages(query) == rows, f"{shape} paged {where}"

        # Capacity selects no algorithm: same rows in every mode, same
        # resolved mode, and cursors travel between the two.
        assert one_shot[0] == one_shot[128], f"{semantics} ({context})"
        cold, warm = (
            Database(instance, annotation_cache_size=capacity)
            for capacity in (0, 128)
        )
        pair = (sources[0], target)
        reference = dict(
            one_shot[128],
            pair=_keys(
                _base(warm, expression, semantics)
                .from_(pair[0]).to(pair[1]).run()
            ),
        )
        for mode in _MODES:
            cold_shapes, warm_shapes = (
                _shapes(
                    _base(db, expression, semantics, mode), sources, target,
                    pair,
                )
                for db in (cold, warm)
            )
            for shape, rows in reference.items():
                where = f"{semantics} {shape} mode={mode} ({context})"
                a, b = cold_shapes[shape], warm_shapes[shape]
                assert _keys(a.run()) == _keys(b.run()) == rows, where
                assert _mode_text(a) == _mode_text(b), where
                if len(rows) > 1:
                    for producer, consumer in ((a, b), (b, a)):
                        page = producer.limit(1).run()
                        assert _keys(page) == rows[:1], where
                        rest = consumer.cursor(page.next_cursor).run()
                        assert _keys(rest) == rows[1:], where
