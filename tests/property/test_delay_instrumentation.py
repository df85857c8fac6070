"""Step-counted delay validation on the adversarial workload families.

``tests/property/test_delay_bound.py`` counts operations on the classic
instances (diamond chains, duplicate bombs, high in-degree); here the
same Theorem 2 bound — work between two consecutive outputs is
O(λ·|A|) — is enforced on the *label-heavy* adversaries from
:mod:`repro.workloads.worstcase` (``label_soup``, ``decoy_indegree``):
instances engineered so that per-edge label multiplicity and decoy
in-edges would blow up the delay of any implementation that leaks
preprocessing-phase costs into the enumeration phase.

Five instrumentation layers (:mod:`tests.property.delay_steps`): the
eager DFS and the memoryless ``NextOutput`` (Theorem 18), each stepped
both on the paper's structures (the oracle pipeline's queue and
skip-array proxies) and on the two packed cell columns (``TgtIdx`` and
edge) the one production loop reads — plus that loop dropped and
resumed mid-stream, the way the query service pages.

All are held to ``C · λ · (|Q| + 1)`` steps between outputs, with one
shared small constant and no dependence on label counts, in-degrees,
or the number of decoy edges.
"""

from __future__ import annotations

import pytest

from repro.workloads.worstcase import decoy_indegree, label_soup

from tests.property.delay_steps import MEASURES, measure


def _measure(flavor, instance):
    graph, nfa, s, t = instance
    return measure(flavor, graph, nfa, graph.vertex_id(s), graph.vertex_id(t))


@pytest.mark.parametrize("flavor", sorted(MEASURES))
class TestLabelHeavyDelay:
    def test_label_soup(self, flavor):
        """Per-edge label multiplicity must not leak into the delay."""
        _, _, max_gap, outputs, bound = _measure(
            flavor, label_soup(k=9, parallel=2, extra_labels=24, noise_out=12)
        )
        assert outputs == 2 ** 9
        assert max_gap <= bound

    def test_label_soup_delay_independent_of_label_count(self, flavor):
        """Doubling the noise labels leaves the per-output step count
        unchanged — the bound is not merely loose enough to absorb it."""
        gaps = []
        for extra in (8, 32):
            _, _, max_gap, outputs, _ = _measure(
                flavor,
                label_soup(k=7, parallel=2, extra_labels=extra, noise_out=8),
            )
            assert outputs == 2 ** 7
            gaps.append(max_gap)
        assert gaps[0] == gaps[1]

    def test_decoy_indegree(self, flavor):
        """Decoy in-edges occupy the low TgtIdx cells; the trimmed
        structures skip them wholesale (the factor-d separation of
        Section 3.2)."""
        _, _, max_gap, outputs, bound = _measure(
            flavor, decoy_indegree(k=8, parallel=2, decoys=64)
        )
        assert outputs == 2 ** 8
        assert max_gap <= bound

    def test_decoy_indegree_delay_independent_of_decoys(self, flavor):
        gaps = []
        for decoys in (4, 256):
            _, _, max_gap, outputs, _ = _measure(
                flavor, decoy_indegree(k=6, parallel=2, decoys=decoys)
            )
            assert outputs == 2 ** 6
            gaps.append(max_gap)
        assert gaps[0] == gaps[1]
