"""The paper's algorithm: Annotate / Trim / Enumerate and extensions.

Module map (mirrors Figure 2 of the paper):

* :mod:`repro.core.compile` — align an NFA with a database's label
  ids and close its ε-transitions; every traversal below accepts
  ε-free compiles only (``CompiledQuery.require_epsilon_free``);
* :mod:`repro.core.annotate` — the ``Annotate`` BFS (Section 3.1);
* :mod:`repro.core.trim` — ``Trim`` (Section 3.2), whose cells are
  ``ResumableTrim``'s (Section 4.2) as built;
* :mod:`repro.core.enumerate` — ``Enumerate`` (Section 3.3), the one
  seekable DFS; ``enumerate_walks(resume_after=w)`` is also Theorem
  18's ``NextOutput``, the output after ``w`` from a fresh stream;
* :mod:`repro.core.engine` — the ``Main`` orchestration: the one
  prepared ``(query, source)`` object and the single-pair driver;
* :mod:`repro.core.cheapest`, :mod:`repro.core.multi_target`,
  :mod:`repro.core.multiplicity` — the Section 5.3 extensions; the
  last is the one run counter the engine, the façade and the CLI
  weigh walks with;
* :mod:`repro.core.count` — answer counting and duplicate-blowup
  measures, without enumeration.
"""

from repro.core.annotate import Annotation, annotate
from repro.core.cheapest import DistinctCheapestWalks, cheapest_annotate
from repro.core.compile import CompiledQuery, compile_query
from repro.core.count import (
    count_distinct_shortest,
    count_shortest_product_paths,
    count_total_multiplicity,
)
from repro.core.engine import DistinctShortestWalks
from repro.core.enumerate import enumerate_walks
from repro.core.multi_target import MultiTargetShortestWalks
from repro.core.trim import trim
from repro.core.walks import Walk

__all__ = [
    "Annotation",
    "CompiledQuery",
    "DistinctCheapestWalks",
    "DistinctShortestWalks",
    "MultiTargetShortestWalks",
    "Walk",
    "annotate",
    "cheapest_annotate",
    "compile_query",
    "count_distinct_shortest",
    "count_shortest_product_paths",
    "count_total_multiplicity",
    "enumerate_walks",
    "trim",
]
