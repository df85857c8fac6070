"""The paper's algorithm: Annotate / Trim / Enumerate and extensions.

Module map (mirrors Figure 2 of the paper):

* :mod:`repro.core.compile` — align an NFA with a database's label
  ids and close its ε-transitions; every traversal below accepts
  ε-free compiles only (``CompiledQuery.require_epsilon_free``);
* :mod:`repro.core.annotate` — the ``Annotate`` BFS (Section 3.1);
* :mod:`repro.core.trim` — ``Trim`` (Section 3.2) and ``ResumableTrim``
  (Section 4.2);
* :mod:`repro.core.enumerate` — ``Enumerate`` (Section 3.3), the one
  seekable DFS;
* :mod:`repro.core.memoryless` — ``NextOutput`` (Theorem 18): that DFS
  re-positioned before every output;
* :mod:`repro.core.engine` — the ``Main`` orchestration: the one
  prepared ``(query, source)`` object and the single-pair driver;
* :mod:`repro.core.cheapest`, :mod:`repro.core.multi_target`,
  :mod:`repro.core.multiplicity` — the Section 5.3 extensions;
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
from repro.core.memoryless import enumerate_memoryless, next_output
from repro.core.multi_target import MultiTargetShortestWalks
from repro.core.multiplicity import count_accepting_runs
from repro.core.trim import resumable_trim, trim
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
    "count_accepting_runs",
    "count_distinct_shortest",
    "count_shortest_product_paths",
    "count_total_multiplicity",
    "enumerate_memoryless",
    "enumerate_walks",
    "next_output",
    "resumable_trim",
    "trim",
]
