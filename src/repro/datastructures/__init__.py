"""The storage :mod:`repro.core` builds and reads.

:class:`~repro.datastructures.packed.PackedCells` — the ``Trim`` cell
store, pulled from an annotation's ``dist`` per asked target — flows
from Trim to Enumerate without conversion.

The paper's own Section 2.1 containers (cons lists, restartable queues,
the ``ResumableTrim`` skip array) and the pairing heap carry only the
transcription of the paper's pseudocode, a test oracle, and live beside
it in :mod:`repro.baselines`.
"""

from repro.datastructures.packed import PackedCells

__all__ = ["PackedCells"]
