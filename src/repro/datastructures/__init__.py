"""The storage :mod:`repro.core` builds and reads.

:class:`~repro.datastructures.packed.PackedBack` /
:class:`~repro.datastructures.packed.PackedCells` — the CSR-packed
annotation entry store and the packed ``Trim`` cell layout — flow
through the whole Annotate → Trim → Enumerate pipeline without
conversion.

The paper's own Section 2.1 containers (cons lists, restartable queues,
the ``ResumableTrim`` skip array) and the pairing heap carry only the
transcription of the paper's pseudocode, a test oracle, and live beside
it in :mod:`repro.baselines`.
"""

from repro.datastructures.packed import PackedBack, PackedCells

__all__ = ["PackedBack", "PackedCells"]
