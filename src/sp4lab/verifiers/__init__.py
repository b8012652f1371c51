"""Verifier layer: exhaustive and sampled checks of every discrete claim.

Import each name from the submodule that defines it (``cells``,
``decompose``, ``parity``, ``sampling``, ``averaging``, ``reports``).
The names below stay re-exported only because the benchmark harness in
``perfbench/`` imports them from this package.
"""

from sp4lab.verifiers.averaging import symmetric_3_standard, verify_averaging
from sp4lab.verifiers.cells import verify_cell_lemma
from sp4lab.verifiers.decompose import decompose_k1k2
from sp4lab.verifiers.parity import parity_volumes
from sp4lab.verifiers.sampling import random_k_element, symplectic_group_order
