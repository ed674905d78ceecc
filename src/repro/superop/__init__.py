"""Super-operator substrate (S2): Kraus maps, Choi matrices, channels and orderings.

A completely positive map is a :class:`SuperOperator` in Kraus form
(:mod:`.kraus`): a finite operator list ``{E_i}``, the one representation the
semantic engines compute with.  Its Choi matrix (:mod:`.choi`), the ``d²×d²``
positive matrix ``Σ vec(E_i)vec(E_i)†``, answers order/positivity questions
(Lemma 3.1), equality and set comparisons (:mod:`.compare`), and yields
minimal Kraus decompositions.  Kraus→Choi is one matrix product and
Choi→Kraus an eigendecomposition.
"""

from .channels import (
    amplitude_damping_channel,
    bit_flip_channel,
    bit_phase_flip_channel,
    depolarizing_channel,
    initialization_channel,
    measurement_channel,
    phase_damping_channel,
    phase_flip_channel,
    probabilistic_mixture,
    projection_channel,
    reset_channel,
    unitary_channel,
)
from .choi import (
    choi_from_apply,
    choi_matrix,
    choi_precedes,
    is_cp_choi,
    is_tni_choi,
    is_tp_choi,
    kraus_from_choi,
)
from .compare import (
    convergence_gap,
    deduplicate,
    lub_of_chain,
    set_equal,
    set_subset,
    superoperator_equal,
    superoperator_precedes,
)
from .kraus import SuperOperator

__all__ = [name for name in dir() if not name.startswith("_")]
