"""Commutator-norm quantumness of quantum state ensembles.

The central quantity is, for an ensemble {(p_i, rho_i)} and a
unitary-similarity-invariant norm,

    M = 2 * sum_{i<j} sqrt(p_i p_j) ||[rho_i, rho_j]||

which vanishes exactly when all states occurring with positive
probability commute.
"""

from . import errors
from .ensemble import (
    Ensemble,
    Partition,
    coarse_grain,
    decompose_member,
    fine_grain,
    is_classical,
    probabilistic_union,
    quantumness,
    unitary_conjugate,
)
from .harness import RunReport, check_properties, run_single_trial
from .io import load_ensemble, save_ensemble
from .linalg import (
    NormSpec,
    commutator,
    hermitian_eigenvalues,
    norm,
    singular_values,
)
from .measures import (
    ClassicalQuantumState,
    bell_phi_plus,
    coherence_l1_pure_qubit,
    concurrence_pure_two_qubit,
    cq_append_ancilla,
    cq_local_unitary,
    cq_quantumness,
    plus_state,
    pure_pair_quantumness,
    quantumness_coherence_relation,
    quantumness_concurrence_relation,
)
from .states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    DensityMatrix,
    PureState,
    QuantumChannel,
    apply_channel,
    bloch_from_density,
    density_from_bloch,
    overlap,
    phase_damping,
    projector,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    schmidt_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "BlochVector",
    "ClassicalQuantumState",
    "DensityMatrix",
    "Ensemble",
    "NormSpec",
    "Partition",
    "PureState",
    "QuantumChannel",
    "RunReport",
    "apply_channel",
    "bell_phi_plus",
    "bloch_from_density",
    "check_properties",
    "coarse_grain",
    "coherence_l1_pure_qubit",
    "commutator",
    "concurrence_pure_two_qubit",
    "cq_append_ancilla",
    "cq_local_unitary",
    "cq_quantumness",
    "decompose_member",
    "density_from_bloch",
    "errors",
    "fine_grain",
    "hermitian_eigenvalues",
    "is_classical",
    "load_ensemble",
    "norm",
    "overlap",
    "phase_damping",
    "plus_state",
    "probabilistic_union",
    "projector",
    "pure_pair_quantumness",
    "quantumness",
    "quantumness_coherence_relation",
    "quantumness_concurrence_relation",
    "random_density_matrix",
    "random_pure_state",
    "random_unitary",
    "run_single_trial",
    "save_ensemble",
    "schmidt_coefficients",
    "singular_values",
    "unitary_conjugate",
]
