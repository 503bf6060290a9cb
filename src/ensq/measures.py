"""Closed forms and derived measures built on the ensemble quantumness.

Covers the two-pure-state closed form, its links to l1 coherence (single
qubit, incoherent basis) and to concurrence (two qubits), and the
classical-quantum-state measure obtained by reading the block states of
sum_i p_i |i><i| ⊗ rho_i as an ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ensemble import Ensemble, check_weights, quantumness, unitary_conjugate
from .errors import DimensionMismatch, NonRealAmplitudes, ParamOutOfRange
from .linalg import TOL, NormSpec
from .states import DensityMatrix, PureState, _hermitize, projector, schmidt_coefficients

__all__ = [
    "ClassicalQuantumState",
    "bell_phi_plus",
    "coherence_l1_pure_qubit",
    "concurrence_pure_two_qubit",
    "cq_append_ancilla",
    "cq_local_unitary",
    "cq_quantumness",
    "plus_state",
    "pure_pair_quantumness",
    "quantumness_coherence_relation",
    "quantumness_concurrence_relation",
]

_OVERLAP_SLOP = 1e-12


def plus_state() -> PureState:
    """(|0> + |1>) / sqrt(2)."""
    return PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))


def bell_phi_plus() -> PureState:
    """(|00> + |11>) / sqrt(2)."""
    return PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


def pure_pair_quantumness(p1, p2, c) -> float | np.ndarray:
    """Trace-norm quantumness of two pure states with overlap magnitude ``c``.

    For the ensemble {(p1, |psi><psi|), (p2, |phi><phi|)} with
    c = |<psi|phi>| the trace norm of the commutator is 2 c sqrt(1 - c^2),
    giving 4 c sqrt(p1 p2) sqrt(1 - c^2).  Maximal at c = 1/sqrt(2).
    Broadcasts over array arguments (each ``(p1, p2)`` is one weight row);
    scalar arguments give a float.
    """
    p1, p2, c = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (p1, p2, c)))
    check_weights(np.stack([p1, p2], axis=-1), "pure pair probabilities")
    bad = ~((c >= -_OVERLAP_SLOP) & (c <= 1.0 + _OVERLAP_SLOP))  # NaN fails too
    if bad.any():
        raise ParamOutOfRange(f"overlap magnitude {float(c[bad][0])!r} outside [0, 1]")
    c = np.clip(c, 0.0, 1.0)
    m = 4.0 * c * np.sqrt(p1 * p2) * np.sqrt(np.maximum(1.0 - c * c, 0.0))
    return m if m.ndim else float(m)


def coherence_l1_pure_qubit(psi: PureState) -> float:
    """l1 coherence 2|alpha beta| of a real-amplitude qubit state."""
    if psi.dim != 2:
        raise DimensionMismatch(f"need a qubit state, got dim {psi.dim}")
    a = psi.amplitudes
    if float(np.abs(a.imag).max()) > TOL:
        raise NonRealAmplitudes("amplitudes must be real in the incoherent basis")
    return 2.0 * abs(float(a[0].real) * float(a[1].real))


def concurrence_pure_two_qubit(psi: PureState) -> float:
    """Concurrence 2 a b from the Schmidt coefficients of a two-qubit state."""
    a, b = schmidt_coefficients(psi)
    return 2.0 * a * b


def quantumness_coherence_relation(psi: PureState) -> tuple[float, float]:
    """(M, C_l1) for the equal-weight ensemble {psi, |+>} under the trace norm.

    For real amplitudes these satisfy M = sqrt(1 - C_l1^2) = |alpha^2 - beta^2|.
    """
    coherence = coherence_l1_pure_qubit(psi)
    e = Ensemble(((0.5, projector(psi)), (0.5, projector(plus_state()))))
    return quantumness(e, NormSpec.trace()), coherence


def quantumness_concurrence_relation(psi: PureState) -> tuple[float, float]:
    """(M, C) for the equal-weight ensemble {psi, |phi+>} under the trace norm.

    For a state in Schmidt form alpha |00> + beta |11> these satisfy
    M = sqrt(1 - C^2); the caller is responsible for the Schmidt form,
    since the relation is not basis-free.
    """
    concurrence = concurrence_pure_two_qubit(psi)
    e = Ensemble(((0.5, projector(psi)), (0.5, projector(bell_phi_plus()))))
    return quantumness(e, NormSpec.trace()), concurrence


@dataclass(frozen=True, eq=False)
class ClassicalQuantumState:
    """A classical-quantum state sum_i p_i |i><i| ⊗ rho_i.

    Stored as the classical distribution plus the conditional block states;
    ``matrix()`` materializes the block-diagonal joint density matrix.
    """

    probs: tuple
    blocks: tuple
    _ensemble: Ensemble = field(init=False, repr=False)

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        if not probs or len(probs) != len(self.blocks):
            raise ParamOutOfRange("need matching, nonempty probs and blocks")
        # The ensemble checks the weights, the block dimensions and any raw blocks.
        ensemble = Ensemble(tuple(zip(probs, self.blocks)))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "blocks", ensemble.states)
        object.__setattr__(self, "_ensemble", ensemble)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_dim(self) -> int:
        return self.blocks[0].dim

    def induced_ensemble(self) -> Ensemble:
        """The ensemble {(p_i, rho_i)} read off the blocks."""
        return self._ensemble

    def matrix(self) -> np.ndarray:
        """The joint density matrix, block-diagonal in the classical index."""
        k, d = self.num_blocks, self.block_dim
        out = np.zeros((k * d, k * d), dtype=complex)
        for i, (p, b) in enumerate(zip(self.probs, self.blocks)):
            out[i * d : (i + 1) * d, i * d : (i + 1) * d] = p * b.matrix
        return out


def cq_quantumness(state: ClassicalQuantumState, spec: NormSpec) -> float:
    """Quantumness of the induced block ensemble; zero iff the blocks commute."""
    return quantumness(state.induced_ensemble(), spec)


def cq_local_unitary(state: ClassicalQuantumState, u) -> ClassicalQuantumState:
    """Conjugate every block by one unitary on the quantum side."""
    u = linalg.as_matrix(u)
    if u.shape[0] != state.block_dim:
        raise DimensionMismatch(
            f"unitary dim {u.shape[0]} does not match block dim {state.block_dim}"
        )
    blocks = unitary_conjugate(state.induced_ensemble(), u).states
    return ClassicalQuantumState(state.probs, blocks)


def cq_append_ancilla(state: ClassicalQuantumState, sigma) -> ClassicalQuantumState:
    """Attach an uncorrelated ancilla: every block rho_i becomes rho_i ⊗ sigma.

    Under the trace norm the measure scales by trace(sigma^2), so it never
    increases and is preserved exactly when sigma is pure.
    """
    if not isinstance(sigma, DensityMatrix):
        sigma = DensityMatrix(sigma)
    # Raw blocks: the new state validates them in one batch.
    blocks = tuple(_hermitize(np.kron(b.matrix, sigma.matrix)) for b in state.blocks)
    return ClassicalQuantumState(state.probs, blocks)
