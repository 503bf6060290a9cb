"""Quantum states and channels on finite-dimensional Hilbert spaces.

Density matrices, pure states, Bloch-sphere qubits, Kraus channels, and
seeded random generation (Haar pure states, Ginibre density matrices,
Haar unitaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BlochOutOfBall,
    DimensionMismatch,
    InvalidState,
    ParamOutOfRange,
)
from .linalg import TOL

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "BlochVector",
    "DensityMatrix",
    "PureState",
    "QuantumChannel",
    "apply_channel",
    "apply_channel_stack",
    "bloch_from_density",
    "density_from_bloch",
    "density_from_bloch_stack",
    "eigenprojectors",
    "ginibre_states",
    "haar_unitaries",
    "overlap",
    "phase_damping",
    "projector",
    "projector_stack",
    "random_density_matrix",
    "random_pure_state",
    "random_unitary",
    "schmidt_coefficients",
    "validate_density_stack",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


PAULI_X = _frozen([[0, 1], [1, 0]])
PAULI_Y = _frozen([[0, -1j], [1j, 0]])
PAULI_Z = _frozen([[1, 0], [0, -1]])


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(m.conj(), -1, -2)


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def _hermitize(m: np.ndarray) -> np.ndarray:
    h = m + _adjoint(m)
    h /= 2.0
    return h


def _as_generator(rng) -> np.random.Generator:
    """Accept a ``numpy.random.Generator`` or seed material for one."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _first(bad: np.ndarray):
    """Flat index of the first True entry, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


def _checked_copy(stack) -> np.ndarray:
    """A writable complex copy of ``stack`` after the checks that need no
    eigenvalues: shape, then ``_check_plain``."""
    m = np.array(stack, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    _check_plain(m)
    return m


def _check_plain(m: np.ndarray) -> None:
    """Reject a matrix of the stack ``m`` that has a non-finite entry, is not
    Hermitian within ``TOL`` or has no unit trace within ``TOL``."""
    # A NaN or infinite entry makes the defect NaN or infinite, so the one
    # comparison below also rejects non-finite matrices.
    with np.errstate(invalid="ignore"):
        defect = np.abs(m - _adjoint(m)).max(axis=(-2, -1))
    i = _first(~(defect <= TOL))
    if i is not None:
        if not np.isfinite(defect.flat[i]):
            raise InvalidState("density matrix has a non-finite entry")
        raise InvalidState(f"density matrix not Hermitian (defect {defect.flat[i]:.3e})")
    tr = _trace(m)
    i = _first(np.abs(tr - 1.0) > TOL)
    if i is not None:
        raise InvalidState(f"density matrix trace {complex(tr.flat[i]):.12g} is not 1")


def _check_lowest(w: np.ndarray) -> np.ndarray:
    """Reject a lowest eigenvalue below ``-TOL`` in ascending rows ``w``
    ``(..., d)``; True where one lies below ``-linalg.roundoff_tol`` and
    must be clamped.  A negative within round-off is left as it is."""
    lo = w[..., 0]
    i = _first(lo < -TOL)
    if i is not None:
        raise InvalidState(f"density matrix has negative eigenvalue {lo.flat[i]:.3e}")
    return lo < -linalg.roundoff_tol(w)


def _clamped(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The repaired matrices of eigenpairs ``(w, v)`` and their eigenvalues:
    negatives clamped to zero, then renormalized to unit trace."""
    w = np.clip(w, 0.0, None)
    fixed = (v * w[..., None, :]) @ _adjoint(v)
    tr = _trace(fixed).real
    fixed /= tr[..., None, None]
    return _hermitize(fixed), w / tr[..., None]


def validate_density_stack(stack) -> np.ndarray:
    """Validate a stack ``(..., d, d)`` of density matrices in one batch.

    Every matrix gets the ``DensityMatrix`` checks (finite entries,
    Hermitian and unit trace within ``TOL``, no eigenvalue below ``-TOL``)
    and the same repair: a matrix whose lowest eigenvalue lies in
    ``[-TOL, -rho)``, with ``rho = linalg.roundoff_tol`` of its spectrum
    (``d * eps * max|lambda|``), has its negative eigenvalues clamped to
    zero and is renormalized.  One whose lowest eigenvalue lies in
    ``[-rho, 0)`` is stored as given: the repair could not move it by more
    than round-off.  The first offending matrix names the error.  Returns
    a read-only copy.

    Eigensolves: one ``eigvalsh`` per matrix, plus one ``eigh`` per matrix
    that is clamped; rank-deficient states (low-rank Ginibre states) whose
    zero eigenvalues come out at about ``-1e-16`` take no ``eigh``.  Rank-1
    projectors (``projector``, ``projector_stack``, ``eigenprojectors``)
    are valid by construction and run none (``_projectors``).  A stack that
    needs its eigenpairs anyway (``io.load_ensemble``'s, the property
    harness's ensembles) goes through ``_validate_density_eigh`` instead.
    """
    m = _checked_copy(stack)
    clamp = _check_lowest(np.linalg.eigvalsh(m))
    if clamp.any():
        m[clamp] = _clamped(*np.linalg.eigh(m[clamp]))[0]
    m.setflags(write=False)
    return m


def _validate_density_eigh(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``validate_density_stack`` from one ``eigh`` per matrix, with its eigenpairs.

    Returns the validated read-only stack and eigenpairs ``(w, v)`` of it:
    ``eigh`` of each input matrix, with the clamped eigenvalues (renormalized)
    for the matrices that were repaired.  The checks, messages and clamp
    rule (lowest eigenvalue below ``-linalg.roundoff_tol``) are those of
    ``validate_density_stack``, and so is the stored stack, since numpy
    runs ``eigh`` matrix by matrix.  A matrix kept as given keeps its
    ``eigh`` eigenvalues, round-off negatives included.  The lowest
    eigenvalue is read from ``eigh`` rather than ``eigvalsh``; the two
    LAPACK drivers agree to round-off, so they can differ on whether to
    clamp only for a lowest eigenvalue within round-off of ``-rho``.
    """
    m = _checked_copy(stack)
    w, v = np.linalg.eigh(m)
    clamp = _check_lowest(w)
    if clamp.any():
        m[clamp], w[clamp] = _clamped(w[clamp], v[clamp])
    m.setflags(write=False)
    return m, w, v


def eigenprojectors(states) -> tuple[np.ndarray, np.ndarray]:
    """Spectral weights and eigenprojectors of a stack of density matrices.

    For ``states`` of shape ``(..., d, d)`` returns weights ``(..., d)``
    summing to one, round-off negatives clamped before renormalizing, and
    validated projectors ``(..., d, d, d)``: ``projectors[..., k, :, :]``
    belongs to weight ``k``.  The pairs recombine to the input to machine
    precision.
    """
    return _eigenprojectors(states)[:2]


def _eigenprojectors(states, eig=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eigenprojectors`` and the unit eigenvectors ``(..., d, d)`` it projects
    onto: ``vectors[..., k, :]`` spans ``projectors[..., k, :, :]``.

    Eigensolves: one ``eigh`` per matrix, or none when ``eig`` holds the
    eigenpairs ``(w, v)`` of ``states``, as ``_validate_density_eigh``
    returns them.  The projectors are the raw outer products of the
    eigenvectors, validated by construction (``_projectors``), so no
    ``eigvalsh`` runs either.
    """
    w, v = np.linalg.eigh(states) if eig is None else eig
    w = np.clip(w, 0.0, None)
    w = w / w.sum(axis=-1, keepdims=True)
    vecs = np.swapaxes(v, -1, -2)
    return w, _projectors(vecs, _ket_bra), vecs


def _ginibre(gauss) -> np.ndarray:
    """``ginibre_states`` before validation."""
    z = gauss[..., 0, :, :] + 1j * gauss[..., 1, :, :]
    m = z @ _adjoint(z)
    return _hermitize(m / _trace(m).real[..., None, None])


def ginibre_states(gauss) -> np.ndarray:
    """Validated density matrices G G^dagger / trace, batched.

    ``gauss`` has shape ``(..., 2, d, r)``: the real and imaginary parts
    of a complex Gaussian ``G`` of shape ``(d, r)``, so the result has rank
    ``r`` and shape ``(..., d, d)``.
    """
    return validate_density_stack(_ginibre(gauss))


def haar_unitaries(gauss) -> np.ndarray:
    """Haar-random unitaries from complex Gaussians ``(..., 2, d, d)``.

    QR decomposition with the phases of R's diagonal moved into Q.
    """
    z = gauss[..., 0, :, :] + 1j * gauss[..., 1, :, :]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix (Hermitian, unit trace, positive).

    A lowest eigenvalue in ``[-rho, 0)``, with ``rho = d * eps *
    max|lambda|`` (``linalg.roundoff_tol``), is round-off and is kept as
    given.  One in ``[-TOL, -rho)`` is clamped to zero, with any other
    negative eigenvalue, and the matrix is renormalized.  Anything more
    negative is rejected.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.as_matrix(self.matrix)
        object.__setattr__(self, "matrix", validate_density_stack(m[None])[0])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """trace(rho^2), equal to 1 exactly for pure states."""
        return float(np.trace(self.matrix @ self.matrix).real)

    def eigenvalues(self) -> np.ndarray:
        """Spectrum, sorted nonincreasing."""
        return np.linalg.eigvalsh(self.matrix)[::-1].copy()

    def spectral_decomposition(self) -> list[tuple[float, "DensityMatrix"]]:
        """Decompose into (weight, eigenprojector) pairs with weights summing to 1.

        Round-off negatives in the spectrum are clamped before the weights
        are renormalized, so the pairs recombine to the original matrix to
        machine precision.
        """
        w, proj = eigenprojectors(self.matrix[None])
        return [(float(wk), _validated(pk)) for wk, pk in zip(w[0], proj[0])]


def _validated(matrix: np.ndarray) -> DensityMatrix:
    """Wrap a matrix that has already passed ``validate_density_stack``."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "matrix", matrix)
    return rho


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector of complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size == 0:
            raise InvalidState(f"amplitudes must be a nonempty vector, got shape {a.shape}")
        _check_unit(a)
        object.__setattr__(self, "amplitudes", _frozen(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def basis(cls, dim: int, index: int) -> "PureState":
        """Computational basis vector |index> in the given dimension."""
        if not 0 <= index < dim:
            raise ParamOutOfRange(f"basis index {index} outside 0..{dim - 1}")
        a = np.zeros(dim, dtype=complex)
        a[index] = 1.0
        return cls(a)


@dataclass(frozen=True)
class BlochVector:
    """A point in the closed Bloch ball."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        _bloch_matrices(self.as_array())  # the stack form's Bloch-ball check

    def length(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple

    def __post_init__(self) -> None:
        ops = tuple(linalg.as_matrix(k) for k in self.kraus)
        if not ops:
            raise InvalidState("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape[0] != dim:
                raise DimensionMismatch("Kraus operators must share one dimension")
        # A non-finite or overflowing entry makes the defect NaN or
        # infinite, which the comparison rejects.
        with np.errstate(invalid="ignore", over="ignore"):
            total = sum(k.conj().T @ k for k in ops)
            defect = float(np.abs(total - np.eye(dim)).max())
        if not defect <= TOL:
            raise InvalidState(f"Kraus completeness defect {defect:.3e}")
        object.__setattr__(self, "kraus", tuple(_frozen(k) for k in ops))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


def density_from_bloch_stack(r) -> np.ndarray:
    """Validated qubit density matrices (I + r . sigma) / 2, batched.

    ``r`` has shape ``(..., 3)``, and every vector must lie in the closed
    Bloch ball (length at most ``1 + TOL``); the result is ``(..., 2, 2)``.
    """
    return validate_density_stack(_bloch_matrices(r))


def _bloch_matrices(r) -> np.ndarray:
    """``density_from_bloch_stack`` before validation; the Bloch-ball check runs."""
    r = np.asarray(r, dtype=float)
    if r.ndim == 0 or r.shape[-1] != 3:
        raise DimensionMismatch(f"Bloch vectors have 3 components, got shape {r.shape}")
    with np.errstate(over="ignore"):  # a huge component gives length inf: rejected below
        length = np.sqrt(np.sum(r * r, axis=-1))
    i = _first(~(length <= 1.0 + TOL))  # NaN fails too
    if i is not None:
        raise BlochOutOfBall(f"Bloch vector length {length.flat[i]:.12g} exceeds 1")
    x, y, z = (r[..., c, None, None] for c in range(3))
    return (np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 2.0


def density_from_bloch(r) -> DensityMatrix:
    """Qubit density matrix (I + r . sigma) / 2 for a ``BlochVector`` or three numbers."""
    v = r.as_array() if isinstance(r, BlochVector) else np.asarray(r, dtype=float)
    return _validated(density_from_bloch_stack(v[None])[0])


def bloch_from_density(rho: DensityMatrix) -> BlochVector:
    """Bloch vector (trace(rho sigma_x), trace(rho sigma_y), trace(rho sigma_z))."""
    if rho.dim != 2:
        raise DimensionMismatch(f"Bloch coordinates need a qubit, got dim {rho.dim}")
    m = rho.matrix
    return BlochVector(
        float(np.trace(m @ PAULI_X).real),
        float(np.trace(m @ PAULI_Y).real),
        float(np.trace(m @ PAULI_Z).real),
    )


def _ket_bra(a: np.ndarray) -> np.ndarray:
    """|a><a| for vectors ``(..., d)``."""
    return a[..., :, None] * a.conj()[..., None, :]


def _outer(a: np.ndarray) -> np.ndarray:
    """|a><a| / <a|a> for vectors ``(..., d)``; not validated."""
    m = _ket_bra(a)
    return m / _trace(m).real[..., None, None]


def projector_stack(amplitudes) -> np.ndarray:
    """Validated rank-1 density matrices |psi><psi|, batched.

    ``amplitudes`` has shape ``(..., d)``, each vector of unit norm within
    ``TOL``; the result is ``(..., d, d)``.  It is ``validate_density_stack``
    of the projectors, bit for bit, without an eigensolve (``_projectors``).
    """
    return _projectors(np.asarray(amplitudes, dtype=complex), _outer)


def _check_unit(vectors: np.ndarray) -> None:
    """Reject a vector of ``vectors`` ``(..., d)`` whose norm is not 1 within ``TOL``."""
    # A huge or infinite amplitude makes the norm inf (or NaN): rejected below, silently.
    with np.errstate(invalid="ignore", over="ignore"):
        nrm = np.linalg.norm(vectors, axis=-1)
    i = _first(~(np.abs(nrm - 1.0) <= TOL))  # NaN fails too
    if i is not None:
        raise InvalidState(f"amplitude vector has norm {nrm.flat[i]:.12g}, expected 1")


def _projectors(vectors: np.ndarray, outer) -> np.ndarray:
    """Validated rank-1 density matrices ``outer(v)`` of vectors ``(..., d)``.

    Each vector must be finite with unit norm within ``TOL``, and each
    matrix must pass ``_check_plain`` (finite, Hermitian, unit trace).  No
    eigenvalue check runs: in Frobenius norm, the rounded ``v_i conj(v_j)``
    lies within ``2 sqrt(2) u |v|^2`` of the positive ``|v><v|``, plus
    ``u |v|^2`` for ``_outer``'s trace division (u = eps / 2; Higham,
    Lemma 3.5).  By Weyl's inequality its lowest eigenvalue is then above
    ``-1.9 eps``, while ``-linalg.roundoff_tol`` is ``-d eps`` (at
    ``lambda_max = 1``), at most ``-2 eps``.  So ``validate_density_stack``
    could neither reject nor clamp these matrices and would store them as
    they are.  The Hermiticity check stays, so that this does not rest on
    how complex products round.
    """
    _check_unit(vectors)
    m = np.asarray(outer(vectors), dtype=complex)
    _check_plain(m)
    m.setflags(write=False)
    return m


def projector(psi: PureState) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi|: ``projector_stack``'s matrix and
    checks, without the norm check that ``PureState`` has already run."""
    m = _outer(psi.amplitudes[None])
    _check_plain(m)
    m.setflags(write=False)
    return _validated(m[0])


def apply_channel_stack(channel: QuantumChannel, states) -> np.ndarray:
    """Validated images sum_k E_k rho E_k^dagger of a validated stack ``(..., d, d)``."""
    states = np.asarray(states)
    if states.shape[-1] != channel.dim:
        raise DimensionMismatch(
            f"channel dim {channel.dim} does not match state dim {states.shape[-1]}"
        )
    out = sum(k @ states @ k.conj().T for k in channel.kraus)
    return validate_density_stack(_hermitize(out))


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_k E_k rho E_k^dagger; only the image is validated."""
    return _validated(apply_channel_stack(channel, rho.matrix[None])[0])


def phase_damping(lam: float) -> QuantumChannel:
    """Qubit phase-damping channel with damping parameter ``lam`` in [0, 1].

    Kraus operators diag(1, sqrt(1 - lam)) and sqrt(lam) |1><1|; on the
    Bloch ball it shrinks the transversal components by sqrt(1 - lam).
    Values within 1e-12 outside [0, 1] (float grid endpoints) are clamped.
    """
    lam = float(lam)
    if lam < -1e-12 or lam > 1.0 + 1e-12:
        raise ParamOutOfRange(f"damping parameter {lam!r} outside [0, 1]")
    lam = min(max(lam, 0.0), 1.0)
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    e1 = np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)
    return QuantumChannel((e0, e1))


def overlap(psi: PureState, phi: PureState) -> complex:
    """Inner product <psi|phi>."""
    if psi.dim != phi.dim:
        raise DimensionMismatch(f"overlap of dims {psi.dim} and {phi.dim}")
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def schmidt_coefficients(psi: PureState) -> tuple[float, float]:
    """Schmidt coefficients of a two-qubit pure state, largest first.

    Amplitudes are read in the row-major basis |00>, |01>, |10>, |11>, so
    the coefficient matrix is the 2x2 reshape of the amplitude vector.
    """
    if psi.dim != 4:
        raise DimensionMismatch(f"need a two-qubit state (dim 4), got dim {psi.dim}")
    s = linalg.singular_values(psi.amplitudes.reshape(2, 2))
    return float(s[0]), float(s[1])


def random_pure_state(dim: int, rng) -> PureState:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    if dim < 1:
        raise ParamOutOfRange(f"dimension must be positive, got {dim}")
    g = _as_generator(rng)
    z = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))


def random_density_matrix(dim: int, rank: int, rng) -> DensityMatrix:
    """Ginibre-random density matrix G G^dagger / trace with G of shape (dim, rank)."""
    return _validated(_random_density_stack((), dim, rank, rng))


def _random_density_stack(shape: tuple, dim: int, rank: int, rng) -> np.ndarray:
    """An array ``shape`` of ``random_density_matrix`` states, from one draw of
    the same random stream."""
    if dim < 1:
        raise ParamOutOfRange(f"dimension must be positive, got {dim}")
    if not 1 <= rank <= dim:
        raise ParamOutOfRange(f"rank must lie in 1..{dim}, got {rank}")
    return ginibre_states(_as_generator(rng).standard_normal((*shape, 2, dim, rank)))


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fix."""
    if dim < 1:
        raise ParamOutOfRange(f"dimension must be positive, got {dim}")
    return haar_unitaries(_as_generator(rng).standard_normal((2, dim, dim)))
