"""Dense complex-matrix core.

Hermitian eigendecomposition, singular values, and the family of
unitary-similarity-invariant norms (Schatten and Ky Fan) used throughout
the package.  Everything works on plain ``numpy`` arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidNormSpec,
    NoConvergence,
    NotHermitian,
    ParamOutOfRange,
)

__all__ = [
    "TOL",
    "NormSpec",
    "antihermitian_singular_values",
    "as_matrix",
    "commutator",
    "hermitian_eigenvalues",
    "norm",
    "norm_from_singular_values",
    "roundoff_tol",
    "singular_values",
]

# The one acceptance tolerance of the package: Hermiticity defects, trace
# and weight-sum errors, negative eigenvalues, amplitude norms, Kraus
# completeness, mixture recombination, unitarity defects and Bloch lengths
# may each miss their exact value by at most this much.
TOL = 1e-10


def roundoff_tol(w: np.ndarray) -> np.ndarray:
    """Round-off size ``d * eps * max|lambda|`` of eigenvalue rows ``w`` ``(..., d)``.

    numpy's ``matrix_rank`` tolerance: eigenvalues of one matrix that lie
    this close together, or this close to zero, are equal to working
    precision.  The validator clamps only eigenvalues below minus this
    size, and the low-rank factors cluster eigenvalues within it.
    """
    return (w.shape[-1] * np.finfo(float).eps) * np.abs(w).max(axis=-1)


# Commutators of Hermitian matrices are anti-Hermitian up to round-off; this
# threshold decides when the cheap eigenvalue route for singular values applies.
_ANTIHERMITIAN_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix, rejecting malformed input."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    return m


def _finite_matrix(a) -> np.ndarray:
    """``as_matrix(a)``, rejecting NaN and infinite entries before any arithmetic.

    Not part of ``as_matrix``: ``DensityMatrix`` goes through that and names
    a non-finite entry as an ``InvalidState`` of its own.
    """
    m = as_matrix(a)
    if not np.isfinite(m).all():
        raise ParamOutOfRange("matrix has a non-finite entry")
    return m


def commutator(a, b) -> np.ndarray:
    """AB - BA.  Anti-Hermitian (up to round-off) when A and B are Hermitian."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def hermitian_eigenvalues(a, tol: float = TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted nonincreasing."""
    m = _finite_matrix(a)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tolerance {tol:.3e}")
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    return w[::-1].copy()


def antihermitian_singular_values(c: np.ndarray) -> np.ndarray:
    """Nonincreasing singular values of a stack ``(..., d, d)`` of anti-Hermitian matrices.

    Commutators of Hermitian matrices are anti-Hermitian, so one batched
    Hermitian eigendecomposition of ``i c`` covers the whole stack.  This
    is the only anti-Hermitian route: :func:`singular_values` and the
    ensemble pair kernel both call it.
    """
    try:
        w = np.linalg.eigvalsh(1j * c)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    return np.sort(np.abs(w), axis=-1)[..., ::-1]


def _antihermitian_norms(c: np.ndarray, spec: "NormSpec") -> np.ndarray:
    """Norms ``(n,)`` of a stack ``(n, d, d)`` of anti-Hermitian matrices:
    Frobenius from the entries, sqrt(sum |c_kl|^2), with no eigensolve (as
    :func:`norm` takes it), every other norm from the singular values."""
    if spec.kind == "schatten" and spec.p == 2.0:
        x = np.ascontiguousarray(c).reshape(len(c), -1).view(float)
        return np.sqrt(np.einsum("ni,ni->n", x, x))
    return norm_from_singular_values(antihermitian_singular_values(c), spec)


def singular_values(a) -> np.ndarray:
    """Singular values of a square matrix, sorted nonincreasing.

    Anti-Hermitian input (the common case here: commutators of Hermitian
    matrices) is detected and goes through
    :func:`antihermitian_singular_values`; everything else goes through
    ``numpy.linalg.svd``, accurate to a few ulps of the largest singular
    value.  NaN and infinite entries are rejected with ``ParamOutOfRange``,
    here and in :func:`hermitian_eigenvalues` and :func:`norm`.
    """
    m = _finite_matrix(a)
    scale = float(np.abs(m).max())
    if float(np.abs(m + m.conj().T).max()) <= _ANTIHERMITIAN_TOL * (1.0 + scale):
        return antihermitian_singular_values(m).copy()
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value decomposition failed: {exc}") from exc


@dataclass(frozen=True)
class NormSpec:
    """Selector for a unitary-similarity-invariant matrix norm.

    Either a Schatten norm with exponent ``p >= 1`` (``math.inf`` gives the
    spectral norm) or a Ky Fan norm summing the ``k`` largest singular
    values.  ``trace``, ``frobenius`` and ``spectral`` are the usual
    Schatten 1, 2 and infinity aliases.
    """

    kind: str
    p: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "schatten":
            if self.k is not None:
                raise InvalidNormSpec("schatten norm takes no k")
            if self.p is None or isinstance(self.p, bool):
                raise InvalidNormSpec("schatten norm needs an exponent p")
            p = float(self.p)
            if not p >= 1.0:
                raise InvalidNormSpec(f"schatten exponent must satisfy p >= 1, got {self.p}")
            object.__setattr__(self, "p", p)
        elif self.kind == "kyfan":
            if self.p is not None:
                raise InvalidNormSpec("kyfan norm takes no p")
            if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool):
                raise InvalidNormSpec(f"kyfan order must be an integer, got {self.k!r}")
            if self.k < 1:
                raise InvalidNormSpec(f"kyfan order must satisfy k >= 1, got {self.k}")
            object.__setattr__(self, "k", int(self.k))
        else:
            raise InvalidNormSpec(f"unknown norm kind {self.kind!r}")

    @classmethod
    def schatten(cls, p: float) -> "NormSpec":
        return cls(kind="schatten", p=p)

    @classmethod
    def kyfan(cls, k: int) -> "NormSpec":
        return cls(kind="kyfan", k=k)

    @classmethod
    def trace(cls) -> "NormSpec":
        return cls.schatten(1.0)

    @classmethod
    def frobenius(cls) -> "NormSpec":
        return cls.schatten(2.0)

    @classmethod
    def spectral(cls) -> "NormSpec":
        return cls.schatten(math.inf)

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        """Parse ``trace | frobenius | spectral | schatten:<p> | kyfan:<k>``."""
        t = text.strip().lower()
        if t == "trace":
            return cls.trace()
        if t == "frobenius":
            return cls.frobenius()
        if t == "spectral":
            return cls.spectral()
        if t.startswith("schatten:"):
            try:
                p = float(t.split(":", 1)[1])
            except ValueError as exc:
                raise InvalidNormSpec(f"bad schatten exponent in {text!r}") from exc
            return cls.schatten(p)
        if t.startswith("kyfan:"):
            try:
                k = int(t.split(":", 1)[1])
            except ValueError as exc:
                raise InvalidNormSpec(f"bad kyfan order in {text!r}") from exc
            return cls.kyfan(k)
        raise InvalidNormSpec(f"unrecognized norm {text!r}")

    def check_dim(self, dim: int) -> None:
        """Reject a Ky Fan order above ``dim``, the number of singular values."""
        if self.kind == "kyfan" and self.k > dim:
            raise InvalidNormSpec(f"kyfan order {self.k} exceeds dimension {dim}")

    def label(self) -> str:
        """Canonical string form; ``NormSpec.parse`` round-trips it."""
        if self.kind == "kyfan":
            return f"kyfan:{self.k}"
        if self.p == 1.0:
            return "trace"
        if self.p == 2.0:
            return "frobenius"
        if math.isinf(self.p):
            return "spectral"
        return f"schatten:{self.p:g}"


def norm_from_singular_values(s: np.ndarray, spec: NormSpec):
    """Apply a norm selector to precomputed singular values.

    ``s`` holds nonincreasing singular values along the last axis; a 2-D
    input yields one norm per row.  Shared by :func:`norm` and the batched
    ensemble kernel so the two routes use identical arithmetic.  Rows are
    made C-contiguous and a single row is handled as a batch of one:
    numpy's ``power`` takes another routine, differing in the last bit,
    for a reversed-stride row or a scalar, and a row's norm should not
    depend on the shape or memory layout it arrives in.

    A Schatten norm with finite p other than 1 or 2 is computed as
    ``s_max * (sum (s / s_max)**p)**(1/p)`` (the scaling of Blue, ACM TOMS
    4(1), 1978), so that ``s**p`` cannot underflow to zero or overflow for
    large p; an all-zero row gives 0.
    """
    s = np.ascontiguousarray(s, dtype=float)
    n = s.shape[-1]
    spec.check_dim(n)
    rows = s.reshape(-1, n)
    if spec.kind == "schatten":
        if math.isinf(spec.p):
            v = rows[:, 0]
        elif spec.p in (1.0, 2.0):
            v = np.sum(rows**spec.p, axis=-1) ** (1.0 / spec.p)
        else:
            top = rows[:, :1]
            scaled = rows / np.where(top > 0.0, top, 1.0)
            v = top[:, 0] * np.sum(scaled**spec.p, axis=-1) ** (1.0 / spec.p)
    else:
        v = np.sum(rows[:, : spec.k], axis=-1)
    return float(v[0]) if s.ndim == 1 else v.reshape(s.shape[:-1])


def norm(a, spec: NormSpec) -> float:
    """Norm of a square matrix under the given Schatten / Ky Fan selector; the
    Frobenius norm is read from the entries, as the pair kernel reads it."""
    if spec.kind == "schatten" and spec.p == 2.0:
        return float(_antihermitian_norms(_finite_matrix(a)[None], spec)[0])
    return float(norm_from_singular_values(singular_values(a), spec))
