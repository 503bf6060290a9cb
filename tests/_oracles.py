"""Independent reference implementations used to cross-check the package.

Deliberately avoids the code paths under test: eigenvalues come from a
hand-rolled cyclic Jacobi iteration, singular values from LAPACK's SVD,
and the naive quantumness sums over all ordered pairs with no batching.
"""

import math

import numpy as np


def jacobi_hermitian_eigenvalues(a, max_sweeps=100):
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    Off-diagonal pivots below 1e-14 * ||A||_F are skipped; a full sweep
    with no rotations means convergence.  Returns nonincreasing values.
    """
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    thresh = 1e-14 * math.sqrt(float(np.sum(np.abs(a) ** 2)))
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r <= thresh:
                    continue
                rotated = True
                phase = a[p, q] / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                j = np.eye(n, dtype=complex)
                j[p, p] = c
                j[q, q] = c
                j[p, q] = s * phase
                j[q, p] = -s * np.conj(phase)
                a = j.conj().T @ a @ j
        if not rotated:
            break
    else:
        raise RuntimeError("Jacobi iteration did not converge in the sweep budget")
    return np.sort(a.diagonal().real)[::-1]


def svd_norm(m, spec) -> float:
    """Schatten / Ky Fan norm straight from numpy's SVD."""
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if spec.kind == "schatten":
        if math.isinf(spec.p):
            return float(s[0])
        return float(np.sum(s**spec.p) ** (1.0 / spec.p))
    return float(np.sum(s[: spec.k]))


def naive_quantumness(members, spec) -> float:
    """sum over all ordered pairs i != j of sqrt(p_i p_j) ||[rho_i, rho_j]||.

    Equivalent to twice the i < j sum; ``members`` is a list of
    (probability, matrix) pairs with plain arrays.
    """
    total = []
    for i, (p_i, a) in enumerate(members):
        for j, (p_j, b) in enumerate(members):
            if i == j or p_i == 0.0 or p_j == 0.0:
                continue
            total.append(math.sqrt(p_i * p_j) * svd_norm(a @ b - b @ a, spec))
    return math.fsum(total)


def analytic_pair_singular_values(c: float, dim: int) -> np.ndarray:
    """Singular values of [|psi><psi|, |phi><phi|] with overlap magnitude c.

    The commutator acts on the two-dimensional span, where both nonzero
    singular values equal c * sqrt(1 - c^2), taken here as
    c * sqrt((1 - c)(1 + c)): for c >= 1/2, 1 - c is exact, so the value
    keeps full accuracy near c = 1.
    """
    s = np.zeros(dim)
    s[:2] = c * math.sqrt(max((1.0 - c) * (1.0 + c), 0.0))
    return s


def random_hermitian(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def random_complex(dim: int, rng) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
