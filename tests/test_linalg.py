"""Matrix core: eigenvalues, singular values, and the norm family."""

import math
import warnings

import numpy as np
import pytest

from ensq import linalg
from ensq.errors import (
    DimensionMismatch,
    InvalidNormSpec,
    NoConvergence,
    NotHermitian,
    ParamOutOfRange,
)
from ensq.linalg import NormSpec

from _oracles import (
    jacobi_hermitian_eigenvalues,
    random_complex,
    random_hermitian,
    svd_norm,
)


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix([1, 2, 3])
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix(np.zeros((0, 0)))


def test_commutator_of_paulis():
    from ensq.states import PAULI_X, PAULI_Y, PAULI_Z

    c = linalg.commutator(PAULI_X, PAULI_Y)
    assert np.allclose(c, 2j * PAULI_Z)


def test_commutator_of_hermitian_is_antihermitian():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        c = linalg.commutator(a, b)
        assert np.abs(c + c.conj().T).max() <= 1e-12


def test_hermitian_eigenvalues_known_cases():
    assert np.allclose(linalg.hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])
    assert np.allclose(linalg.hermitian_eigenvalues(np.diag([1.0, -1.0])), [1.0, -1.0])
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert np.allclose(linalg.hermitian_eigenvalues(h), [1.0, -1.0])


def test_hermitian_eigenvalues_sorted_and_match_jacobi_oracle():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 6, 8):
        for _ in range(10):
            a = random_hermitian(dim, rng)
            w = linalg.hermitian_eigenvalues(a)
            assert np.all(np.diff(w) <= 0.0)
            assert np.abs(w - jacobi_hermitian_eigenvalues(a)).max() <= 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigenvalues(np.array([[0.0, 1e-8], [0.0, 0.0]]))
    # within tolerance it must pass
    linalg.hermitian_eigenvalues(np.array([[0.0, 1e-12], [0.0, 0.0]]))


MATRIX_FUNCTIONS = {
    "hermitian_eigenvalues": linalg.hermitian_eigenvalues,
    "singular_values": linalg.singular_values,
    "norm": lambda m: linalg.norm(m, NormSpec.trace()),
}


@pytest.mark.parametrize("name", sorted(MATRIX_FUNCTIONS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                 complex(1.0, -math.inf)])
@pytest.mark.parametrize("where", [(1, 1), (0, 1)])
def test_matrix_functions_reject_non_finite_entries_without_a_warning(name, bad, where):
    m = np.eye(2, dtype=complex)
    m[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamOutOfRange, match="non-finite"):
            MATRIX_FUNCTIONS[name](m)


def test_solver_failure_maps_to_no_convergence(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    with pytest.raises(NoConvergence):
        linalg.hermitian_eigenvalues(np.eye(2))


def test_singular_values_known_cases():
    assert np.allclose(linalg.singular_values(np.eye(3)), [1.0, 1.0, 1.0])
    assert np.allclose(linalg.singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])
    assert np.allclose(linalg.singular_values([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0])


def test_singular_values_match_svd():
    rng = np.random.default_rng(9)
    for dim in (2, 3, 5):
        for _ in range(25):
            a = random_complex(dim, rng)
            ref = np.linalg.svd(a, compute_uv=False)
            assert np.abs(linalg.singular_values(a) - ref).max() <= 1e-10


def test_antihermitian_fast_path_agrees_with_svd():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        c = a @ b - b @ a
        fast = linalg.singular_values(c)
        general = np.linalg.svd(c, compute_uv=False)
        assert np.abs(fast - general).max() <= 1e-10


def test_normspec_parse_and_label_round_trip():
    cases = {
        "trace": NormSpec.schatten(1.0),
        "frobenius": NormSpec.schatten(2.0),
        "spectral": NormSpec.schatten(math.inf),
        "schatten:3": NormSpec.schatten(3.0),
        "schatten:1.5": NormSpec.schatten(1.5),
        "kyfan:2": NormSpec.kyfan(2),
    }
    for text, want in cases.items():
        spec = NormSpec.parse(text)
        assert spec == want
        assert NormSpec.parse(spec.label()) == spec


def test_normspec_rejects_bad_input():
    for bad in ("schatten:0.5", "kyfan:0", "kyfan:2.5", "nuclear", "schatten:nan", ""):
        with pytest.raises(InvalidNormSpec):
            NormSpec.parse(bad)
    with pytest.raises(InvalidNormSpec):
        NormSpec.schatten(0.99)
    with pytest.raises(InvalidNormSpec):
        NormSpec.kyfan(-1)


def test_norm_known_values():
    assert linalg.norm(np.eye(3), NormSpec.trace()) == pytest.approx(3.0)
    assert linalg.norm(np.diag([3.0, 1.0, 2.0]), NormSpec.kyfan(2)) == pytest.approx(5.0)
    assert linalg.norm(np.diag([3.0, 1.0, 2.0]), NormSpec.spectral()) == pytest.approx(3.0)
    z = np.zeros((4, 4))
    for spec in (NormSpec.trace(), NormSpec.frobenius(), NormSpec.kyfan(3)):
        assert linalg.norm(z, spec) == 0.0


def test_norm_zero_iff_zero_matrix():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = random_complex(3, rng)
        if np.abs(a).max() > 0:
            assert linalg.norm(a, NormSpec.trace()) > 0.0


def test_kyfan_coincidences_and_frobenius_identity():
    rng = np.random.default_rng(12)
    for dim in (2, 3, 4):
        for _ in range(20):
            a = random_complex(dim, rng)
            trace_n = linalg.norm(a, NormSpec.trace())
            spectral_n = linalg.norm(a, NormSpec.spectral())
            assert abs(linalg.norm(a, NormSpec.kyfan(dim)) - trace_n) <= 1e-10
            assert abs(linalg.norm(a, NormSpec.kyfan(1)) - spectral_n) <= 1e-10
            fro = math.sqrt(float(np.sum(np.abs(a) ** 2)))
            assert abs(linalg.norm(a, NormSpec.frobenius()) - fro) <= 1e-10


def test_kyfan_order_beyond_dimension_rejected():
    with pytest.raises(InvalidNormSpec):
        linalg.norm(np.eye(2), NormSpec.kyfan(3))


def test_norm_axioms_and_unitary_invariance():
    rng = np.random.default_rng(13)
    specs = [
        NormSpec.trace(),
        NormSpec.frobenius(),
        NormSpec.spectral(),
        NormSpec.schatten(3.0),
        NormSpec.kyfan(2),
    ]
    for _ in range(25):
        a = random_complex(3, rng)
        b = random_complex(3, rng)
        z = complex(rng.standard_normal(), rng.standard_normal())
        q, _ = np.linalg.qr(random_complex(3, rng))
        for spec in specs:
            na, nb = linalg.norm(a, spec), linalg.norm(b, spec)
            assert linalg.norm(a + b, spec) <= na + nb + 1e-9
            assert abs(linalg.norm(z * a, spec) - abs(z) * na) <= 1e-9 * (1.0 + na)
            assert abs(linalg.norm(q @ a @ q.conj().T, spec) - na) <= 1e-9 * (1.0 + na)


def test_norm_matches_svd_oracle():
    rng = np.random.default_rng(14)
    specs = [
        NormSpec.trace(),
        NormSpec.frobenius(),
        NormSpec.spectral(),
        NormSpec.schatten(1.5),
        NormSpec.schatten(4.0),
        NormSpec.kyfan(1),
        NormSpec.kyfan(3),
    ]
    for _ in range(25):
        a = random_complex(4, rng)
        for spec in specs:
            assert linalg.norm(a, spec) == pytest.approx(svd_norm(a, spec), abs=1e-10)


def test_norm_from_singular_values_batched_matches_scalar():
    rng = np.random.default_rng(15)
    s = np.sort(rng.random((6, 4)), axis=1)[:, ::-1]
    for spec in (NormSpec.trace(), NormSpec.schatten(2.5), NormSpec.kyfan(2)):
        batch = linalg.norm_from_singular_values(s, spec)
        single = [linalg.norm_from_singular_values(row, spec) for row in s]
        assert np.abs(batch - np.array(single)).max() <= 1e-12
