"""States, channels, Bloch geometry, and random generation."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensq import states
from ensq.errors import (
    BlochOutOfBall,
    DimensionMismatch,
    InvalidState,
    ParamOutOfRange,
)
from ensq.states import (
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
from ensq.linalg import TOL, roundoff_tol


def test_density_matrix_accepts_valid_and_freezes():
    rho = DensityMatrix(np.eye(2) / 2.0)
    assert rho.dim == 2
    assert rho.purity() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 7.0


def test_density_matrix_rejects_bad_input():
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidState):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(InvalidState):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_density_stack_rejects_non_finite_entries(bad):
    for row, col in [(0, 0), (0, 1)]:
        m = np.eye(2, dtype=complex) / 2.0
        m[row, col] = bad
        with pytest.raises(InvalidState, match="non-finite"):
            states.validate_density_stack(np.stack([np.eye(2) / 2.0, m]))
        with pytest.raises(InvalidState, match="non-finite"):
            DensityMatrix(m)


def test_pure_state_and_bloch_vector_reject_nan():
    with pytest.raises(InvalidState):
        PureState(np.array([math.nan, 0.0]))
    with pytest.raises(BlochOutOfBall):
        BlochVector(math.nan, 0.0, 0.0)


def test_density_matrix_clamps_round_off_negatives():
    rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
    w = rho.eigenvalues()
    assert w[-1] >= 0.0
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_spectral_decomposition_recombines():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rho = random_density_matrix(4, int(rng.integers(1, 5)), rng)
        parts = rho.spectral_decomposition()
        assert math.fsum(w for w, _ in parts) == pytest.approx(1.0, abs=1e-12)
        mix = sum(w * s.matrix for w, s in parts)
        assert np.abs(mix - rho.matrix).max() <= 1e-12
        for _, s in parts:
            assert s.purity() == pytest.approx(1.0, abs=1e-9)


def test_pure_state_validation():
    PureState(np.array([1.0, 0.0]))
    with pytest.raises(InvalidState):
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(InvalidState):
        PureState(np.array([[1.0, 0.0]]))
    assert PureState.basis(3, 2).amplitudes[2] == 1.0
    with pytest.raises(ParamOutOfRange):
        PureState.basis(2, 5)


def test_bloch_vector_ball_constraint():
    BlochVector(0.6, 0.0, 0.8)
    BlochVector(0.0, 0.0, 1.0 + 5e-11)  # inside tolerance
    with pytest.raises(BlochOutOfBall):
        BlochVector(1.0, 1.0, 0.0)


def test_density_from_bloch_known_values():
    plus = density_from_bloch((1.0, 0.0, 0.0))
    assert np.allclose(plus.matrix, np.array([[0.5, 0.5], [0.5, 0.5]]))
    up = density_from_bloch(BlochVector(0.0, 0.0, 1.0))
    assert np.allclose(up.matrix, np.diag([1.0, 0.0]))
    center = density_from_bloch((0.0, 0.0, 0.0))
    assert np.allclose(center.matrix, np.eye(2) / 2.0)


def test_bloch_round_trip():
    rng = np.random.default_rng(32)
    for _ in range(1000):
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v) * rng.random()
        r = bloch_from_density(density_from_bloch(v))
        assert np.abs(r.as_array() - v).max() <= 1e-12
    y = bloch_from_density(DensityMatrix((np.eye(2) + 0.3 * states.PAULI_Y) / 2.0))
    assert np.allclose(y.as_array(), [0.0, 0.3, 0.0], atol=1e-12)


def test_bloch_requires_qubit():
    with pytest.raises(DimensionMismatch):
        bloch_from_density(DensityMatrix(np.eye(3) / 3.0))


def test_purity_corresponds_to_bloch_length():
    rng = np.random.default_rng(33)
    for _ in range(50):
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v) * rng.random()
        rho = density_from_bloch(v)
        want = (1.0 + float(v @ v)) / 2.0
        assert abs(rho.purity() - want) <= 1e-12
    pure = density_from_bloch((0.0, 1.0, 0.0))
    assert abs(pure.purity() - 1.0) <= 1e-9


def test_projector_is_rank_one_and_idempotent():
    rng = np.random.default_rng(34)
    for dim in (2, 3, 5):
        psi = random_pure_state(dim, rng)
        rho = projector(psi)
        assert np.abs(rho.matrix @ rho.matrix - rho.matrix).max() <= 1e-10
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_channel_completeness_enforced():
    with pytest.raises(InvalidState):
        QuantumChannel((np.eye(2) * 0.5,))
    # Non-finite and overflowing Kraus entries, with no numpy warning.
    for bad in (np.nan, np.inf, 1e200):
        with pytest.raises(InvalidState, match="completeness"):
            QuantumChannel((np.full((2, 2), bad),))
        with pytest.raises(InvalidState, match="completeness"):
            QuantumChannel((np.diag([bad, 1.0]),))
    with pytest.raises(InvalidState):
        QuantumChannel(())
    with pytest.raises(DimensionMismatch):
        QuantumChannel((np.eye(2), np.zeros((3, 3))))


def test_phase_damping_known_kraus():
    ch = phase_damping(0.5)
    assert np.allclose(ch.kraus[0], np.diag([1.0, math.sqrt(0.5)]))
    assert np.allclose(ch.kraus[1], np.diag([0.0, math.sqrt(0.5)]))
    with pytest.raises(ParamOutOfRange):
        phase_damping(-0.1)
    with pytest.raises(ParamOutOfRange):
        phase_damping(1.1)


def test_phase_damping_identity_at_zero():
    ch = phase_damping(0.0)
    rho = density_from_bloch((0.3, 0.4, 0.5))
    assert np.abs(apply_channel(ch, rho).matrix - rho.matrix).max() <= 1e-12


def test_phase_damping_shrinks_transversal_bloch_components():
    rng = np.random.default_rng(35)
    for _ in range(25):
        lam = rng.random()
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v) * rng.random()
        out = bloch_from_density(apply_channel(phase_damping(lam), density_from_bloch(v)))
        k = math.sqrt(1.0 - lam)
        assert np.abs(out.as_array() - [k * v[0], k * v[1], v[2]]).max() <= 1e-12


def test_apply_channel_dimension_check():
    with pytest.raises(DimensionMismatch):
        apply_channel(phase_damping(0.2), DensityMatrix(np.eye(3) / 3.0))


def test_overlap_values_and_conjugation_order():
    zero = PureState.basis(2, 0)
    plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert overlap(zero, plus) == pytest.approx(1.0 / math.sqrt(2.0))
    phased = PureState(np.array([1j, 0.0]))
    assert overlap(zero, phased) == pytest.approx(1j)
    assert overlap(phased, zero) == pytest.approx(-1j)
    with pytest.raises(DimensionMismatch):
        overlap(zero, PureState.basis(3, 0))


def test_schmidt_coefficients_known_and_invariant():
    psi = PureState(np.array([0.8, 0.0, 0.0, 0.6]))
    a, b = schmidt_coefficients(psi)
    assert (a, b) == pytest.approx((0.8, 0.6))
    product = PureState(np.array([1.0, 0.0, 0.0, 0.0]))
    assert schmidt_coefficients(product) == pytest.approx((1.0, 0.0))
    rng = np.random.default_rng(36)
    for _ in range(50):
        psi = random_pure_state(4, rng)
        u = random_unitary(2, rng)
        v = random_unitary(2, rng)
        rotated = PureState(np.kron(u, v) @ psi.amplitudes)
        assert np.abs(
            np.array(schmidt_coefficients(rotated)) - np.array(schmidt_coefficients(psi))
        ).max() <= 1e-10
    with pytest.raises(DimensionMismatch):
        schmidt_coefficients(PureState.basis(3, 0))


def test_schmidt_coefficients_of_near_product_states_keep_the_small_one():
    # cos(t)|00> + sin(t)|11> with sin(t) far below sqrt(eps), in random local
    # bases: the Gram route A^+ A loses the small coefficient entirely.
    rng = np.random.default_rng(37)
    t = 1e-9
    for _ in range(50):
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        psi = PureState(np.kron(u, v) @ np.array([math.cos(t), 0.0, 0.0, math.sin(t)]))
        a, b = schmidt_coefficients(psi)
        assert abs(a - math.cos(t)) <= 1e-15
        assert abs(b - math.sin(t)) <= 1e-15


def test_random_pure_state_is_seeded_and_normalized():
    a = random_pure_state(4, 123)
    b = random_pure_state(4, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_random_pure_state_mean_projector_approaches_maximally_mixed():
    rng = np.random.default_rng(37)
    n = 10000
    acc = np.zeros((2, 2), dtype=complex)
    for _ in range(n):
        psi = random_pure_state(2, rng)
        acc += np.outer(psi.amplitudes, psi.amplitudes.conj())
    dev = np.abs(acc / n - np.eye(2) / 2.0).max()
    assert dev <= 5.0 / math.sqrt(n)


def test_random_density_matrix_rank_and_validity():
    rng = np.random.default_rng(38)
    for dim, rank in [(2, 1), (3, 2), (4, 4)]:
        rho = random_density_matrix(dim, rank, rng)
        w = rho.eigenvalues()
        assert np.sum(w > 1e-10) == rank
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParamOutOfRange):
        random_density_matrix(2, 3, rng)
    with pytest.raises(ParamOutOfRange):
        random_density_matrix(2, 0, rng)


def test_random_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(39)
    for dim in (2, 3, 5):
        u = random_unitary(dim, rng)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12
    assert np.array_equal(random_unitary(3, 5), random_unitary(3, 5))


def test_stack_forms_match_scalar_constructors_bit_for_bit():
    rng = np.random.default_rng(17)
    r = rng.standard_normal((6, 3))
    r *= (rng.random(6) / np.linalg.norm(r, axis=1))[:, None]
    r[0] = [0.0, 0.0, 1.0]
    stack = states.density_from_bloch_stack(r.reshape(2, 3, 3))
    assert stack.shape == (2, 3, 2, 2)
    for k, rho in enumerate(stack.reshape(6, 2, 2)):
        assert rho.tobytes() == density_from_bloch(r[k]).matrix.tobytes()
    amps = [random_pure_state(3, rng).amplitudes for _ in range(5)]
    stack = states.projector_stack(amps)
    for a, rho in zip(amps, stack):
        assert rho.tobytes() == projector(PureState(a)).matrix.tobytes()
    channel = phase_damping(0.3)
    qubits = states.density_from_bloch_stack(r)
    damped = states.apply_channel_stack(channel, qubits)
    for rho, out in zip(qubits, damped):
        got = apply_channel(channel, DensityMatrix(rho)).matrix
        assert out.tobytes() == got.tobytes()


def test_stack_forms_reject_bad_vectors():
    with pytest.raises(BlochOutOfBall):
        states.density_from_bloch_stack([[0.0, 0.0, 0.5], [0.0, 0.8, 0.8]])
    with pytest.raises(BlochOutOfBall):
        states.density_from_bloch_stack([[0.0, math.nan, 0.0]])
    with pytest.raises(DimensionMismatch):
        states.density_from_bloch_stack([[0.0, 0.0, 0.5, 0.5]])
    with pytest.raises(DimensionMismatch):
        states.density_from_bloch((0.0, 0.5))
    with pytest.raises(InvalidState):
        states.projector_stack([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(InvalidState):
        states.projector_stack([[math.nan, 0.0]])
    with pytest.raises(DimensionMismatch):
        states.apply_channel_stack(phase_damping(0.5), np.eye(3)[None] / 3.0)


def test_infinite_amplitude_is_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([1.0, -math.inf], [math.inf, 1j * math.inf], [math.nan, 0.0]):
            with pytest.raises(InvalidState, match="amplitude vector has norm"):
                states.projector_stack([[1.0, 0.0], bad])


def test_huge_amplitudes_and_bloch_vectors_are_rejected_without_a_warning():
    # Squaring 1e200 overflows: the scalar and stack checks share one rule,
    # which silences that and rejects the infinite length.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (PureState, lambda a: states.projector_stack([a])):
            with pytest.raises(InvalidState, match="amplitude vector has norm inf"):
                check([1e200, 1e200])
        for check in (lambda r: BlochVector(*r), lambda r: states.density_from_bloch_stack([r])):
            with pytest.raises(BlochOutOfBall, match="length inf exceeds 1"):
                check([1e200, 1e200, 0.0])


def spectral_state(rng, dim, lowest=None, roundoffs=None):
    """U diag(w) U^+ with Haar U, unit-trace w in [0.5, 1.5] / dim and w[0] = lowest,
    or w[0] = ``roundoffs`` times the spectrum's ``roundoff_tol``."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(z)
    w = rng.random(dim) + 0.5
    w /= w.sum()
    if roundoffs is not None:
        # With w[0] = 0 the spectrum is the final one to within round-off.
        w[0] = 0.0
        w /= w.sum()
        lowest = roundoffs * roundoff_tol(w)
    if lowest is not None:
        w[0] = lowest
        w[1:] *= (1.0 - lowest) / w[1:].sum()
    return (u * w) @ u.conj().T


# One defect per case, 0.1 % either side of its bound; "clamped" puts the
# lowest eigenvalue in [-TOL, 0) (or just above 0), far outside round-off.
# "round-off" puts it at a quarter or four times -rho (``roundoff_tol``):
# kept as given, or clamped.  Not at 0.1 % of rho, where eigh and eigvalsh
# may disagree, since they differ by round-off.
EDGE = [0.999, 1.001]
DEFECTS = {
    "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "hermiticity": st.sampled_from(EDGE),
    "trace": st.sampled_from([-1.001, -0.999, 0.999, 1.001]),
    "lowest": st.sampled_from(EDGE),
    "clamped": st.one_of(st.floats(0.001, 0.999), st.just(-0.001)),
    "round-off": st.sampled_from([0.25, 4.0]),
}


@st.composite
def edge_stacks(draw):
    dim = draw(st.sampled_from([8, 9, 16]))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n - 1))
    case = draw(st.sampled_from(sorted(DEFECTS)))
    x = draw(DEFECTS[case])
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([spectral_state(rng, dim) for _ in range(n)])
    if case == "non-finite":
        stack[k, i, j] = complex(x, 0.0) if draw(st.booleans()) else complex(0.0, x)
    elif case == "hermiticity":
        stack[k, i, (i + 1 + j % (dim - 1)) % dim] += TOL * x
    elif case == "trace":
        stack[k, i, i] += TOL * x
    elif case == "round-off":
        stack[k] = spectral_state(rng, dim, roundoffs=-x)
    else:
        stack[k] = spectral_state(rng, dim, lowest=-TOL * x)
    # The rows that an accepting validator must clamp; it stores the others as given.
    clamped = np.zeros(n, dtype=bool)
    clamped[k] = case in ("lowest", "clamped") and x > 0.0 or case == "round-off" and x == 4.0
    return stack, clamped


def round_off_case(roundoffs):
    """A d = 16 stack of one state with lambda_min at ``roundoffs`` times rho."""
    stack = spectral_state(np.random.default_rng(99), 16, roundoffs=-roundoffs)[None]
    return stack, np.array([roundoffs > 1.0])


def outcome(validate, stack):
    try:
        return validate(stack), None
    except InvalidState as exc:
        return None, str(exc)


# Both sides of -rho on every run: hypothesis may draw only one of them.
@settings(max_examples=150, deadline=None)
@given(edge_stacks())
@example(round_off_case(0.25))
@example(round_off_case(4.0))
def test_eigh_validation_accepts_and_rejects_as_validate_density_stack(case):
    stack, clamped = case
    want, want_error = outcome(states.validate_density_stack, stack)
    got, got_error = outcome(states._validate_density_eigh, stack)
    assert got_error == want_error
    if want is None:
        return
    m, w, v = got
    assert not m.flags.writeable
    assert m.tobytes() == want.tobytes()
    # (w, v) are eigenpairs of the stored matrices (of their lower triangle,
    # which is all that eigh reads), clamped ones included.
    defect = np.abs(m - np.swapaxes(m.conj(), -1, -2)).max()
    assert np.abs((v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2) - m).max() <= 1e-14 + defect
    assert w[clamped].min(initial=0.0) >= 0.0
    assert all(a.tobytes() != b.tobytes() for a, b in zip(m[clamped], stack[clamped]))
    assert m[~clamped].tobytes() == stack[~clamped].tobytes()


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_projectors_validate_without_a_clamp_eigh(dim, monkeypatch):
    rng = np.random.default_rng([98, dim])
    z = rng.standard_normal((20, dim)) + 1j * rng.standard_normal((20, dim))
    amplitudes = z / np.linalg.norm(z, axis=1, keepdims=True)
    raw = states._outer(amplitudes)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    # Their zero eigenvalues come out within round-off of zero, many of them
    # negative; such matrices are stored as given, with no eigh.
    assert (eigh(raw)[0][:, 0] < 0.0).any()
    assert states.projector_stack(amplitudes).tobytes() == raw.tobytes()
    assert calls == []
    # An eigenvalue of -1e-12 is far below round-off: that member is clamped.
    negative = spectral_state(rng, dim, lowest=-1e-12)
    got = states.validate_density_stack(np.concatenate([raw, negative[None]]))
    assert calls == [(1, dim, dim)]
    assert got[:-1].tobytes() == raw.tobytes()
    assert np.linalg.eigvalsh(got[-1])[0] > -1e-15


@st.composite
def unit_vector_stacks(draw):
    """Unit vectors ``(n, d)``: eigenvectors of Ginibre states, or adversarial
    ones (one dominant entry over tiny ones, or entries of equal modulus)."""
    d = draw(st.sampled_from([2, 3, 4, 8, 16, 64]))
    kind = draw(st.sampled_from(["ginibre", "dominant", "equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 4
    if kind == "ginibre":
        rank = draw(st.integers(1, d))
        rho = states.ginibre_states(rng.standard_normal((2, 2, d, rank)))
        return np.swapaxes(np.linalg.eigh(rho)[1], -1, -2).reshape(-1, d)
    if kind == "dominant":
        lo = draw(st.floats(-154.0, -8.0))
        hi = draw(st.floats(lo, -8.0))
        mag = 10.0 ** rng.uniform(lo, hi, (n, d))
        mag[np.arange(n), rng.integers(d, size=n)] = 1.0
    else:
        mag = np.ones((n, d))
    if draw(st.booleans()):
        phase = np.exp(2j * np.pi * rng.random((n, d)))
    else:
        phase = rng.choice([1.0, -1.0], (n, d))
    v = mag * phase
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(unit_vector_stacks())
@example(np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1j]]) / math.sqrt(2.0))
@example(np.array([[1.0, 1e-154, 1e-8, 1e-100]]))
def test_projectors_by_construction_equal_validate_density_stack_bit_for_bit(vectors):
    # No eigenvalue check runs, yet the eigenvalue check could neither have
    # rejected nor clamped any of these: both outer products come out as
    # validate_density_stack stores them.
    for outer in (states._ket_bra, states._outer):
        got = states._projectors(vectors, outer)
        assert not got.flags.writeable
        assert got.tobytes() == states.validate_density_stack(outer(vectors)).tobytes()
    assert states.projector_stack(vectors).tobytes() == states._projectors(
        vectors.astype(complex), states._outer
    ).tobytes()


@pytest.mark.parametrize(
    "bad,norm",
    [
        ([math.nan, 0.0], "nan"),
        ([1.0, math.inf], "inf"),
        ([-math.inf, 0.0], "inf"),
        ([math.inf, 1j * math.inf], "nan"),  # 1j * inf is nan + inf j
        ([1.0, 1.0], "1.41421356237"),
        ([1.0 + 2e-10, 0.0], "1.0000000002"),
    ],
)
def test_projectors_reject_bad_vectors_with_the_amplitude_message(bad, norm):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for outer in (states._ket_bra, states._outer):
            with pytest.raises(InvalidState) as exc:
                states._projectors(np.array([[1.0, 0.0], bad]), outer)
            assert str(exc.value) == f"amplitude vector has norm {norm}, expected 1"


def test_projectors_keep_the_trace_check_of_the_validator():
    # A norm within TOL of 1 can still give |v><v| a trace more than TOL off.
    v = np.array([[1.0 + 0.9e-10, 0.0]])
    want = "density matrix trace 1.00000000018+0j is not 1"
    with pytest.raises(InvalidState, match=re.escape(want)):
        states.validate_density_stack(states._ket_bra(v))
    with pytest.raises(InvalidState, match=re.escape(want)):
        states._projectors(v, states._ket_bra)


def test_eigenprojectors_of_validated_eigenpairs_run_no_eigensolve(monkeypatch):
    rng = np.random.default_rng(99)
    raw = states._ginibre(rng.standard_normal((5, 3, 2, 4, 2)))
    validated, w, v = states._validate_density_eigh(raw)
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    got = states._eigenprojectors(validated, (w, v))
    assert calls == []
    want = states._eigenprojectors(validated)
    assert calls == ["eigh"]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 64])
def test_projector_is_projector_stack_bit_for_bit_without_an_eigensolve(dim, monkeypatch):
    rng = np.random.default_rng([100, dim])
    z = rng.standard_normal((10, dim)) + 1j * rng.standard_normal((10, dim))
    vectors = [*(z / np.linalg.norm(z, axis=1, keepdims=True)), np.eye(dim)[dim - 1]]
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    got = [projector(PureState(a)) for a in vectors]
    assert calls == []
    for a, rho in zip(vectors, got):
        assert isinstance(rho, DensityMatrix) and not rho.matrix.flags.writeable
        assert rho.matrix.tobytes() == states.projector_stack(a[None])[0].tobytes()
        # What the DensityMatrix validator would have stored.
        assert rho.matrix.tobytes() == DensityMatrix(rho.matrix).matrix.tobytes()
