"""Closed forms, coherence and concurrence links, classical-quantum states."""

import math

import numpy as np
import pytest

from ensq.ensemble import Ensemble, quantumness
from ensq.errors import (
    DimensionMismatch,
    NonRealAmplitudes,
    NotUnitary,
    ParamOutOfRange,
    WeightSumInvalid,
)
from ensq.linalg import NormSpec
from ensq.measures import (
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
from ensq.states import (
    DensityMatrix,
    PureState,
    projector,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)


def test_pure_pair_quantumness_known_values():
    assert pure_pair_quantumness(0.5, 0.5, 0.0) == 0.0
    assert pure_pair_quantumness(0.5, 0.5, 1.0) == 0.0
    assert pure_pair_quantumness(0.5, 0.5, 1.0 / math.sqrt(2.0)) == pytest.approx(1.0)
    assert pure_pair_quantumness(0.5, 0.5, 0.6) == pytest.approx(0.96)
    assert pure_pair_quantumness(0.9, 0.1, 0.6) == pytest.approx(
        4.0 * 0.6 * math.sqrt(0.09) * 0.8
    )


def test_pure_pair_quantumness_validation():
    with pytest.raises(ParamOutOfRange):
        pure_pair_quantumness(0.7, 0.7, 0.5)
    with pytest.raises(ParamOutOfRange):
        pure_pair_quantumness(-0.1, 1.1, 0.5)
    with pytest.raises(ParamOutOfRange):
        pure_pair_quantumness(0.5, 0.5, 1.5)
    for bad in [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan),
                (math.inf, 0.5, 0.5)]:
        with pytest.raises(ParamOutOfRange):
            pure_pair_quantumness(*bad)
    # float slop just outside [0, 1] is accepted and clamped
    assert pure_pair_quantumness(0.5, 0.5, 1.0 + 1e-14) == 0.0


def test_pure_pair_matches_matrix_pipeline_and_ignores_phase():
    rng = np.random.default_rng(61)
    spec = NormSpec.trace()
    for dim in (2, 3, 4):
        for _ in range(25):
            c = rng.random()
            theta = rng.random() * 2.0 * math.pi
            psi = PureState.basis(dim, 0)
            amps = np.zeros(dim, dtype=complex)
            amps[0] = c * np.exp(1j * theta)
            amps[1] = math.sqrt(1.0 - c * c)
            phi = PureState(amps)
            p1 = rng.random()
            e = Ensemble(((p1, projector(psi)), (1.0 - p1, projector(phi))))
            want = pure_pair_quantumness(p1, 1.0 - p1, c)
            assert quantumness(e, spec) == pytest.approx(want, abs=1e-10)


def test_pure_pair_peak_at_inverse_sqrt2():
    grid = np.linspace(0.0, 1.0, 2001)
    vals = [pure_pair_quantumness(0.5, 0.5, c) for c in grid]
    best = grid[int(np.argmax(vals))]
    assert abs(best - 1.0 / math.sqrt(2.0)) <= 5e-4
    assert max(vals) <= 1.0 + 1e-12


def test_coherence_l1_known_values_and_validation():
    assert coherence_l1_pure_qubit(PureState(np.array([1.0, 0.0]))) == 0.0
    assert coherence_l1_pure_qubit(plus_state()) == pytest.approx(1.0)
    assert coherence_l1_pure_qubit(PureState(np.array([0.8, 0.6]))) == pytest.approx(0.96)
    assert coherence_l1_pure_qubit(PureState(np.array([0.8, -0.6]))) == pytest.approx(0.96)
    with pytest.raises(NonRealAmplitudes):
        coherence_l1_pure_qubit(PureState(np.array([0.8, 0.6j])))
    with pytest.raises(DimensionMismatch):
        coherence_l1_pure_qubit(PureState.basis(3, 0))


def test_quantumness_coherence_relation_known_case():
    m, c = quantumness_coherence_relation(PureState(np.array([0.8, 0.6])))
    assert c == pytest.approx(0.96)
    assert m == pytest.approx(0.28, abs=1e-12)  # |0.64 - 0.36|
    assert m == pytest.approx(math.sqrt(1.0 - c * c), abs=1e-12)


def test_quantumness_coherence_relation_random_real_states():
    rng = np.random.default_rng(62)
    for _ in range(100):
        t = rng.random() * 2.0 * math.pi
        psi = PureState(np.array([math.cos(t), math.sin(t)]))
        m, c = quantumness_coherence_relation(psi)
        assert m == pytest.approx(math.sqrt(max(1.0 - c * c, 0.0)), abs=1e-9)
        alpha, beta = psi.amplitudes.real
        assert m == pytest.approx(abs(alpha * alpha - beta * beta), abs=1e-9)


def test_concurrence_known_values():
    assert concurrence_pure_two_qubit(bell_phi_plus()) == pytest.approx(1.0)
    assert concurrence_pure_two_qubit(PureState.basis(4, 0)) == 0.0
    psi = PureState(np.array([0.8, 0.0, 0.0, 0.6]))
    assert concurrence_pure_two_qubit(psi) == pytest.approx(0.96)


def test_quantumness_concurrence_relation_schmidt_states():
    rng = np.random.default_rng(63)
    for _ in range(100):
        t = rng.random() * (math.pi / 2.0)
        alpha, beta = math.cos(t), math.sin(t)
        psi = PureState(np.array([alpha, 0.0, 0.0, beta]))
        m, c = quantumness_concurrence_relation(psi)
        assert c == pytest.approx(2.0 * alpha * beta, abs=1e-12)
        assert m == pytest.approx(math.sqrt(max(1.0 - c * c, 0.0)), abs=1e-9)


def test_cq_state_validation_and_matrix_layout():
    blocks = (DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.eye(2) / 2.0))
    s = ClassicalQuantumState((0.25, 0.75), blocks)
    m = s.matrix()
    assert m.shape == (4, 4)
    assert np.allclose(m[:2, :2], 0.25 * np.diag([1.0, 0.0]))
    assert np.allclose(m[2:, 2:], 0.75 * np.eye(2) / 2.0)
    assert np.allclose(m[:2, 2:], 0.0)
    assert np.trace(m).real == pytest.approx(1.0)
    with pytest.raises(WeightSumInvalid):
        ClassicalQuantumState((0.5, 0.2), blocks)
    with pytest.raises(ParamOutOfRange):
        ClassicalQuantumState((1.5, -0.5), blocks)
    for bad in [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.0)]:
        with pytest.raises(ParamOutOfRange):
            ClassicalQuantumState(bad, blocks)
    with pytest.raises(DimensionMismatch):
        ClassicalQuantumState((0.5, 0.5), (blocks[0], DensityMatrix(np.eye(3) / 3.0)))


def test_cq_quantumness_zero_iff_commuting_blocks():
    commuting = ClassicalQuantumState(
        (0.5, 0.5),
        (DensityMatrix(np.diag([0.7, 0.3])), DensityMatrix(np.diag([0.2, 0.8]))),
    )
    assert cq_quantumness(commuting, NormSpec.trace()) == 0.0
    zero_plus = ClassicalQuantumState(
        (0.5, 0.5), (projector(PureState.basis(2, 0)), projector(plus_state()))
    )
    assert cq_quantumness(zero_plus, NormSpec.trace()) == pytest.approx(1.0, abs=1e-12)


def test_cq_local_unitary_invariance():
    rng = np.random.default_rng(64)
    for _ in range(50):
        probs = rng.random(3)
        probs = probs / probs.sum()
        blocks = tuple(random_density_matrix(2, int(rng.integers(1, 3)), rng) for _ in range(3))
        s = ClassicalQuantumState(tuple(probs), blocks)
        u = random_unitary(2, rng)
        d0 = cq_quantumness(s, NormSpec.trace())
        d1 = cq_quantumness(cq_local_unitary(s, u), NormSpec.trace())
        assert abs(d1 - d0) <= 1e-9
    with pytest.raises(NotUnitary):
        cq_local_unitary(s, np.eye(2) * 2.0)
    with pytest.raises(DimensionMismatch):
        cq_local_unitary(s, np.eye(3))


def test_cq_ancilla_monotone_and_special_cases():
    rng = np.random.default_rng(65)
    spec = NormSpec.trace()
    for _ in range(50):
        probs = rng.random(2)
        probs = probs / probs.sum()
        blocks = tuple(random_density_matrix(2, int(rng.integers(1, 3)), rng) for _ in range(2))
        s = ClassicalQuantumState(tuple(probs), blocks)
        d0 = cq_quantumness(s, spec)
        sigma = random_density_matrix(2, int(rng.integers(1, 3)), rng)
        d1 = cq_quantumness(cq_append_ancilla(s, sigma), spec)
        assert d1 <= d0 + 1e-9
        # trace norm is multiplicative over tensor factors: D scales by purity
        assert d1 == pytest.approx(d0 * sigma.purity(), abs=1e-9)
    pure_anc = projector(random_pure_state(2, rng))
    assert cq_quantumness(cq_append_ancilla(s, pure_anc), spec) == pytest.approx(
        d0, abs=1e-9
    )
    mixed_anc = DensityMatrix(np.eye(2) / 2.0)
    assert cq_quantumness(cq_append_ancilla(s, mixed_anc), spec) == pytest.approx(
        d0 / 2.0, abs=1e-9
    )
