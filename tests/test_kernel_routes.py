"""The pair kernel's two routes: low-rank (4 (r_i + r_j) <= d) and dense.

Every value is checked against oracles that share no code with the
kernel: the naive ordered-pair sum over SVD norms and the two-pure-state
closed form 2 sqrt(p_1 p_2) ||[P, Q]|| with singular values c sqrt(1 - c^2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensq import ensemble, linalg
from ensq.ensemble import (
    Ensemble,
    _low_rank_factors,
    _pair_singular_values,
    is_classical,
    is_classical_batch,
    quantumness,
    quantumness_batch,
)
from ensq.errors import InvalidNormSpec
from ensq.linalg import NormSpec

from _oracles import naive_quantumness

# The five norms of the benchmark's property grid.
NORMS = [
    NormSpec.trace(),
    NormSpec.frobenius(),
    NormSpec.schatten(3.0),
    NormSpec.spectral(),
    NormSpec.kyfan(1),
]


def unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def low_rank_state(dim, rank, rng, eps=1.0):
    """(1 - eps) I/d + eps G G^+/tr with G a d x rank complex Gaussian."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return (1.0 - eps) * np.eye(dim) / dim + eps * m / np.trace(m).real


def random_probs(members, rng):
    p = rng.random(members) + 0.5
    return p / p.sum()


def check_against_oracle(members):
    e = Ensemble(tuple(members))
    raw = [(p, np.array(s.matrix)) for p, s in e]
    for spec in NORMS:
        want = naive_quantumness(raw, spec)
        assert quantumness(e, spec) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_member_ranks_and_route_gate():
    rng = np.random.default_rng(80)
    d = 16
    stack = np.stack(
        [
            low_rank_state(d, 1, rng),
            low_rank_state(d, 2, rng),
            low_rank_state(d, 1, rng, eps=0.5),
            np.eye(d) / d,
            low_rank_state(d, d, rng),
        ]
    )
    ranks, _, _ = _low_rank_factors(stack, np.ones(len(stack), dtype=bool))
    assert ranks.tolist() == [1, 2, 1, 0, d - 1]
    small = np.stack([low_rank_state(4, 1, rng), np.eye(4) / 4])
    assert _low_rank_factors(small, np.ones(2, dtype=bool)) is None


@pytest.mark.parametrize(
    "dim, ranks",
    [(16, [1, 1, 1, 1]), (16, [2, 2, 2]), (32, [1, 2, 3, 8, 1]), (16, [1, 2, 3, 16])],
    ids=["rank-1", "rank-2", "mixed-rank", "mixed-with-dense"],
)
def test_low_rank_members_match_naive_oracle(dim, ranks):
    rng = np.random.default_rng(81)
    probs = random_probs(len(ranks), rng)
    check_against_oracle([(p, low_rank_state(dim, r, rng)) for p, r in zip(probs, ranks)])


def test_depolarized_and_maximally_mixed_members_match_naive_oracle():
    rng = np.random.default_rng(82)
    d = 16
    members = [
        low_rank_state(d, 1, rng, eps=0.5),
        low_rank_state(d, 1, rng, eps=0.25),
        low_rank_state(d, 2, rng, eps=0.75),
        np.eye(d) / d,
        low_rank_state(d, 1, rng),
    ]
    check_against_oracle(list(zip(random_probs(len(members), rng), members)))
    # A rank-0 member contributes exactly nothing, whatever its partner: here
    # I/d rotated by a unitary, whose round-off would leave a dense
    # commutator of order 1e-17.
    u = unitary(d, rng)
    mixed = u @ (np.eye(d) / d) @ u.conj().T
    for partner in (low_rank_state(d, 1, rng), low_rank_state(d, d, rng)):
        e = Ensemble(((0.5, mixed), (0.5, partner)))
        for spec in NORMS:
            assert quantumness(e, spec) == 0.0


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_near_parallel_pure_states_match_closed_form(dim):
    # 1 - c = 1e-12: the closed form's sqrt(1 - c^2) is taken from the exact
    # 1 - c, and the kernel sees only the two projectors.
    c = 1.0 - 1e-12
    s = c * math.sqrt((1.0 - c) * (1.0 + c))
    psi = np.zeros(dim)
    psi[0] = 1.0
    phi = np.zeros(dim)
    phi[:2] = c, math.sqrt((1.0 - c) * (1.0 + c))
    p1, p2 = 0.3, 0.7
    e = Ensemble(((p1, np.outer(psi, psi)), (p2, np.outer(phi, phi))))
    # Both nonzero singular values equal s.
    norms = [2.0 * s, math.sqrt(2.0) * s, 2.0 ** (1.0 / 3.0) * s, s, s]
    for spec, norm in zip(NORMS, norms):
        want = 2.0 * math.sqrt(p1 * p2) * norm
        assert quantumness(e, spec) == pytest.approx(want, rel=1e-12, abs=0.0)
    # In a rotated basis the input itself carries round-off; both routes
    # then agree with the oracle to the size of that round-off.
    u = unitary(dim, np.random.default_rng(83))
    a, b = u @ psi, u @ phi
    rotated = [(p1, np.outer(a, a.conj())), (p2, np.outer(b, b.conj()))]
    for spec in NORMS:
        got = quantumness(Ensemble(tuple(rotated)), spec)
        assert got == pytest.approx(naive_quantumness(rotated, spec), rel=1e-8, abs=1e-14)


def test_commuting_low_rank_states_are_classical():
    rng = np.random.default_rng(84)
    d = 16
    u = unitary(d, rng)
    diagonals = [np.eye(d)[0], np.eye(d)[1], (np.eye(d)[2] + np.eye(d)[3]) / 2.0,
                 0.5 * np.eye(d)[4] + 0.5 / d, np.full(d, 1.0 / d)]
    members = [u @ np.diag(w) @ u.conj().T for w in diagonals]
    e = Ensemble(tuple(zip(random_probs(len(members), rng), members)))
    for spec in NORMS:
        assert quantumness(e, spec) <= 1e-12
    assert is_classical(e)


def test_kyfan_order_beyond_rank_and_beyond_dimension():
    rng = np.random.default_rng(85)
    d = 16
    e = Ensemble(((0.5, low_rank_state(d, 1, rng)), (0.5, low_rank_state(d, 1, rng))))
    # A rank-1 pair has two nonzero singular values, so kyfan:k >= 2 is the trace norm.
    trace = quantumness(e, NormSpec.trace())
    for k in (2, 3, d):
        assert quantumness(e, NormSpec.kyfan(k)) == pytest.approx(trace, rel=1e-15)
    with pytest.raises(InvalidNormSpec):
        quantumness(e, NormSpec.kyfan(d + 1))


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_kernel_pair_norm_equals_linalg_norm_bit_for_bit(dim):
    # Weights 1/2, 1/2 give the pair weight 2 sqrt(1/4) = 1 exactly; the
    # full-rank members keep the d = 16 pair on the dense route.
    rng = np.random.default_rng(86)
    spec = NormSpec.schatten(2.5)
    for _ in range(20):
        a, b = low_rank_state(dim, dim, rng), low_rank_state(dim, dim, rng)
        e = Ensemble(((0.5, a), (0.5, b)))
        x, y = e.state_stack
        assert quantumness(e, spec) == linalg.norm(x @ y - y @ x, spec)


def test_pair_blocks_leave_values_unchanged(monkeypatch):
    rng = np.random.default_rng(87)
    cases = []
    for dim, ranks in [(4, [1, 2, 4, 3]), (16, [1, 1, 2, 16, 0])]:
        probs, states = [], []
        for _ in range(6):
            probs.append(random_probs(len(ranks), rng))
            states.append([low_rank_state(dim, r, rng) if r else np.eye(dim) / dim for r in ranks])
        cases.append((np.array(probs), np.array(states)))

    def evaluate():
        return [
            ([quantumness_batch(p, s, spec).tolist() for spec in NORMS],
             is_classical_batch(p, s).tolist())
            for p, s in cases
        ]

    want = evaluate()
    # Five 4 x 4 commutators a block, and one 16 x 16 commutator.
    monkeypatch.setattr(ensemble, "BLOCK_BYTES", 5 * 16 * 4 * 4)
    assert evaluate() == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.integers(8, 24),
    data=st.data(),
    eps=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_low_rank_route_agrees_with_dense_route(dim, data, eps, seed):
    # Ranks with 4 (r_a + r_b) <= dim, shifts (1 - eps)/dim.
    r_a = data.draw(st.integers(1, dim // 4 - 1))
    r_b = data.draw(st.integers(1, dim // 4 - r_a))
    rng = np.random.default_rng(seed)
    stack = np.stack(
        [low_rank_state(dim, r_a, rng, eps[0]), low_rank_state(dim, r_b, rng, eps[1])]
    )
    factors = _low_rank_factors(stack, np.ones(2, dtype=bool))
    assert factors[0].tolist() == [r_a, r_b]
    i, j = np.array([0]), np.array([1])
    low = _pair_singular_values(stack, i, j, factors)[0]
    dense = _pair_singular_values(stack, i, j, None)[0]
    assert np.abs(low - dense).max() <= 1e-12 * dense[0]
