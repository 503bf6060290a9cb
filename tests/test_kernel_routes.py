"""The pair kernel's routes: rank 0, rank 1, low-rank and dense.

A pair with a rank-0 member is zero.  A pair with a rank-1 member takes
the rank-1 route, a projection with no eigensolve, at any overlap.  Ranks
r_i, r_j >= 2 with 4 (r_i + r_j) <= d take the low-rank route, and every
other pair the dense one.  Members carry factors at d >= 8, or wherever a
source hands them over (the loader and the property harness, at every d).
Every value is checked against oracles that share no code with the
kernel: the naive ordered-pair sum over SVD norms and the two-pure-state
closed form 2 sqrt(p_1 p_2) ||[P, Q]|| with singular values
c sqrt(1 - c^2).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensq import ensemble, linalg
from ensq.ensemble import (
    Ensemble,
    Factors,
    _commutators,
    _low_rank_factors,
    _pair_singular_values,
    is_classical,
    is_classical_batch,
    quantumness,
    quantumness_batch,
)
from ensq.errors import InvalidNormSpec
from ensq.linalg import NormSpec
from ensq.states import validate_density_stack

from _oracles import analytic_pair_singular_values, naive_quantumness

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
    ranks = _low_rank_factors(stack, np.ones(len(stack), dtype=bool)).ranks
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
@pytest.mark.parametrize("spec", [NormSpec.schatten(2.5), NormSpec.frobenius()], ids=NormSpec.label)
def test_kernel_pair_norm_equals_linalg_norm_bit_for_bit(dim, spec):
    # Weights 1/2, 1/2 give the pair weight 2 sqrt(1/4) = 1 exactly; the
    # full-rank members keep the d = 16 pair on the dense route, which builds
    # [A, B] as X - X^+ with X = A B.
    rng = np.random.default_rng(86)
    for _ in range(20):
        a, b = low_rank_state(dim, dim, rng), low_rank_state(dim, dim, rng)
        e = Ensemble(((0.5, a), (0.5, b)))
        x = e.state_stack[0] @ e.state_stack[1]
        assert quantumness(e, spec) == linalg.norm(x - x.conj().T, spec)


@pytest.mark.parametrize("dim", [2, 3, 4, 9, 16])
def test_dense_commutators_are_exactly_antihermitian(dim):
    # C = X - X^+ from one product X = A B: C + C^+ is zero bit for bit, and
    # C is [A, B] to round-off.
    rng = np.random.default_rng(88)
    ranks = rng.integers(1, dim + 1, size=12)
    stack = validate_density_stack([low_rank_state(dim, int(r), rng) for r in ranks])
    i, j = np.triu_indices(len(stack), 1)
    ((_, c),) = _commutators(stack, i, j)
    assert c.shape == (len(i), dim, dim)
    assert not (c + np.swapaxes(c.conj(), -1, -2)).any()
    a, b = stack[i], stack[j]
    assert np.abs(c - (a @ b - b @ a)).max() <= 4 * dim * np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 3, 4, 8, 16]), seed=st.integers(0, 2**32 - 1))
def test_entrywise_frobenius_agrees_with_the_singular_values(dim, seed):
    # The dense route's Frobenius norm, read from the entries with no
    # eigensolve, against sqrt(sum s^2) of the eigenvalue route.
    rng = np.random.default_rng(seed)
    stack = validate_density_stack([low_rank_state(dim, dim, rng) for _ in range(2)])
    ((_, c),) = _commutators(stack, np.array([0]), np.array([1]))
    entries = linalg._antihermitian_norms(c, NormSpec.frobenius())[0]
    s = linalg.antihermitian_singular_values(c)[0]
    assert entries == pytest.approx(math.sqrt(math.fsum(s * s)), rel=16 * np.finfo(float).eps)
    assert linalg.norm(c[0], NormSpec.frobenius()) == entries


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
    assert factors.ranks.tolist() == [r_a, r_b]
    i, j = np.array([0]), np.array([1])
    low = _pair_singular_values(stack, i, j, factors)[0]
    dense = _pair_singular_values(stack, i, j, None)[0]
    assert np.abs(low - dense).max() <= 1e-12 * dense[0]


def overlap_pair(dim, c, eps, rng, rotate):
    """Two rank-1 members (1 - eps) I/d + eps P with |<psi|phi>| = c.

    phi = c psi + sqrt((1 - c)(1 + c)) psi_perp, with phases.  Unrotated,
    psi and psi_perp sit on two distinct coordinates, so they are exactly
    orthogonal and c holds to round-off even next to c = 1; rotated, they
    are two columns of a random unitary.
    """
    if rotate:
        u = unitary(dim, rng)
        psi, perp = u[:, 0], u[:, 1]
    else:
        k, l = rng.choice(dim, size=2, replace=False)
        psi, perp = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex)
        psi[k], perp[l] = np.exp(2j * np.pi * rng.random(2))
    phi = c * psi + math.sqrt((1.0 - c) * (1.0 + c)) * perp
    stack = np.stack(
        [(1.0 - e) * np.eye(dim) / dim + e * np.outer(v, v.conj()) for e, v in zip(eps, (psi, phi))]
    )
    return stack, np.stack([psi, phi])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([2, 3, 4, 8, 16]),
    c=st.one_of(
        st.floats(0.0, 1e-6),  # near-orthogonal
        st.floats(0.0, 0.7),  # |c|^2 up to 0.49
        st.floats(0.71, 1.0),  # |c|^2 from 0.5041
        st.integers(4, 14).map(lambda k: 1.0 - 10.0**-k),  # near-parallel
    ),
    eps=st.tuples(st.sampled_from([1.0, 0.75]), st.floats(0.05, 1.0)),
    rotate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=2, c=1.0 - 1e-12, eps=(1.0, 1.0), rotate=False, seed=1)
@example(dim=16, c=1.0 - 1e-12, eps=(0.75, 0.5), rotate=False, seed=2)
@example(dim=3, c=math.sqrt(0.5), eps=(0.75, 0.5), rotate=True, seed=3)
def test_rank_one_pairs_match_the_closed_form_at_any_overlap(dim, c, eps, rotate, seed):
    # Shifted members ((1 - eps) I/d + eps P) have mu != 0 and lambda = eps.
    # Their factors are handed over at every d, as the harness hands over
    # those of its eigenprojectors, and the pair takes the rank-1 route on
    # both sides of |c|^2 = 1/2.  Near c = 1 the closed form's
    # c sqrt(1 - c^2), computed from the vectors' overlap, would miss the
    # unrotated tolerance by orders of magnitude.
    rng = np.random.default_rng(seed)
    stack, vectors = overlap_pair(dim, c, eps, rng, rotate)
    factors = Factors.from_vectors(vectors)
    factors = dataclasses.replace(factors, shifted=factors.shifted * np.array(eps)[:, None])
    got = _pair_singular_values(stack, np.array([0]), np.array([1]), factors)[0]
    want = eps[0] * eps[1] * analytic_pair_singular_values(c, dim)
    # A rotated input carries round-off of its own (about 1e-16 of
    # orthogonality), which moves a near-parallel pair's values relatively.
    rel = 1e-8 if rotate else 1e-12
    assert got.shape == (dim,)
    assert np.abs(got - want).max() <= rel * want[0] + 1e-15
    if c * c <= 0.5:
        pair = [(0.5, stack[0]), (0.5, stack[1])]
        probs, states = np.full((1, 2), 0.5), stack[None]
        for spec in NORMS:
            value = quantumness_batch(probs, states, spec, factors)[0]
            assert value == pytest.approx(naive_quantumness(pair, spec), rel=1e-12, abs=1e-15)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([2, 3, 4, 8, 16]),
    rank=st.integers(1, 16),
    eps=st.floats(0.05, 1.0),
    rank_one_first=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_one_route_agrees_with_dense_route(dim, rank, eps, rank_one_first, seed):
    # A validated random state A of any rank, with its eigh factors, and a
    # shifted rank-1 member B = (1 - eps) I/d + eps P, in either order.  A
    # rank-1 A takes the route's vector form, any other A its mat-vec.
    rng = np.random.default_rng(seed)
    a = validate_density_stack(low_rank_state(dim, min(rank, dim), rng)[None])[0]
    v = unitary(dim, rng)[:, 0]
    b = (1.0 - eps) * np.eye(dim) / dim + eps * np.outer(v, v.conj())
    f_a = Factors.from_eigh(*np.linalg.eigh(a))
    f_b = Factors.from_vectors(v)
    f_b = dataclasses.replace(f_b, shifted=f_b.shifted * eps)
    factors = Factors.join([f_b, f_a] if rank_one_first else [f_a, f_b])
    stack = np.stack([b, a] if rank_one_first else [a, b])
    assert 1 in factors.ranks and 0 not in factors.ranks
    i, j = np.array([0]), np.array([1])
    got = _pair_singular_values(stack, i, j, factors)[0]
    dense = _pair_singular_values(stack, i, j, None)[0]
    assert np.abs(got - dense).max() <= 1e-12 * dense[0] + 1e-15


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_kyfan_orders_up_to_the_dimension_on_the_rank_one_route(dim):
    rng = np.random.default_rng(88)
    # Unit vectors with |c| = 1/2: rank-1 route at every d.
    v = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    v[0] /= np.linalg.norm(v[0])
    v[1] -= np.vdot(v[0], v[1]) * v[0]
    v[1] = 0.5 * v[0] + math.sqrt(0.75) * v[1] / np.linalg.norm(v[1])
    stack = np.einsum("ni,nj->nij", v, v.conj())
    factors = Factors.from_vectors(v)
    i, j = np.array([0]), np.array([1])
    assert _pair_singular_values(stack, i, j, factors).shape == (1, dim)
    probs = np.array([[0.25, 0.75]])
    trace = quantumness_batch(probs, stack[None], NormSpec.trace(), factors)[0]
    want = naive_quantumness(list(zip(probs[0], stack)), NormSpec.trace())
    assert trace == pytest.approx(want, rel=1e-12)
    # Two nonzero singular values: kyfan:k for 2 <= k <= d is the trace norm.
    assert quantumness_batch(probs, stack[None], NormSpec.kyfan(dim), factors)[0] == trace
    with pytest.raises(InvalidNormSpec):
        quantumness_batch(probs, stack[None], NormSpec.kyfan(dim + 1), factors)


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_rank_one_route_takes_no_eigensolve_at_any_overlap(dim, monkeypatch):
    # Rank-1 pairs on both sides of |c|^2 = 1/2, and a rank-1 member paired
    # with a full-rank one in either order: no eigvalsh, eigh or qr runs.
    rng = np.random.default_rng([89, dim])
    near = overlap_pair(dim, 1.0 - 1e-9, (1.0, 1.0), rng, rotate=False)
    far = overlap_pair(dim, 0.5, (1.0, 0.5), rng, rotate=False)
    full = low_rank_state(dim, dim, rng)
    stack = np.concatenate([near[0], far[0], full[None]])
    pure = Factors.from_vectors(np.concatenate([near[1], far[1]]))
    pure = dataclasses.replace(pure, shifted=pure.shifted * [[1.0], [1.0], [1.0], [0.5]])
    factors = Factors.join([pure, Factors.from_eigh(*np.linalg.eigh(full))])
    assert factors.ranks.tolist() == [1, 1, 1, 1, dim - 1]
    solved = []
    for name in ("eigvalsh", "eigh", "qr"):

        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            solved.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    i, j = np.array([0, 2, 0, 4]), np.array([1, 3, 4, 2])
    got = _pair_singular_values(stack, i, j, factors)
    assert solved == []
    monkeypatch.undo()
    for row, c, scale in zip(got, (1.0 - 1e-9, 0.5), (1.0, 0.5)):
        want = scale * analytic_pair_singular_values(c, dim)
        assert np.abs(row - want).max() <= 1e-12 * want[0]
    dense = _pair_singular_values(stack, i[2:], j[2:], None)
    assert np.abs(got[2:] - dense).max() <= 1e-12 * dense[:, 0].max()
