"""Ensemble quantumness: value checks, invariances, and monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensq.ensemble import (
    Ensemble,
    Partition,
    _low_rank_factors,
    _pair_singular_values,
    check_weights,
    coarse_grain,
    coarse_grain_batch,
    conjugate_batch,
    decompose_member,
    fine_grain,
    is_classical,
    is_classical_batch,
    probabilistic_union,
    quantumness,
    quantumness_batch,
    unitary_conjugate,
)
from ensq.errors import (
    DecompositionMismatch,
    DimensionMismatch,
    InvalidPartition,
    NotUnitary,
    ParamOutOfRange,
    WeightSumInvalid,
    ZeroBlockProbability,
)
from ensq import ensemble as ensemble_module
from ensq.linalg import TOL, NormSpec
from ensq.measures import plus_state
from ensq.states import (
    DensityMatrix,
    PureState,
    density_from_bloch,
    projector,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)

from _oracles import analytic_pair_singular_values, naive_quantumness

SPECS = [
    NormSpec.trace(),
    NormSpec.frobenius(),
    NormSpec.spectral(),
    NormSpec.schatten(3.0),
    NormSpec.kyfan(2),
]


def random_ensemble(dim, members, rng):
    probs = rng.random(members)
    probs = probs / probs.sum()
    return Ensemble(
        tuple(
            (p, random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng))
            for p in probs
        )
    )


def test_ensemble_validation():
    rho = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(WeightSumInvalid):
        Ensemble(((0.5, rho), (0.2, rho)))
    with pytest.raises(ParamOutOfRange):
        Ensemble(((1.5, rho), (-0.5, rho)))
    with pytest.raises(ParamOutOfRange):
        Ensemble(())
    with pytest.raises(DimensionMismatch):
        Ensemble(((0.5, rho), (0.5, DensityMatrix(np.eye(3) / 3.0))))
    e = Ensemble(((1.0, np.eye(2) / 2.0),))  # raw arrays get validated and wrapped
    assert isinstance(e.states[0], DensityMatrix)


def test_ensemble_stores_only_the_two_arrays(monkeypatch):
    rng = np.random.default_rng(3)
    # A state whose validation clamps round-off: validating it again could
    # move bits, so DensityMatrix members must be kept as they are.
    w, v = np.linalg.eigh(random_density_matrix(3, 3, rng).matrix)
    clamped = DensityMatrix((v * [-1e-12, 0.5, 0.5 + 1e-12]) @ v.conj().T)
    raw = [random_density_matrix(3, 2, rng).matrix.copy() for _ in range(2)]
    calls = []
    validate = ensemble_module.validate_density_stack
    monkeypatch.setattr(
        ensemble_module, "validate_density_stack", lambda m: calls.append(m.shape) or validate(m)
    )
    e = Ensemble(((0.25, raw[0]), (0.5, clamped), (0.25, raw[1])))
    assert calls == [(2, 3, 3)]  # both raw members in one batch
    assert e.state_stack[1].tobytes() == clamped.matrix.tobytes()
    for k in (0, 2):
        assert e.state_stack[k].tobytes() == DensityMatrix(raw[k // 2]).matrix.tobytes()
    assert not e.probabilities.flags.writeable and not e.state_stack.flags.writeable
    # The optional factors are handed over only by the loader (d >= 8).
    assert vars(e).keys() == {"probabilities", "state_stack", "factors"}
    assert e.factors is None
    # members, states and iteration are views of the two arrays.
    assert [p for p, _ in e] == [p for p, _ in e.members] == [0.25, 0.5, 0.25]
    for s, row in zip(e.states, e.state_stack):
        assert isinstance(s, DensityMatrix) and np.shares_memory(s.matrix, e.state_stack)
        assert s.matrix.tobytes() == row.tobytes()
    same = Ensemble.from_stack(e.probabilities, e.state_stack)
    assert calls == [(2, 3, 3)]  # from_stack validates no state
    assert same.state_stack.tobytes() == e.state_stack.tobytes()
    with pytest.raises(DimensionMismatch):
        Ensemble.from_stack([0.5, 0.5], e.state_stack)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_rejected(bad):
    rho = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(ParamOutOfRange, match="non-finite"):
        check_weights([[0.5, 0.5], [bad, 1.0]], "weights")
    with pytest.raises(ParamOutOfRange, match="non-finite"):
        Ensemble(((bad, rho), (1.0, rho)))


def check_weights_by_fsum(weights, what):
    """Reference check_weights: every row summed with its own math.fsum."""
    w = np.asarray(weights, dtype=float)
    if w.shape[-1] == 0:
        raise ParamOutOfRange(f"{what}: need at least one weight")
    w = w.reshape(-1, w.shape[-1])
    odd = w[~np.isfinite(w)]
    if odd.size:
        raise ParamOutOfRange(f"{what}: non-finite weight {float(odd[0])!r}")
    neg = w[w < 0.0]
    if neg.size:
        raise ParamOutOfRange(f"{what}: negative weight {float(neg[0])!r}")
    for total in map(math.fsum, w.tolist()):
        if abs(total - 1.0) > TOL:
            raise WeightSumInvalid(f"{what}: weights sum to {total!r}, expected 1")


def weights_outcome(check, weights):
    try:
        check(weights, "w")
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return None


# Finite nonnegative extremes (a row of two 1e308 overflows fsum), then
# the values the checks before the sum reject.
EXTREME_WEIGHTS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-17, 0.5, 1.0, 1e300,
                   1.7976931348623157e308]
REJECTED_WEIGHTS = [math.nan, math.inf, -math.inf, -5e-324, -0.5]


@st.composite
def weight_row(draw, width):
    kind = draw(st.sampled_from(["near one", "near one", "extreme", "rejected"]))
    if kind == "near one":
        # Sums at 1, 1 +- TOL / 2 (the screen's edge) and 1 +- TOL (the
        # check's edge), each moved by a few ulps.
        target = 1.0 + draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])) * TOL
        target += draw(st.integers(-4, 4)) * math.ulp(1.0)
        head = [x / width for x in draw(st.lists(st.floats(0.0, 1.0), min_size=width - 1,
                                                 max_size=width - 1))]
        return draw(st.permutations([*head, target - math.fsum(head)]))
    values = st.sampled_from(EXTREME_WEIGHTS) | st.floats(0.0, 1.0)
    row = draw(st.lists(values, min_size=width, max_size=width))
    if kind == "rejected":
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(REJECTED_WEIGHTS))
    return row


@st.composite
def weight_rows(draw):
    width = draw(st.integers(1, 64))
    return draw(st.lists(weight_row(width), min_size=1, max_size=5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weight_rows())
def test_check_weights_screen_agrees_with_a_fsum_per_row(rows):
    assert weights_outcome(check_weights, rows) == weights_outcome(check_weights_by_fsum, rows)


def test_quantumness_of_classical_ensemble_is_exactly_zero():
    e = Ensemble(
        (
            (0.25, DensityMatrix(np.diag([1.0, 0.0]))),
            (0.75, DensityMatrix(np.diag([0.3, 0.7]))),
        )
    )
    for spec in SPECS:
        assert quantumness(e, spec) == 0.0
    assert is_classical(e)


def test_quantumness_single_member_is_zero():
    e = Ensemble(((1.0, np.eye(3) / 3.0),))
    assert quantumness(e, NormSpec.trace()) == 0.0
    assert is_classical(e)


def test_quantumness_known_two_pure_state_value():
    # c = 0.6 gives commutator singular values (0.48, 0.48): trace norm 0.96,
    # so M = 2 sqrt(1/4) * 0.96 = 0.96 at equal weights.
    e = Ensemble(
        (
            (0.5, projector(PureState(np.array([1.0, 0.0])))),
            (0.5, projector(PureState(np.array([0.6, 0.8])))),
        )
    )
    assert quantumness(e, NormSpec.trace()) == pytest.approx(0.96, abs=1e-12)
    assert quantumness(e, NormSpec.spectral()) == pytest.approx(0.48, abs=1e-12)
    assert quantumness(e, NormSpec.frobenius()) == pytest.approx(
        0.48 * math.sqrt(2.0), abs=1e-12
    )


def test_pair_commutator_singular_values_match_analytic_form():
    # d < 8 takes the dense route; at d = 16 and 32, the members' eigh gives
    # them rank 1, and the pairs take the rank-1 route.
    rng = np.random.default_rng(41)
    for dim in (2, 3, 4, 16, 32):
        for _ in range(20):
            psi = random_pure_state(dim, rng)
            phi = random_pure_state(dim, rng)
            c = abs(np.vdot(psi.amplitudes, phi.amplitudes))
            stack = np.stack([projector(psi).matrix, projector(phi).matrix])
            factors = _low_rank_factors(stack, np.ones(2, dtype=bool))
            assert (factors is None) == (dim < 8)
            got = _pair_singular_values(stack, np.array([0]), np.array([1]), factors)[0]
            want = analytic_pair_singular_values(c, dim)
            assert np.abs(got - want).max() <= 1e-10


def test_quantumness_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for dim in (2, 3, 4):
        for members in (2, 3, 4):
            e = random_ensemble(dim, members, rng)
            raw = [(p, np.array(s.matrix)) for p, s in e]
            for spec in SPECS:
                assert quantumness(e, spec) == pytest.approx(
                    naive_quantumness(raw, spec), abs=1e-12
                )


def test_quantumness_deterministic_and_permutation_stable():
    rng = np.random.default_rng(43)
    e = random_ensemble(3, 4, rng)
    spec = NormSpec.trace()
    assert quantumness(e, spec) == quantumness(e, spec)
    perm = [2, 0, 3, 1]
    shuffled = Ensemble(tuple(e.members[i] for i in perm))
    assert quantumness(shuffled, spec) == pytest.approx(quantumness(e, spec), abs=1e-12)


def test_zero_probability_members_contribute_nothing():
    rng = np.random.default_rng(44)
    rho1 = random_density_matrix(2, 2, rng)
    rho2 = random_density_matrix(2, 2, rng)
    spoiler = random_density_matrix(2, 1, rng)
    base = Ensemble(((0.4, rho1), (0.6, rho2)))
    padded = Ensemble(((0.4, rho1), (0.6, rho2), (0.0, spoiler)))
    for spec in SPECS:
        assert quantumness(padded, spec) == pytest.approx(
            quantumness(base, spec), abs=1e-15
        )
    assert is_classical(Ensemble(((1.0, rho1), (0.0, spoiler))))


def test_duplicate_members_are_kept_not_merged():
    rng = np.random.default_rng(45)
    rho1 = random_density_matrix(2, 2, rng)
    rho2 = random_density_matrix(2, 2, rng)
    dup = Ensemble(((0.25, rho1), (0.25, rho1), (0.5, rho2)))
    assert len(dup) == 3
    # Duplicates commute with themselves, so only cross pairs contribute:
    # 2 * (sqrt(.25*.5) + sqrt(.25*.5)) = 4 sqrt(1/8) vs 2 sqrt(1/4) merged.
    merged = Ensemble(((0.5, rho1), (0.5, rho2)))
    ratio = quantumness(dup, NormSpec.trace()) / quantumness(merged, NormSpec.trace())
    assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-9)


@pytest.mark.filterwarnings("error")
def test_unitary_conjugate_invariance_and_validation():
    rng = np.random.default_rng(46)
    for dim in (2, 3):
        e = random_ensemble(dim, 3, rng)
        u = random_unitary(dim, rng)
        rotated = unitary_conjugate(e, u)
        for spec in SPECS:
            assert abs(quantumness(rotated, spec) - quantumness(e, spec)) <= 1e-9
    with pytest.raises(NotUnitary):
        unitary_conjugate(e, np.eye(3) * 0.5)
    # A NaN defect fails no "> TOL" test; non-finite and overflowing entries
    # are rejected as not unitary, with no numpy warning.
    for bad in (np.nan, np.inf, 1e200):
        u = np.eye(3, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(NotUnitary):
            unitary_conjugate(e, u)
        with pytest.raises(NotUnitary):
            conjugate_batch(e.state_stack[None], np.full((1, 3, 3), bad))
    with pytest.raises(DimensionMismatch):
        unitary_conjugate(e, np.eye(4))


def test_probabilistic_union_concavity():
    rng = np.random.default_rng(47)
    spec = NormSpec.trace()
    for _ in range(50):
        e1 = random_ensemble(2, 2, rng)
        e2 = random_ensemble(2, 3, rng)
        lam = rng.random(2)
        lam = lam / lam.sum()
        mixed = probabilistic_union([e1, e2], lam)
        assert len(mixed) == 5
        bound = lam[0] * quantumness(e1, spec) + lam[1] * quantumness(e2, spec)
        assert quantumness(mixed, spec) >= bound - 1e-9
    with pytest.raises(WeightSumInvalid):
        probabilistic_union([e1, e2], [0.7, 0.7])
    with pytest.raises(ParamOutOfRange):
        probabilistic_union([e1], [0.5, 0.5])


def test_union_of_identical_ensembles_reproduces_member_weights():
    e = Ensemble(
        (
            (0.5, DensityMatrix(np.diag([1.0, 0.0]))),
            (0.5, density_from_bloch((1.0, 0.0, 0.0))),
        )
    )
    mixed = probabilistic_union([e, e], [0.5, 0.5])
    assert [p for p, _ in mixed] == pytest.approx([0.25, 0.25, 0.25, 0.25])


def test_decompose_member_convexity_and_mismatch():
    rng = np.random.default_rng(48)
    spec = NormSpec.trace()
    for _ in range(25):
        e = random_ensemble(3, 3, rng)
        idx = int(rng.integers(3))
        parts = e.states[idx].spectral_decomposition()
        variants = decompose_member(e, idx, parts)
        assert len(variants) == 3
        bound = math.fsum(
            w * quantumness(v, spec) for (w, _), v in zip(parts, variants) if w > 0
        )
        assert quantumness(e, spec) <= bound + 1e-9
    with pytest.raises(IndexError):
        decompose_member(e, 7, parts)
    bad_parts = [(0.5, np.eye(3) / 3.0), (0.5, np.diag([1.0, 0.0, 0.0]))]
    with pytest.raises(DecompositionMismatch):
        decompose_member(e, 0, bad_parts)
    with pytest.raises(WeightSumInvalid):
        decompose_member(e, 0, [(0.7, e.states[0])])


def test_fine_grain_monotone_and_validated():
    rng = np.random.default_rng(49)
    spec = NormSpec.frobenius()
    for _ in range(25):
        e = random_ensemble(2, 3, rng)
        finer = fine_grain(e, [s.spectral_decomposition() for s in e.states])
        assert len(finer) == 6
        assert quantumness(finer, spec) >= quantumness(e, spec) - 1e-9
    with pytest.raises(ParamOutOfRange):
        fine_grain(e, [e.states[0].spectral_decomposition()])
    wrong = [s.spectral_decomposition() for s in e.states]
    wrong[0] = [(1.0, DensityMatrix(np.eye(2) / 2.0))]
    if np.abs(e.states[0].matrix - np.eye(2) / 2.0).max() > 1e-8:
        with pytest.raises(DecompositionMismatch):
            fine_grain(e, wrong)


def test_trivial_fine_grain_preserves_value():
    rng = np.random.default_rng(50)
    e = random_ensemble(3, 3, rng)
    trivial = fine_grain(e, [[(1.0, s)] for s in e.states])
    for spec in SPECS:
        assert quantumness(trivial, spec) == pytest.approx(
            quantumness(e, spec), abs=1e-15
        )


def test_coarse_grain_monotone():
    rng = np.random.default_rng(51)
    spec = NormSpec.trace()
    for _ in range(25):
        e = random_ensemble(2, 4, rng)
        merged = coarse_grain(e, [(0, 2), (1, 3)])
        assert len(merged) == 2
        assert quantumness(merged, spec) <= quantumness(e, spec) + 1e-9


def test_coarse_grain_block_probabilities_and_barycenter():
    e = Ensemble(
        (
            (0.2, DensityMatrix(np.diag([1.0, 0.0]))),
            (0.3, DensityMatrix(np.diag([0.0, 1.0]))),
            (0.5, density_from_bloch((1.0, 0.0, 0.0))),
        )
    )
    merged = coarse_grain(e, [(0, 1), (2,)])
    assert merged.members[0][0] == pytest.approx(0.5)
    want = (0.2 * np.diag([1.0, 0.0]) + 0.3 * np.diag([0.0, 1.0])) / 0.5
    assert np.abs(merged.members[0][1].matrix - want).max() <= 1e-12


@pytest.mark.parametrize("dim", [3, 9])
def test_coarse_grain_batch_of_mixed_block_counts_is_one_coarse_grain_per_partition(dim):
    # One batch pads every row to the largest block count with
    # zero-probability members; each row's real blocks, their M and (from
    # d = 8 on) their factors must be those of coarse_grain alone, bit for bit.
    rng = np.random.default_rng(55)
    members = 4
    ensembles = [random_ensemble(dim, members, rng) for _ in range(6)]
    partitions = [
        Partition.singletons(members), ((2, 0), (1,), (3,)), Partition.single_block(members),
        ((3,), (0, 1, 2)), Partition(((1, 3), (0, 2))), ((0,), (1,), (2, 3)),
    ]
    probs, states, factors = coarse_grain_batch(
        np.stack([e.probabilities for e in ensembles]),
        np.stack([e.state_stack for e in ensembles]),
        partitions,
    )
    assert probs.shape == (6, members) and (factors is None) == (dim < 8)
    values = [quantumness_batch(probs, states, spec, factors) for spec in SPECS]
    for b, (e, partition) in enumerate(zip(ensembles, partitions)):
        alone = coarse_grain(e, partition)
        k = len(alone)
        assert probs[b, :k].tobytes() == alone.probabilities.tobytes()
        assert not probs[b, k:].any()
        assert states[b, :k].tobytes() == alone.state_stack.tobytes()
        assert [v[b].hex() for v in values] == [quantumness(alone, s).hex() for s in SPECS]
        assert (alone.factors is None) == (factors is None)
        for got, want in zip(factors or (), alone.factors or ()):
            got = got.reshape(6, members, *got.shape[1:])
            assert got[b, :k].tobytes() == want.tobytes()
            assert not got[b, k:].any()


def test_single_block_coarse_grain_gives_barycenter_with_zero_quantumness():
    rng = np.random.default_rng(52)
    e = random_ensemble(3, 3, rng)
    merged = coarse_grain(e, Partition.single_block(3))
    assert len(merged) == 1
    assert quantumness(merged, NormSpec.trace()) == 0.0
    assert np.abs(merged.members[0][1].matrix - e.average_state().matrix).max() <= 1e-12


def test_singleton_partition_is_identity_for_quantumness():
    rng = np.random.default_rng(53)
    e = random_ensemble(2, 3, rng)
    same = coarse_grain(e, Partition.singletons(3))
    for spec in SPECS:
        assert quantumness(same, spec) == pytest.approx(quantumness(e, spec), abs=1e-15)


def test_partition_validation():
    with pytest.raises(InvalidPartition):
        Partition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(InvalidPartition):
        Partition(((0,), ()))  # empty block
    with pytest.raises(InvalidPartition):
        Partition(())
    p = Partition(((0, 2), (1,)))
    p.validate_for(3)
    with pytest.raises(InvalidPartition):
        p.validate_for(4)  # index 3 missing
    rng = np.random.default_rng(54)
    e = random_ensemble(2, 3, rng)
    with pytest.raises(InvalidPartition):
        coarse_grain(e, [(0, 1)])


def test_zero_probability_block_rejected():
    rho = DensityMatrix(np.eye(2) / 2.0)
    e = Ensemble(((1.0, rho), (0.0, rho)))
    with pytest.raises(ZeroBlockProbability):
        coarse_grain(e, [(0,), (1,)])


def test_average_state_is_probability_weighted():
    e = Ensemble(
        (
            (0.25, DensityMatrix(np.diag([1.0, 0.0]))),
            (0.75, DensityMatrix(np.diag([0.0, 1.0]))),
        )
    )
    assert np.allclose(e.average_state().matrix, np.diag([0.25, 0.75]))


@pytest.mark.parametrize("spec", [*SPECS, NormSpec.schatten(2.5)], ids=lambda s: s.label())
def test_batched_kernel_matches_single_ensemble_bit_for_bit(spec):
    rng = np.random.default_rng(60)

    def random_rank(dim):
        return random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng)

    def rank_one_or_depolarized(dim):
        # Low-rank route at d = 16: rank 1, depolarized rank 1, or I/d (rank 0).
        kind = int(rng.integers(3))
        rho = random_density_matrix(dim, 1, rng).matrix
        return [rho, (rho + np.eye(dim) / dim) / 2.0, np.eye(dim) / dim][kind]

    cases = [
        (2, 2, random_rank),
        (3, 4, random_rank),
        (4, 3, random_rank),
        (9, 3, random_rank),
        (16, 4, rank_one_or_depolarized),
    ]
    for dim, members, draw in cases:
        ensembles = []
        for n in range(24):
            probs = rng.random(members)
            if members >= 3 and n % 3 == 0:
                probs[n % members] = 0.0  # fewer live pairs, down to one
            ensembles.append(
                Ensemble(tuple((p, draw(dim)) for p in probs / probs.sum()))
            )
        probs = np.stack([e.probabilities for e in ensembles])
        states = np.stack([e.state_stack for e in ensembles])
        want = [quantumness(e, spec).hex() for e in ensembles]
        want_classical = [is_classical(e) for e in ensembles]
        for size in (1, 5, 24):
            got, got_classical = [], []
            for start in range(0, len(ensembles), size):
                batch = slice(start, start + size)
                got += quantumness_batch(probs[batch], states[batch], spec).tolist()
                got_classical += is_classical_batch(probs[batch], states[batch]).tolist()
            assert [v.hex() for v in got] == want
            assert got_classical == want_classical


def test_large_schatten_p_stays_positive_and_tends_to_spectral():
    # {|0>, |+>} at 1/2, 1/2: both commutator singular values are 1/2, so
    # M = 2^(1/p) / 2 under schatten:p.  Unscaled, (1/2)^p underflowed to 0
    # from p = 2000 on.
    e = Ensemble(((0.5, projector(PureState.basis(2, 0))), (0.5, projector(plus_state()))))
    spectral = quantumness(e, NormSpec.spectral())
    assert spectral == 0.5
    previous = math.inf
    for p in (3.0, 10.0, 1e3, 2e3, 1e6, 1e300):
        m = quantumness(e, NormSpec.schatten(p))
        assert spectral <= m < previous
        assert m == pytest.approx(2.0 ** (1.0 / p) / 2.0, rel=1e-14)
        previous = m
    # Any ensemble: each pair norm lies between the spectral one and
    # d^(1/p) times it.
    rng = np.random.default_rng(19)
    for _ in range(10):
        e = random_ensemble(4, 3, rng)
        spectral = quantumness(e, NormSpec.spectral())
        for p in (1e3, 1e6, 1e12, 1e300):
            m = quantumness(e, NormSpec.schatten(p))
            assert spectral <= m <= spectral * 4.0 ** (1.0 / p) * (1.0 + 1e-14)
    classical = Ensemble(((0.5, np.diag([1.0, 0.0])), (0.5, np.eye(2) / 2.0)))
    assert quantumness(classical, NormSpec.schatten(1e6)) == 0.0
