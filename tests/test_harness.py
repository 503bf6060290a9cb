"""Property harness: a batched run and its single-trial replays agree exactly,
the pair norms it shares (one table for E, O and their union, E's pairs in
the variants) change no bit, and every trial draws the reference stream of
``_oracles.draw_trial``, written straight into the chunk's arrays."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensq import harness
from ensq.ensemble import (
    BLOCK_BYTES,
    Ensemble,
    Factors,
    _live_pairs,
    _pair_norms,
    _weighted_sums,
    is_classical,
    quantumness,
    quantumness_batch,
    union_batch,
)
from ensq.errors import ParamOutOfRange
from ensq.harness import (
    _CHUNK,
    PROPERTY_NAMES,
    PropertyResult,
    _classicality_fails,
    _draw_trials,
    _Ginibre,
    _variant_values,
    check_properties,
    random_ensemble,
    run_single_trial,
)
from ensq.linalg import NormSpec
from ensq.measures import plus_state
from ensq.states import (
    PureState,
    _eigenprojectors,
    _ginibre,
    _validate_density_eigh,
    ginibre_states,
    projector,
)

from _oracles import draw_ensemble, draw_trial

CASES = [
    (2, 2, NormSpec.schatten(3.0)),
    (3, 3, NormSpec.trace()),
    (4, 4, NormSpec.kyfan(2)),
    (3, 2, NormSpec.spectral()),
    (2, 4, NormSpec.frobenius()),
    (4, 3, NormSpec.schatten(2.5)),
]

FAIL_LINE = re.compile(r"FAIL (\S+) trial (\d+) violation (\S+) \(replay: (.*)\)$")


def _bits(values):
    return [float(v).hex() for v in values]


def _assert_replays(report, dim, members, spec, seed, trials):
    for t in trials:
        single = run_single_trial(dim, members, spec, seed, t)
        assert _bits([single["quantumness"]]) == _bits([report.values[t]]), t
        assert _bits(single[name] for name in PROPERTY_NAMES) == _bits(report.violations[t]), t


@pytest.mark.parametrize(
    "dim,members,spec", CASES, ids=[f"d{d}-m{m}-{s.label()}" for d, m, s in CASES]
)
def test_every_trial_of_a_run_replays_bit_for_bit(dim, members, spec):
    report = check_properties(dim, members, trials=40, seed=17, spec=spec)
    _assert_replays(report, dim, members, spec, 17, range(40))


def test_trials_replay_across_batch_boundaries():
    spec = NormSpec.schatten(3.0)
    trials = _CHUNK + 5
    report = check_properties(3, 3, trials=trials, seed=2, spec=spec)
    _assert_replays(report, 3, 3, spec, 2, [0, _CHUNK - 1, _CHUNK, trials - 1])


def test_large_d_runs_in_shorter_batches_that_replay_bit_for_bit(monkeypatch):
    # At d = 32 a trial's 4 * 32 eigenprojectors take 2 MiB, so a batch of
    # at most ensemble.BLOCK_BYTES (16 MiB) holds 8 trials; the arrays its
    # random numbers are drawn into stay within the same budget.
    spec = NormSpec.schatten(3.0)
    sizes, drawn = [], []

    def recorded(*args, _run=harness._run_trials):
        sizes.append(len(args[4]))
        return _run(*args)

    def measured(*args, _draw=harness._draw_trials):
        both, *arrays, blocks = _draw(*args)
        drawn.append(sum(a.nbytes for a in (both.weights, both.ranks, both.gauss, *arrays)))
        return both, *arrays, blocks

    monkeypatch.setattr(harness, "_run_trials", recorded)
    monkeypatch.setattr(harness, "_draw_trials", measured)
    report = check_properties(32, 4, trials=13, seed=2, spec=spec)
    assert sizes == [8, 5]
    assert len(drawn) == 2 and max(drawn) <= BLOCK_BYTES
    monkeypatch.undo()
    _assert_replays(report, 32, 4, spec, 2, [0, 7, 8, 12])


def test_many_members_keep_a_batch_within_its_byte_budget():
    # At d = 2 with 200 members a trial's pair work (its union and its
    # fine-grained ensemble of 400 members each) takes more than
    # BLOCK_BYTES, so every trial runs in a batch of its own and three
    # trials peak no higher than one, within the budget.  Sized from the
    # eigenprojectors alone, all three shared one batch.
    peaks = []
    for trials in (3, 1):
        tracemalloc.start()
        try:
            check_properties(2, 200, trials, 1, NormSpec.trace())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + BLOCK_BYTES


def test_render_fail_lines_replay_their_trials():
    # Slack 0 turns round-off-sized violations into failures, so the
    # report prints FAIL lines; each one's replay call must reproduce it.
    spec = NormSpec.schatten(3.0)
    report = check_properties(3, 3, trials=30, seed=4, spec=spec, slack=0.0)
    lines = [line for line in report.render().splitlines() if line.startswith("FAIL ")]
    assert lines
    for line in lines:
        name, trial, printed, call = FAIL_LINE.match(line).groups()
        replayed = eval(call, {"run_single_trial": run_single_trial, "NormSpec": NormSpec})
        recorded = report.violations[int(trial)][PROPERTY_NAMES.index(name)]
        assert _bits([replayed[name]]) == _bits([recorded])
        assert f"{replayed[name]:.3e}" == printed


def test_classicality_verdict_needs_positive_m_only_when_not_classical():
    assert not _classicality_fails(2e-15, False, 1e-9)
    assert _classicality_fails(0.0, False, 1e-9)
    assert _classicality_fails(2e-9, True, 1e-9)
    assert not _classicality_fails(1e-9, True, 1e-9)


def test_tiny_weight_ensemble_is_not_a_classicality_failure():
    # |0> and |+> do not commute, but a weight of 1e-30 puts M far below
    # the slack: the verdict must not ask for M > slack here.
    zero, plus = projector(PureState.basis(2, 0)), projector(plus_state())
    e = Ensemble(((1.0 - 1e-30, zero), (1e-30, plus)))
    m = quantumness(e, NormSpec.trace())
    assert 0.0 < m < 1e-9
    assert not is_classical(e)
    assert not _classicality_fails(m, is_classical(e), 1e-9)


# The five norms of the benchmark's property grid.
GRID_NORMS = [
    NormSpec.trace(),
    NormSpec.frobenius(),
    NormSpec.schatten(3.0),
    NormSpec.spectral(),
    NormSpec.kyfan(1),
]


def _union_and_variant_case(dim, n=12, members=3):
    """E and O with the factors of their validation, as the harness builds
    them (E with zero-probability members, targets at 0 and m - 1), union
    weights with a zero, and each target's eigenprojectors and their unit
    vectors as its parts."""
    rng = np.random.default_rng([31, dim])
    drawn = _Ginibre((2, n), dim, members)
    for row in range(n):
        drawn.draw(rng, (0, row), allow_zero_prob=True)
    for row in range(n):
        drawn.draw(rng, (1, row))
    (probs, o_probs), raw = drawn.stacks()
    states, w, v = _validate_density_eigh(raw[0])
    o_states, o_w, o_v = _validate_density_eigh(raw[1])
    for row, dead in ((0, 0), (1, members - 1), (2, 1)):
        probs[row, dead] = 0.0
        probs[row] /= probs[row].sum()
    target = rng.integers(members, size=n)
    target[:4] = [0, 0, members - 1, members - 1]
    lam = rng.random((n, 2))
    lam[4:6] = [[1.0, 0.0], [0.0, 1.0]]
    lam = lam / lam.sum(axis=1, keepdims=True)
    _, proj, vectors = _eigenprojectors(states, (w, v))
    rows = np.arange(n)
    return (
        (probs, states, Factors.from_eigh(w, v)), (o_probs, o_states, Factors.from_eigh(o_w, o_v)),
        lam, target, proj[rows, target], vectors[rows, target],
    )


@pytest.mark.parametrize("dim", [2, 3, 4, 9, 16])
@pytest.mark.parametrize("spec", GRID_NORMS, ids=lambda s: s.label())
def test_spliced_union_and_variant_values_equal_the_plain_kernel_bit_for_bit(dim, spec):
    # One table serves E, O and their union, and the variants compute only
    # the target's pairs; plain kernel calls on whole ensembles, given the
    # same factors, must give the same bits.
    e, o, lam, target, parts, vectors = _union_and_variant_case(dim)
    (probs, states, factors), (o_probs, o_states, o_factors) = e, o
    n, members = probs.shape
    u_probs, u_states = union_batch([probs, o_probs], [states, o_states], lam)
    # E's then O's members in each ensemble, as union_batch joins them.
    rows = np.arange(2 * n * members).reshape(2, n, members).swapaxes(0, 1).ravel()
    u_factors = Factors.join([factors, o_factors]).take(rows)
    live = _live_pairs(np.concatenate([probs, o_probs], axis=1))
    norms = _pair_norms(live, u_states, spec, u_factors)
    e_norms = norms[:, :members, :members]
    assert _bits(_weighted_sums(probs, e_norms, _live_pairs(probs))) == _bits(
        quantumness_batch(probs, states, spec, factors)
    )
    assert _bits(_weighted_sums(o_probs, norms[:, members:, members:], _live_pairs(o_probs))) == (
        _bits(quantumness_batch(o_probs, o_states, spec, o_factors))
    )
    assert _bits(_weighted_sums(u_probs, norms, _live_pairs(u_probs))) == _bits(
        quantumness_batch(u_probs, u_states, spec, u_factors)
    )

    got = _variant_values(probs, states, factors, e_norms, target, parts, vectors, spec)
    rows = np.arange(n)
    variants = np.repeat(states[:, None], dim, axis=1)
    variants[rows, :, target] = parts
    # Variant (b, k) holds E_b's members, with part k of b at the target.
    member = np.repeat(np.arange(n * members).reshape(n, 1, members), dim, axis=1)
    member[rows, :, target] = n * members + np.arange(n * dim).reshape(n, dim)
    variant_factors = Factors.join([factors, Factors.from_vectors(vectors)]).take(member.ravel())
    want = quantumness_batch(
        np.repeat(probs, dim, axis=0), variants.reshape(n * dim, members, dim, dim), spec,
        variant_factors,
    )
    assert _bits(got.ravel()) == _bits(want)


@pytest.mark.parametrize("dim", [2, 16])
def test_variants_take_no_eigensolve(dim, monkeypatch):
    # Every part is a rank-1 projector with its vector as factors, so each
    # of the target's pairs is zero or takes the kernel's rank-1 route.
    e, _, _, target, parts, vectors = _union_and_variant_case(dim)
    probs, states, factors = e
    norms = _pair_norms(_live_pairs(probs), states, NormSpec.trace(), factors)
    solved = []
    for name in ("eigvalsh", "eigh", "qr"):

        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            solved.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    got = _variant_values(probs, states, factors, norms, target, parts, vectors, NormSpec.trace())
    assert solved == []
    assert np.isfinite(got).all() and (got > 0.0).any()


@pytest.mark.parametrize("spec", GRID_NORMS, ids=lambda s: s.label())
def test_property_suite_holds_at_d_16(spec):
    # At d = 16 the kernel's rank-0, rank-1, low-rank and dense routes all
    # serve the six properties (criterion 6's grid stops at d = 4, where the
    # low-rank route admits no pair).
    report = check_properties(16, 3, trials=50, seed=16, spec=spec)
    assert report.all_passed(), report.render()
    assert report.worst_slack() <= 1e-9


def test_property_trials_eigendecompose_each_member_once_and_the_kernel_none(monkeypatch):
    # Every stack of a trial reaches the kernel with factors (the coarse-
    # grained one from its validation eigh), so the kernel's own member eigh
    # never runs.  Under the Frobenius norm the dense route runs no
    # eigensolve either, so every d x d eigensolve is one validation: eigh
    # for E, O and the barycenters, eigvalsh for the classical and the
    # conjugated ensembles.  The barycenters take no eigvalsh.
    dim, members, trials = 16, 4, 20
    rows = {"eigh": 0, "eigvalsh": 0}
    for name in rows:

        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            if np.shape(a)[-1] == dim:
                rows[_name] += math.prod(np.shape(a)[:-2])
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert check_properties(dim, members, trials, 1, NormSpec.frobenius()).all_passed()
    blocks = sum(map(len, _draw_trials(dim, members, 1, range(trials))[-1]))
    assert rows == {"eigh": 2 * trials * members + blocks, "eigvalsh": 2 * trials * members}


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
@pytest.mark.parametrize("members", [2, 3, 4, 6])
def test_trial_draws_match_the_reference_stream_field_by_field(dim, members):
    # Every field of every trial, read back from the chunk's arrays: each
    # member's rank, its Gaussian in the first 2 d r entries of its row and
    # the state that row gives, and the raw weights with any zeroed one.
    trials = range(300)
    both, bases, cl_weights, diag, lam, target, blocks = _draw_trials(dim, members, 23, trials)
    n = len(trials)
    _, states = both.stacks()
    for t in trials:
        want = draw_trial(23, t, dim, members)
        for e, (probs, gauss) in enumerate((want[0], want[3])):
            assert both.weights[e, t].tobytes() == probs.tobytes(), t
            assert both.ranks[e, t].tolist() == [g.shape[-1] for g in gauss], t
            rows = both.gauss[e, t]
            assert [row[: g.size].tobytes() for row, g in zip(rows, gauss)] == [
                g.tobytes() for g in gauss
            ], t
            assert [s.tobytes() for s in states[e, t]] == [_ginibre(g).tobytes() for g in gauss], t
        classical = [bases[t].tobytes(), cl_weights[t].tobytes(), diag[t].tobytes()]
        assert classical == [a.tobytes() for a in want[1]], t
        assert bases[n + t].tobytes() == want[2].tobytes(), t
        assert lam[t].tobytes() == want[4].tobytes(), t
        assert target[t] == want[5], t
        assert blocks[t] == want[6], t
        assert all(type(i) is int for blk in blocks[t] for i in blk), t


@pytest.mark.parametrize("dim", [2, 5, 9])
@pytest.mark.parametrize("allow_zero_prob", [False, True])
def test_random_ensemble_draws_the_reference_stream(dim, allow_zero_prob):
    zeroed = 0
    for seed in range(40):
        members = 2 + seed % 5
        got = random_ensemble(dim, members, np.random.default_rng(seed), allow_zero_prob)
        raw, gauss = draw_ensemble(np.random.default_rng(seed), dim, members, allow_zero_prob)
        zeroed += int((raw == 0.0).any())
        assert got.probabilities.tobytes() == (raw / raw.sum()).tobytes(), seed
        want = [ginibre_states(g) for g in gauss]
        assert [s.tobytes() for s in got.state_stack] == [s.tobytes() for s in want], seed
    assert (zeroed > 0) == allow_zero_prob


TRACE = NormSpec.trace()
RNG = np.random.default_rng
BAD_CALLS = {
    "single-trial-dim-1": ("dim", lambda: run_single_trial(1, 2, TRACE, 0, 0)),
    "single-trial-members-1": ("members", lambda: run_single_trial(2, 1, TRACE, 0, 0)),
    "single-trial-seed-minus-1": ("seed", lambda: run_single_trial(2, 2, TRACE, -1, 0)),
    "single-trial-trial-minus-1": ("trial", lambda: run_single_trial(2, 2, TRACE, 0, -1)),
    "single-trial-slack-nan": ("slack", lambda: run_single_trial(2, 2, TRACE, 0, 0, math.nan)),
    "single-trial-slack-minus-1": ("slack", lambda: run_single_trial(2, 2, TRACE, 0, 0, -1.0)),
    "random-ensemble-dim-0": ("dim", lambda: random_ensemble(0, 2, RNG(0))),
    "random-ensemble-dim-1": ("dim", lambda: random_ensemble(1, 2, RNG(0))),
    "random-ensemble-members-1": ("members", lambda: random_ensemble(2, 1, RNG(0))),
    "check-slack-nan": ("slack", lambda: check_properties(2, 2, 1, 0, TRACE, math.nan)),
    "check-slack-minus-1": ("slack", lambda: check_properties(2, 2, 1, 0, TRACE, -1.0)),
    "check-slack-inf": ("slack", lambda: check_properties(2, 2, 1, 0, TRACE, math.inf)),
}


@pytest.mark.parametrize("match,call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_out_of_range_arguments_raise_param_out_of_range(match, call):
    with pytest.raises(ParamOutOfRange, match=f"^{match} must be"):
        call()


def reference_result(name, column, slack):
    """A PropertyResult recorded trial by trial, as the report first did."""
    r = PropertyResult(name)
    for t, violation in enumerate(column.tolist()):
        if violation > r.worst_slack:
            r.worst_slack, r.worst_trial = violation, t
        if violation <= slack:
            r.passes += 1
        else:
            r.failures += 1
            if len(r.failed_trials) < 20:
                r.failed_trials.append((t, violation))
    return r


VIOLATIONS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-9, 2e-9, -1e-3, 0.5, 0.5, 1.0]
) | st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(VIOLATIONS, min_size=1, max_size=60), st.sampled_from([0.0, 1e-9, 0.5]))
@example([math.nan] * 3, 1e-9)
@example([-math.inf, math.nan, -math.inf], 1e-9)
@example([1.0] * 25 + [math.nan, 2.0, 2.0], 1e-9)
def test_property_results_from_columns_equal_the_per_trial_record(column, slack):
    column = np.array(column)
    got = PropertyResult.from_column("p", column, slack)
    want = reference_result("p", column, slack)
    # repr, since NaN != NaN; and the same Python types as the record.
    assert repr(got) == repr(want)
    assert [type(x) for x in (got.passes, got.failures, got.worst_slack, got.worst_trial)] == [
        int, int, float, int
    ]
    assert all(type(t) is int and type(v) is float for t, v in got.failed_trials)


def test_check_properties_summaries_are_the_per_trial_record_of_its_columns():
    report = check_properties(3, 3, 40, 5, NormSpec.trace(), slack=0.0)
    assert not report.all_passed()
    for name, column, result in zip(PROPERTY_NAMES, report.violations.T, report.results):
        assert repr(result) == repr(reference_result(name, column, 0.0))
