"""Property harness: a batched run and its single-trial replays agree exactly,
the pair norms it shares (one table for E, O and their union, E's pairs in
the variants) change no bit, and every trial draws the reference stream of
``_oracles.draw_trial``."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensq import harness
from ensq.ensemble import (
    Ensemble,
    _live_pairs,
    _pair_norms,
    _rank_one_factors,
    _weighted_sums,
    is_classical,
    quantumness,
    quantumness_batch,
    union_batch,
)
from ensq.harness import (
    _CHUNK,
    PROPERTY_NAMES,
    PropertyResult,
    _build_ensembles,
    _classicality_fails,
    _draw_ensemble,
    _trial_draws,
    _validate_factored,
    _variant_values,
    check_properties,
    run_single_trial,
)
from ensq.linalg import NormSpec
from ensq.measures import plus_state
from ensq.states import PureState, _eigenprojectors, projector

from _oracles import draw_trial

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
    # at most ensemble.BLOCK_BYTES (16 MiB) holds 8 trials.
    spec = NormSpec.schatten(3.0)
    sizes = []

    def recorded(*args, _run=harness._run_trials):
        sizes.append(len(args[4]))
        return _run(*args)

    monkeypatch.setattr(harness, "_run_trials", recorded)
    report = check_properties(32, 4, trials=13, seed=2, spec=spec)
    assert sizes == [8, 5]
    monkeypatch.undo()
    _assert_replays(report, 32, 4, spec, 2, [0, 7, 8, 12])


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
    draw = (rng.random, rng.integers, rng.standard_normal)
    probs, (states, eig, factors) = _build_ensembles(
        [_draw_ensemble(*draw, dim, members, allow_zero_prob=True) for _ in range(n)], dim,
        _validate_factored,
    )
    o_probs, (o_states, _, o_factors) = _build_ensembles(
        [_draw_ensemble(*draw, dim, members) for _ in range(n)], dim, _validate_factored
    )
    for row, dead in ((0, 0), (1, members - 1), (2, 1)):
        probs[row, dead] = 0.0
        probs[row] /= probs[row].sum()
    target = rng.integers(members, size=n)
    target[:4] = [0, 0, members - 1, members - 1]
    lam = rng.random((n, 2))
    lam[4:6] = [[1.0, 0.0], [0.0, 1.0]]
    lam = lam / lam.sum(axis=1, keepdims=True)
    _, proj, vectors = _eigenprojectors(states, eig)
    rows = np.arange(n)
    return (
        (probs, states, factors), (o_probs, o_states, o_factors), lam, target,
        proj[rows, target], vectors[rows, target],
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
    u_factors = tuple(  # E's then O's members in each ensemble, as union_batch joins them
        np.concatenate([e.reshape(n, members, -1), o.reshape(n, members, -1)], axis=1).reshape(
            e.shape[0] * 2, *e.shape[1:]
        )
        for e, o in zip(factors, o_factors)
    )
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
    variant_factors = []
    for whole, part in zip(factors, _rank_one_factors(vectors.reshape(-1, dim))):
        whole = np.repeat(whole.reshape(n, 1, members, *whole.shape[1:]), dim, axis=1)
        whole[rows, :, target] = part.reshape(n, dim, *part.shape[1:])
        variant_factors.append(whole.reshape(-1, *part.shape[1:]))
    want = quantumness_batch(
        np.repeat(probs, dim, axis=0), variants.reshape(n * dim, members, dim, dim), spec,
        tuple(variant_factors),
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
    blocks = sum(len(draw[-1]) for draw in _trial_draws(dim, members, 1, range(trials)))
    assert rows == {"eigh": 2 * trials * members + blocks, "eigvalsh": 2 * trials * members}


def _ensemble_bytes(draw):
    probs, gauss = draw
    return [probs.tobytes(), *(g.tobytes() for g in gauss), *(g.shape for g in gauss)]


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
@pytest.mark.parametrize("members", [2, 3, 4, 6])
def test_trial_draws_match_the_reference_stream_field_by_field(dim, members):
    trials = range(300)
    for t, got in zip(trials, _trial_draws(dim, members, 23, trials)):
        ensemble, classical, unitary, other, lam, target, blocks = got
        want = draw_trial(23, t, dim, members)
        assert _ensemble_bytes(ensemble) == _ensemble_bytes(want[0]), t
        assert [a.tobytes() for a in classical] == [a.tobytes() for a in want[1]], t
        assert unitary.tobytes() == want[2].tobytes(), t
        assert _ensemble_bytes(other) == _ensemble_bytes(want[3]), t
        assert lam.tobytes() == want[4].tobytes(), t
        assert type(target) is int and target == want[5], t
        assert blocks == want[6], t
        assert all(type(i) is int for blk in blocks for i in blk), t


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
