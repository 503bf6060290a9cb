"""Property harness: a batched run and its single-trial replays agree exactly,
and the pair norms it shares between ensembles change no bit."""

import re

import numpy as np
import pytest

from ensq.ensemble import (
    Ensemble,
    _pair_norms,
    is_classical,
    quantumness,
    quantumness_batch,
    union_batch,
)
from ensq.harness import (
    _CHUNK,
    PROPERTY_NAMES,
    _build_ensembles,
    _classicality_fails,
    _draw_ensemble,
    _union_values,
    _variant_values,
    check_properties,
    run_single_trial,
)
from ensq.linalg import NormSpec
from ensq.measures import plus_state
from ensq.states import PureState, eigenprojectors, projector

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


@pytest.mark.parametrize("dim", [2, 3, 4, 9])
@pytest.mark.parametrize("spec", GRID_NORMS, ids=lambda s: s.label())
def test_spliced_union_and_variant_values_equal_the_plain_kernel_bit_for_bit(dim, spec):
    # The union reuses E's and O's pair norms, the variants reuse E's; a
    # plain kernel call on the full ensembles must give the same bits.
    rng = np.random.default_rng([31, dim])
    n, members = 12, 3
    probs, states = _build_ensembles(
        [_draw_ensemble(rng, dim, members, allow_zero_prob=True) for _ in range(n)], dim
    )
    o_probs, o_states = _build_ensembles(
        [_draw_ensemble(rng, dim, members) for _ in range(n)], dim
    )
    lam = rng.random((n, 2))
    lam = lam / lam.sum(axis=1, keepdims=True)
    pairs = _pair_norms(probs, states, spec)
    o_pairs = _pair_norms(o_probs, o_states, spec)
    got = _union_values(probs, states, pairs, o_probs, o_states, o_pairs, lam, spec)
    want = quantumness_batch(*union_batch([probs, o_probs], [states, o_states], lam), spec)
    assert _bits(got) == _bits(want)

    rows, target = np.arange(n), rng.integers(members, size=n)
    parts = eigenprojectors(states)[1][rows, target]
    got = _variant_values(probs, states, pairs, target, parts, spec)
    variants = np.repeat(states[:, None], dim, axis=1)
    variants[rows, :, target] = parts
    want = quantumness_batch(
        np.repeat(probs, dim, axis=0), variants.reshape(n * dim, members, dim, dim), spec
    )
    assert _bits(got.ravel()) == _bits(want)


@pytest.mark.parametrize("spec", GRID_NORMS, ids=lambda s: s.label())
def test_property_suite_holds_at_d_16(spec):
    # At d = 16 the kernel's overlap, low-rank and dense routes all serve the
    # six properties (criterion 6's grid stops at d = 4, all dense).
    report = check_properties(16, 3, trials=50, seed=16, spec=spec)
    assert report.all_passed(), report.render()
    assert report.worst_slack() <= 1e-9
