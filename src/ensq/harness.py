"""Randomized checks of the quantumness measure's structural properties.

Each trial builds a seeded random ensemble plus random transformations and
verifies, with additive slack, that

  * the measure is nonnegative and vanishes exactly on classical
    (pairwise commuting) ensembles,
  * unitary conjugation leaves it unchanged,
  * probabilistic union is concave: M(union) >= sum lambda_mu M(E_mu),
  * member decomposition is convex: M(E) <= sum lambda_mu M(E_mu),
  * fine-graining never decreases it, coarse-graining never increases it.

Trial t of a run draws from ``default_rng([seed, t])``, so any single
trial can be replayed in isolation via :func:`run_single_trial`.  A run
first takes every trial's random numbers, in that order, and then
evaluates all trials together through the stack forms of
:mod:`ensq.ensemble`; a replayed trial is the same evaluation with a batch
of one and reproduces every number bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import (
    Ensemble,
    Partition,
    _norm_table,
    _pair_norms,
    _rank_one_factors,
    _weighted_sums,
    check_weights,
    check_decompositions,
    coarse_grain_batch,
    conjugate_batch,
    is_classical_batch,
    quantumness_batch,
    union_batch,
)
from .errors import ParamOutOfRange
from .linalg import NormSpec
from .states import (
    _adjoint,
    _eigenprojectors,
    _hermitize,
    ginibre_states,
    haar_unitaries,
    validate_density_stack,
)

__all__ = [
    "PROPERTY_NAMES",
    "PropertyResult",
    "RunReport",
    "check_properties",
    "random_ensemble",
    "run_single_trial",
]

DEFAULT_SLACK = 1e-9

PROPERTY_NAMES = (
    "positivity-classicality",
    "unitary-invariance",
    "union-concavity",
    "decomposition-convexity",
    "fine-graining-monotone",
    "coarse-graining-monotone",
)

# A boolean check (classicality detection) has no numeric slack; a failure
# is recorded as this sentinel so it is impossible to miss in a report.
_BOOL_FAIL = 1.0

# Trials evaluated per batch; bounds the memory of a run of any length.
_CHUNK = 250


def _draw_ensemble(rng, dim: int, members: int, allow_zero_prob: bool = False):
    """Random numbers for one Ginibre ensemble: raw weights, per-member Gaussians."""
    probs = rng.random(members)
    if allow_zero_prob and members >= 3 and rng.random() < 0.2:
        probs[int(rng.integers(members))] = 0.0
    gauss = [rng.standard_normal((2, dim, int(rng.integers(1, dim + 1)))) for _ in range(members)]
    return probs, gauss


def _build_ensembles(draws, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack the ensembles of ``_draw_ensemble`` draws: probabilities and states.

    States of equal rank are generated and validated in one batch each.
    """
    probs = np.array([p for p, _ in draws])
    probs = probs / probs.sum(axis=1, keepdims=True)
    check_weights(probs, "ensemble probabilities")
    states = np.empty((*probs.shape, dim, dim), dtype=complex)
    for rank in range(1, dim + 1):
        slots = [
            (t, i, g)
            for t, (_, gauss) in enumerate(draws)
            for i, g in enumerate(gauss)
            if g.shape[-1] == rank
        ]
        if slots:
            t, i, g = zip(*slots)
            states[list(t), list(i)] = ginibre_states(np.stack(g))
    return probs, states


def random_ensemble(dim: int, members: int, rng, allow_zero_prob: bool = False) -> Ensemble:
    """Random ensemble of Ginibre states (random ranks) with random weights."""
    probs, states = _build_ensembles([_draw_ensemble(rng, dim, members, allow_zero_prob)], dim)
    return Ensemble.from_stack(probs[0], states[0])


def _build_classical(draws) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise commuting ensembles: random diagonals in one random basis each."""
    u = haar_unitaries(np.stack([g for g, _, _ in draws]))
    probs = np.array([p for _, p, _ in draws])
    probs = probs / probs.sum(axis=1, keepdims=True)
    check_weights(probs, "ensemble probabilities")
    diag = np.array([d for _, _, d in draws])
    diag = diag / diag.sum(axis=-1, keepdims=True)
    m = (u[:, None] * diag[..., None, :]) @ _adjoint(u)[:, None]
    return probs, validate_density_stack(_hermitize(m))


def _random_partition(n: int, probs: np.ndarray, rng) -> Partition:
    """Random partition into contiguous chunks of a shuffled index list.

    Rejects draws that would give a block zero total probability (those are
    not coarse-grainable); falls back to the single-block partition.
    """
    for _ in range(20):
        order = rng.permutation(n)
        nblocks = int(rng.integers(1, n + 1))
        cuts = sorted(rng.choice(np.arange(1, n), size=nblocks - 1, replace=False)) if nblocks > 1 else []
        bounds = [0, *cuts, n]
        blocks = tuple(tuple(int(i) for i in order[a:b]) for a, b in zip(bounds, bounds[1:]))
        if all(sum(float(probs[i]) for i in blk) > 0.0 for blk in blocks):
            return Partition(blocks)
    return Partition.single_block(n)


@dataclass
class _TrialDraws:
    """Every random number one trial consumes, in the order it draws them."""

    ensemble: tuple
    classical: tuple
    unitary: np.ndarray
    other: tuple
    lam: np.ndarray
    target: int
    partition: Partition


def _draw_trial(rng, dim: int, members: int) -> _TrialDraws:
    ensemble = _draw_ensemble(rng, dim, members, allow_zero_prob=True)
    classical = (
        rng.standard_normal((2, dim, dim)),
        rng.random(members),
        rng.random((members, dim)),
    )
    unitary = rng.standard_normal((2, dim, dim))
    other = _draw_ensemble(rng, dim, members)
    lam = rng.random(2)
    target = int(rng.integers(members))
    # Zero patterns of raw and normalized weights coincide.
    partition = _random_partition(members, ensemble[0], rng)
    return _TrialDraws(ensemble, classical, unitary, other, lam, target, partition)


def _classicality_fails(m: float, classical: bool, slack: float) -> bool:
    """A classical ensemble needs ``M <= slack``, a non-classical one ``M > 0``
    (a tiny weight can put a non-classical M far below ``slack``)."""
    return m > slack if classical else m <= 0.0


def _union_values(probs, states, pairs, o_probs, o_states, o_pairs, lam, spec) -> np.ndarray:
    """M of the unions ``lam[:, 0]`` E + ``lam[:, 1]`` O, batched.

    ``pairs`` and ``o_pairs`` are the ``_pair_norms`` of E and of O: their
    pairs keep those norms, so only the cross pairs are computed.
    """
    m = probs.shape[1]
    u_probs, u_states = union_batch([probs, o_probs], [states, o_states], lam)
    known = np.full((len(probs), 2 * m, 2 * m), np.nan)
    known[:, :m, :m] = _norm_table(pairs, m)
    known[:, m:, m:] = _norm_table(o_pairs, m)
    return _weighted_sums(u_probs, _pair_norms(u_probs, u_states, spec, known=known))


def _variant_values(probs, states, pairs, target, parts, spec) -> np.ndarray:
    """M ``(B, K)`` of ensemble b with member ``target[b]`` replaced by each
    of ``parts[b]`` ``(K, d, d)``.

    ``pairs`` are the ``_pair_norms`` of the ensembles: pairs without the
    target member keep those norms, so only the target's pairs are computed.
    """
    n, m = probs.shape
    k = parts.shape[1]
    rows = np.arange(n)
    variants = np.repeat(states[:, None], k, axis=1)
    variants[rows, :, target] = parts
    known = np.repeat(_norm_table(pairs, m)[:, None], k, axis=1)
    known[rows, :, target] = np.nan
    known[rows, :, :, target] = np.nan
    v_probs = np.repeat(probs, k, axis=0)
    v_pairs = _pair_norms(
        v_probs, variants.reshape(n * k, *states.shape[1:]), spec, known=known.reshape(-1, m, m)
    )
    return _weighted_sums(v_probs, v_pairs).reshape(n, k)


def _run_trials(
    dim: int, members: int, spec: NormSpec, seed: int, trials, slack: float
) -> tuple[np.ndarray, np.ndarray]:
    """Base quantumness ``(T,)`` and violations ``(T, 6)`` of the given trials.

    Columns follow ``PROPERTY_NAMES``.  A violation is the amount by which
    the required inequality is broken (positive means broken).
    """
    draws = [_draw_trial(np.random.default_rng([seed, t]), dim, members) for t in trials]
    n = len(draws)
    rows = np.arange(n)

    probs, states = _build_ensembles([d.ensemble for d in draws], dim)
    pairs = _pair_norms(probs, states, spec)
    m_e = _weighted_sums(probs, pairs)
    classical_e = is_classical_batch(probs, states, slack)

    # Positivity, and zero exactly on classical ensembles.
    cl_probs, cl_states = _build_classical([d.classical for d in draws])
    m_cl = quantumness_batch(cl_probs, cl_states, spec)
    classical_cl = is_classical_batch(cl_probs, cl_states, slack)

    u = haar_unitaries(np.stack([d.unitary for d in draws]))
    m_conj = quantumness_batch(probs, conjugate_batch(states, u), spec)

    o_probs, o_states = _build_ensembles([d.other for d in draws], dim)
    o_pairs = _pair_norms(o_probs, o_states, spec)
    m_o = _weighted_sums(o_probs, o_pairs)
    lam = np.array([d.lam for d in draws])
    lam = lam / lam.sum(axis=1, keepdims=True)
    m_union = _union_values(probs, states, pairs, o_probs, o_states, o_pairs, lam, spec)

    # Every member's spectral decomposition serves both the decomposition
    # of the target member and the fine-graining, whose members are the
    # rank-1 projectors onto its eigenvectors.
    weights, proj, vectors = _eigenprojectors(states)
    check_decompositions(weights, proj, states, range(members))
    target = np.array([d.target for d in draws])
    m_var = _variant_values(probs, states, pairs, target, proj[rows, target], spec)
    fine_probs = (probs[:, :, None] * weights).reshape(n, -1)
    check_weights(fine_probs, "ensemble probabilities")
    m_fine = quantumness_batch(
        fine_probs,
        proj.reshape(n, members * dim, dim, dim),
        spec,
        _rank_one_factors(vectors.reshape(-1, dim)),
    )

    # Ensembles are batched by block count, which varies between trials.
    m_coarse = np.empty(n)
    nblocks = np.array([len(d.partition.blocks) for d in draws])
    for nb in np.unique(nblocks):
        sel = np.flatnonzero(nblocks == nb)
        coarse = coarse_grain_batch(probs[sel], states[sel], [draws[t].partition for t in sel])
        m_coarse[sel] = quantumness_batch(*coarse, spec)

    # Violations are assembled in plain floats, in the order of operations
    # of the scalar definitions, so every number is reproducible.
    violations = []
    for me, mcl, cle, clc, mconj, mo, mu, (lam0, lam1), w, mv, mf, mc in zip(
        m_e.tolist(), m_cl.tolist(), classical_e.tolist(), classical_cl.tolist(),
        m_conj.tolist(), m_o.tolist(), m_union.tolist(), lam.tolist(),
        weights[rows, target].tolist(), m_var.tolist(), m_fine.tolist(), m_coarse.tolist(),
    ):
        v = max(-me, mcl)
        if _classicality_fails(me, cle, slack):
            v = max(v, _BOOL_FAIL)
        if not clc:
            v = max(v, _BOOL_FAIL)
        avg = math.fsum(w_k * q for w_k, q in zip(w, mv) if w_k > 0.0)
        violations.append(
            (v, abs(mconj - me), lam0 * me + lam1 * mo - mu, me - avg, me - mf, mc - me)
        )
    return m_e, np.array(violations).reshape(n, len(PROPERTY_NAMES))


def run_single_trial(
    dim: int, members: int, spec: NormSpec, seed: int, trial: int, slack: float = DEFAULT_SLACK
) -> dict:
    """Run one trial; returns {property: violation} plus the base quantumness.

    A violation is the amount by which the required inequality is broken
    (positive means broken); the trial passes a property when its
    violation is <= ``slack``.  This is the batched evaluation of
    :func:`check_properties` with a batch of one, so it reproduces that
    run's numbers for trial ``trial`` exactly.
    """
    values, violations = _run_trials(dim, members, spec, seed, [trial], slack)
    return {"quantumness": float(values[0]), **dict(zip(PROPERTY_NAMES, violations[0].tolist()))}


@dataclass
class PropertyResult:
    name: str
    passes: int = 0
    failures: int = 0
    worst_slack: float = -math.inf
    worst_trial: int = -1
    failed_trials: list = field(default_factory=list)

    def record(self, trial: int, violation: float, slack: float) -> None:
        if violation > self.worst_slack:
            self.worst_slack = violation
            self.worst_trial = trial
        if violation <= slack:
            self.passes += 1
        else:
            self.failures += 1
            if len(self.failed_trials) < 20:
                self.failed_trials.append((trial, violation))


@dataclass
class RunReport:
    """Outcome of a property-check run; ``render`` gives the printable form."""

    command: str
    seed: int
    norm_label: str
    dim: int
    members: int
    trials: int
    slack: float
    results: list
    values: np.ndarray = field(repr=False)
    """Base quantumness of each trial."""
    violations: np.ndarray = field(repr=False)
    """Violation of each trial and property, shape (trials, 6), columns in
    ``PROPERTY_NAMES`` order; ``run_single_trial`` replays any row."""

    @property
    def quantumness_min(self) -> float:
        return min(self.values.tolist())

    @property
    def quantumness_mean(self) -> float:
        return math.fsum(self.values.tolist()) / len(self.values)

    @property
    def quantumness_max(self) -> float:
        return max(self.values.tolist())

    def all_passed(self) -> bool:
        return all(r.failures == 0 for r in self.results)

    def worst_slack(self) -> float:
        return max(r.worst_slack for r in self.results)

    def render(self) -> str:
        lines = [
            f"command: {self.command}",
            f"seed: {self.seed}  norm: {self.norm_label}  dim: {self.dim}"
            f"  members: {self.members}  trials: {self.trials}  slack: {self.slack:.1e}",
            "base quantumness: "
            f"min {self.quantumness_min:.6e}  mean {self.quantumness_mean:.6e}"
            f"  max {self.quantumness_max:.6e}",
            f"{'property':<28}{'pass':>8}{'fail':>8}{'worst-slack':>16}{'at-trial':>10}",
        ]
        for r in self.results:
            lines.append(
                f"{r.name:<28}{r.passes:>8}{r.failures:>8}"
                f"{r.worst_slack:>16.3e}{r.worst_trial:>10}"
            )
        slack = "" if self.slack == DEFAULT_SLACK else f", slack={self.slack!r}"
        for r in self.results:
            for trial, violation in r.failed_trials:
                lines.append(
                    f"FAIL {r.name} trial {trial} violation {violation:.3e}"
                    f" (replay: run_single_trial(dim={self.dim}, members={self.members},"
                    f" spec=NormSpec.parse({self.norm_label!r}), seed={self.seed},"
                    f" trial={trial}{slack}))"
                )
        checks = sum(r.passes + r.failures for r in self.results)
        passed = sum(r.passes for r in self.results)
        verdict = "PASS" if self.all_passed() else "FAIL"
        lines.append(f"overall: {verdict} ({passed}/{checks} checks)")
        return "\n".join(lines)


def check_properties(
    dim: int,
    members: int,
    trials: int,
    seed: int,
    spec: NormSpec,
    slack: float = DEFAULT_SLACK,
) -> RunReport:
    """Run the full property suite; deterministic for fixed arguments."""
    if dim < 2:
        raise ParamOutOfRange(f"dim must be >= 2, got {dim}")
    if members < 2:
        raise ParamOutOfRange(f"members must be >= 2, got {members}")
    if trials < 1:
        raise ParamOutOfRange(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ParamOutOfRange(f"seed must be >= 0, got {seed}")
    command = (
        f"check-properties --dim {dim} --members {members} --trials {trials}"
        f" --seed {seed} --norm {spec.label()}"
    )
    values = np.empty(trials)
    violations = np.empty((trials, len(PROPERTY_NAMES)))
    for start in range(0, trials, _CHUNK):
        chunk = range(start, min(start + _CHUNK, trials))
        values[chunk.start : chunk.stop], violations[chunk.start : chunk.stop] = _run_trials(
            dim, members, spec, seed, chunk, slack
        )
    results = [PropertyResult(name) for name in PROPERTY_NAMES]
    for t, row in enumerate(violations.tolist()):
        for r, violation in zip(results, row):
            r.record(t, violation, slack)
    return RunReport(
        command=command,
        seed=seed,
        norm_label=spec.label(),
        dim=dim,
        members=members,
        trials=trials,
        slack=slack,
        results=results,
        values=values,
        violations=violations,
    )
