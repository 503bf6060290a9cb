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
    BLOCK_BYTES,
    Ensemble,
    _factors_from_eigh,
    _live_pairs,
    _norms_of,
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
    _ginibre,
    _hermitize,
    _validate_density_eigh,
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
# A trial holds m * d eigenprojectors of d x d, 16 m d^3 bytes, so a batch
# takes fewer trials where they would pass ``ensemble.BLOCK_BYTES``.
_CHUNK = 250


def _draw_ensemble(random, integers, normal, dim: int, members: int, allow_zero_prob=False):
    """Random numbers for one Ginibre ensemble: raw weights, per-member
    Gaussians, from a generator's bound ``random``, ``integers`` and
    ``standard_normal``."""
    probs = random(members)
    if allow_zero_prob and members >= 3 and random() < 0.2:
        probs[int(integers(members))] = 0.0
    gauss = [normal((2, dim, int(integers(1, dim + 1)))) for _ in range(members)]
    return probs, gauss


def _build_ensembles(draws, dim: int, validate) -> tuple:
    """Stack the ensembles of ``_draw_ensemble`` draws: probabilities and
    ``validate`` of the states.

    The draws are grouped by Ginibre rank in one pass, and the states of
    each rank are generated in one batch.  The whole family is then
    validated in one call: ``validate_density_stack``, or
    ``_validate_factored`` where the eigenpairs serve later (the property
    harness builds E and O in one call, decomposes every member of E, and
    hands E's and O's factors to the pair kernel).
    """
    probs = np.array([p for p, _ in draws])
    probs = probs / probs.sum(axis=1, keepdims=True)
    check_weights(probs, "ensemble probabilities")
    by_rank = {}
    for t, (_, gauss) in enumerate(draws):
        for i, g in enumerate(gauss):
            by_rank.setdefault(g.shape[-1], []).append((t, i, g))
    states = np.empty((*probs.shape, dim, dim), dtype=complex)
    for slots in by_rank.values():
        t, i, g = zip(*slots)
        states[list(t), list(i)] = _ginibre(np.stack(g))
    return probs, validate(states)


def random_ensemble(dim: int, members: int, rng, allow_zero_prob: bool = False) -> Ensemble:
    """Random ensemble of Ginibre states (random ranks) with random weights."""
    draws = [_draw_ensemble(rng.random, rng.integers, rng.standard_normal, dim, members,
                            allow_zero_prob)]
    probs, states = _build_ensembles(draws, dim, validate_density_stack)
    return Ensemble.from_stack(probs[0], states[0])


def _build_classical(draws, u) -> tuple:
    """Pairwise commuting ensembles: random diagonals in the Haar basis ``u[b]`` of each.

    Returns the probabilities, the validated states and the factors of the
    batch-flattened members, from the diagonals and the basis, their
    eigenpairs by construction: at d >= 8 they spare the kernel a member
    ``eigh`` per state.
    """
    probs = np.array([p for _, p, _ in draws])
    probs = probs / probs.sum(axis=1, keepdims=True)
    check_weights(probs, "ensemble probabilities")
    diag = np.array([d for _, _, d in draws])
    diag = diag / diag.sum(axis=-1, keepdims=True)
    m = (u[:, None] * diag[..., None, :]) @ _adjoint(u)[:, None]
    members, d = diag.shape[1:]
    factors = _factors_from_eigh(diag.reshape(-1, d), np.repeat(u, members, axis=0))
    return probs, validate_density_stack(_hermitize(m)), factors


def _draw_trial(rng, dim: int, members: int) -> tuple:
    """Every random number one trial consumes, in the order it draws them,
    with the generator's methods bound once: E, the classical ensemble, the
    unitary, O, the union weights, the target and the coarse-graining blocks.
    The blocks, plain tuples, are contiguous chunks of a shuffled index
    list, drawn up to 20 times until no block has zero probability, else
    the single block."""
    random, integers, normal = rng.random, rng.integers, rng.standard_normal
    permutation, choice = rng.permutation, rng.choice
    ensemble = _draw_ensemble(random, integers, normal, dim, members, allow_zero_prob=True)
    classical = (normal((2, dim, dim)), random(members), random((members, dim)))
    unitary = normal((2, dim, dim))
    other = _draw_ensemble(random, integers, normal, dim, members)
    lam = random(2)
    target = int(integers(members))
    p = ensemble[0].tolist()  # zero patterns of raw and normalized weights coincide
    blocks = (tuple(range(members)),)
    for _ in range(20):
        order = permutation(members).tolist()
        nblocks = int(integers(1, members + 1))
        cuts = []
        if nblocks > 1:  # the draw of choice(np.arange(1, members), ...), as indices
            cuts = sorted((choice(members - 1, size=nblocks - 1, replace=False) + 1).tolist())
        bounds = [0, *cuts, members]
        drawn = tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))
        if all(sum(p[i] for i in blk) > 0.0 for blk in drawn):
            blocks = drawn
            break
    return ensemble, classical, unitary, other, lam, target, blocks


def _trial_draws(dim: int, members: int, seed: int, trials) -> list:
    """``_draw_trial`` of each trial t, from ``default_rng([seed, t])``."""
    # default_rng builds exactly this generator; the direct call is cheaper.
    pcg, generator = np.random.PCG64, np.random.Generator
    return [_draw_trial(generator(pcg([seed, t])), dim, members) for t in trials]


def _classicality_fails(m: float, classical: bool, slack: float) -> bool:
    """A classical ensemble needs ``M <= slack``, a non-classical one ``M > 0``
    (a tiny weight can put a non-classical M far below ``slack``)."""
    return m > slack if classical else m <= 0.0


def _validate_factored(stack) -> tuple:
    """``_validate_density_eigh`` of a ``(B, m, d, d)`` stack: the validated
    states, their eigenpairs ``(w, v)`` and the ``_factors_from_eigh`` of
    the batch-flattened members, which the pair kernel takes in place of
    its own member ``eigh``."""
    states, w, v = _validate_density_eigh(stack)
    d = states.shape[-1]
    return states, (w, v), _factors_from_eigh(w.reshape(-1, d), v.reshape(-1, d, d))


def _variant_values(probs, states, factors, norms, target, parts, vectors, spec) -> np.ndarray:
    """M ``(B, K)`` of ensemble b with member ``target[b]`` replaced by each
    of ``parts[b]`` ``(K, d, d)``, the projectors onto the unit ``vectors[b]``
    ``(K, d)``.

    ``factors`` are those of the batch-flattened members of ``states``, and
    ``norms`` is the ``_pair_norms`` table of the ensembles.  A variant
    keeps every pair that avoids the target, so only the target's live
    pairs are computed, in the variant's member order: [E_i, part] for
    i < target, else [part, E_i] (the swapped commutator is the negated
    matrix, whose eigenvalues need not round the same).  Every part is rank
    1, with ``_rank_one_factors`` of its vector, so each of those pairs is
    zero or takes the kernel's rank-1 route: no eigensolve runs.
    """
    n, m = probs.shape
    k, d = parts.shape[1], parts.shape[-1]
    rows = np.arange(n)
    live = (probs > 0.0) & (probs[rows, target] > 0.0)[:, None]
    live[rows, target] = False
    b, i = np.nonzero(live)
    b, i, part = np.repeat(b, k), np.repeat(i, k), np.tile(np.arange(k), len(b))
    t = target[b]
    member, piece = b * m + i, n * m + b * k + part
    values = _norms_of(
        np.concatenate([states.reshape(-1, d, d), parts.reshape(-1, d, d)]),
        np.where(i < t, member, piece), np.where(i < t, piece, member), spec,
        tuple(map(np.concatenate, zip(factors, _rank_one_factors(vectors.reshape(-1, d))))),
    )
    tables = np.repeat(norms[:, None], k, axis=1)
    tables[b, part, np.minimum(i, t), np.maximum(i, t)] = values
    probs = np.repeat(probs, k, axis=0)
    return _weighted_sums(probs, tables.reshape(n * k, m, m), _live_pairs(probs)).reshape(n, k)


def _run_trials(
    dim: int, members: int, spec: NormSpec, seed: int, trials, slack: float
) -> tuple[np.ndarray, np.ndarray]:
    """Base quantumness ``(T,)`` and violations ``(T, 6)`` of the given trials.

    Columns follow ``PROPERTY_NAMES``.  A violation is the amount by which
    the required inequality is broken (positive means broken).
    """
    draws = _trial_draws(dim, members, seed, trials)
    ensembles, classical, unitary, others, lam, target, blocks = zip(*draws)
    n = len(blocks)
    rows = np.arange(n)

    # E and O in one stack, E's trials first, validated together.  Their
    # eigenpairs serve E's decomposition, and as factors they spare the
    # kernel its member eigh and send every pair with a rank-1 member down
    # its rank-1 route.
    both, (both_states, (w, v), both_factors) = _build_ensembles(
        [*ensembles, *others], dim, _validate_factored
    )
    probs, o_probs, states, o_states = both[:n], both[n:], both_states[:n], both_states[n:]
    factors = tuple(f[: n * members] for f in both_factors)
    classical_e = is_classical_batch(probs, states, slack)

    # Each trial's classical basis and conjugating unitary, from one batch.
    u = haar_unitaries(np.stack([g for g, _, _ in classical] + list(unitary)))

    # Positivity, and zero exactly on classical ensembles.
    cl_probs, cl_states, cl_factors = _build_classical(classical, u[:n])
    m_cl = quantumness_batch(cl_probs, cl_states, spec, cl_factors)
    classical_cl = is_classical_batch(cl_probs, cl_states, slack)

    # U v and the same shifted eigenvalues are eigenpairs of U rho U^+.
    ranks, shifted, vecs = factors
    u_vecs = (u[n:, None] @ vecs.reshape(n, members, *vecs.shape[1:])).reshape(vecs.shape)
    conjugated = conjugate_batch(states, u[n:])
    m_conj = quantumness_batch(probs, conjugated, spec, (ranks, shifted, u_vecs))

    # E, O and their union from one table: the union's live pairs are among
    # those live under E's and O's own probabilities.
    lam = np.array(lam)
    lam = lam / lam.sum(axis=1, keepdims=True)
    u_probs, u_states = union_batch([probs, o_probs], [states, o_states], lam)
    live = _live_pairs(np.concatenate([probs, o_probs], axis=1))
    # The union's members are E's then O's in each trial: interleave the factors.
    u_factors = tuple(
        f.reshape(2, n, members, *f.shape[1:]).swapaxes(0, 1).reshape(f.shape)
        for f in both_factors
    )
    norms = _pair_norms(live, u_states, spec, u_factors)
    e_norms = norms[:, :members, :members]
    m_e = _weighted_sums(probs, e_norms, _live_pairs(probs))
    m_o = _weighted_sums(o_probs, norms[:, members:, members:], _live_pairs(o_probs))
    m_union = _weighted_sums(u_probs, norms, _live_pairs(u_probs))

    # Every member's spectral decomposition serves both the decomposition
    # of the target member and the fine-graining, whose members are the
    # rank-1 projectors onto its eigenvectors.
    weights, proj, vectors = _eigenprojectors(states, (w[:n], v[:n]))
    check_decompositions(weights, proj, states, range(members))
    target = np.array(target)
    m_var = _variant_values(
        probs, states, factors, e_norms, target, proj[rows, target], vectors[rows, target], spec
    )
    fine_probs = (probs[:, :, None] * weights).reshape(n, -1)
    check_weights(fine_probs, "ensemble probabilities")
    m_fine = quantumness_batch(
        fine_probs,
        proj.reshape(n, members * dim, dim, dim),
        spec,
        _rank_one_factors(vectors.reshape(-1, dim)),
    )

    # Every trial's coarse-graining in one batch, whatever its block count.
    c_probs, c_states, c_factors = coarse_grain_batch(probs, states, blocks)
    m_coarse = quantumness_batch(c_probs, c_states, spec, c_factors)

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

    @classmethod
    def from_column(cls, name: str, violations: np.ndarray, slack: float) -> "PropertyResult":
        """Summary of one property's violations ``(T,)``: a trial passes at
        violation <= ``slack`` (a NaN fails), the worst is the first maximum
        (never a NaN), and ``failed_trials`` holds the first 20 failures."""
        failed = np.flatnonzero(~(violations <= slack))
        ranked = np.where(np.isnan(violations), -math.inf, violations)
        t = int(np.argmax(ranked))
        worst = (float(ranked[t]), t) if ranked[t] > -math.inf else (-math.inf, -1)
        first = list(zip(failed[:20].tolist(), violations[failed[:20]].tolist()))
        return cls(name, len(violations) - len(failed), len(failed), *worst, first)


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
    step = max(1, min(_CHUNK, BLOCK_BYTES // (16 * members * dim**3)))
    for start in range(0, trials, step):
        chunk = range(start, min(start + step, trials))
        values[chunk.start : chunk.stop], violations[chunk.start : chunk.stop] = _run_trials(
            dim, members, spec, seed, chunk, slack
        )
    results = [
        PropertyResult.from_column(name, column, slack)
        for name, column in zip(PROPERTY_NAMES, violations.T)
    ]
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
