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
first draws every trial's random numbers, in that order, straight into
the chunk's arrays, then evaluates all trials together through the stack
forms of :mod:`ensq.ensemble`; a replayed trial is the same evaluation
with a batch of one and reproduces every number bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import (
    BLOCK_BYTES,
    Ensemble,
    Factors,
    _live_pairs,
    _norms_of,
    _pair_norms,
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


class _Ginibre:
    """Raw weights and Gaussians of a stack ``shape`` of Ginibre ensembles,
    drawn in place.  A member's Gaussian ``(2, d, r)`` for its drawn rank r
    fills the first ``2 d r`` entries of its own row of ``gauss``, so the
    stack takes ``16 d^2`` bytes a member, whatever the ranks."""

    def __init__(self, shape: tuple, dim: int, members: int):
        self.dim, self.weights = dim, np.empty((*shape, members))
        self.ranks = np.empty((*shape, members), dtype=np.intp)
        self.gauss = np.empty((*shape, members, 2 * dim * dim))

    def draw(self, rng, at, allow_zero_prob: bool = False) -> None:
        """Draw ensemble ``at``: raw weights (where allowed and m >= 3, one
        zeroed with probability 0.2), then each member's rank and Gaussian."""
        random, integers, normal = rng.random, rng.integers, rng.standard_normal
        probs, ranks, dim = self.weights[at], self.ranks[at], self.dim
        random(out=probs)
        if allow_zero_prob and len(probs) >= 3 and random() < 0.2:
            probs[int(integers(len(probs)))] = 0.0
        for i, row in enumerate(self.gauss[at]):
            r = ranks[i] = int(integers(1, dim + 1))
            normal(out=row[: 2 * dim * r])  # the draw of shape (2, d, r), flat

    def stacks(self) -> tuple:
        """Probabilities and unvalidated states, each rank's from one batch."""
        probs = self.weights / self.weights.sum(axis=-1, keepdims=True)
        check_weights(probs, "ensemble probabilities")
        d = self.dim
        states = np.empty((*self.ranks.shape, d, d), dtype=complex)
        for r in np.unique(self.ranks).tolist():
            drawn = self.ranks == r
            states[drawn] = _ginibre(self.gauss[..., : 2 * d * r][drawn].reshape(-1, 2, d, r))
        return probs, states


def random_ensemble(dim: int, members: int, rng, allow_zero_prob: bool = False) -> Ensemble:
    """Random ensemble of Ginibre states (random ranks) with random weights."""
    _check_params(dim, members)
    drawn = _Ginibre((), dim, members)
    drawn.draw(rng, (), allow_zero_prob)
    probs, states = drawn.stacks()
    return Ensemble.from_stack(probs, validate_density_stack(states))


def _draw_trials(dim: int, members: int, seed: int, trials) -> tuple:
    """Every random number of the given trials, written straight into the
    chunk's arrays.  Trial t draws from ``default_rng([seed, t])``, in this
    order: E, the classical basis Gaussian, weights and diagonals, the
    unitary's Gaussian, O, the union weights, the target and the blocks.
    The blocks (plain tuples) are contiguous chunks of a shuffled index
    list, drawn up to 20 times until no block has zero probability, else
    the single block.  Returns E and O as one ``_Ginibre`` ``(2, n)``, the
    bases' then the unitaries' Gaussians ``(2n, 2, d, d)``, the classical
    weights ``(n, m)`` and diagonals ``(n, m, d)``, the union weights
    ``(n, 2)``, the targets ``(n,)`` and each trial's blocks."""
    n = len(trials)
    both = _Ginibre((2, n), dim, members)
    bases = np.empty((2 * n, 2, dim, dim))
    cl_weights, diag = np.empty((n, members)), np.empty((n, members, dim))
    lam, target, blocks = np.empty((n, 2)), np.empty(n, dtype=np.intp), []
    for row, t in enumerate(trials):
        rng = np.random.Generator(np.random.PCG64([seed, t]))  # default_rng's, built directly
        both.draw(rng, (0, row), allow_zero_prob=True)
        rng.standard_normal(out=bases[row])
        rng.random(out=cl_weights[row])
        rng.random(out=diag[row])
        rng.standard_normal(out=bases[n + row])
        both.draw(rng, (1, row))
        rng.random(out=lam[row])
        target[row] = rng.integers(members)
        p = both.weights[0, row].tolist()  # zero patterns of raw and normalized weights coincide
        drawn = (tuple(range(members)),)
        for _ in range(20):
            order = rng.permutation(members).tolist()
            nblocks = int(rng.integers(1, members + 1))
            cuts = []
            if nblocks > 1:  # the draw of choice(np.arange(1, members), ...), as indices
                cuts = sorted((rng.choice(members - 1, size=nblocks - 1, replace=False) + 1).tolist())
            bounds = [0, *cuts, members]
            part = tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))
            if all(sum(p[i] for i in blk) > 0.0 for blk in part):
                drawn = part
                break
        blocks.append(drawn)
    return both, bases, cl_weights, diag, lam, target, blocks


def _check_params(dim: int, members: int, slack: float = DEFAULT_SLACK, **counts) -> None:
    """Raise ``ParamOutOfRange`` unless dim and members are >= 2, slack is
    finite and >= 0, trials >= 1 and a seed or a trial >= 0."""
    lowest = {"dim": 2, "members": 2, "trials": 1, "seed": 0, "trial": 0}
    for name, value in {"dim": dim, "members": members, **counts}.items():
        if value < lowest[name]:
            raise ParamOutOfRange(f"{name} must be >= {lowest[name]}, got {value}")
    if not 0.0 <= slack < math.inf:
        raise ParamOutOfRange(f"slack must be finite and >= 0, got {slack!r}")


def _classicality_fails(m: float, classical: bool, slack: float) -> bool:
    """A classical ensemble needs ``M <= slack``, a non-classical one ``M > 0``
    (a tiny weight can put a non-classical M far below ``slack``)."""
    return m > slack if classical else m <= 0.0


def _variant_values(probs, states, factors, norms, target, parts, vectors, spec) -> np.ndarray:
    """M ``(B, K)`` of ensemble b with member ``target[b]`` replaced by each
    of ``parts[b]`` ``(K, d, d)``, the projectors onto the unit ``vectors[b]``
    ``(K, d)``.

    ``factors`` are the ``Factors`` of the batch-flattened members of
    ``states``, and ``norms`` is the ``_pair_norms`` table of the
    ensembles.  A variant keeps every pair that avoids the target, so only
    the target's live pairs are computed, in the variant's member order:
    [E_i, part] for i < target, else [part, E_i] (the swapped commutator is
    the negated matrix, whose eigenvalues need not round the same).  Every
    part is rank 1 (``Factors.from_vectors``), so each of those pairs is
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
        Factors.join([factors, Factors.from_vectors(vectors)]),
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
    both, bases, cl_weights, diag, lam, target, blocks = _draw_trials(dim, members, seed, trials)
    n = len(blocks)
    rows = np.arange(n)

    # E and O in one stack, E's trials first, validated together.  Their
    # eigenpairs serve E's decomposition, and as factors they spare the
    # kernel its member eigh and send every pair with a rank-1 member down
    # its rank-1 route.
    (probs, o_probs), raw = both.stacks()
    both_states, w, v = _validate_density_eigh(raw.reshape(2 * n, members, dim, dim))
    both_factors = Factors.from_eigh(w, v)
    states, o_states = both_states[:n], both_states[n:]
    factors = both_factors.take(slice(n * members))
    classical_e = is_classical_batch(probs, states, slack)

    # Each trial's classical basis and conjugating unitary, from one batch.
    u = haar_unitaries(bases)

    # Positivity, and zero exactly on classical ensembles: random diagonals
    # in each trial's Haar basis, their eigenpairs by construction, which as
    # factors spare the kernel a member eigh per state at d >= 8.
    cl_probs = cl_weights / cl_weights.sum(axis=1, keepdims=True)
    check_weights(cl_probs, "ensemble probabilities")
    diag = diag / diag.sum(axis=-1, keepdims=True)
    basis = u[:n]
    cl_states = (basis[:, None] * diag[..., None, :]) @ _adjoint(basis)[:, None]
    cl_states = validate_density_stack(_hermitize(cl_states))
    cl_factors = Factors.from_eigh(diag, np.repeat(basis, members, axis=0))
    m_cl = quantumness_batch(cl_probs, cl_states, spec, cl_factors)
    classical_cl = is_classical_batch(cl_probs, cl_states, slack)

    # U v and the same shifted eigenvalues are eigenpairs of U rho U^+.
    u_factors = factors.conjugated(np.repeat(u[n:], members, axis=0))
    m_conj = quantumness_batch(probs, conjugate_batch(states, u[n:]), spec, u_factors)

    # E, O and their union from one table: the union's live pairs are among
    # those live under E's and O's own probabilities.
    lam = lam / lam.sum(axis=1, keepdims=True)
    u_probs, u_states = union_batch([probs, o_probs], [states, o_states], lam)
    live = _live_pairs(np.concatenate([probs, o_probs], axis=1))
    # The union's members are E's then O's in each trial: interleave the factors.
    order = np.arange(2 * n * members).reshape(2, n, members).swapaxes(0, 1).ravel()
    norms = _pair_norms(live, u_states, spec, both_factors.take(order))
    e_norms = norms[:, :members, :members]
    m_e = _weighted_sums(probs, e_norms, _live_pairs(probs))
    m_o = _weighted_sums(o_probs, norms[:, members:, members:], _live_pairs(o_probs))
    m_union = _weighted_sums(u_probs, norms, _live_pairs(u_probs))

    # Every member's spectral decomposition serves both the decomposition
    # of the target member and the fine-graining, whose members are the
    # rank-1 projectors onto its eigenvectors.
    weights, proj, vectors = _eigenprojectors(states, (w[:n], v[:n]))
    check_decompositions(weights, proj, states, range(members))
    m_var = _variant_values(
        probs, states, factors, e_norms, target, proj[rows, target], vectors[rows, target], spec
    )
    fine_probs = (probs[:, :, None] * weights).reshape(n, -1)
    check_weights(fine_probs, "ensemble probabilities")
    m_fine = quantumness_batch(
        fine_probs,
        proj.reshape(n, members * dim, dim, dim),
        spec,
        Factors.from_vectors(vectors),
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
    _check_params(dim, members, slack, seed=seed, trial=trial)
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
    _check_params(dim, members, slack, trials=trials, seed=seed)
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
