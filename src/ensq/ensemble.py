"""Quantum ensembles and their commutator-norm quantumness.

The quantumness of an ensemble ``{(p_i, rho_i)}`` is

    2 * sum_{i<j} sqrt(p_i p_j) ||[rho_i, rho_j]||

for a chosen unitary-similarity-invariant norm.  It vanishes exactly when
all states occurring with positive probability commute, and this module
also provides the transformations (unitary conjugation, probabilistic
union, member decomposition, fine- and coarse-graining) under which the
measure is provably monotone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DecompositionMismatch,
    DimensionMismatch,
    InvalidPartition,
    NoConvergence,
    NotUnitary,
    ParamOutOfRange,
    WeightSumInvalid,
    ZeroBlockProbability,
)
from .linalg import TOL, NormSpec
from .states import DensityMatrix, _adjoint, _hermitize, _validated, validate_density_stack
from .states import _validate_density_eigh

__all__ = [
    "Ensemble",
    "Factors",
    "Partition",
    "check_decompositions",
    "check_weights",
    "coarse_grain",
    "coarse_grain_batch",
    "conjugate_batch",
    "decompose_member",
    "fine_grain",
    "is_classical",
    "is_classical_batch",
    "probabilistic_union",
    "quantumness",
    "quantumness_batch",
    "union_batch",
    "unitary_conjugate",
]

# The pair kernel works through pairs in blocks of at most this many bytes
# of d x d commutators, so its memory does not grow with the pair count.
BLOCK_BYTES = 1 << 24
# A stack without factors gets them from one member eigh per member of a
# pair, from d = 8 on; below it every such pair takes the dense route.  A
# source that already has the factors hands them over at every d
# (``Ensemble.factors``).
LOW_RANK_MIN_DIM = 8
# check_weights passes a row whose numpy sum is within TOL / 2 of one
# without an exact sum.  For at most this many finite nonnegative weights,
# in any summation order, the float sum is within 1e5 * 2**-53 (about
# 1.1e-11) of the exact one, so the exact sum is within TOL as well.
SCREENED_ROW_MAX = 10**5


def check_weights(weights, what: str) -> None:
    """Each row of ``weights`` must be finite, nonnegative and sum to one within ``TOL``.

    The sum is exact (``math.fsum``), apart from rows that a numpy sum
    shows to pass (see ``SCREENED_ROW_MAX``).  A failing sum is reported
    for the first failing row; ``what`` prefixes error messages.
    """
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
    with np.errstate(over="ignore"):  # an overflowing row goes on to fsum
        near = (np.abs(w.sum(axis=1) - 1.0) <= TOL / 2) & (w.shape[1] <= SCREENED_ROW_MAX)
    for total in map(math.fsum, w[~near].tolist()):
        if abs(total - 1.0) > TOL:
            raise WeightSumInvalid(f"{what}: weights sum to {total!r}, expected 1")


def _member_stack(members) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``(n,)`` and validated states ``(n, d, d)`` of (weight, state) pairs.

    Raw arrays are validated together in one batch; ``DensityMatrix``
    states are kept as they are, since validating again could clamp again.
    """
    members = tuple(members)
    matrices = [
        s.matrix if isinstance(s, DensityMatrix) else linalg.as_matrix(s) for _, s in members
    ]
    dims = sorted({m.shape[0] for m in matrices})
    if len(dims) > 1:
        raise DimensionMismatch(f"states have mixed dimensions {dims}")
    stack = np.array(matrices, dtype=complex)
    raw = [i for i, (_, s) in enumerate(members) if not isinstance(s, DensityMatrix)]
    if raw:
        stack[raw] = validate_density_stack(stack[raw])
    return np.array([float(w) for w, _ in members]), stack


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """An ordered collection of (probability, density matrix) members.

    Stored as two read-only arrays, ``probabilities`` ``(m,)`` and
    ``state_stack`` ``(m, d, d)``, and the members' ``Factors`` or None;
    ``members``, ``states`` and iteration are derived from the arrays.
    Probabilities must be nonnegative and sum to one within ``TOL``;
    members with zero probability are kept (they contribute nothing to the
    quantumness) and duplicates are not merged.  Raw arrays are accepted in
    place of ``DensityMatrix`` and validated together in one batch.

    ``factors`` are handed over by a source that already has them, from an
    eigendecomposition or from a pure member's amplitudes, so that
    ``quantumness`` runs no member ``eigh`` of its own, and every pair
    with a rank-1 member takes the kernel's rank-1 route, at every d.
    ``io.load_ensemble`` supplies them on every ``Ensemble`` it returns,
    and ``coarse_grain`` from d = 8 on (``coarse_grain_batch``).  Every
    other constructor and transform leaves them None.
    """

    probabilities: np.ndarray
    state_stack: np.ndarray = field(repr=False)
    factors: Factors | None = field(default=None, repr=False)

    def __init__(self, members) -> None:
        self.__post_init__(*_member_stack(members))

    def __post_init__(self, probabilities, states, factors=None) -> None:
        """Both constructors end here: check the weights and the stack shape,
        then store the arrays read-only."""
        probs = np.array(probabilities, dtype=float)
        check_weights(probs, "ensemble probabilities")
        if states.ndim != 3 or states.shape[:1] != probs.shape:
            raise DimensionMismatch(
                f"{probs.shape[0]} probabilities for a state stack of shape {states.shape}"
            )
        probs.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "state_stack", states)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def from_stack(cls, probabilities, states, factors=None) -> "Ensemble":
        """Ensemble over ``states`` ``(m, d, d)`` already validated, by
        ``validate_density_stack`` or a stack form that runs its checks;
        only the probabilities are checked.  ``factors``, if given, must be
        ``Factors.from_eigh`` of the eigenpairs of ``states``, or, for
        rank-1 projectors, ``Factors.from_vectors`` of their unit vectors."""
        ensemble = object.__new__(cls)
        ensemble.__post_init__(probabilities, np.array(states, dtype=complex), factors)
        return ensemble

    @property
    def dim(self) -> int:
        return self.state_stack.shape[-1]

    @property
    def states(self) -> tuple:
        return tuple(map(_validated, self.state_stack))

    @property
    def members(self) -> tuple:
        return tuple(zip(self.probabilities.tolist(), self.states))

    def __len__(self) -> int:
        return len(self.probabilities)

    def __iter__(self):
        return iter(self.members)

    def average_state(self) -> DensityMatrix:
        """The barycenter sum_i p_i rho_i."""
        m = np.tensordot(self.probabilities, self.state_stack, axes=1)
        return DensityMatrix(_hermitize(m))


# Stack forms.  Every function below works on a batch of ensembles sharing
# one member count: probabilities ``(B, m)`` and states ``(B, m, d, d)``.
# The single-ensemble API further down is the batch of one, and no result
# depends on the batch it is computed in: numpy runs batched matmul and
# eigensolvers matrix by matrix, and every reduction stays within one
# matrix or one row.


@dataclass(frozen=True, eq=False)
class Factors:
    """N members mu I + sum_k lambda_k v_k v_k^+ as read-only arrays: ``ranks``
    ``(N,)``, r; ``shifted`` ``(N, c)``, the lambda; ``vecs`` ``(N, c, d)``, the
    unit v as rows.  c = max(1, d // 4), the most the low-rank route uses and
    one for the rank-1 route; a member uses its first r columns, and rank 0
    is a multiple of the identity.  Callers build and map them by the methods."""

    ranks: np.ndarray
    shifted: np.ndarray
    vecs: np.ndarray

    def __post_init__(self) -> None:
        for arr in self._arrays():
            arr.setflags(write=False)

    def _arrays(self) -> tuple:
        return self.ranks, self.shifted, self.vecs

    @classmethod
    def from_eigh(cls, w: np.ndarray, v: np.ndarray) -> "Factors":
        """One row per member with eigenpairs ``w`` ``(..., d)``, ``v`` ``(..., d, d)``:
        mu is its most repeated eigenvalue, where eigenvalues within
        ``linalg.roundoff_tol`` of each other count as equal, and r the
        number of eigenvalues outside that cluster, whose pairs come first."""
        d = w.shape[-1]
        w, v = w.reshape(-1, d), v.reshape(-1, d, d)
        tol = linalg.roundoff_tol(w)[:, None]
        near = np.abs(w[:, :, None] - w[:, None, :]) <= tol[:, :, None]
        mu = np.take_along_axis(w, near.sum(axis=-1).argmax(axis=-1)[:, None], axis=-1)
        outside = np.abs(w - mu) > tol
        order = np.argsort(~outside, axis=-1, kind="stable")[:, : max(1, d // 4)]
        return cls(
            outside.sum(axis=-1),
            np.take_along_axis(w - mu, order, axis=-1),
            np.take_along_axis(v.swapaxes(-1, -2), order[:, :, None], axis=-2),
        )

    @classmethod
    def from_vectors(cls, vectors: np.ndarray) -> "Factors":
        """The projectors onto unit ``vectors`` ``(..., d)``: rank 1, lambda 1."""
        n, d = math.prod(vectors.shape[:-1]), vectors.shape[-1]
        vecs = np.zeros((n, max(1, d // 4), d), dtype=complex)
        vecs[:, 0] = vectors.reshape(n, d)
        return cls(np.ones(n, dtype=int), np.ones(vecs.shape[:2]), vecs)

    @classmethod
    def join(cls, parts: list) -> "Factors":
        """The members of ``parts`` one after the other."""
        return cls(*map(np.concatenate, zip(*(f._arrays() for f in parts))))

    @classmethod
    def placed(cls, n: int, parts: list) -> "Factors":
        """n members: each of ``parts``, (rows, factors), at its rows, rank 0 elsewhere."""
        out = [np.zeros((n, *a.shape[1:]), a.dtype) for a in parts[0][1]._arrays()]
        for rows, f in parts:
            for dst, src in zip(out, f._arrays()):
                dst[rows] = src
        return cls(*out)

    def take(self, rows) -> "Factors":
        """The members at ``rows``, any numpy index of the member axis."""
        return Factors(*(a[rows] for a in self._arrays()))

    def conjugated(self, u: np.ndarray) -> "Factors":
        """U_n rho_n U_n^+ for ``u`` ``(N, d, d)``: the same lambda, and U_n v."""
        columns = np.ascontiguousarray(self.vecs.swapaxes(-1, -2))
        vecs = np.ascontiguousarray((u @ columns).swapaxes(-1, -2))
        return Factors(self.ranks, self.shifted, vecs)


def _low_rank_factors(states: np.ndarray, live: np.ndarray):
    """``Factors.from_eigh`` of one ``eigh`` of each live member, and rank 0
    where ``live`` is False; None when d < 8."""
    if states.shape[-1] < LOW_RANK_MIN_DIM:
        return None
    try:
        w, v = np.linalg.eigh(states[live])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    return Factors.placed(len(states), [(live, Factors.from_eigh(w, v))])


def _low_rank_singular_values(factors, a, b, r_a: int, r_b: int) -> np.ndarray:
    """Nonincreasing singular values ``(n, k)`` of [A, B] for the members ``a``
    and ``b`` of ranks r_a and r_b, with A = V_a L_a V_a^+ from ``factors``.

    With the thin QR [V_a V_b] = Q R, both operators are Q (R L R^+) Q^+,
    so the commutator's nonzero singular values are those of a k x k one,
    k = r_a + r_b.  R comes from Householder QR of the eigenvectors, not
    from their overlaps, so near-parallel pairs keep full accuracy.
    """
    v = np.concatenate([factors.vecs[a, :r_a], factors.vecs[b, :r_b]], axis=-2)
    r = np.linalg.qr(v.swapaxes(-1, -2), mode="r")
    x = (r[..., :r_a] * factors.shifted[a, None, :r_a]) @ _adjoint(r[..., :r_a])
    y = (r[..., r_a:] * factors.shifted[b, None, :r_b]) @ _adjoint(r[..., r_a:])
    return linalg.antihermitian_singular_values(x @ y - y @ x)


def _rank_one_values(states: np.ndarray, i, j, factors) -> np.ndarray:
    """The two equal nonzero singular values ``(n,)`` of [states[i], states[j]],
    where one member of each pair is rank 1 after its shift.

    Call that member q (member j when both are), B = mu I + lambda v v^+,
    and the other p, with matrix A.  Then [A, B] = lambda (x v^+ - v x^+)
    with x = (I - v v^+) A v orthogonal to v, whose singular values are
    |lambda| ||x||, twice.  A v is a mat-vec with ``states[p]``, or, when p
    is rank 1 too (A = mu_p I + lambda_p u u^+), mu_p v + lambda_p (u^+ v) u,
    so that ||x|| = |lambda_p (u^+ v)| ||(I - v v^+) u||.  No eigensolve
    runs, and the projection is a difference of vectors, not of 1 and
    |u^+ v|^2, so near-parallel pairs keep the accuracy of the vectors.
    """
    ranks, lam = factors.ranks, factors.shifted
    swap = ranks[j] != 1
    q, p = np.where(swap, i, j), np.where(swap, j, i)
    v = factors.vecs[q, 0]
    pure = ranks[p] == 1
    z = factors.vecs[p, 0]
    mixed = np.flatnonzero(~pure)
    z[mixed] = (states[p[mixed]] @ v[mixed, :, None])[..., 0]
    c = np.einsum("ni,ni->n", v.conj(), z)
    x = (z - c[:, None] * v).view(float)
    scale = np.abs(lam[q, 0])
    scale[pure] *= np.abs(lam[p[pure], 0] * c[pure])
    return scale * np.sqrt(np.einsum("ni,ni->n", x, x))


def _pair_singular_values(states: np.ndarray, i, j, factors, spec=None) -> np.ndarray:
    """Singular values ``(n, d)``, nonincreasing, of [states[i], states[j]];
    given a norm ``spec``, the pairs' norms ``(n,)`` instead.

    ``i`` and ``j`` index the stack ``states`` ``(N, d, d)``, and
    ``factors`` holds its members' ``Factors``, or is None when there are
    none (every pair dense).  Each pair's route
    depends on that pair's ranks alone:

    * a pair with a rank-0 member is zero (a multiple of the identity
      commutes with everything);
    * a pair with a rank-1 member takes the rank-1 route
      (``_rank_one_values``): a projection, and no eigensolve;
    * ranks r_i, r_j >= 2 with 4 (r_i + r_j) <= d take the low-rank route;
    * every other pair takes the dense route: the d x d commutator from
      one product (``_commutators``), its Frobenius norm from the entries
      and anything else from its eigenvalues (``linalg._antihermitian_norms``).

    Low-rank pairs are grouped by (r_i, r_j) and never padded to another
    pair's rank, so no pair's values depend on the pairs computed with it.
    """
    d = states.shape[-1]
    out = np.zeros((len(i), d))
    dense = np.arange(len(i))
    if factors is not None:
        r_i, r_j = factors.ranks[i], factors.ranks[j]
        live = (r_i > 0) & (r_j > 0)
        one = np.flatnonzero(live & ((r_i == 1) | (r_j == 1)))
        out[one, :2] = _rank_one_values(states, i[one], j[one], factors)[:, None]
        rest = live & (r_i > 1) & (r_j > 1)
        small = 4 * (r_i + r_j) <= d
        low = np.flatnonzero(rest & small)
        for r_a, r_b in sorted(set(zip(r_i[low].tolist(), r_j[low].tolist()))):
            sel = low[(r_i[low] == r_a) & (r_j[low] == r_b)]
            out[sel, : r_a + r_b] = _low_rank_singular_values(factors, i[sel], j[sel], r_a, r_b)
        dense = np.flatnonzero(rest & ~small)
    if spec is not None:
        out = np.zeros(len(i)) if factors is None else linalg.norm_from_singular_values(out, spec)
    for blk, c in _commutators(states, i[dense], j[dense]):
        out[dense[blk]] = (
            linalg.antihermitian_singular_values(c) if spec is None
            else linalg._antihermitian_norms(c, spec)
        )
    return out


def _commutators(states: np.ndarray, i, j):
    """The dense commutator walk of the kernel and ``is_classical_batch``:
    ``(block, C)`` for the pairs (states[i], states[j]), in blocks of at
    most ``BLOCK_BYTES``.  For Hermitian A and B, BA = (AB)^+, so
    C = X - X^+ with X = A B is [A, B] from one product, and C + C^+ is
    exactly zero."""
    for blk in _pair_blocks(len(i), states.shape[-1]):
        x = states[i[blk]] @ states[j[blk]]
        yield blk, x - _adjoint(x)


@functools.lru_cache(maxsize=64)
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(m, 1)``, cached: it costs more than a small kernel call."""
    iu, ju = np.triu_indices(m, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _live_pairs(probs: np.ndarray):
    """``(b, i, j)`` of every pair i < j of positive-probability members:
    the ensemble and the two member indices, ensemble by ensemble, each in
    lexicographic (i, j) order."""
    iu, ju = _upper_pairs(probs.shape[1])
    b, k = np.nonzero((probs[:, iu] > 0.0) & (probs[:, ju] > 0.0))
    return b, iu[k], ju[k]


def _pair_blocks(count: int, d: int):
    """Slices of at most ``BLOCK_BYTES`` of d x d complex commutators."""
    step = max(1, BLOCK_BYTES // (16 * d * d))
    return [slice(s, s + step) for s in range(0, count, step)]


def _norms_of(members, first, second, spec: NormSpec, factors=None) -> np.ndarray:
    """The one pair walk: ||[members[first], members[second]]|| for each pair.

    ``members`` is a stack ``(N, d, d)`` and ``first``, ``second`` index it.
    ``factors`` are the members' ``Factors``; when None, they come from one
    ``eigh`` per member of a pair, at d >= 8.  A Ky Fan order above d raises ``InvalidNormSpec``, pairs or
    not.  A pair's norm depends on its two matrices, in their order, alone:
    the same bits in whatever stack, and at whatever position, it arrives.
    """
    d = members.shape[-1]
    spec.check_dim(d)
    if factors is None and len(first):
        needed = np.zeros(len(members), dtype=bool)
        needed[first] = needed[second] = True
        factors = _low_rank_factors(members, needed)
    norms = np.empty(len(first))
    for blk in _pair_blocks(len(first), d):
        norms[blk] = _pair_singular_values(members, first[blk], second[blk], factors, spec)
    return norms


def _pair_norms(pairs, states, spec: NormSpec, factors=None) -> np.ndarray:
    """The pair norms of a stack ``(B, m, d, d)`` as a ``(B, m, m)`` table:
    ``[b, i, j]`` holds ||[rho_i, rho_j]|| of ensemble b for each of the
    ``pairs`` ``(b, i, j)`` (``_live_pairs`` of the probabilities), and NaN
    elsewhere.

    ``factors`` are the batch-flattened members' ``Factors`` (see ``_norms_of``).
    """
    states = np.asarray(states)
    n, m = states.shape[:2]
    b, i, j = pairs
    table = np.full((n, m, m), np.nan)
    table[b, i, j] = _norms_of(
        states.reshape(-1, *states.shape[-2:]), b * m + i, b * m + j, spec, factors
    )
    return table


def _weighted_sums(probs: np.ndarray, norms: np.ndarray, pairs) -> np.ndarray:
    """Per ensemble, the exact sum of 2 sqrt(p_i p_j) ||[rho_i, rho_j]|| over
    its live pairs ``pairs`` (``_live_pairs(probs)``), in lexicographic
    order, with the norms read from the ``(B, m, m)`` table ``norms``
    (``_pair_norms``)."""
    b, i, j = pairs
    terms = (2.0 * np.sqrt(probs[b, i] * probs[b, j]) * norms[b, i, j]).tolist()
    ends = np.searchsorted(b, np.arange(len(probs) + 1)).tolist()
    return np.array([math.fsum(terms[s:e]) for s, e in zip(ends, ends[1:])], dtype=float)


def quantumness_batch(probs, states, spec: NormSpec, factors=None) -> np.ndarray:
    """Quantumness of each ensemble in a stack; see :func:`quantumness`: the
    ``_weighted_sums`` of the stack's ``_pair_norms`` table.

    ``factors`` are the ``Factors`` of the batch-flattened members, one row
    per member (a loaded ensemble's ``Ensemble.factors``, at every d).
    When None, the kernel eigendecomposes the members of its pairs from
    d = 8 (``LOW_RANK_MIN_DIM``) on; below it, every pair is dense.  A Ky
    Fan order above d raises ``InvalidNormSpec``, live pairs or not.
    """
    probs = np.asarray(probs, dtype=float)
    pairs = _live_pairs(probs)
    return _weighted_sums(probs, _pair_norms(pairs, states, spec, factors), pairs)


def is_classical_batch(probs, states, tol: float = 1e-9) -> np.ndarray:
    """Per ensemble of a stack: do all positive-probability members commute?

    See :func:`is_classical`; returns a boolean array of length B.  Every
    live pair's dense commutator (``_commutators``) is measured entrywise.
    """
    probs = np.asarray(probs, dtype=float)
    states = np.asarray(states)
    owner, i, j = _live_pairs(probs)
    m, d = probs.shape[1], states.shape[-1]
    classical = np.ones(len(probs), dtype=bool)
    for blk, c in _commutators(states.reshape(-1, d, d), owner * m + i, owner * m + j):
        classical[owner[blk][linalg._antihermitian_norms(c, NormSpec.frobenius()) > tol]] = False
    return classical


def conjugate_batch(states, u) -> np.ndarray:
    """U_b rho U_b^dagger for every member of ensemble b.

    ``states`` is ``(B, m, d, d)`` and ``u`` holds one unitary per
    ensemble, ``(B, d, d)``, each checked to ``TOL``.
    """
    u = np.asarray(u, dtype=complex)
    # A non-finite or overflowing entry makes the defect NaN or infinite,
    # which the comparison rejects.
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.abs(_adjoint(u) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))
    bad = np.flatnonzero(~(defect <= TOL))
    if bad.size:
        raise NotUnitary(f"unitarity defect {defect[bad[0]]:.3e}")
    u = u[:, None]
    return validate_density_stack(_hermitize(u @ states @ _adjoint(u)))


def union_batch(probs_list, states_list, weights) -> tuple[np.ndarray, np.ndarray]:
    """Probabilistic union of the ensembles ``(probs_list[mu], states_list[mu])``.

    ``weights`` is ``(B, n)``, one row of union weights per batch entry;
    member (p, rho) of ensemble mu enters with weight lambda_mu p.
    """
    weights = np.asarray(weights, dtype=float)
    check_weights(weights, "union weights")
    probs = np.concatenate(
        [weights[:, mu, None] * p for mu, p in enumerate(probs_list)], axis=1
    )
    check_weights(probs, "ensemble probabilities")
    return probs, np.concatenate(states_list, axis=1)


def check_decompositions(weights, parts, targets, members) -> None:
    """Check convex decompositions of member states, batched.

    ``weights`` ``(B, n, K)`` must be probability vectors and the validated
    ``parts`` ``(B, n, K, d, d)`` must recombine to ``targets``
    ``(B, n, d, d)`` within ``TOL``.  ``members[i]`` is the member index of
    column ``i``, used in error messages.
    """
    for i, member in enumerate(members):
        check_weights(weights[:, i], f"decomposition of member {member}")
    mix = weights[..., 0, None, None] * parts[..., 0, :, :]
    for k in range(1, weights.shape[-1]):
        mix = mix + weights[..., k, None, None] * parts[..., k, :, :]
    defect = np.abs(mix - targets).max(axis=(-2, -1))
    bad = np.argwhere(defect > TOL)
    if bad.size:
        b, i = bad[0]
        raise DecompositionMismatch(
            f"decomposition of member {members[i]}: recombination misses target"
            f" by {defect[b, i]:.3e}"
        )


def coarse_grain_batch(probs, states, partitions) -> tuple:
    """Merge index blocks into their barycenters, batched.

    ``partitions[b]`` is the :class:`Partition` of ensemble b, or its
    blocks; each must hold every member index once.  Block s becomes one
    member with probability p_s (the exact sum of its probabilities) and
    state sum (p_i / p_s) rho_i, accumulated in the block's index order.
    Rows are padded to the largest block count with zero-probability
    members I/d, which are in no live pair and are not validated.  Returns
    the probabilities, the states and, from d = 8 on, the flattened states'
    ``Factors`` from one validation ``eigh`` per barycenter (else None).
    """
    probs, n = np.asarray(probs, dtype=float), np.shape(probs)[1]
    blocks = [getattr(partition, "blocks", partition) for partition in partitions]
    for row in blocks:
        if sorted(i for blk in row for i in blk) != list(range(n)):
            raise InvalidPartition(f"blocks do not cover exactly 0..{n - 1}")
    width = max(len(blk) for row in blocks for blk in row)
    index = np.zeros((len(blocks), max(map(len, blocks)), width), dtype=int)
    coeff = np.zeros(index.shape)
    block_probs = np.zeros(index.shape[:2])
    for b, (row, p) in enumerate(zip(blocks, probs.tolist())):
        for s, blk in enumerate(row):
            p_s = math.fsum(p[i] for i in blk)
            if p_s <= 0.0:
                raise ZeroBlockProbability(f"block {blk} has zero total probability")
            block_probs[b, s] = p_s
            index[b, s, : len(blk)] = blk
            coeff[b, s, : len(blk)] = [p[i] / p_s for i in blk]
    check_weights(block_probs, "ensemble probabilities")
    real = block_probs > 0.0
    owner, index, coeff = np.nonzero(real)[0], index[real], coeff[real]
    m = 0
    for t in range(width):
        m = m + coeff[:, t, None, None] * states[owner, index[:, t]]
    d = states.shape[-1]
    out = np.broadcast_to(np.eye(d, dtype=complex) / d, (*real.shape, d, d)).copy()
    factors = None
    if d < LOW_RANK_MIN_DIM:
        out[real] = validate_density_stack(_hermitize(m))
    else:
        out[real], w, v = _validate_density_eigh(_hermitize(m))
        factors = Factors.placed(real.size, [(real.ravel(), Factors.from_eigh(w, v))])
    out.setflags(write=False)
    return block_probs, out, factors


def quantumness(ensemble: Ensemble, spec: NormSpec) -> float:
    """Commutator-norm quantumness 2 sum_{i<j} sqrt(p_i p_j) ||[rho_i, rho_j]||.

    Pairs are visited in lexicographic (i, j) order and accumulated with
    exact summation, so the result is deterministic for a given member
    order; pairs involving a zero-probability member are skipped.
    """
    return float(
        quantumness_batch(
            ensemble.probabilities[None], ensemble.state_stack[None], spec, ensemble.factors
        )[0]
    )


def is_classical(ensemble: Ensemble, tol: float = 1e-9) -> bool:
    """True when all members occurring with positive probability commute.

    Commutators are measured entrywise (Frobenius norm), independently of
    the norm used for the quantumness, so this is the reference check for
    "quantumness vanishes iff classical".
    """
    return bool(
        is_classical_batch(ensemble.probabilities[None], ensemble.state_stack[None], tol)[0]
    )


def unitary_conjugate(ensemble: Ensemble, u) -> Ensemble:
    """Conjugate every member by one unitary: (p_i, U rho_i U^dagger)."""
    u = linalg.as_matrix(u)
    if u.shape[0] != ensemble.dim:
        raise DimensionMismatch(
            f"unitary dim {u.shape[0]} does not match ensemble dim {ensemble.dim}"
        )
    states = conjugate_batch(ensemble.state_stack[None], u[None])[0]
    return Ensemble.from_stack(ensemble.probabilities, states)


def probabilistic_union(ensembles, weights) -> Ensemble:
    """Mix whole ensembles: member (p, rho) of E_mu enters with weight lambda_mu p."""
    ensembles = list(ensembles)
    ws = [float(w) for w in weights]
    if len(ensembles) != len(ws) or not ensembles:
        raise ParamOutOfRange("need matching, nonempty ensembles and weights")
    dims = {e.dim for e in ensembles}
    if len(dims) > 1:
        raise DimensionMismatch(f"ensembles have mixed dimensions {sorted(dims)}")
    probs, states = union_batch(
        [e.probabilities[None] for e in ensembles],
        [e.state_stack[None] for e in ensembles],
        [ws],
    )
    return Ensemble.from_stack(probs[0], states[0])


def _check_parts(parts, target: np.ndarray, index: int):
    """Validate one decomposition of state ``target``; returns (weights, part stack)."""
    what = f"decomposition of member {index}"
    weights, stack = _member_stack(parts)
    if not weights.size:
        raise ParamOutOfRange(f"{what}: need at least one weight")
    dim = target.shape[-1]
    if stack.shape[-1] != dim:
        raise DimensionMismatch(f"{what}: part dim {stack.shape[-1]} != state dim {dim}")
    check_decompositions(weights[None, None], stack[None, None], target[None, None], [index])
    return weights, stack


def decompose_member(ensemble: Ensemble, index: int, parts) -> list[Ensemble]:
    """Split member ``index`` into a convex mixture; one ensemble per part.

    ``parts`` is a sequence of (weight, state) with weights summing to one
    and the weighted states recombining to the chosen member.  Each
    returned ensemble keeps every other member unchanged and replaces the
    chosen state by one part (same member probability).
    """
    if not 0 <= index < len(ensemble):
        raise IndexError(f"member index {index} outside 0..{len(ensemble) - 1}")
    _, stack = _check_parts(parts, ensemble.state_stack[index], index)
    out = []
    for part in stack:
        states = ensemble.state_stack.copy()
        states[index] = part
        out.append(Ensemble.from_stack(ensemble.probabilities, states))
    return out


def fine_grain(ensemble: Ensemble, decompositions) -> Ensemble:
    """Refine every member by a convex decomposition, flattening the result.

    ``decompositions[i]`` lists (weight, state) parts for member i; the
    output members are (p_i * weight, part) in member-major order.
    """
    decompositions = list(decompositions)
    if len(decompositions) != len(ensemble):
        raise ParamOutOfRange(
            f"got {len(decompositions)} decompositions for {len(ensemble)} members"
        )
    probs, states = [], []
    for i, (p_i, target) in enumerate(zip(ensemble.probabilities.tolist(), ensemble.state_stack)):
        weights, stack = _check_parts(decompositions[i], target, i)
        probs.append(p_i * weights)
        states.append(stack)
    return Ensemble.from_stack(np.concatenate(probs), np.concatenate(states))


@dataclass(frozen=True)
class Partition:
    """Disjoint, nonempty index blocks; ``validate_for`` checks full coverage."""

    blocks: tuple

    def __post_init__(self) -> None:
        blocks = tuple(tuple(int(i) for i in blk) for blk in self.blocks)
        if not blocks:
            raise InvalidPartition("partition needs at least one block")
        seen = set()
        for blk in blocks:
            if not blk:
                raise InvalidPartition("empty block")
            for i in blk:
                if i < 0:
                    raise InvalidPartition(f"negative index {i}")
                if i in seen:
                    raise InvalidPartition(f"index {i} appears in two blocks")
                seen.add(i)
        object.__setattr__(self, "blocks", blocks)

    def validate_for(self, n: int) -> None:
        covered = {i for blk in self.blocks for i in blk}
        if covered != set(range(n)):
            raise InvalidPartition(f"blocks do not cover exactly 0..{n - 1}")

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(n)))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),))


def coarse_grain(ensemble: Ensemble, partition) -> Ensemble:
    """Merge index blocks into their barycenters.

    Block s becomes one member with probability p_s = sum of the block's
    probabilities and state sum (p_i / p_s) rho_i.  Blocks of zero total
    probability have no barycenter and are rejected.
    """
    if not isinstance(partition, Partition):
        partition = Partition(tuple(partition))
    probs, states, factors = coarse_grain_batch(
        ensemble.probabilities[None], ensemble.state_stack[None], [partition]
    )
    return Ensemble.from_stack(probs[0], states[0], factors)
