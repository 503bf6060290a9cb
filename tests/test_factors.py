"""The ``Factors`` maps, each against the arrays that the column layout
(ranks ``(N,)``, shifted eigenvalues ``(N, c)``, vectors ``(N, d, c)``)
builds by hand, bit for bit: join, take (with the union's interleave),
placed (``_low_rank_factors`` with a mask), conjugated and from_vectors.
Every array a map returns is read-only, with contiguous vector rows."""

import numpy as np
import pytest

from ensq.ensemble import Factors, _low_rank_factors
from ensq.states import _validate_density_eigh, haar_unitaries

DIMS = [2, 3, 4, 9, 16]


def _states(dim, shape, rng):
    """Validated states of random ranks, with a multiple of the identity
    (rank 0) and a pure state (rank 1) among them."""
    rank = rng.integers(1, dim + 1, size=shape)
    g = rng.standard_normal((*shape, dim, dim)) + 1j * rng.standard_normal((*shape, dim, dim))
    g = g * (np.arange(dim) < rank[..., None, None])
    m = g @ g.conj().swapaxes(-1, -2)
    m = m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    flat = m.reshape(-1, dim, dim)
    flat[0] = np.eye(dim) / dim
    flat[1] = np.outer(g[0, 0, :, 0], g[0, 0, :, 0].conj()) / np.vdot(g[0, 0, :, 0], g[0, 0, :, 0])
    return _validate_density_eigh(m)


def _columns(w, v):
    """The column layout of eigenpairs ``(N, d)``, ``(N, d, d)``, built by hand."""
    d = w.shape[-1]
    tol = (d * np.finfo(float).eps) * np.abs(w).max(axis=-1)[:, None]
    near = np.abs(w[:, :, None] - w[:, None, :]) <= tol[:, :, None]
    mu = np.take_along_axis(w, near.sum(axis=-1).argmax(axis=-1)[:, None], axis=-1)
    outside = np.abs(w - mu) > tol
    order = np.argsort(~outside, axis=-1, kind="stable")[:, : max(1, d // 4)]
    return (
        outside.sum(axis=-1),
        np.take_along_axis(w - mu, order, axis=-1),
        np.take_along_axis(v, order[:, None, :], axis=-1),
    )


def _assert_layout(f: Factors, hand) -> None:
    """``f`` holds the hand triple ``hand`` bit for bit, read-only, with vector rows."""
    ranks, shifted, columns = hand
    assert f.ranks.tobytes() == ranks.tobytes() and f.ranks.dtype == ranks.dtype
    assert f.shifted.tobytes() == shifted.tobytes()
    assert f.vecs.tobytes() == np.ascontiguousarray(columns.swapaxes(-1, -2)).tobytes()
    assert not any(a.flags.writeable for a in (f.ranks, f.shifted, f.vecs))
    assert f.vecs.flags.c_contiguous and f.vecs[:, 0].strides[-1] == f.vecs.itemsize


def _case(dim, seed, shape=(3, 4)):
    rng = np.random.default_rng([seed, dim])
    states, w, v = _states(dim, shape, rng)
    return rng, states, w, v, _columns(w.reshape(-1, dim), v.reshape(-1, dim, dim))


@pytest.mark.parametrize("dim", DIMS)
def test_from_eigh_takes_batch_shapes_and_holds_the_column_layout_as_rows(dim):
    _, _, w, v, hand = _case(dim, 1)
    f = Factors.from_eigh(w, v)
    _assert_layout(f, hand)
    assert f.ranks[0] == 0 and f.ranks[1] == 1


@pytest.mark.parametrize("dim", DIMS)
def test_join_concatenates_the_stacks(dim):
    _, _, w, v, hand = _case(dim, 2)
    _, _, w2, v2, hand2 = _case(dim, 3, shape=(2, 3))
    got = Factors.join([Factors.from_eigh(w, v), Factors.from_eigh(w2, v2)])
    _assert_layout(got, [np.concatenate([a, b]) for a, b in zip(hand, hand2)])


@pytest.mark.parametrize("dim", DIMS)
def test_take_selects_rows_and_interleaves_the_union(dim):
    rng, _, w, v, hand = _case(dim, 4)
    f = Factors.from_eigh(w, v)
    rows = rng.integers(len(f.ranks), size=7)
    _assert_layout(f.take(rows), [a[rows] for a in hand])
    _assert_layout(f.take(slice(5)), [a[:5] for a in hand])
    # E's then O's members in each of n ensembles of m members.
    n, m = 3, 2
    both = Factors.from_eigh(w, v).take(slice(2 * n * m))
    order = np.arange(2 * n * m).reshape(2, n, m).swapaxes(0, 1).ravel()
    want = [a[: 2 * n * m].reshape(2, n, m, *a.shape[1:]).swapaxes(0, 1).reshape(-1, *a.shape[1:])
            for a in hand]
    _assert_layout(both.take(order), want)


@pytest.mark.parametrize("dim", [9, 16])
def test_placed_is_low_rank_factors_with_a_mask(dim):
    rng, states, _, _, _ = _case(dim, 5)
    states = states.reshape(-1, dim, dim)
    live = rng.random(len(states)) < 0.5
    live[:2] = True
    hand = [np.zeros(len(states), dtype=int), np.zeros((len(states), dim // 4)),
            np.zeros((len(states), dim, dim // 4), dtype=complex)]
    for whole, part in zip(hand, _columns(*np.linalg.eigh(states[live]))):
        whole[live] = part
    _assert_layout(_low_rank_factors(states, live), hand)
    rows = np.flatnonzero(live)
    split = [(rows[:2], Factors.from_eigh(*np.linalg.eigh(states[rows[:2]]))),
             (rows[2:], Factors.from_eigh(*np.linalg.eigh(states[rows[2:]])))]
    _assert_layout(Factors.placed(len(states), split), hand)


@pytest.mark.parametrize("dim", DIMS)
def test_conjugated_is_the_column_form_product(dim):
    rng, _, w, v, hand = _case(dim, 6)
    n, m = w.shape[:2]
    u = haar_unitaries(rng.standard_normal((n, 2, dim, dim)))
    got = Factors.from_eigh(w, v).conjugated(np.repeat(u, m, axis=0))
    ranks, shifted, columns = hand
    product = (u[:, None] @ columns.reshape(n, m, *columns.shape[1:])).reshape(columns.shape)
    _assert_layout(got, (ranks, shifted, product))


@pytest.mark.parametrize("dim", DIMS)
def test_from_vectors_is_rank_one_with_lambda_one(dim):
    rng = np.random.default_rng([7, dim])
    z = rng.standard_normal((2, 3, dim)) + 1j * rng.standard_normal((2, 3, dim))
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    columns = np.zeros((6, dim, max(1, dim // 4)), dtype=complex)
    columns[:, :, 0] = z.reshape(6, dim)
    hand = (np.ones(6, dtype=int), np.ones((6, max(1, dim // 4))), columns)
    _assert_layout(Factors.from_vectors(z), hand)


def test_factors_have_no_positional_access():
    f = Factors.from_vectors(np.eye(4, dtype=complex))
    with pytest.raises(TypeError):
        f[0]
    with pytest.raises(TypeError):
        ranks, shifted, vecs = f
