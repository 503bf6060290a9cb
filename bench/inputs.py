"""Seeded inputs of the benchmark workloads, made with numpy alone.

Nothing here calls ensq: the program under test only ever sees the
argument lists and files produced below.  The same seed gives the same
inputs, byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# property-grid: every (dim, members) cell runs every norm with one seed,
# so the five reports of a cell describe identical ensembles.
GRID_DIMS = (2, 3, 4)
GRID_MEMBERS = (2, 3, 4)
GRID_NORMS = ("trace", "frobenius", "schatten:3", "spectral", "kyfan:1")
GRID_TRIALS = 100

# Companion grid of the other workloads: one cell, three norms.
SMALL_GRID = (3, 3, ("spectral", "frobenius", "trace"), 100)

# large-ensemble: rank-1 states and their full-rank mixtures with I/d.
LARGE_MEMBERS = 100
LARGE_DIM = 64
EPSILON = 0.5

# Companion ensemble files of the other workloads.
SMALL_MEMBERS = 32
SMALL_DIM = 24


@dataclass(frozen=True)
class Grid:
    """A ``start:stop:step`` sweep flag whose points are exact binary fractions.

    Start and step are multiples of a power of two, so the program's grid
    parser and ``points`` agree exactly on every point and on the count.
    """

    start: float
    step: float
    count: int

    def flag(self) -> str:
        if self.count == 1:
            return repr(self.start)
        return f"{self.start!r}:{self.start + (self.count - 1) * self.step!r}:{self.step!r}"

    def points(self) -> list[float]:
        return [self.start + i * self.step for i in range(self.count)]


@dataclass(frozen=True)
class Sweep:
    """One ``ensq sweep`` call: its family and its grid flags."""

    family: str
    grids: dict  # flag name without dashes -> Grid

    def argv(self, out) -> list[str]:
        args = ["sweep", self.family, "--out", str(out)]
        for name, grid in self.grids.items():
            args += [f"--{name}", grid.flag()]
        return args

    def rows(self) -> int:
        return math.prod(g.count for g in self.grids.values())


def grid_cells(seed: int) -> list[tuple[int, int, int]]:
    """(dim, members, cell seed) for every cell of the property grid."""
    rng = np.random.default_rng([seed, 1])
    return [
        (dim, members, int(rng.integers(2**31)))
        for dim in GRID_DIMS
        for members in GRID_MEMBERS
    ]


def small_grid_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 2]).integers(2**31))


def _dyadic(rng, lo: int, hi: int, bits: int) -> float:
    """A random multiple of 2**-bits in [lo, hi] * 2**-bits."""
    return int(rng.integers(lo, hi + 1)) / 2.0**bits


def sweeps(seed: int) -> list[Sweep]:
    """The three sweep families, every grid with r < 1 and p1 != 1/2 points."""
    rng = np.random.default_rng([seed, 3])
    p1 = Grid(_dyadic(rng, 1, 15, 6), 0.25, 3)  # in [1/64, 3/4]
    bloch = Sweep(
        "bloch-angle",
        {
            "alpha": Grid(_dyadic(rng, 0, 31, 7), 2.0**-6, 481),
            "r1": Grid(_dyadic(rng, 8, 15, 5), 0.25, 3),  # in [1/4, 31/32]
            "r2": Grid(_dyadic(rng, 16, 31, 5), 0.0, 1),
            "p1": p1,
        },
    )
    overlap = Sweep(
        "overlap",
        {"c": Grid(_dyadic(rng, 0, 200, 10), 2.0**-10, 801), "p1": p1},
    )
    damping = Sweep(
        "phase-damping",
        {
            "lambda": Grid(_dyadic(rng, 0, 55, 8), 2.0**-8, 201),
            "theta": Grid(_dyadic(rng, 0, 63, 6), 0.25, 3),
            "p1": p1,
        },
    )
    return [bloch, overlap, damping]


def small_sweep(seed: int) -> Sweep:
    """Companion sweep of the other workloads."""
    rng = np.random.default_rng([seed, 4])
    return Sweep(
        "overlap",
        {"c": Grid(_dyadic(rng, 0, 200, 11), 2.0**-11, 401), "p1": Grid(0.25, 0.0, 1)},
    )


@dataclass(frozen=True)
class EnsembleInput:
    """Amplitude vectors ``(m, d)`` and probabilities ``(m,)`` of one input."""

    probabilities: np.ndarray
    vectors: np.ndarray


def ensemble_input(seed: int, members: int, dim: int, stream: int) -> EnsembleInput:
    rng = np.random.default_rng([seed, stream])
    z = rng.standard_normal((members, dim)) + 1j * rng.standard_normal((members, dim))
    vectors = z / np.linalg.norm(z, axis=1, keepdims=True)
    p = rng.random(members) + 0.5
    return EnsembleInput(p / p.sum(), vectors)


def large_input(seed: int) -> EnsembleInput:
    return ensemble_input(seed, LARGE_MEMBERS, LARGE_DIM, 5)


def small_input(seed: int) -> EnsembleInput:
    return ensemble_input(seed, SMALL_MEMBERS, SMALL_DIM, 6)


def pure_states(inp: EnsembleInput) -> np.ndarray:
    """P_i = |psi_i><psi_i|, exactly Hermitian entry by entry."""
    v = inp.vectors
    return v[:, :, None] * v.conj()[:, None, :]


def mixed_states(inp: EnsembleInput) -> np.ndarray:
    """(1 - eps) I / d + eps P_i: full rank, same commutators up to eps^2."""
    d = inp.vectors.shape[1]
    return (1.0 - EPSILON) / d * np.eye(d) + EPSILON * pure_states(inp)


def write_ensemble(path: Path, probabilities: np.ndarray, states: np.ndarray) -> None:
    """Write an ensemble file in ensq's format, every member as ``rho``."""
    members = [
        {"p": p, "rho": np.stack([s.real, s.imag], axis=-1).tolist()}
        for p, s in zip(probabilities.tolist(), states)
    ]
    path.write_text(json.dumps({"dim": states.shape[-1], "members": members}) + "\n")
