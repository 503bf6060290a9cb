"""Parameter sweeps comparing closed forms against the matrix pipeline.

Three sweep families (qubit Bloch pairs under the Frobenius norm, phase
damping, two pure states with given overlap under the trace norm) plus the
self-checking worked-example artifacts.  Rows carry both the closed-form
value and the full matrix-pipeline value so agreement is visible in the
output itself.

Each sweep builds the states of its whole grid as one stack and scores it
with one kernel call.  Every column is a numpy array over the
``meshgrid(..., indexing="ij")`` of the sweep's parameters.  Closed forms
keep the operation order of their scalar expressions (``sqrt``, ``*`` and
``-`` are correctly rounded, so the bits are the scalar ones), and angles
stay in libm, once per angle: numpy's vectorized ``sin`` and ``cos`` can
differ from it in the last bit.
"""

from __future__ import annotations

import csv
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .ensemble import quantumness_batch
from .errors import ParamOutOfRange
from .linalg import NormSpec
from .measures import (
    ClassicalQuantumState,
    cq_append_ancilla,
    cq_local_unitary,
    cq_quantumness,
    plus_state,
    pure_pair_quantumness,
    quantumness_coherence_relation,
    quantumness_concurrence_relation,
)
from .states import (
    DensityMatrix,
    PureState,
    apply_channel_stack,
    density_from_bloch_stack,
    phase_damping,
    projector,
    projector_stack,
    random_unitary,
)

__all__ = [
    "AGREEMENT_TOL",
    "MAX_GRID_POINTS",
    "bloch_angle_rows",
    "example_artifacts",
    "overlap_rows",
    "parse_grid",
    "phase_damping_rows",
    "write_csv",
]

AGREEMENT_TOL = 1e-9
MAX_GRID_POINTS = 10**6


def parse_grid(text: str) -> list[float]:
    """Parse a grid flag: a single value ``v`` or a range ``start:stop:step``.

    Every number must be finite, and a range may hold at most
    ``MAX_GRID_POINTS`` points.  The last point is snapped to ``stop`` when
    float accumulation overshoots it, so ``0:1:0.01`` ends exactly at 1.0.
    The points must strictly increase: a step below the float spacing of
    the range, which would round points together, is rejected.
    """
    parts = text.strip().split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        numbers = [float(x) for x in parts]
    except ValueError:
        raise ParamOutOfRange(
            f"bad grid {text!r}: expected a number or start:stop:step"
        ) from None
    if not all(map(math.isfinite, numbers)):
        raise ParamOutOfRange(f"bad grid {text!r}: every number must be finite")
    if len(numbers) == 1:
        return numbers
    start, stop, step = numbers
    if step <= 0.0:
        raise ParamOutOfRange(f"grid step must be positive, got {step}")
    if stop < start:
        raise ParamOutOfRange(f"grid stop {stop} is below start {start}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # an infinite span fails too
        raise ParamOutOfRange(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    values = [start + i * step for i in range(int(math.floor(span)) + 1)]
    if values[-1] > stop:
        values[-1] = stop
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ParamOutOfRange(
            f"grid {text!r}: points do not strictly increase"
            f" (step {step} is below the float spacing of the range)"
        )
    return values


def _unit(name: str, values) -> np.ndarray:
    """``values`` as a float array; every value must lie in [0, 1] (NaN fails)."""
    v = np.asarray(values, dtype=float)
    bad = ~((v >= 0.0) & (v <= 1.0))
    if bad.any():
        raise ParamOutOfRange(f"{name} must lie in [0, 1], got {float(v[bad][0])}")
    return v


def _pair_quantumness(first, second, p1, spec: NormSpec) -> np.ndarray:
    """M of {(p1, rho), (1 - p1, sigma)} for every state pair and every p1.

    ``first`` and ``second`` are validated stacks ``(..., 2, 2)`` that
    broadcast against each other.  Every pair and weight goes into one
    stack of two-member ensembles and one kernel call; the result has the
    broadcast pair shape followed by ``len(p1)``.
    """
    first, second = np.broadcast_arrays(first, second)
    shape = (*first.shape[:-2], len(p1))
    states = np.empty((*shape, 2, 2, 2), dtype=complex)
    states[..., 0, :, :] = first[..., None, :, :]
    states[..., 1, :, :] = second[..., None, :, :]
    probs = np.broadcast_to(np.stack([p1, 1.0 - p1], axis=-1), (*shape, 2))
    m = quantumness_batch(probs.reshape(-1, 2), states.reshape(-1, 2, 2, 2), spec)
    return m.reshape(shape)


def _rows(*columns) -> list[list[float]]:
    """One row per grid point of the equally shaped columns, in C order."""
    return np.stack(columns, axis=-1).reshape(-1, len(columns)).tolist()


def bloch_angle_rows(alphas, r1s, r2s, p1s) -> tuple[list[str], list[list[float]]]:
    """Two Bloch vectors separated by angle alpha, Frobenius norm.

    Closed form sqrt(2 p1 p2) |r1| |r2| sin(alpha), realized as the cross
    product magnitude so it stays exact for degenerate vectors.
    """
    header = ["alpha", "r1", "r2", "p1", "M_formula", "M_matrix"]
    r1, r2, p1 = _unit("r1", r1s), _unit("r2", r2s), _unit("p1", p1s)
    alpha = np.asarray(alphas, dtype=float)
    x2 = r2 * np.array([math.sin(a) for a in alpha.tolist()])[:, None]
    z2 = r2 * np.array([math.cos(a) for a in alpha.tolist()])[:, None]
    v1 = np.stack([np.zeros_like(r1), np.zeros_like(r1), r1], axis=-1)
    v2 = np.stack([x2, np.zeros_like(x2), z2], axis=-1)
    cross = np.linalg.norm(np.cross(v1[None, :, None], v2[:, None, :]), axis=-1)
    first = density_from_bloch_stack(v1)[None, :, None]
    second = density_from_bloch_stack(v2)[:, None]
    m = _pair_quantumness(first, second, p1, NormSpec.frobenius())
    a, r1, r2, p1 = np.meshgrid(alpha, r1, r2, p1, indexing="ij")
    formula = np.sqrt(2.0 * p1 * (1.0 - p1)) * cross[..., None]
    return header, _rows(a, r1, r2, p1, formula, m)


def phase_damping_rows(lams, thetas, p1s) -> tuple[list[str], list[list[float]]]:
    """A pure qubit state against its phase-damped image, Frobenius norm.

    Closed form sqrt(2 p1 p2) (1 - sqrt(1 - lam)) |sin(theta) cos(theta)|.
    """
    header = ["lambda", "theta", "p1", "M_formula", "M_matrix"]
    p1, lam = _unit("p1", p1s), _unit("lambda", lams)
    theta = np.asarray(thetas, dtype=float)
    sin = np.array([math.sin(t) for t in theta.tolist()])
    cos = np.array([math.cos(t) for t in theta.tolist()])
    rho = density_from_bloch_stack(np.stack([sin, np.zeros_like(sin), cos], axis=-1))
    damped = np.array([apply_channel_stack(phase_damping(x), rho) for x in lam.tolist()])
    damped = damped.reshape(len(lam), *rho.shape)
    m = _pair_quantumness(rho[None], damped, p1, NormSpec.frobenius())
    lam, theta, p1 = np.meshgrid(lam, theta, p1, indexing="ij")
    sincos = np.abs(sin * cos)[:, None]
    formula = np.sqrt(2.0 * p1 * (1.0 - p1)) * (1.0 - np.sqrt(1.0 - lam)) * sincos
    return header, _rows(lam, theta, p1, formula, m)


def overlap_rows(cs, p1s) -> tuple[list[str], list[list[float]]]:
    """Two pure states with overlap magnitude c, trace norm.

    Closed form 4 c sqrt(p1 p2) sqrt(1 - c^2), maximal (value 1 for
    p1 = p2 = 1/2) at c = 1/sqrt(2).
    """
    header = ["c", "p1", "M_formula", "M_matrix"]
    p1, c = _unit("p1", p1s), _unit("c", cs)
    amps = np.stack([c, np.sqrt(np.maximum(1.0 - c * c, 0.0))], axis=-1)
    second = projector_stack(amps)
    m = _pair_quantumness(projector_stack([1.0, 0.0]), second, p1, NormSpec.trace())
    c, p1 = np.meshgrid(c, p1, indexing="ij")
    return header, _rows(c, p1, pure_pair_quantumness(p1, 1.0 - p1, c), m)


def write_csv(path, header: list[str], rows) -> None:
    """CSV with '.' decimals, ',' separators, LF line endings, shortest floats.

    Python floats and strings are written as they are (``csv`` prints a
    float as its ``repr``), any other int, float or numpy float ``x`` as
    ``repr(float(x))`` (so ``True`` is ``1.0``), other cells as ``csv`` does.
    """
    rows = list(rows)
    if not set(map(type, chain.from_iterable(rows))) <= {float, str}:
        rows = [
            [repr(float(x)) if isinstance(x, (int, float, np.floating)) else x for x in row]
            for row in rows
        ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def worst_disagreement(rows, formula_col: int, matrix_col: int) -> float:
    table = np.asarray(rows, dtype=float)
    return float(np.max(np.abs(table[:, formula_col] - table[:, matrix_col])))


def _passfail(a: float, b: float) -> str:
    return "PASS" if abs(a - b) <= AGREEMENT_TOL else "FAIL"


def _with_pass(header, rows, formula_col, matrix_col):
    out = [[*r, _passfail(r[formula_col], r[matrix_col])] for r in rows]
    return [*header, "pass"], out


def _example_relation_rows():
    """Rows of the coherence and of the concurrence example, at the same alphas."""
    coherence, concurrence = [], []
    for alpha in [0.0, 0.2, 0.4, 1.0 / math.sqrt(2.0), 0.8, 1.0]:
        beta = math.sqrt(max(1.0 - alpha * alpha, 0.0))
        matrix, c = quantumness_coherence_relation(PureState(np.array([alpha, beta])))
        formula = abs(alpha * alpha - beta * beta)
        coherence.append([alpha, beta, c, formula, matrix, _passfail(formula, matrix)])
        psi = PureState(np.array([alpha, 0.0, 0.0, beta]))
        matrix, c = quantumness_concurrence_relation(psi)
        formula = math.sqrt(max(1.0 - c * c, 0.0))
        concurrence.append([alpha, beta, c, formula, matrix, _passfail(formula, matrix)])
    return coherence, concurrence


def _example_cq_rows():
    header = ["case", "D_expected", "D_matrix", "pass"]
    spec = NormSpec.trace()
    base = ClassicalQuantumState(
        (0.5, 0.5), (projector(PureState.basis(2, 0)), projector(plus_state()))
    )
    d_base = cq_quantumness(base, spec)
    rows = []

    commuting = ClassicalQuantumState(
        (0.5, 0.5),
        (DensityMatrix(np.diag([0.7, 0.3])), DensityMatrix(np.diag([0.2, 0.8]))),
    )
    d = cq_quantumness(commuting, spec)
    rows.append(["commuting-blocks", 0.0, d, _passfail(0.0, d)])

    expected = pure_pair_quantumness(0.5, 0.5, 1.0 / math.sqrt(2.0))
    rows.append(["zero-vs-plus-blocks", expected, d_base, _passfail(expected, d_base)])

    u = random_unitary(2, np.random.default_rng(7))
    d = cq_quantumness(cq_local_unitary(base, u), spec)
    rows.append(["local-unitary-invariant", d_base, d, _passfail(d_base, d)])

    pure_anc = projector(PureState.basis(2, 0))
    d = cq_quantumness(cq_append_ancilla(base, pure_anc), spec)
    rows.append(["pure-ancilla-preserves", d_base, d, _passfail(d_base, d)])

    mixed_anc = DensityMatrix(np.eye(2) / 2.0)
    d = cq_quantumness(cq_append_ancilla(base, mixed_anc), spec)
    rows.append(["mixed-ancilla-halves", d_base / 2.0, d, _passfail(d_base / 2.0, d)])
    return header, rows


def example_artifacts(out_dir) -> list[tuple[Path, int]]:
    """Write the six worked-example CSVs; returns (path, fail-count) pairs.

    Every file carries closed-form and matrix-pipeline columns side by side
    with a PASS/FAIL verdict per row at the 1e-9 agreement tolerance.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pi = math.pi
    written = []

    header, rows = bloch_angle_rows(
        [0.0, pi / 6, pi / 4, pi / 2, 2 * pi / 3, pi], [0.5, 1.0], [0.5, 1.0], [0.3, 0.5]
    )
    header, rows = _with_pass(header, rows, 4, 5)
    written.append((out / "example1_bloch_pair.csv", header, rows, 4, 5))

    header, rows = phase_damping_rows(parse_grid("0:1:0.05"), [pi / 4], [0.5])
    header, rows = _with_pass(header, rows, 3, 4)
    written.append((out / "example2_phase_damping.csv", header, rows, 3, 4))

    header, rows = overlap_rows(
        sorted([*parse_grid("0:1:0.05"), 1.0 / math.sqrt(2.0)]), [0.5]
    )
    header, rows = _with_pass(header, rows, 2, 3)
    written.append((out / "example3_pure_overlap.csv", header, rows, 2, 3))

    coherence, concurrence = _example_relation_rows()
    header = ["alpha", "beta", "C_l1", "M_formula", "M_matrix", "pass"]
    written.append((out / "example4_coherence.csv", header, coherence, 3, 4))
    header = ["alpha", "beta", "concurrence", "M_formula", "M_matrix", "pass"]
    written.append((out / "example5_concurrence.csv", header, concurrence, 3, 4))

    header, rows = _example_cq_rows()
    written.append((out / "example6_classical_quantum.csv", header, rows, 1, 2))

    results = []
    for path, header, rows, a, b in written:
        write_csv(path, header, rows)
        fails = sum(1 for r in rows if abs(float(r[a]) - float(r[b])) > AGREEMENT_TOL)
        results.append((path, fails))
    return results
