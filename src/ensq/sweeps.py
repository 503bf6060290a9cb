"""Parameter sweeps comparing closed forms against the matrix pipeline.

Three sweep families (qubit Bloch pairs under the Frobenius norm, phase
damping, two pure states with given overlap under the trace norm) plus the
self-checking worked-example artifacts.  Rows carry both the closed-form
value and the full matrix-pipeline value so agreement is visible in the
output itself.

Each sweep builds the states of its whole grid as one stack and scores it
with one kernel call.  Angles and closed forms stay in scalar ``math``:
numpy's vectorized ``sin`` and ``cos`` can differ from libm in the last
bit, and the columns should not depend on how a grid is batched.
"""

from __future__ import annotations

import csv
import math
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
    return values


def _check_unit(name: str, values) -> None:
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise ParamOutOfRange(f"{name} must lie in [0, 1], got {value}")


def _pair_quantumness(first, second, p1s, spec: NormSpec) -> list[float]:
    """M of {(p1, rho), (1 - p1, sigma)} for every state pair and every p1.

    ``first`` and ``second`` are validated stacks ``(..., 2, 2)`` that
    broadcast against each other.  Every pair and weight goes into one
    stack of two-member ensembles and one kernel call; results run over
    the broadcast pair index in C order, then over ``p1s``.
    """
    first, second = np.broadcast_arrays(first, second)
    shape = (*first.shape[:-2], len(p1s))
    states = np.empty((*shape, 2, 2, 2), dtype=complex)
    states[..., 0, :, :] = first[..., None, :, :]
    states[..., 1, :, :] = second[..., None, :, :]
    probs = np.broadcast_to([[p1, 1.0 - p1] for p1 in p1s], (*shape, 2))
    return quantumness_batch(probs.reshape(-1, 2), states.reshape(-1, 2, 2, 2), spec).tolist()


def bloch_angle_rows(alphas, r1s, r2s, p1s) -> tuple[list[str], list[list[float]]]:
    """Two Bloch vectors separated by angle alpha, Frobenius norm.

    Closed form sqrt(2 p1 p2) |r1| |r2| sin(alpha), realized as the cross
    product magnitude so it stays exact for degenerate vectors.
    """
    header = ["alpha", "r1", "r2", "p1", "M_formula", "M_matrix"]
    _check_unit("r1", r1s)
    _check_unit("r2", r2s)
    _check_unit("p1", p1s)
    v1 = np.array([(0.0, 0.0, r1) for r1 in r1s], dtype=float).reshape(-1, 3)
    v2 = np.array(
        [[(r2 * math.sin(a), 0.0, r2 * math.cos(a)) for r2 in r2s] for a in alphas], dtype=float
    ).reshape(len(alphas), len(r2s), 3)
    cross = np.linalg.norm(np.cross(v1[None, :, None], v2[:, None, :]), axis=-1)
    first = density_from_bloch_stack(v1)[None, :, None]
    second = density_from_bloch_stack(v2)[:, None]
    m = iter(_pair_quantumness(first, second, p1s, NormSpec.frobenius()))
    rows = [
        [alpha, r1, r2, p1, math.sqrt(2.0 * p1 * (1.0 - p1)) * n, next(m)]
        for alpha, by_r1 in zip(alphas, cross.tolist())
        for r1, by_r2 in zip(r1s, by_r1)
        for r2, n in zip(r2s, by_r2)
        for p1 in p1s
    ]
    return header, rows


def phase_damping_rows(lams, thetas, p1s) -> tuple[list[str], list[list[float]]]:
    """A pure qubit state against its phase-damped image, Frobenius norm.

    Closed form sqrt(2 p1 p2) (1 - sqrt(1 - lam)) |sin(theta) cos(theta)|.
    """
    header = ["lambda", "theta", "p1", "M_formula", "M_matrix"]
    _check_unit("p1", p1s)
    _check_unit("lambda", lams)
    rho = density_from_bloch_stack(
        np.array([(math.sin(t), 0.0, math.cos(t)) for t in thetas], dtype=float).reshape(-1, 3)
    )
    damped = np.array([apply_channel_stack(phase_damping(lam), rho) for lam in lams])
    damped = damped.reshape(len(lams), *rho.shape)
    m = iter(_pair_quantumness(rho[None], damped, p1s, NormSpec.frobenius()))
    rows = [
        [
            lam,
            theta,
            p1,
            math.sqrt(2.0 * p1 * (1.0 - p1))
            * (1.0 - math.sqrt(1.0 - lam))
            * abs(math.sin(theta) * math.cos(theta)),
            next(m),
        ]
        for lam in lams
        for theta in thetas
        for p1 in p1s
    ]
    return header, rows


def overlap_rows(cs, p1s) -> tuple[list[str], list[list[float]]]:
    """Two pure states with overlap magnitude c, trace norm.

    Closed form 4 c sqrt(p1 p2) sqrt(1 - c^2), maximal (value 1 for
    p1 = p2 = 1/2) at c = 1/sqrt(2).
    """
    header = ["c", "p1", "M_formula", "M_matrix"]
    _check_unit("p1", p1s)
    _check_unit("c", cs)
    amps = np.array([(c, math.sqrt(max(1.0 - c * c, 0.0))) for c in cs], dtype=float)
    second = projector_stack(amps.reshape(-1, 2))
    m = iter(_pair_quantumness(projector_stack([1.0, 0.0]), second, p1s, NormSpec.trace()))
    rows = [[c, p1, pure_pair_quantumness(p1, 1.0 - p1, c), next(m)] for c in cs for p1 in p1s]
    return header, rows


def write_csv(path, header: list[str], rows) -> None:
    """CSV with '.' decimals, ',' separators, LF line endings, shortest floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(x)) if isinstance(x, (int, float, np.floating)) else x for x in row]
            )


def worst_disagreement(rows, formula_col: int, matrix_col: int) -> float:
    return max(abs(r[formula_col] - r[matrix_col]) for r in rows)


def _passfail(a: float, b: float) -> str:
    return "PASS" if abs(a - b) <= AGREEMENT_TOL else "FAIL"


def _with_pass(header, rows, formula_col, matrix_col):
    out = [[*r, _passfail(r[formula_col], r[matrix_col])] for r in rows]
    return [*header, "pass"], out


def _example_coherence_rows():
    header = ["alpha", "beta", "C_l1", "M_formula", "M_matrix", "pass"]
    rows = []
    for alpha in [0.0, 0.2, 0.4, 1.0 / math.sqrt(2.0), 0.8, 1.0]:
        beta = math.sqrt(max(1.0 - alpha * alpha, 0.0))
        matrix, coherence = quantumness_coherence_relation(PureState(np.array([alpha, beta])))
        formula = abs(alpha * alpha - beta * beta)
        rows.append([alpha, beta, coherence, formula, matrix, _passfail(formula, matrix)])
    return header, rows


def _example_concurrence_rows():
    header = ["alpha", "beta", "concurrence", "M_formula", "M_matrix", "pass"]
    rows = []
    for alpha in [0.0, 0.2, 0.4, 1.0 / math.sqrt(2.0), 0.8, 1.0]:
        beta = math.sqrt(max(1.0 - alpha * alpha, 0.0))
        psi = PureState(np.array([alpha, 0.0, 0.0, beta]))
        matrix, concurrence = quantumness_concurrence_relation(psi)
        formula = math.sqrt(max(1.0 - concurrence * concurrence, 0.0))
        rows.append([alpha, beta, concurrence, formula, matrix, _passfail(formula, matrix)])
    return header, rows


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

    header, rows = _example_coherence_rows()
    written.append((out / "example4_coherence.csv", header, rows, 3, 4))

    header, rows = _example_concurrence_rows()
    written.append((out / "example5_concurrence.csv", header, rows, 3, 4))

    header, rows = _example_cq_rows()
    written.append((out / "example6_classical_quantum.csv", header, rows, 1, 2))

    results = []
    for path, header, rows, a, b in written:
        write_csv(path, header, rows)
        fails = sum(1 for r in rows if abs(float(r[a]) - float(r[b])) > AGREEMENT_TOL)
        results.append((path, fails))
    return results
