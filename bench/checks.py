"""Output checks that share no code with ensq.

Every check raises ``Mismatch`` with a message naming what disagreed;
the closed forms and reference values are computed here from the inputs
the benchmark generated.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from inputs import EPSILON, EnsembleInput, Sweep

SLACK = 1e-9  # worst property slack a report may show
AGREEMENT = 1e-9  # sweep rows: |M_matrix - closed form|
RELATIVE = 1e-9  # ensq compute against the Gram-matrix value
# Float room for norm comparisons that hold exactly in real arithmetic.
ORDER_ROOM = 1e-12

PROPERTIES = 6
# Schatten norms do not increase with p, so neither does M.
NORM_ORDER = ("spectral", "schatten:3", "frobenius", "trace")


class Mismatch(Exception):
    """A program output disagrees with the benchmark's own expectation."""


def check_reports(reports: dict, trials: int) -> None:
    """Check the reports of one (dim, members) cell, keyed by norm name.

    Each report must pass all six properties over ``trials`` trials with
    worst slack at most 1e-9.  The cell's trials draw identical ensembles
    under every norm, so per trial M_spectral <= M_schatten:3 <=
    M_frobenius <= M_trace, and M_kyfan:1 equals M_spectral; these are
    checked among the norms present.
    """
    for norm, report in reports.items():
        checks = sum(r.passes + r.failures for r in report.results)
        if checks != PROPERTIES * trials or len(report.values) != trials:
            raise Mismatch(f"{norm}: {checks} checks and {len(report.values)} values"
                           f" for {trials} trials")
        failing = [r.name for r in report.results if r.failures]
        if failing:
            raise Mismatch(f"{norm}: properties fail: {', '.join(failing)}")
        worst = max(r.worst_slack for r in report.results)
        if not worst <= SLACK:
            raise Mismatch(f"{norm}: worst slack {worst:.3e} exceeds {SLACK:.0e}")
    values = {norm: np.asarray(report.values, dtype=float) for norm, report in reports.items()}
    for low, high in zip(NORM_ORDER, NORM_ORDER[1:]):
        if low not in values or high not in values:
            continue
        bad = np.flatnonzero(~(values[low] <= values[high] * (1.0 + ORDER_ROOM)))
        if bad.size:
            t = int(bad[0])
            raise Mismatch(f"trial {t}: M_{low} {values[low][t]!r} > M_{high} {values[high][t]!r}")
    if "kyfan:1" not in values or "spectral" not in values:
        return
    a, b = values["kyfan:1"], values["spectral"]
    bad = np.flatnonzero(~(np.abs(a - b) <= ORDER_ROOM * np.maximum(np.abs(a), np.abs(b))))
    if bad.size:
        t = int(bad[0])
        raise Mismatch(f"trial {t}: M_kyfan:1 {a[t]!r} != M_spectral {b[t]!r}")


def _bloch(alpha, r1, r2, p1):
    return math.sqrt(2.0 * p1 * (1.0 - p1)) * r1 * r2 * abs(math.sin(alpha))


def _overlap(c, p1):
    return 4.0 * c * math.sqrt(p1 * (1.0 - p1)) * math.sqrt(1.0 - c * c)


def _damping(lam, theta, p1):
    return (
        math.sqrt(2.0 * p1 * (1.0 - p1))
        * (1.0 - math.sqrt(1.0 - lam))
        * abs(math.sin(theta) * math.cos(theta))
    )


# Per family: the CSV parameter columns (in ``Sweep.grids`` order) and
# the closed form of M in those parameters.
CLOSED_FORMS = {
    "bloch-angle": (("alpha", "r1", "r2", "p1"), _bloch),
    "overlap": (("c", "p1"), _overlap),
    "phase-damping": (("lambda", "theta", "p1"), _damping),
}


def check_sweep_csv(text: str, sweep: Sweep) -> None:
    """Check an ``ensq sweep`` CSV against the grid it was asked for.

    The rows must cover the product of the grid points exactly once, and
    each row's ``M_matrix`` must match the closed form computed from its
    own parameter columns within 1e-9.
    """
    columns, closed_form = CLOSED_FORMS[sweep.family]
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0][: len(columns)] != list(columns) or "M_matrix" not in table[0]:
        raise Mismatch(f"{sweep.family}: unexpected header {table[:1]}")
    matrix_col = table[0].index("M_matrix")
    rows = table[1:]
    if len(rows) != sweep.rows():
        raise Mismatch(f"{sweep.family}: {len(rows)} rows, grid has {sweep.rows()}")
    params = sorted(tuple(float(x) for x in row[: len(columns)]) for row in rows)
    grid = sorted(itertools.product(*(g.points() for g in sweep.grids.values())))
    if params != grid:
        raise Mismatch(f"{sweep.family}: parameter columns do not cover the grid")
    for row in rows:
        expected = closed_form(*(float(x) for x in row[: len(columns)]))
        got = float(row[matrix_col])
        if not abs(got - expected) <= AGREEMENT:
            raise Mismatch(f"{sweep.family}: row {row}: M_matrix {got!r},"
                           f" closed form {expected!r}")


def expected_quantumness(inp: EnsembleInput, mixed: bool) -> float:
    """Trace-norm M of the rank-1 ensemble, or of its full-rank mixture.

    For pure states ||[P_i, P_j]||_1 = 2 c sqrt(1 - c^2) with c the
    overlap magnitude read off the Gram matrix; mixing with I/d scales
    every commutator by eps^2.
    """
    c = np.abs(inp.vectors.conj() @ inp.vectors.T)
    p = inp.probabilities
    i, j = np.triu_indices(len(p), 1)
    cij = c[i, j]
    terms = 4.0 * np.sqrt(p[i] * p[j]) * cij * np.sqrt(1.0 - cij * cij)
    scale = EPSILON**2 if mixed else 1.0
    return scale * math.fsum(terms.tolist())


def check_compute_output(stdout: str, expected: float) -> None:
    """Parse the value ``ensq compute`` printed; it must match to a relative 1e-9."""
    lines = stdout.strip().splitlines()
    try:
        value = float(lines[-1])
    except (IndexError, ValueError):
        raise Mismatch(f"compute printed {stdout!r}, expected a number") from None
    if not abs(value - expected) <= RELATIVE * abs(expected):
        raise Mismatch(f"compute printed {value!r}, expected {expected!r}")
