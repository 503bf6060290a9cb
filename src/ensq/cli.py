"""Command-line interface.

Subcommands: ``compute`` (quantumness of an ensemble file), ``sweep``
(closed form vs matrix pipeline over parameter grids), ``check-properties``
(randomized property suite), ``examples`` (worked-example artifacts), and
``random`` (seeded random ensemble files).  Exit codes: 0 success, 1
property or agreement violation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io, sweeps
from .ensemble import Ensemble, quantumness
from .errors import EnsqError, ParamOutOfRange
from .harness import check_properties
from .linalg import InvalidNormSpec, NormSpec
from .states import random_density_matrix


def _norm_spec(text: str) -> NormSpec:
    try:
        return NormSpec.parse(text)
    except InvalidNormSpec as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def cmd_compute(args) -> int:
    e = io.load_ensemble(args.file)
    print(f"{quantumness(e, args.norm):.12f}")
    return 0


# Sweep family -> (name of its row builder in ``sweeps``, looked up at call
# time, and its grid flags in the builder's argument order).
_SWEEPS = {
    "bloch-angle": ("bloch_angle_rows", ("alpha", "r1", "r2", "p1")),
    "phase-damping": ("phase_damping_rows", ("lam", "theta", "p1")),
    "overlap": ("overlap_rows", ("c", "p1")),
}


def cmd_sweep(args) -> int:
    builder, flags = _SWEEPS[args.example]
    grids = [sweeps.parse_grid(getattr(args, flag)) for flag in flags]
    header, rows = getattr(sweeps, builder)(*grids)
    sweeps.write_csv(args.out, header, rows)
    worst = sweeps.worst_disagreement(rows, len(header) - 2, len(header) - 1)
    print(f"wrote {args.out} ({len(rows)} rows, worst disagreement {worst:.3e})")
    if worst > sweeps.AGREEMENT_TOL:
        print("closed form and matrix pipeline disagree", file=sys.stderr)
        return 1
    return 0


def cmd_check_properties(args) -> int:
    report = check_properties(
        dim=args.dim,
        members=args.members,
        trials=args.trials,
        seed=args.seed,
        spec=args.norm,
    )
    print(report.render())
    return 0 if report.all_passed() else 1


def cmd_examples(args) -> int:
    results = sweeps.example_artifacts(args.out)
    total_fails = 0
    for path, fails in results:
        verdict = "PASS" if fails == 0 else f"FAIL ({fails} rows)"
        print(f"{path}: {verdict}")
        total_fails += fails
    return 0 if total_fails == 0 else 1


def cmd_random(args) -> int:
    if args.members < 1:
        raise ParamOutOfRange(f"members must be >= 1, got {args.members}")
    if args.seed < 0:
        raise ParamOutOfRange(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    probs = rng.random(args.members)
    probs = probs / probs.sum()
    rank = args.rank if args.rank is not None else args.dim
    states = [random_density_matrix(args.dim, rank, rng) for _ in range(args.members)]
    e = Ensemble(tuple(zip(probs, states)))
    io.save_ensemble(args.out, e)
    print(f"wrote {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ensq`` parser, built once per process and shared by ``main`` calls.

    Safe to share: each ``parse_args`` returns a fresh namespace, and the
    one object default, ``NormSpec.trace()``, is frozen.
    """
    parser = argparse.ArgumentParser(
        prog="ensq",
        description="Commutator-norm quantumness of quantum state ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="quantumness of an ensemble file")
    p.add_argument("file", help="ensemble JSON file")
    p.add_argument(
        "--norm",
        type=_norm_spec,
        default=NormSpec.trace(),
        help="trace | frobenius | spectral | schatten:<p> | kyfan:<k> (default trace)",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("sweep", help="closed form vs matrix pipeline over a grid")
    p.add_argument("example", choices=sorted(_SWEEPS))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--alpha", default="0:3.141592653589793:0.015707963267948967")
    p.add_argument("--r1", default="1")
    p.add_argument("--r2", default="1")
    p.add_argument("--lambda", dest="lam", default="0:1:0.01")
    p.add_argument("--theta", default="0.7853981633974483")
    p.add_argument("--c", default="0:1:0.001")
    p.add_argument("--p1", default="0.5")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-properties", help="randomized property suite")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--members", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--norm", type=_norm_spec, default=NormSpec.trace())
    p.set_defaults(func=cmd_check_properties)

    p = sub.add_parser("examples", help="write the six worked-example artifacts")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("random", help="write a seeded random ensemble file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--members", type=int, required=True)
    p.add_argument("--rank", type=int, default=None, help="state rank (default: dim)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
