#!/usr/bin/env python3
"""The ensq benchmark: run one workload for a while and print its metrics.

    python3 bench/run.py --workload property-grid --seed 1 --seconds 40 --trace 0

Workloads (see README.md): ``property-grid`` runs the property suite
in-process over a grid of cells and norms, ``closed-form-sweeps`` runs the
three ``ensq sweep`` families as subprocesses, and ``large-ensemble`` runs
``ensq compute`` as a subprocess on a rank-1 and a full-rank file of 100
members at d = 64.  Every workload also runs small in-process instances of
the other two paths, so each run reports every end-to-end metric.  Every
time is scaled to a reference speed with the fixed loop of
``calibration.py``, which runs before each timed operation.

The program is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the CLI calls run in-process,
rounds alternate between untraced and traced, and the object holds the
per-layer metrics of ``tracing.py`` plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"

# One BLAS thread, set before numpy is first imported.  ensq's matrices
# are at most 64x64 and numpy loops LAPACK over them one at a time, so a
# second thread did not shorten `ensq compute` on the 2-core reference
# machine, and it added about 55 ms to every start-up.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import COUNTS, Tracer  # noqa: E402

WORKLOADS = ("property-grid", "closed-form-sweeps", "large-ensemble")
CLI_TIMEOUT = 170.0
# Companion passes per round.  property-grid's own path is steady, so it
# gives its companions more of the run; a large-ensemble round takes about
# 12 s, and more passes would leave room for only two in a 40-second run.
COMPANION_REPEATS = {"property-grid": 4, "closed-form-sweeps": 2, "large-ensemble": 2}


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def cold_setup() -> float:
    """Seconds from spawning a fresh interpreter until ``import ensq`` returns.

    Both clocks are CLOCK_MONOTONIC, which is system-wide on Linux.
    """
    code = "import time, ensq; print(time.monotonic()); print(ensq.__file__)"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
        timeout=CLI_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.exit(f"import ensq failed:\n{proc.stderr}")
    stamp, where = proc.stdout.splitlines()
    if Path(where).resolve().parent.parent != SRC:
        sys.exit(f"import ensq found {where}, not the package under {SRC}")
    return float(stamp) - start


def subprocess_cli(argv) -> tuple[int, str, float]:
    """Run ``python -m ensq <argv>``; returns exit code, stdout and wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ensq", *argv], env=child_env(), capture_output=True,
        text=True, timeout=CLI_TIMEOUT,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"ensq {' '.join(argv)}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return proc.returncode, proc.stdout, wall


def inprocess_cli(argv) -> tuple[int, str, float]:
    """Call ``ensq.cli.main(argv)`` in this process, capturing its output."""
    import ensq.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ensq.cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash is a failed operation, as in a subprocess
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    if code != 0:
        print(f"ensq {' '.join(argv)}: exit {code}\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue(), wall


class Workload:
    """The operations of one workload; ``round`` runs each of them once.

    A calibration loop runs right before every timed operation; its times
    go to ``loop_times``.  ``totals[metric]`` sums the seconds, the work
    (trials or rows) and the number of the operations that succeeded.
    Operations that raise or exit nonzero count in ``failed``, and outputs
    that disagree with the benchmark's own expectation land in
    ``problems``.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.cli = subprocess_cli
        self.loop_times = []
        self.totals = defaultdict(lambda: [0.0, 0, 0])
        self.attempted = 0
        self.failed = 0
        self.problems = []
        work = WORK / name
        work.mkdir(parents=True, exist_ok=True)
        if name == "property-grid":
            self.cells = inputs.grid_cells(seed)
            self.norms, self.trials = inputs.GRID_NORMS, inputs.GRID_TRIALS
        else:
            dim, members, self.norms, self.trials = inputs.SMALL_GRID
            self.cells = [(dim, members, inputs.small_grid_seed(seed))]
        self.sweeps = inputs.sweeps(seed) if name == "closed-form-sweeps" else [
            inputs.small_sweep(seed)
        ]
        self.csv = [work / f"sweep-{s.family}.csv" for s in self.sweeps]
        ens = inputs.large_input(seed) if name == "large-ensemble" else inputs.small_input(seed)
        self.files = []
        for mixed, states in ((False, inputs.pure_states(ens)), (True, inputs.mixed_states(ens))):
            path = work / ("mixed.json" if mixed else "pure.json")
            inputs.write_ensemble(path, ens.probabilities, states)
            self.files.append((path, checks.expected_quantumness(ens, mixed)))

    def _begin(self) -> None:
        """Count one operation and run the calibration loop right before it."""
        self.attempted += 1
        self.loop_times.append(calibration.loop())

    def _record(self, metric: str, seconds: float, work: int = 1) -> None:
        total = self.totals[metric]
        total[0] += seconds
        total[1] += work
        total[2] += 1

    def metrics(self, setup_s: float) -> dict:
        """The run's time metrics at the calibration's reference speed.

        Each time is scaled by ``REFERENCE_S`` over the mean of all the
        run's calibration loops (see ``calibration.py``).  Throughputs are
        the work of all successful operations over their summed time; the
        compute metrics are mean seconds per call.
        """
        scale = calibration.REFERENCE_S / statistics.fmean(self.loop_times)
        values = {"setup_s": setup_s * scale}
        for metric, (seconds, work, count) in self.totals.items():
            values[metric] = work / (seconds * scale) if metric.endswith("_per_s") else seconds * scale / count
        return values

    def _check(self, check, *args) -> None:
        try:
            check(*args)
        except checks.Mismatch as exc:
            self.problems.append(f"{self.name}: {exc}")

    def grid(self, _cli=None) -> None:
        """The property suite; it always runs in-process."""
        from ensq.harness import check_properties
        from ensq.linalg import NormSpec

        specs = [NormSpec.parse(norm) for norm in self.norms]
        for dim, members, seed in self.cells:
            reports = {}
            for norm, spec in zip(self.norms, specs):
                self._begin()
                start = time.perf_counter()
                try:
                    reports[norm] = check_properties(dim, members, self.trials, seed, spec)
                except Exception as exc:  # noqa: BLE001 - an operation failure is counted
                    self.failed += 1
                    print(f"check_properties({dim}, {members}, {norm}): {exc!r}", file=sys.stderr)
                    continue
                self._record("property_trials_per_s", time.perf_counter() - start, self.trials)
            self._check(checks.check_reports, reports, self.trials)

    def sweep(self, cli) -> None:
        for sweep, path in zip(self.sweeps, self.csv):
            self._begin()
            code, out, wall = cli(sweep.argv(path))
            if code != 0:
                self.failed += 1
                continue
            self._check(checks.check_sweep_csv, path.read_text(), sweep)
            self._record("sweep_rows_per_s", wall, sweep.rows())

    def compute(self, cli) -> None:
        for metric, (path, expected) in zip(("compute_pure_s", "compute_mixed_s"), self.files):
            self._begin()
            code, out, wall = cli(["compute", str(path)])
            if code != 0:
                self.failed += 1
                continue
            self._check(checks.check_compute_output, out, expected)
            self._record(metric, wall)

    def round(self) -> None:
        """The workload's own path through ``self.cli``, then the companions.

        Companions call ``ensq.cli.main`` in-process: a fresh interpreter's
        start-up is already ``setup_s``, and small subprocess calls varied
        more from run to run than the same calls in-process.
        """
        paths = (self.grid, self.sweep, self.compute)
        main = paths[WORKLOADS.index(self.name)]
        main(self.cli)
        for _ in range(COMPANION_REPEATS[self.name]):
            for op in paths:
                if op != main:
                    op(inprocess_cli)


def measure(workload: Workload, seconds: float, round_) -> None:
    """Run whole rounds while the next one is expected to end within ``seconds``.

    The next round is expected to take the mean time of the rounds so far,
    so a run may overshoot ``seconds`` by a round's deviation from that.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        round_()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return


def end_to_end(workload: Workload, seconds: float, setup_s: float) -> dict:
    measure(workload, seconds, workload.round)
    values = workload.metrics(setup_s)
    missing = {"property_trials_per_s", "sweep_rows_per_s", "compute_pure_s",
               "compute_mixed_s"} - set(values)
    if missing:
        sys.exit(f"no operation succeeded for {', '.join(sorted(missing))}")
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {**values, "peak_rss_mb": peak_kib * 1024 / 1e6}


def per_layer(workload: Workload, seconds: float) -> dict:
    """Pairs of one untraced and one traced round, all in-process.

    Times are per round, medians over the traced rounds; counts come from
    the first traced round, and every round runs the same inputs.  The
    overhead is the median traced round minus the median untraced one.
    """
    workload.cli = inprocess_cli
    untraced, traced, layers = [], [], []
    tracer = None

    def untraced_round() -> None:
        began = time.perf_counter()
        workload.round()
        untraced.append(time.perf_counter() - began)

    def traced_round() -> None:
        nonlocal tracer
        began = time.perf_counter()
        with Tracer() as tracer:
            workload.round()
        traced.append(time.perf_counter() - began)
        layers.append(tracer.layer_metrics())

    def pair() -> None:
        # Alternate which goes first, so warm-up favours neither side.
        first, second = (untraced_round, traced_round)[:: 1 if len(layers) % 2 == 0 else -1]
        first()
        second()

    measure(workload, seconds, pair)
    (WORK / workload.name / "trace.json").write_text(json.dumps(tracer.dump()))
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values.update({name: layers[0][name] for name in COUNTS})
    base = statistics.median(untraced)
    values["trace.overhead_s"] = statistics.median(traced) - base
    values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / base
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ensq" / "__init__.py").is_file():
        sys.exit(f"no ensq package under {SRC}: run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    setup_s = cold_setup()
    sys.path.insert(0, str(SRC))
    workload = Workload(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: BLAS threads {BLAS_THREADS}, numpy {np.__version__}",
          file=sys.stderr)
    if args.trace:
        values = per_layer(workload, args.seconds)
    else:
        values = end_to_end(workload, args.seconds, setup_s)
    for problem in workload.problems:
        print(problem, file=sys.stderr)
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
