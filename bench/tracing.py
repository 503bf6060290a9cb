"""Span recorders wrapped around the public functions of each ensq layer.

A ``Tracer`` replaces each listed function, wherever an ensq module holds
a reference to it, by a wrapper that records a span (name, start, end,
parent) and counts work at the same call boundary.  Spans stay in memory;
``layer_metrics`` folds them into per-layer times and counts.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _count_validate(counts, args, kwargs, result):
    counts["states.validate_calls"] += 1
    counts["states.validated_matrices"] += math.prod(result.shape[:-2])


def _count_kernel(counts, args, kwargs, result):
    counts["ensemble.kernel_calls"] += 1
    live = (np.asarray(args[0], dtype=float) > 0.0).sum(axis=-1)
    counts["ensemble.pairs"] += int((live * (live - 1) // 2).sum())


def _counter(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1

    return count


def _count_load(counts, args, kwargs, result):
    counts["io.load_bytes"] += os.path.getsize(args[0])


def _count_trials(counts, args, kwargs, result):
    counts["harness.trials"] += result.trials


def _count_rows(counts, args, kwargs, result):
    counts["sweeps.rows"] += len(result[1])


# (module, attribute, span name, counter); "Class.method" patches a class.
SPANS = [
    ("cli", "main", "cli.main", None),
    ("io", "load_ensemble", "io.load", _count_load),
    ("states", "validate_density_stack", "states.validate", _count_validate),
    ("states", "ginibre_states", "states.ginibre", None),
    ("states", "haar_unitaries", "states.haar", None),
    ("states", "eigenprojectors", "states.eigenprojectors", None),
    ("states", "DensityMatrix.__post_init__", "states.other",
     _counter("states.density_matrix_count")),
    *(
        ("states", attr, "states.other", None)
        for attr in (
            "PureState.__post_init__",
            "BlochVector.__post_init__",
            "QuantumChannel.__post_init__",
            "density_from_bloch",
            "projector",
            "apply_channel",
            "phase_damping",
        )
    ),
    ("ensemble", "quantumness_batch", "ensemble.kernel", _count_kernel),
    ("ensemble", "is_classical_batch", "ensemble.is_classical", None),
    ("ensemble", "Ensemble.__post_init__", "ensemble.construct",
     _counter("ensemble.ensemble_count")),
    *(
        ("ensemble", attr, "ensemble.transform", None)
        for attr in (
            "conjugate_batch",
            "union_batch",
            "check_decompositions",
            "coarse_grain_batch",
            "unitary_conjugate",
            "probabilistic_union",
            "decompose_member",
            "fine_grain",
            "coarse_grain",
        )
    ),
    ("linalg", "norm_from_singular_values", "linalg.norm", None),
    ("linalg", "norm", "linalg.norm", None),
    *(
        ("measures", attr, "measures", None)
        for attr in (
            "pure_pair_quantumness",
            "coherence_l1_pure_qubit",
            "concurrence_pure_two_qubit",
            "quantumness_coherence_relation",
            "quantumness_concurrence_relation",
            "cq_quantumness",
            "cq_local_unitary",
            "cq_append_ancilla",
        )
    ),
    ("harness", "check_properties", "harness", _count_trials),
    ("harness", "run_single_trial", "harness", None),
    *(
        ("sweeps", attr, "sweeps", _count_rows)
        for attr in ("bloch_angle_rows", "phase_damping_rows", "overlap_rows")
    ),
    ("sweeps", "parse_grid", "sweeps", None),
    ("sweeps", "write_csv", "sweeps.write_csv", None),
]

# Per-layer metrics: (metric, span name, "self" or "total" time).
TIMES = [
    ("cli.main_s", "cli.main", "total"),
    ("io.load_s", "io.load", "total"),
    ("states.validate_s", "states.validate", "self"),
    ("states.ginibre_s", "states.ginibre", "self"),
    ("states.haar_s", "states.haar", "self"),
    ("states.eigenprojectors_s", "states.eigenprojectors", "self"),
    ("states.other_s", "states.other", "self"),
    ("ensemble.kernel_s", "ensemble.kernel", "self"),
    ("ensemble.is_classical_s", "ensemble.is_classical", "self"),
    ("ensemble.construct_s", "ensemble.construct", "self"),
    ("ensemble.transform_s", "ensemble.transform", "self"),
    ("linalg.norm_s", "linalg.norm", "self"),
    ("measures.s", "measures", "self"),
    ("harness.self_s", "harness", "self"),
    ("sweeps.self_s", "sweeps", "self"),
    ("sweeps.write_csv_s", "sweeps.write_csv", "self"),
]
COUNTS = [
    "states.validate_calls",
    "states.validated_matrices",
    "states.density_matrix_count",
    "ensemble.kernel_calls",
    "ensemble.pairs",
    "ensemble.ensemble_count",
    "harness.trials",
    "sweeps.rows",
]


class Tracer:
    """Records spans of ensq calls while installed (``with Tracer():``)."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items() if key == "ensq" or key.startswith("ensq.")]
        for module_name, attr, name, count in SPANS:
            owner = sys.modules[f"ensq.{module_name}"]
            *classes, attr = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            holders = [owner] if classes else [m for m in modules if attr in vars(m)]
            for holder in holders:
                if vars(holder).get(attr) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        """Per-layer times (s) and counts of the spans recorded so far."""
        total = defaultdict(float)
        own = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        out = {metric: (own if kind == "self" else total)[span] for metric, span, kind in TIMES}
        out.update({name: self.counts[name] for name in COUNTS})
        load = out["io.load_s"]
        out["io.load_mb_per_s"] = self.counts["io.load_bytes"] / 1e6 / load if load else 0.0
        return out

    def dump(self) -> list:
        """Spans as JSON-ready objects, in start order."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
