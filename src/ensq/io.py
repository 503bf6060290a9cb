"""Ensemble file round-trip.

The on-disk format is JSON::

    {
      "dim": 2,
      "members": [
        {"p": 0.5, "rho": [[[re, im], ...], ...]},
        {"p": 0.25, "psi": [[re, im], ...]},
        {"p": 0.25, "bloch": [x, y, z]}
      ]
    }

Complex entries are [re, im] pairs.  ``rho`` is a dim x dim density
matrix, ``psi`` a length-dim amplitude vector (stored as its projector),
and ``bloch`` a Bloch-ball vector (qubit files only).  Exactly one of the
three must be present per member.  Loading makes each member's state an
array as soon as json has parsed it (with the cyclic GC paused, since the
parse makes no reference cycles), drops the file text, then builds one
``(m, dim, dim)`` stack and one validated stack form per member kind;
every diagnostic names the offending member.

Eigensolves, the same at every d: ``psi`` members take none, since their
projectors are valid by construction (``states.projector_stack``) and
their ``Factors.from_vectors`` are their normalized amplitudes (rank 1,
lambda 1).  ``rho`` members, and ``bloch`` members once they pass the
Bloch-ball check, are validated from one ``eigh`` each
(``states._validate_density_eigh``), whose eigenpairs give their
``Factors.from_eigh``.  Each kind's factors are ``Factors.placed`` at its
members' rows, so every loaded ``Ensemble`` carries factors, and
``quantumness`` of it runs no member eigensolve of its own, only the
commutator ``eigvalsh`` of its low-rank and (but for Frobenius) dense pairs.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import numpy as np

from .ensemble import Ensemble, Factors
from .errors import EnsembleFileError, EnsqError
from .states import _bloch_matrices, _validate_density_eigh, projector_stack

__all__ = ["load_ensemble", "save_ensemble", "ensemble_to_payload"]

_STATE_KEYS = ("rho", "psi", "bloch")
# Rejects NaN, infinities and integers too large for a float.
_MAX_FLOAT = float(np.finfo(float).max)
# What ``np.array`` makes of JSON lists of floats, ints or bools alone.
_PARSED_DTYPES = (np.dtype(float), np.dtype(np.int64), np.dtype(bool))


def _state_arrays(pairs: list) -> dict:
    """A JSON object whose state lists are numpy arrays (json's ``object_pairs_hook``).

    Converting each member while it is parsed frees its nested lists at
    once, instead of holding every member's lists until one ``np.array``
    call.  Any other value is left as it is, for ``_numbers`` to reject.
    """
    obj = dict(pairs)
    for key in _STATE_KEYS:
        if isinstance(obj.get(key), list):
            try:
                arr = np.array(obj[key])
            except (ValueError, TypeError):  # ragged nesting
                continue
            if arr.dtype in _PARSED_DTYPES:
                obj[key] = arr
    return obj


def _numbers(values, shape: tuple):
    """JSON values as one float array of exactly ``shape``, or None."""
    try:
        arr = np.array(values)
    except (ValueError, TypeError):  # ragged nesting
        return None
    if arr.shape != shape or arr.dtype.kind not in "biuf":
        return None
    return arr.astype(float)


def _kind_stack(members: list, idx: list, key: str, shape: tuple, what: str) -> np.ndarray:
    """The ``key`` values of members ``idx`` as floats ``(len(idx), *shape)``."""
    values = [members[i][key] for i in idx]
    arr = _numbers(values, (len(idx), *shape))
    if arr is None:
        bad = next((i for i, v in zip(idx, values) if _numbers(v, shape) is None), idx[0])
        raise EnsembleFileError(f"member {bad}: {key} must be {what}")
    return arr


def _complex(pairs: np.ndarray) -> np.ndarray:
    """Complex numbers from a C-contiguous float array of [re, im] pairs."""
    return pairs.view(complex)[..., 0]


def _member_states(idx: list, make, values) -> np.ndarray:
    """``make(values)`` for members ``idx``; an error names the first offending member."""
    try:
        return make(values)
    except EnsqError:
        for i, value in zip(idx, values):
            try:
                make(value[None])
            except EnsqError as exc:
                raise EnsembleFileError(f"member {i}: {exc}") from exc
        raise


def _validated_states(members: list, kinds: dict, dim: int) -> tuple:
    """Validated ``(m, dim, dim)`` stack of every member's state, and its
    ``Factors`` (``Ensemble.factors``)."""
    parts = []  # (members, states, factors)
    idx = kinds["rho"]
    if idx:
        what = f"a {dim}x{dim} matrix of [re, im] pairs"
        rho = _complex(_kind_stack(members, idx, "rho", (dim, dim, 2), what))
        states, w, v = _member_states(idx, _validate_density_eigh, rho)
        parts.append((idx, states, Factors.from_eigh(w, v)))
    idx = kinds["psi"]
    if idx:
        amps = _complex(_kind_stack(members, idx, "psi", (dim, 2), f"{dim} [re, im] amplitudes"))
        states = _member_states(idx, projector_stack, amps)
        # Rank 1, lambda 1, the normalized amplitudes: no eigh.
        unit = amps / np.linalg.norm(amps, axis=-1, keepdims=True)
        parts.append((idx, states, Factors.from_vectors(unit)))
    idx = kinds["bloch"]
    if idx:
        r = _kind_stack(members, idx, "bloch", (3,), "[x, y, z]")
        raw = _member_states(idx, _bloch_matrices, r)
        states, w, v = _member_states(idx, _validate_density_eigh, raw)
        parts.append((idx, states, Factors.from_eigh(w, v)))
    # Allocated last, so that it is not held while a kind is validated.
    stack = np.empty((len(members), dim, dim), dtype=complex)
    for idx, states, _ in parts:
        stack[idx] = states
    return stack, Factors.placed(len(members), [(idx, f) for idx, _, f in parts])


def load_ensemble(path) -> Ensemble:
    """Load and validate an ensemble file; diagnostics name the offending member."""
    text = Path(path).read_text()
    collecting = gc.isenabled()
    gc.disable()  # the parse makes no cycles, yet its allocations trigger collections
    try:
        data = json.loads(text, object_pairs_hook=_state_arrays)
    except json.JSONDecodeError as exc:
        raise EnsembleFileError(f"{path}: not valid JSON ({exc})") from exc
    finally:
        if collecting:
            gc.enable()
    del text  # not held while the stack is built and validated
    if not isinstance(data, dict):
        raise EnsembleFileError(f"{path}: top level must be an object")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise EnsembleFileError(f"{path}: dim must be a positive integer")
    members = data.get("members")
    if not isinstance(members, list) or not members:
        raise EnsembleFileError(f"{path}: members must be a nonempty list")
    probs = []
    kinds = {key: [] for key in _STATE_KEYS}
    for idx, spec in enumerate(members):
        where = f"member {idx}"
        if not isinstance(spec, dict):
            raise EnsembleFileError(f"{where}: must be an object")
        p = spec.get("p")
        if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0 <= p <= _MAX_FLOAT:
            raise EnsembleFileError(f"{where}: p must be a finite nonnegative number")
        present = [k for k in _STATE_KEYS if k in spec]
        if len(present) != 1:
            raise EnsembleFileError(
                f"{where}: need exactly one of {', '.join(_STATE_KEYS)}, got {present or 'none'}"
            )
        if present[0] == "bloch" and dim != 2:
            raise EnsembleFileError(f"{where}: bloch members need dim 2, file has dim {dim}")
        probs.append(float(p))
        kinds[present[0]].append(idx)
    states, factors = _validated_states(members, kinds, dim)
    try:
        return Ensemble.from_stack(probs, states, factors)
    except EnsqError as exc:
        raise EnsembleFileError(f"{path}: {exc}") from exc


def ensemble_to_payload(ensemble: Ensemble) -> dict:
    """JSON-ready dict with every member stored as an explicit rho matrix."""
    m, d = len(ensemble), ensemble.dim
    pairs = np.ascontiguousarray(ensemble.state_stack).view(float).reshape(m, d, d, 2)
    return {
        "dim": d,
        "members": [
            {"p": p, "rho": rho} for p, rho in zip(ensemble.probabilities.tolist(), pairs.tolist())
        ],
    }


def save_ensemble(path, ensemble: Ensemble) -> None:
    """Write an ensemble file; byte-identical output for identical input."""
    payload = ensemble_to_payload(ensemble)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
