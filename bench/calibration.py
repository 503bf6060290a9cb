"""A fixed loop that measures how fast the shared machine runs right now.

The benchmark's machine is shared with other tenants.  For stretches of
under a second to minutes it runs ensq's code about 1.6 times slower
than when it is quiet, and how much of a 40-second run falls in such
stretches changes from run to run.  In a 10-minute series of 4,833
samples, each one ensq operation timed right after this loop, the
quiet samples ran the loop in 9.4 to 9.7 ms and the slow ones in 15.5
to 15.7 ms, while the operation over the loop moved by 3% at most: 4.15
against 4.03 for ``check_properties``, 9.35 against 9.29 for an
in-process sweep, 8.91 against 8.63 for an in-process ``compute``.

So the benchmark runs ``loop`` right before every timed operation and
reports every time scaled to a machine that runs the loop in
``REFERENCE_S`` seconds: the times of a run are multiplied by
``REFERENCE_S`` over the mean of the run's loop times.  Means, not
medians: in a run that spends part of its time in each state, an
operation's mean time and the loop's mean time both follow that share
linearly, so their ratio stays put, whereas medians jump from one state
to the other at different shares.  The loop uses no ensq code, so no
change to the program moves it; it mixes what ensq's hot paths do:
LAPACK on stacks of small complex matrices, many small numpy calls from
Python, and JSON parsing.
"""

from __future__ import annotations

import json
import time

import numpy as np

# About the loop's time on the reference machine when it is quiet, so
# the scaled times read close to that machine's quiet-state times.
REFERENCE_S = 0.010

_rng = np.random.default_rng(0)
_a = _rng.standard_normal((300, 4, 4)) + 1j * _rng.standard_normal((300, 4, 4))
_HERMITIAN = _a + _a.conj().transpose(0, 2, 1)
_SMALL = list(_rng.standard_normal((40, 2, 2)))
_DOC = json.dumps([_rng.standard_normal((8, 8)).tolist() for _ in range(40)])


def loop() -> float:
    """Run the calibration loop once; returns its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(4):
        np.linalg.eigh(_HERMITIAN)
        _HERMITIAN @ _HERMITIAN
    acc = 0.0
    for _ in range(10):
        for m in _SMALL:
            acc += float(np.trace(m @ m.T))
    for _ in range(3):
        json.loads(_DOC)
    return time.perf_counter() - start

