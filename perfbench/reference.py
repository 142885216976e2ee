"""Host-speed reference: fixed work that belongs neither to liefoliate nor to
the workload's inputs, timed among the requests of a run.

The host is shared, and its speed moves by 20-40% from one minute to the
next, in the same way for all code on it.  A run therefore also times this
reference work, in the same way and at the same moments as its requests, and
reports each time scaled to a host on which the reference takes a fixed
time: ``seconds * REFERENCE / measured reference``.  A change to liefoliate
leaves the reference as it was, so it moves the scaled times as it moves
the measured ones; a change in the host's speed moves both and cancels.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

# A fresh interpreter importing the standard and third-party modules the
# command line needs, for the set-up probes and cli_cold; and its time on the
# host the scaled metrics refer to.
CHILD_ARGV = [sys.executable, "-c", "import argparse, fractions, json, numpy"]
CHILD_S = 0.2

# In-process work: exact rational arithmetic with dicts, as in roots and
# parabolic, and small dense linear algebra, as in slmodel; and its time on
# the host the scaled metrics refer to.
KERNEL_S = 0.0008
_MATRIX = np.random.default_rng(0).standard_normal((6, 6))


def kernel_seconds() -> float:
    """Wall time of one run of the in-process reference work."""
    start = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 120):
        total += Fraction(1, i)
        seen[(i, i % 7)] = total.numerator % 97
    x = _MATRIX
    for _ in range(10):
        q, r = np.linalg.qr(x)
        x = q @ r + 0.0
    return perf_counter() - start
