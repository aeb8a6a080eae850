"""A fixed reference computation that measures the host's current speed.

A benchmark host that is a few cores of a shared machine changes speed
with the machine's other load: the same code can run ~1.5x faster or
slower, for a second or for minutes.  Runs therefore time this kernel
throughout and report each operation's time scaled to a nominal host on
which one kernel run takes `NOMINAL_S` (see METRICS.md, "Host-speed
scaling").

The kernel does not use tenfold, so a change to the library cannot change
it.  Its mix follows the workloads: a Python loop of small numpy linear
algebra (the grid path), exact rational arithmetic (the exact path) and
JSON text with dicts (the command-line path).  It takes ~8 ms.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.008  # seconds per kernel run on the nominal host

_rng = np.random.default_rng(20150413)
_HERM = [a + a.conj().T for a in
         (_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
          for _ in range(48))]
_FRAC = [Fraction(int(p), int(q)) for p, q in _rng.integers(1, 997, size=(40, 2))]
_DOC = {"values": _rng.standard_normal((64, 2, 2)).round(6).tolist(),
        "base": {"kind": "circle", "npoints": 64}}


def kernel():
    acc = 0.0
    for h in _HERM:
        w, v = np.linalg.eigh(h)
        acc += float(np.abs((v * np.exp(1j * w)) @ v.conj().T).sum())
    s = Fraction(0)
    for a in _FRAC:
        for b in _FRAC[:12]:
            s += a * b - b / a
    doc = json.loads(json.dumps(_DOC))
    count = {}
    for row in doc["values"]:
        for pair in row:
            key = round(pair[0], 1)
            count[key] = count.get(key, 0) + 1
    return acc, s, len(count)


def sample():
    """Seconds for one kernel run."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t
