"""Fixed calibration work, run between ops to measure the host's current speed.

On a shared host the same op's wall time drifts by up to 1.9x between runs,
while its ratio to the time of calibration work of the same kinds stays
within a few percent. Contention slows kinds of work by different factors
(text formatting most, many small numpy calls least), so each workload has
its own fixed mix of four parts of about 1 ms each: float formatting,
parsing and JSON encoding; Python object handling; whole-grid numpy
arithmetic; and many small numpy calls. The work never changes, so it must
not call the program.
"""
from __future__ import annotations

import json
import time

import numpy as np

_VALUES = [((i * 7919) % 10007) / 7.0 - 700.0 for i in range(325)]
_GRID = np.linspace(100.0, 19100.0, 9500)
_SMALL = 1j * np.linspace(100.0, 5000.0, 4901)


def _text() -> float:
    text = ",".join(repr(v) for v in _VALUES)
    parsed = [float(v) for v in text.split(",")]
    return len(json.dumps({"values": [round(v, 2) for v in parsed]}, indent=2))


def _objects() -> float:
    rows = []
    for i in range(3000):
        record = {"index": i, "pair": (i, i + 1)}
        rows.append(record["pair"][1] - record["index"])
    return sum(rows)


def _whole_grid() -> float:
    k = 2.0 * np.pi * _GRID / 343.2
    field = np.exp(-1j * k * 0.33) + 0.5 * np.exp(1j * k * 0.25)
    return float(np.sum(10.0 * np.log10(np.abs(field) ** 2 + 1.0)))


def _small_calls() -> float:
    acc = np.ones_like(_SMALL)
    for _ in range(20):
        acc = acc * _SMALL + acc
        acc = acc / np.abs(acc)
    return float(np.abs(acc).sum())


PARTS = (_text, _objects, _whole_grid, _small_calls)


def calibration_loop(mix: tuple[int, int, int, int]) -> float:
    """Run each part of ``PARTS`` the given number of times; return the wall time in s."""
    start = time.perf_counter()
    results = [part() for part, count in zip(PARTS, mix) for _ in range(count)]
    elapsed = time.perf_counter() - start
    if not all(np.isfinite(results)):
        raise RuntimeError("calibration loop produced no result")
    return elapsed
