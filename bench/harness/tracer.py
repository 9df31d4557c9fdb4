"""Outside-in tracer: spans around calls into the program's public functions.

Nothing in the program changes. While a traced op runs, every module
attribute of the program that names one of ``LAYER_FUNCTIONS`` is replaced
by a wrapper that records a span, and the original is put back after the
op. Spans stay in memory and are written out at the end.
"""
from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

#: The program's layers (its modules) and the public functions traced in each.
LAYER_FUNCTIONS = {
    "io_files": ("read_mic_spectra", "require_header_matches", "write_report", "write_band_csv",
                 "write_mic_spectra", "load_config", "load_scenario", "load_stack"),
    "decompose": ("decompose_four_mic",),
    "transfer": ("boundary_states", "reconstruct_one_load", "acoustic_indicators",
                 "stl_direct_anechoic", "anechoic_quality"),
    "pipeline": ("analyze_four_mic",),
    "bands": ("average_repetitions", "band_average", "third_octave_bands"),
    "models": ("cascade", "stack_indicators"),
    "synth": ("synth_mic_pressures",),
}
#: Modules whose attributes are wrapped: the import sites and the homes.
SITES = ("cli", "pipeline", "models", "synth", "io_files", "decompose", "transfer", "bands")
ROOT = "cli.main"
MODULES = (*LAYER_FUNCTIONS, "cli")
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns)


@dataclass(frozen=True)
class Span:
    """One call: ``parent`` indexes the caller's span, -1 for an op's root."""

    name: str
    start: float
    end: float
    parent: int
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _size(path) -> int:
    return 0 if path in (None, "-") else os.path.getsize(path)


def _bytes_read(counts, args, result) -> None:
    counts["io_files.bytes_read"] += _size(args[0])


def _bytes_written(counts, args, result) -> None:
    counts["io_files.bytes_written"] += _size(args[0])


def _decomposed(counts, args, result) -> None:
    counts["decompose.bins_in"] += len(result.grid)
    counts["decompose.bins_singular"] += int(
        np.count_nonzero(result.upstream_singular | result.downstream_singular)
    )


def _analyzed(counts, args, result) -> None:
    counts["pipeline.bins_in"] += result.indicators.valid.size
    counts["pipeline.bins_valid"] += int(np.count_nonzero(result.indicators.valid))


#: Work counters, evaluated after the op so they add nothing to its spans.
COUNTERS = {
    "io_files.read_mic_spectra": _bytes_read,
    "io_files.load_config": _bytes_read,
    "io_files.load_scenario": _bytes_read,
    "io_files.load_stack": _bytes_read,
    "io_files.write_report": _bytes_written,
    "io_files.write_band_csv": _bytes_written,
    "io_files.write_mic_spectra": _bytes_written,
    "decompose.decompose_four_mic": _decomposed,
    "pipeline.analyze_four_mic": _analyzed,
}


class Tracer:
    """Records spans, work counts and errors of the ops it runs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.errors: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._pending: list = []
        self._op = -1
        self._patches = []
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"tubeloss.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for site in SITES:
                    module = importlib.import_module(f"tubeloss.{site}")
                    if getattr(module, name, None) is original:
                        self._patches.append((module, name, original, wrapper))

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent, self._op)

    def _wrap(self, name: str, original):
        layer = name.split(".")[0]
        counter = COUNTERS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self._close(index, name, start, time.perf_counter())
            if counter is not None:
                self._pending.append((counter, args, result))
            return result

        return traced

    def run_op(self, op: int, call):
        """Run ``call()`` as op ``op`` under a root span, with every wrapper installed."""
        self._op = op
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)
        index = self._open()
        start = time.perf_counter()
        try:
            return call()
        finally:
            self._close(index, ROOT, start, time.perf_counter())
            for module, name, original, _ in self._patches:
                setattr(module, name, original)
            for counter, args, result in self._pending:
                counter(self.counts, args, result)
            self._pending.clear()

    def op_balance(self) -> float:
        """Largest |sum of an op's self times - its root span's duration|, in s."""
        per_op: dict[int, float] = collections.defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            per_op[span.op] += own
        return max(
            (abs(per_op[s.op] - (s.end - s.start)) for s in self.spans if s.parent < 0),
            default=0.0,
        )

    def metrics(self) -> dict[str, float]:
        """Per-op means of self time and calls per function, plus counts and errors."""
        n_ops = max(1, sum(1 for s in self.spans if s.parent < 0))
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_ms"] = 0.0
            out[f"{name}.calls"] = 0.0
        out[f"{ROOT}.self_ms"] = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            out[f"{span.name}.self_ms"] += 1000.0 * own / n_ops
            if span.name != ROOT:
                out[f"{span.name}.calls"] += 1.0 / n_ops
        for key in ("io_files.bytes_read", "io_files.bytes_written",
                    "decompose.bins_in", "decompose.bins_singular"):
            out[key] = self.counts[key] / n_ops
        bins = self.counts["pipeline.bins_in"]
        out["pipeline.valid_ratio"] = self.counts["pipeline.bins_valid"] / bins if bins else 0.0
        for module in MODULES:
            out[f"{module}.errors"] = float(self.errors[module])
        return out

    def dump(self, path: Path) -> None:
        """Write every span, with its self time, as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span, own in zip(self.spans, self_times(self.spans)):
                handle.write(json.dumps({**asdict(span), "self": own}) + "\n")
