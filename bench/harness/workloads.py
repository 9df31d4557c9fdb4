"""Seeded inputs and per-op argument lists for the benchmark workloads.

Every workload uses the README tube: microphones at -0.33/-0.25/0.25/0.33 m,
so both pairs are 0.08 m apart and go blind at c / (2 * 0.08) = 2145 Hz and
its multiples. The program receives only the files written here; the
mic-spectra files come from the program's own ``synth`` command.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import oracles

AIR_DENSITY = 1.204
SOUND_SPEED = 343.2
MIC_POSITIONS = (-0.33, -0.25, 0.25, 0.33)
SAMPLE_THICKNESS = 0.00089
TUBE_DIAMETER = 0.0998
SURFACE_DENSITY = 1.135  # kg/m^2, the README's limp sheet
SNR_DB = 40.0

CONFIG_INI = f"""[air]
density = {AIR_DENSITY!r}
sound_speed = {SOUND_SPEED!r}

[tube]
mic_positions = {' '.join(repr(x) for x in MIC_POSITIONS)}
sample_thickness = {SAMPLE_THICKNESS!r}
diameter = {TUBE_DIAMETER!r}
"""


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.

    ``count`` is the number of mic-spectra files for ``stl`` and the number
    of layers for ``stack``; ``synth`` writes one file. ``calibration`` is
    the mix of calibration parts whose time the op time is divided by.
    """

    command: str
    f_min: float
    f_max: float
    f_step: float
    count: int
    calibration: tuple[int, int, int, int]

    @property
    def frequencies(self) -> np.ndarray:
        n = int(round((self.f_max - self.f_min) / self.f_step)) + 1
        return self.f_min + self.f_step * np.arange(n)


WORKLOADS = {
    # Parsing, cli rounding and JSON encoding are about 95% of the op, so a
    # text-I/O change shows here; the 8 blind-spot bins per pair exercise
    # exclusion.
    "stl-wide": Spec("stl", 100.0, 19100.0, 1.0, 2, calibration=(6, 2, 8, 0)),
    # Fixed per-file and per-call costs dominate: 60 pipeline-layer calls per
    # op and averaging over 10 runs. A batch-axis change moves this workload
    # and barely moves stl-wide.
    "stl-reps": Spec("stl", 100.0, 2000.0, 10.0, 10, calibration=(5, 5, 4, 2)),
    # No mic-spectra I/O and no decomposition: transfer, bands and models do
    # most of the op, so a text-parse change should show nothing here.
    "stack-deep": Spec("stack", 100.0, 5000.0, 1.0, 50, calibration=(1, 4, 6, 5)),
    # The only workload that runs the synth layer and the mic-spectra writer,
    # in the format stl-wide reads, so a format change that speeds reads but
    # slows writes shows up.
    "synth-wide": Spec("synth", 100.0, 19100.0, 1.0, 1, calibration=(6, 1, 8, 1)),
}


@dataclass
class Case:
    """One workload made ready to run: the argv of every op and its check."""

    name: str
    argv: list[str]
    outputs: tuple[Path, ...]
    check: Callable[[], list[str]]
    calibration: tuple[int, int, int, int]

    def reset(self) -> None:
        """Remove the previous op's outputs, so a missing write cannot pass."""
        for path in self.outputs:
            path.unlink(missing_ok=True)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``tubeloss.cli.main`` in-process; return (exit code, stderr text)."""
    from tubeloss.cli import main

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def _scenario_ini(spec: Spec, seed: int) -> str:
    return f"""[scenario]
sample = limp-mass
surface_density = {SURFACE_DENSITY!r}
termination = anechoic
snr_db = {SNR_DB!r}
seed = {seed}
f_min = {spec.f_min!r}
f_max = {spec.f_max!r}
f_step = {spec.f_step!r}
"""


def generate(name: str, seed: int, workdir: Path, spec: Spec | None = None) -> Case:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``.

    ``spec`` overrides the workload's sizes (the smoke test uses tiny ones).
    The same seed gives the same files.
    """
    spec = spec or WORKLOADS[name]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed % 2**64)
    config = workdir / "tube.ini"
    config.write_text(CONFIG_INI)
    freqs = spec.frequencies

    if spec.command == "stl":
        inputs = []
        for i in range(spec.count):
            scenario = workdir / f"scenario{i}.ini"
            scenario.write_text(_scenario_ini(spec, int(rng.integers(2**32))))
            path = workdir / f"run{i}.csv"
            code, err = run_cli(["synth", str(scenario), "--config", str(config), "--output", str(path)])
            if code != 0:
                raise RuntimeError(f"synth failed while making inputs: {err.strip()}")
            inputs.append(str(path))
        report, band_csv, narrow_csv = (workdir / n for n in ("report.json", "bands.csv", "narrow.csv"))
        argv = ["stl", *inputs, "--config", str(config), "--output", str(report),
                "--band-csv", str(band_csv), "--narrowband-csv", str(narrow_csv)]
        check = functools.partial(
            oracles.check_stl,
            report,
            band_csv,
            narrow_csv,
            freqs,
            n_runs=spec.count,
            surface_density=SURFACE_DENSITY,
            snr_db=SNR_DB,
            spacings=(MIC_POSITIONS[1] - MIC_POSITIONS[0], MIC_POSITIONS[3] - MIC_POSITIONS[2]),
            air=(AIR_DENSITY, SOUND_SPEED),
        )
        return Case(name, argv, (report, band_csv, narrow_csv), check, spec.calibration)

    if spec.command == "stack":
        layers = []
        for _ in range(spec.count // 2):
            layers.append({"kind": "limp-mass", "surface_density": float(rng.uniform(0.05, 0.6))})
            layers.append({"kind": "air-gap", "thickness": float(rng.uniform(0.002, 0.02))})
        stack = workdir / "stack.json"
        stack.write_text(json.dumps(layers))
        report = workdir / "stack-report.json"
        argv = ["stack", "--stack", str(stack), "--config", str(config),
                "--f-min", repr(spec.f_min), "--f-max", repr(spec.f_max), "--f-step", repr(spec.f_step),
                "--output", str(report)]
        expected = oracles.stack_stl_db(freqs, layers, AIR_DENSITY, SOUND_SPEED)
        return Case(name, argv, (report,), functools.partial(oracles.check_stack, report, expected),
                    spec.calibration)

    if spec.command == "synth":
        scenario_seed = int(rng.integers(2**32))
        scenario = workdir / "scenario.ini"
        scenario.write_text(_scenario_ini(spec, scenario_seed))
        out = workdir / "synth.csv"
        argv = ["synth", str(scenario), "--config", str(config), "--output", str(out)]
        expected = _synth_table(spec, scenario_seed)
        return Case(name, argv, (out,), functools.partial(oracles.check_synth, out, expected),
                    spec.calibration)

    raise ValueError(f"unknown command {spec.command!r}")


def _synth_table(spec: Spec, seed: int) -> np.ndarray:
    """The (n, 9) table ``synth_mic_pressures`` gives for the synth scenario."""
    from tubeloss import (
        AirProperties, FrequencyGrid, LayerModel, SynthScenario, TubeGeometry, synth_mic_pressures,
    )

    scenario = SynthScenario(
        sample=LayerModel.limp_mass(SURFACE_DENSITY),
        geometry=TubeGeometry(MIC_POSITIONS, SAMPLE_THICKNESS, TUBE_DIAMETER),
        air=AirProperties(AIR_DENSITY, SOUND_SPEED),
        snr_db=SNR_DB,
        seed=seed,
    )
    grid = FrequencyGrid.from_range(spec.f_min, spec.f_max, spec.f_step)
    columns = [grid.frequencies]
    for p in synth_mic_pressures(scenario, grid):
        columns += [p.values.real, p.values.imag]
    return np.column_stack(columns)

