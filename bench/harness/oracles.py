"""Per-op output checks against closed forms computed here, not by the program.

Each ``check_*`` returns a list of problems; an empty list means the op's
output is correct.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Nominal centers of the bands ``stl`` reports by default (100-5000 Hz) and
#: their indices relative to 1000 Hz.
STL_BAND_NOMINALS = (100.0, 125.0, 160.0, 200.0, 250.0, 315.0, 400.0, 500.0, 630.0,
                     800.0, 1000.0, 1250.0, 1600.0, 2000.0, 2500.0, 3150.0, 4000.0, 5000.0)
STL_BAND_INDICES = range(-10, 8)

#: Bands are compared with the limp-mass closed form only where the loss is
#: at least this far below the SNR, so that noise in the transmitted wave
#: stays small, and only inside the window 0.1 pi < k s < 0.8 pi where a
#: microphone pair of spacing s amplifies noise little (Boden & Abom 1986).
SNR_MARGIN_DB = 20.0
CONDITIONED_KS = (0.1 * np.pi, 0.8 * np.pi)
#: Largest accepted band difference from the closed form, in dB.
BAND_TOLERANCE_DB = 0.3
#: Largest accepted narrowband difference of a stack from the matrix product:
#: half the report's 0.01 dB quantum plus room for rounding order.
STACK_TOLERANCE_DB = 0.0051

MIC_SPECTRA_COLUMNS = "frequency_hz,p1_re,p1_im,p2_re,p2_im,p3_re,p3_im,p4_re,p4_im"


def limp_mass_stl_db(f: np.ndarray, surface_density: float, rho: float, c: float) -> np.ndarray:
    """Normal-incidence loss of a limp mass, 10 log10(1 + (w m / 2 rho c)^2)."""
    x = 2.0 * np.pi * f * surface_density / (2.0 * rho * c)
    return 10.0 * np.log10(1.0 + x * x)


def blind_spots(f: np.ndarray, spacings, c: float) -> np.ndarray:
    """Bins at a multiple of c / (2 s) for a pair spacing s, where sin(k s) = 0."""
    mask = np.zeros(f.shape, dtype=bool)
    for s in spacings:
        ratio = f / (c / (2.0 * abs(s)))
        mask |= (np.round(ratio) >= 1.0) & (np.abs(ratio - np.round(ratio)) < 1e-6)
    return mask


def band_edges(index: int) -> tuple[float, float]:
    """Edges of third-octave band ``index`` (1000 Hz is 0), a sixth of an octave off center."""
    center = 1000.0 * 2.0 ** (index / 3.0)
    return center * 2.0 ** (-1.0 / 6.0), center * 2.0 ** (1.0 / 6.0)


def band_power_average(f: np.ndarray, values_db: np.ndarray, usable: np.ndarray, index: int) -> float:
    """Power average over the usable bins of third-octave band ``index``."""
    lower, upper = band_edges(index)
    in_band = (f >= lower) & (f < upper) & usable
    if not np.any(in_band):
        return float("nan")
    return float(-10.0 * np.log10(np.mean(10.0 ** (-values_db[in_band] / 10.0))))


def stack_stl_db(f: np.ndarray, layers: list[dict], rho: float, c: float) -> np.ndarray:
    """Loss of a limp-mass/air-gap stack from the per-bin product of its 2x2 matrices."""
    z = rho * c
    omega = 2.0 * np.pi * f
    k = omega / c
    total = np.broadcast_to(np.eye(2, dtype=complex), (f.size, 2, 2))
    for layer in layers:
        m = np.empty((f.size, 2, 2), dtype=complex)
        if layer["kind"] == "limp-mass":
            m[:, 0, 0] = m[:, 1, 1] = 1.0
            m[:, 0, 1] = 1j * omega * layer["surface_density"]
            m[:, 1, 0] = 0.0
        elif layer["kind"] == "air-gap":
            kl = k * layer["thickness"]
            m[:, 0, 0] = m[:, 1, 1] = np.cos(kl)
            m[:, 0, 1] = 1j * z * np.sin(kl)
            m[:, 1, 0] = 1j * np.sin(kl) / z
        else:
            raise ValueError(f"no analytic matrix for layer kind {layer['kind']!r}")
        total = total @ m
    den = total[:, 0, 0] + total[:, 0, 1] / z + z * total[:, 1, 0] + total[:, 1, 1]
    return 20.0 * np.log10(np.abs(den) / 2.0)


def _load_json(path: Path):
    with open(path, "r") as handle:
        return json.load(handle)


def check_stl(report_path: Path, band_csv: Path, narrow_csv: Path, freqs: np.ndarray, *,
              n_runs: int, surface_density: float, snr_db: float, spacings, air) -> list[str]:
    """Check an ``stl`` report and its CSVs for a limp-mass sample."""
    rho, c = air
    n = freqs.size
    blind = blind_spots(freqs, spacings, c)
    try:
        report = _load_json(report_path)
        problems = []
        if report["n_repetitions"] != n_runs:
            problems.append(f"n_repetitions {report['n_repetitions']} != {n_runs}")
        narrow = report["narrowband"]
        for key in ("frequency_hz", "stl_db", "stl_spread_db", "stl_direct_db",
                    "reflectance", "valid", "above_cutoff"):
            if len(narrow[key]) != n:
                problems.append(f"narrowband {key} has {len(narrow[key])} entries, not {n}")
        if problems:
            return problems
        if not np.array_equal(np.array(narrow["frequency_hz"], dtype=float), freqs):
            problems.append("narrowband frequencies differ from the input grid")
        invalid = ~np.array(narrow["valid"], dtype=bool)
        if not np.array_equal(invalid, blind):
            problems.append(f"invalid bins {freqs[invalid].tolist()} are not the blind spots "
                            f"{freqs[blind].tolist()}")
        stl_null = np.array([v is None for v in narrow["stl_db"]])
        if not np.array_equal(stl_null, blind):
            problems.append("narrowband stl_db is null elsewhere than at the blind spots")

        bands = report["bands"]
        if [float(v) for v in bands["nominal_hz"]] != list(STL_BAND_NOMINALS):
            problems.append(f"band centers {bands['nominal_hz']} are not 100-5000 Hz")
        else:
            closed_form = limp_mass_stl_db(freqs, surface_density, rho, c)
            f_lo = CONDITIONED_KS[0] * c / (2.0 * np.pi * min(abs(s) for s in spacings))
            f_hi = CONDITIONED_KS[1] * c / (2.0 * np.pi * max(abs(s) for s in spacings))
            for index, got in zip(STL_BAND_INDICES, bands["values_db"]):
                lower, upper = band_edges(index)
                want = band_power_average(freqs, closed_form, ~blind, index)
                if lower < f_lo or upper > f_hi or np.isnan(want) or want > snr_db - SNR_MARGIN_DB:
                    continue
                if got is None or abs(got - want) > BAND_TOLERANCE_DB:
                    problems.append(f"band {index}: {got} dB, limp-mass closed form {want:.3f} dB")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report {report_path.name}: {exc!r}"]

    try:
        rows = band_csv.read_text().splitlines()
        names = [row.split(",", 1)[0] for row in rows]
        if names != ["band_nominal_hz", "stl_db", "stl_db_coverage"]:
            problems.append(f"band CSV rows {names}")
        lines = narrow_csv.read_text().splitlines()
        if len(lines) != n + 1 or not lines[0].startswith("frequency_hz,"):
            problems.append(f"narrowband CSV has {len(lines)} lines, not {n + 1}")
    except OSError as exc:
        problems.append(f"CSV: {exc!r}")
    return problems


def check_stack(report_path: Path, expected_db: np.ndarray) -> list[str]:
    """Check a ``stack`` report's narrowband loss against the matrix product."""
    try:
        values = _load_json(report_path)["narrowband"]["stl_db"]
        if len(values) != expected_db.size:
            return [f"narrowband stl_db has {len(values)} entries, not {expected_db.size}"]
        if any(v is None for v in values):
            return ["narrowband stl_db has null entries"]
        err = np.abs(np.array(values, dtype=float) - expected_db)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report {report_path.name}: {exc!r}"]
    worst = int(np.argmax(err))
    if err[worst] > STACK_TOLERANCE_DB:
        return [f"bin {worst}: {values[worst]} dB, matrix product {expected_db[worst]:.4f} dB"]
    return []


def read_mic_table(path: Path) -> np.ndarray:
    """Parse a mic-spectra CSV into an (n, 9) float table, header lines skipped."""
    with open(path, "r", newline="") as handle:
        lines = [line for line in handle.read().split("\n") if line and not line.startswith("#")]
    if not lines or lines[0] != MIC_SPECTRA_COLUMNS:
        raise ValueError("missing the column header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if any(len(row) != 9 for row in rows):
        raise ValueError("a row does not have 9 columns")
    return np.array(rows, dtype=float).reshape(-1, 9)


def check_synth(path: Path, expected: np.ndarray) -> list[str]:
    """Check that a ``synth`` file reads back bit-identical to the expected table."""
    try:
        table = read_mic_table(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    if table.shape != expected.shape:
        return [f"{path.name}: {table.shape[0]} rows, not {expected.shape[0]}"]
    if not np.array_equal(table.view(np.uint64), expected.view(np.uint64)):
        bad = int(np.argmax(np.any(table.view(np.uint64) != expected.view(np.uint64), axis=1)))
        return [f"{path.name}: row {bad} differs from synth_mic_pressures"]
    return []
