"""Command-line surface tying the analysis pipeline together.

Each ``_cmd_*`` function only computes: the report commands (``stl``, ``il``,
``masslaw``, ``stack``) return their report dict, ``bands`` and ``synth``
return None. :func:`main` is the one place that records warnings, prints them
to stderr as ``warning:`` lines, puts them into the report, writes the report
and maps exceptions to exit codes: 0 success, 2 input/format error, 3
numerical validity error. Warnings never change the exit code; a failing run
prints one ``error:`` line and nothing else.

Each subcommand declares only the options its ``_cmd_*`` reads; an option that
several commands read is declared once, in a parent parser. A command line the
parser rejects is a usage error: :class:`_Parser` raises it as a
:class:`~tubeloss.errors.TubelossError`, so it exits 2 with one ``error:`` line
like any other input error. ``--help`` and ``--version`` print and exit 0.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import math
import sys
import warnings

import numpy as np

from . import __version__
from .bands import (
    BandTable,
    average_repetitions,
    band_average,
    insertion_loss,
    third_octave_bands,
)
from .core import DEFAULT_AIR, FrequencyGrid, plane_wave_cutoff
from .errors import (
    AllBinsInvalidError,
    InputFormatError,
    NumericalValidityError,
    PlaneWaveCutoffWarning,
    SingularBinWarning,
    TubelossError,
)
from .io_files import (
    config_hash,
    load_config,
    load_materials,
    load_scenario,
    load_stack,
    read_band_csv,
    read_mic_spectra,
    require_header_matches,
    write_band_csv,
    write_mic_spectra,
    write_narrowband_csv,
    write_report,
    write_text_atomic,
)
from .models import mass_law_constant_db, mass_law_stl, stack_thickness
from .pipeline import analyze_four_mic
from .synth import synth_mic_pressures
from .transfer import acoustic_indicators

_DB_DECIMALS = 2  # reports quote dB to 0.01; CSV files keep full precision


def _round_db(values, decimals: int = _DB_DECIMALS) -> list:
    """Each value as ``round(v, decimals)``; NaN becomes None, +-inf stays.

    ``np.round`` rounds the product ``x * 10**decimals`` to an integer and
    divides back. For |x| < 1e6 and up to 9 decimals that product stays below
    2**52, where every half step is a double, so the product's own rounding
    can land on a half step but never cross one. Only values within 1e-6 of a
    half step, larger values and non-finite values go through Python's
    ``round``.
    """
    x = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = x * 10**decimals
        exact = (np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6) | ~(np.abs(x) < 1e6)
        out = np.round(x, decimals).tolist()
    for i in np.flatnonzero(exact).tolist():
        v = float(x[i])
        out[i] = round(v, decimals) if math.isfinite(v) else (None if math.isnan(v) else v)
    return out


_MODES = ("band_mode", "rep_mode", "masslaw_constant")


def _provenance(args, air, geometry) -> dict:
    return {
        "tool": "tubeloss",
        "version": __version__,
        "command": args.command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_hash": config_hash(air, geometry),
        "modes": {mode: getattr(args, mode) for mode in _MODES if hasattr(args, mode)},
        "seed": None,  # no report command takes a seed; the key keeps the report layout
    }


def _band_block(table: BandTable, key: str = "values_db") -> dict:
    return {
        "nominal_hz": [b.nominal for b in table.bands],
        key: _round_db(table.values),
        "coverage": table.coverage.tolist(),
    }


def _require_config(args) -> tuple:
    if not args.config:
        raise InputFormatError("this command needs --config <path>")
    return load_config(args.config)


def _cmd_bands(args) -> None:
    bands = third_octave_bands(args.f_min, args.f_max)
    lines = ["band_nominal_hz,exact_center_hz,lower_edge_hz,upper_edge_hz"]
    for b in bands:
        lines.append(f"{b.nominal:g},{b.center!r},{b.lower!r},{b.upper!r}")
    text = "\n".join(lines) + "\n"
    if args.output and args.output != "-":
        write_text_atomic(args.output, text)
    else:
        print(text, end="")


def _cmd_synth(args) -> None:
    air, geometry = _require_config(args)
    scenario, grid = load_scenario(args.scenario, geometry, air)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    spectra = synth_mic_pressures(scenario, grid)
    write_mic_spectra(args.output, spectra, geometry, air)


def _cmd_stl(args) -> dict:
    air, geometry = _require_config(args)
    grid = None
    runs = []
    reflectances = []
    direct_runs = []
    for path in args.inputs:
        spectra, file_geometry, file_air = read_mic_spectra(path)
        require_header_matches(path, file_geometry, file_air, geometry, air)
        if grid is None:
            grid = spectra[0].grid
        else:
            grid.require_matches(spectra[0].grid, f"input '{path}'")
        analysis = analyze_four_mic(*spectra, geometry=geometry, air=air)
        runs.append(analysis.indicators.stl_db)
        reflectances.append(analysis.indicators.reflectance)
        direct_runs.append(analysis.stl_direct_db)
        singular = analysis.amplitudes.singular_frequencies()
        for pair in ("upstream", "downstream"):
            if singular[pair].size:
                warnings.warn(
                    f"{path}: {pair} pair singular at {singular[pair].tolist()} Hz",
                    SingularBinWarning,
                    stacklevel=1,
                )

    mean_stl, spread_stl = average_repetitions(np.array(runs), mode=args.rep_mode)
    if not np.any(np.isfinite(mean_stl)):
        raise AllBinsInvalidError("no valid frequency bin in any input (all bins singular)")
    valid = np.isfinite(mean_stl)

    cutoff = plane_wave_cutoff(geometry, air)
    above = grid.frequencies > cutoff
    if np.any(above):
        warnings.warn(
            f"{int(np.count_nonzero(above))} bins above the plane-wave cutoff "
            f"({cutoff:.1f} Hz) are flagged, not rejected",
            PlaneWaveCutoffWarning,
            stacklevel=1,
        )

    mean_reflectance = average_repetitions(np.array(reflectances))[0]
    mean_direct = average_repetitions(np.array(direct_runs))[0]

    bands = third_octave_bands(args.f_min, args.f_max)
    table = band_average(grid, mean_stl, bands, mode=args.band_mode)

    report = _provenance(args, air, geometry)
    report.update(
        {
            "inputs": list(args.inputs),
            "n_repetitions": len(args.inputs),
            "cutoff_hz": cutoff,
            "narrowband": {
                "frequency_hz": grid.frequencies.tolist(),
                "stl_db": _round_db(mean_stl),
                "stl_spread_db": _round_db(spread_stl),
                "stl_direct_db": _round_db(mean_direct),
                # NaN or finite (a valid bin needs a finite reflection), never +-inf
                "reflectance": _round_db(mean_reflectance, decimals=6),
                "valid": valid.tolist(),
                "above_cutoff": above.tolist(),
            },
            "bands": _band_block(table),
        }
    )
    if args.band_csv:
        write_band_csv(args.band_csv, {"stl_db": table})
    if args.narrowband_csv:
        write_narrowband_csv(args.narrowband_csv, grid, mean_stl, spread_stl, mean_reflectance)
    return report


def _cmd_masslaw(args) -> dict:
    air = load_config(args.config)[0] if args.config else DEFAULT_AIR
    materials = load_materials(args.materials)
    bands = third_octave_bands(args.f_min, args.f_max)
    centers = np.array([b.center for b in bands])
    entries = []
    tables = {}
    for mat in materials:
        values = mass_law_stl(centers, mat.surface_density, args.masslaw_constant, air)
        below = values < 0.0
        if np.any(below):
            nominals = [b.nominal for b, flag in zip(bands, below) if flag]
            warnings.warn(
                f"{mat.name}: mass-law prediction below validity (negative) in bands "
                f"{nominals} Hz",
                UserWarning,
                stacklevel=1,
            )
        entries.append(
            {
                "name": mat.name,
                "thickness_mm": mat.thickness_mm,
                "surface_density": mat.surface_density,
                "bands": {
                    "nominal_hz": [b.nominal for b in bands],
                    "stl_db": _round_db(values),
                    "below_validity": below.tolist(),
                },
            }
        )
        tables[mat.name.replace(",", " ")] = BandTable.from_values(bands, values)
    report = _provenance(args, air, None)
    report["constant_db"] = mass_law_constant_db(args.masslaw_constant, air)
    report["materials"] = entries
    if args.band_csv:
        write_band_csv(args.band_csv, tables)
    return report


def _cmd_il(args) -> dict:
    def pick_table(path, preferred: str) -> BandTable:
        tables = read_band_csv(path)
        if preferred in tables:
            return tables[preferred]
        return next(iter(tables.values()))

    before = pick_table(args.before, "L_r0")
    after = pick_table(args.after, "L_rs")
    table = insertion_loss(before, after)
    report = _provenance(args, DEFAULT_AIR, None)
    report.update(
        {"before": args.before, "after": args.after, "bands": _band_block(table, "il_db")}
    )
    if args.band_csv:
        write_band_csv(args.band_csv, {"il_db": table})
    return report


def _cmd_stack(args) -> dict:
    air = load_config(args.config)[0] if args.config else DEFAULT_AIR
    layers = load_stack(args.stack)
    grid = FrequencyGrid.from_range(args.f_min, args.f_max, args.f_step)
    bands = third_octave_bands(args.f_min, args.f_max)

    def banded(matrix, thickness: float) -> tuple[np.ndarray, BandTable]:
        narrow = acoustic_indicators(matrix, thickness, air).stl_db
        return narrow, band_average(grid, narrow, bands, mode=args.band_mode)

    # One pass builds each layer matrix once: banded alone, then multiplied into the stack.
    constituents, product = [], None
    for layer in layers:
        matrix = layer.matrix_on(grid, air)
        _, table = banded(matrix, layer.thickness)
        constituents.append({"layer": layer.describe(), "bands": _band_block(table)})
        product = matrix if product is None else product @ matrix
    stack_stl, stack_table = banded(product, stack_thickness(layers))

    report = _provenance(args, air, None)
    report.update(
        {
            "stack": [layer.describe() for layer in layers],
            "narrowband": {
                "frequency_hz": grid.frequencies.tolist(),
                "stl_db": _round_db(stack_stl),
            },
            "bands": _band_block(stack_table),
            "constituents": constituents,
        }
    )
    if args.band_csv:
        write_band_csv(args.band_csv, {"stack_stl_db": stack_table})
    return report


class _UsageError(TubelossError):
    """A command line the parser rejects: a missing, unknown or malformed argument."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`_UsageError` where argparse would print usage and exit 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parent(*flags, **keywords) -> argparse.ArgumentParser:
    """A parent parser declaring one option that several commands read."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **keywords)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    output = _parent("--output", "-o", default="-", metavar="PATH", help="'-' for stdout")
    config = _parent("--config", metavar="PATH", help="INI config with [air] and [tube]")
    band_mode = _parent("--band-mode", choices=("power", "db"), default="power")
    band_csv = _parent("--band-csv", metavar="PATH")
    frange = argparse.ArgumentParser(add_help=False)
    frange.add_argument("--f-min", type=float, default=100.0)
    frange.add_argument("--f-max", type=float, default=5000.0)

    parser = _Parser(
        prog="tubeloss",
        description="Impedance-tube transmission loss and two-room insertion loss toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", parents=[frange, output], help="list third-octave bands")
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("synth", parents=[config], help="generate synthetic mic spectra")
    p.add_argument("scenario", help="scenario INI file")
    p.add_argument("--seed", type=int, default=None, metavar="U64")
    p.add_argument("--output", "-o", required=True, metavar="PATH", help="mic-spectra CSV to write")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "stl",
        parents=[config, band_mode, frange, band_csv, output],
        help="transmission loss from mic spectra files",
    )
    p.add_argument("inputs", nargs="+", help="mic-spectra CSV files (repetitions)")
    p.add_argument("--rep-mode", choices=("db", "power"), default="db")
    p.add_argument("--narrowband-csv", metavar="PATH")
    p.set_defaults(func=_cmd_stl)

    p = sub.add_parser(
        "masslaw", parents=[config, frange, band_csv, output], help="mass-law predictions per material"
    )
    p.add_argument("--materials", required=True, metavar="PATH", help="materials JSON")
    p.add_argument("--masslaw-constant", choices=("paper", "normal"), default="paper")
    p.set_defaults(func=_cmd_masslaw)

    p = sub.add_parser("il", parents=[band_csv, output], help="insertion loss from two band CSVs")
    p.add_argument("--before", required=True, metavar="PATH", help="receiver levels, no sample")
    p.add_argument("--after", required=True, metavar="PATH", help="receiver levels, sample installed")
    p.set_defaults(func=_cmd_il)

    p = sub.add_parser(
        "stack",
        parents=[config, band_mode, frange, band_csv, output],
        help="predicted loss of a layer stack",
    )
    p.add_argument("--stack", required=True, metavar="PATH", help="stack JSON")
    p.add_argument("--f-step", type=float, default=10.0)
    p.set_defaults(func=_cmd_stack)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = args.func(args)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        if report is not None:
            report["warnings"] = [str(w.message) for w in caught]
            write_report(args.output, report)
    except NumericalValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TubelossError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
