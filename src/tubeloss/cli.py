"""Command-line surface tying the analysis pipeline together.

Each ``_cmd_*`` function only computes. A report command (``stl``, ``il``,
``masslaw``, ``stack``) returns ``(air, geometry, body, tables)``: what its
``config_hash`` covers, its own report keys and the ``--band-csv`` tables;
``bands`` and ``synth`` write their output and return None. :func:`main` alone
records warnings, assembles and writes every report and band CSV, prints the
warnings to stderr as ``warning:`` lines and maps exceptions to exit codes: 0
success, 2 input/format error or a refused memory allocation, 3 numerical
validity error. Warnings never change the exit code; a failing run prints one
``error:`` line and nothing else.

Each subcommand declares only the options its ``_cmd_*`` reads, in one table,
:data:`_COMMANDS`; an option that several commands read is declared once, in a
shared group the table names. A command line that begins with a command name
builds only that command's parser from the table; any other (``--help``,
``--version``, no command, an unknown one, an option before the command) builds
the full parser, whose subparsers come from the same table, so both word every
help, usage and error line alike but for ``--=`` (:func:`_parse_args`). A
command line the parser rejects is a usage error: :class:`_Parser` raises it as
a :class:`~tubeloss.errors.TubelossError`, so it exits 2 with one ``error:``
line like any other input error. ``--help`` and ``--version`` print and exit 0.
"""
from __future__ import annotations

import argparse
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
from .core import DEFAULT_AIR, FrequencyGrid, MicSpectra, _frozen, plane_wave_cutoff
from .errors import (
    AllBinsInvalidError,
    AnechoicQualityWarning,
    InputFormatError,
    MassLawValidityWarning,
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
from .models import MASS_LAW_CONSTANTS, mass_law_constant_db, mass_law_stl, stack_indicators
from .pipeline import QUALITY_THRESHOLD, analyze_four_mic
from .synth import synth_mic_pressures

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


def _band_blocks(tables, key: str = "values_db") -> list[dict]:
    """The report block of each table of one band set, rounded in one ``_round_db`` call.

    The blocks share one ``nominal_hz`` list.
    """
    nominal_hz = [b.nominal for b in tables[0].bands]
    width = len(nominal_hz)
    rounded = _round_db(np.concatenate([table.values for table in tables]))
    return [
        {"nominal_hz": nominal_hz, key: rounded[start : start + width], "coverage": table.coverage.tolist()}
        for start, table in zip(range(0, len(rounded), width), tables)
    ]


def _band_block(table: BandTable, key: str = "values_db") -> dict:
    return _band_blocks([table], key)[0]


def _require_config(args) -> tuple:
    if args.config is None:
        raise InputFormatError("this command needs --config <path>")
    return load_config(args.config)


def _cmd_bands(args) -> None:
    bands = third_octave_bands(args.f_min, args.f_max)
    lines = ["band_nominal_hz,exact_center_hz,lower_edge_hz,upper_edge_hz"]
    for b in bands:
        lines.append(f"{b.nominal:g},{b.center!r},{b.lower!r},{b.upper!r}")
    write_text_atomic(args.output, "\n".join(lines) + "\n")


def _cmd_synth(args) -> None:
    air, geometry = _require_config(args)
    scenario, grid = load_scenario(args.scenario, geometry, air)
    if args.seed is not None:
        scenario = scenario.replace(seed=args.seed)
    try:
        spectra = synth_mic_pressures(scenario, grid)
    except ValueError as exc:  # pressures past the float range: the scenario's amplitude is too large
        raise InputFormatError(str(exc), path=args.scenario) from None
    write_mic_spectra(args.output, spectra, geometry, air)


#: Bins analysed at once: the files of a group hold at most this many together (a file of
#: more bins is a group of its own), so batching repetitions leaves peak memory flat.
_GROUP_BINS = 16_384


def _analyze_group(group: list, grid, geometry, air) -> tuple[np.ndarray, ...]:
    """``(stl_db, reflectance, stl_direct_db, singular)`` of a group's files, one row each.

    ``singular`` marks the bins either microphone pair dropped.

    ``group`` holds ``(path, spectra)`` pairs on ``grid``. One
    :func:`analyze_four_mic` call analyses their ``(4, R, n)`` stack. Each
    file's warnings are then built from the analysis, in file order: an
    :class:`AnechoicQualityWarning` when its ``worst_quality`` exceeds
    :data:`QUALITY_THRESHOLD`, then its singular pairs.
    """
    pressures = np.stack([spectra.pressures for _, spectra in group], axis=1)
    analysis = analyze_four_mic(MicSpectra(grid, *_frozen(pressures)), geometry=geometry, air=air)
    upstream, downstream = analysis.amplitudes.upstream_singular, analysis.amplitudes.downstream_singular
    for row, (path, _) in enumerate(group):
        worst = float(analysis.worst_quality[row])
        if worst > QUALITY_THRESHOLD:
            warnings.warn(AnechoicQualityWarning(worst, QUALITY_THRESHOLD), stacklevel=1)
        for pair, mask in (("upstream", upstream), ("downstream", downstream)):
            if mask[row].any():
                warnings.warn(
                    f"{path}: {pair} pair singular at {grid.frequencies[mask[row]].tolist()} Hz",
                    SingularBinWarning,
                    stacklevel=1,
                )
    indicators = analysis.indicators
    return indicators.stl_db, indicators.reflectance, analysis.stl_direct_db, upstream | downstream


def _cmd_stl(args) -> tuple:
    air, geometry = _require_config(args)
    grid = None
    group: list = []
    curves: list = []  # each group's (stl_db, reflectance, stl_direct_db, singular) rows
    for path in args.inputs:
        spectra, file_geometry, file_air = read_mic_spectra(path)
        require_header_matches(path, file_geometry, file_air, geometry, air)
        if grid is None:
            grid = spectra.grid
        else:
            grid.require_matches(spectra.grid, f"input '{path}'")
        group.append((path, spectra))
        # every file of a group is read before any is analysed
        if (len(group) + 1) * len(grid) > _GROUP_BINS:
            curves.append(_analyze_group(group, grid, geometry, air))
            group = []
    if group:
        curves.append(_analyze_group(group, grid, geometry, air))
    runs, reflectances, direct_runs, singular = (np.concatenate(rows) for rows in zip(*curves))

    mean_stl, spread_stl = average_repetitions(runs, mode=args.rep_mode)
    valid = np.isfinite(mean_stl)
    if not valid.any():
        n_singular = int(np.count_nonzero(singular.all(axis=0)))
        why = (
            "all bins singular" if n_singular == len(grid)
            else f"{n_singular} of {len(grid)} bins singular, the rest numerically invalid"
        )
        raise AllBinsInvalidError(f"no valid frequency bin in any input ({why})")

    cutoff = plane_wave_cutoff(geometry, air)
    above = grid.frequencies > cutoff
    if np.any(above):
        warnings.warn(
            f"{int(np.count_nonzero(above))} bins above the plane-wave cutoff "
            f"({cutoff:.1f} Hz) are flagged, not rejected",
            PlaneWaveCutoffWarning,
            stacklevel=1,
        )

    mean_reflectance = average_repetitions(reflectances)[0]
    mean_direct = average_repetitions(direct_runs)[0]

    bands = third_octave_bands(args.f_min, args.f_max)
    table = band_average(grid, mean_stl, bands, mode=args.band_mode)

    body = {
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
    if args.narrowband_csv is not None:
        write_narrowband_csv(args.narrowband_csv, grid, mean_stl, spread_stl, mean_reflectance)
    return air, geometry, body, {"stl_db": table}


def _cmd_masslaw(args) -> tuple:
    air = DEFAULT_AIR if args.config is None else load_config(args.config)[0]
    materials = load_materials(args.materials)
    bands = third_octave_bands(args.f_min, args.f_max)
    centers = np.array([b.center for b in bands])
    entries = []
    tables = {}
    first = {}  # each band-CSV row name -> the number and name of the first material named so
    for i, mat in enumerate(materials, start=1):
        row = mat.name.replace(",", " ")
        if row in first:
            j, other = first[row]
            message = f"materials #{j} '{other}' and #{i} '{mat.name}' share the band-CSV row name '{row}'"
            raise InputFormatError(message, path=args.materials)
        first[row] = (i, mat.name)
        try:
            values = mass_law_stl(centers, mat.surface_density, args.masslaw_constant, air)
        except ValueError as exc:  # a surface density so large that f * m_s overflows
            raise InputFormatError(f"{mat.name}: {exc}", path=args.materials) from None
        below = values < 0.0
        if np.any(below):
            nominals = [b.nominal for b, flag in zip(bands, below) if flag]
            warnings.warn(
                f"{mat.name}: mass-law prediction below validity (negative) in bands "
                f"{nominals} Hz",
                MassLawValidityWarning,
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
        tables[row] = BandTable.from_values(bands, values)
    body = {"constant_db": mass_law_constant_db(args.masslaw_constant, air), "materials": entries}
    return air, None, body, tables


def _cmd_il(args) -> tuple:
    def pick_table(path, preferred: str) -> BandTable:
        tables = read_band_csv(path)
        name = preferred if preferred in tables else next(iter(tables))
        table = tables[name]
        # an empty field reads as NaN, an absent band; an infinite level has no insertion loss
        infinite = [b.nominal for b, level in zip(table.bands, table.values) if np.isinf(level)]
        if infinite:
            raise InputFormatError(f"table '{name}': infinite level in bands {infinite} Hz", path=path)
        return table

    before = pick_table(args.before, "L_r0")
    after = pick_table(args.after, "L_rs")
    try:
        table = insertion_loss(before, after)
    except ValueError as exc:  # band sets that differ, or two levels whose difference overflows
        raise InputFormatError(f"{args.before} minus {args.after}: {exc}") from None
    body = {"before": args.before, "after": args.after, "bands": _band_block(table, "il_db")}
    return DEFAULT_AIR, None, body, {"il_db": table}


def _cmd_stack(args) -> tuple:
    air = DEFAULT_AIR if args.config is None else load_config(args.config)[0]
    layers = load_stack(args.stack)
    grid = FrequencyGrid.from_range(args.f_min, args.f_max, args.f_step)
    bands = third_octave_bands(args.f_min, args.f_max)

    stack, layer_tables = stack_indicators(layers, grid, air, bands=bands, mode=args.band_mode)
    stack_table = band_average(grid, stack.stl_db, bands, mode=args.band_mode)
    *layer_blocks, stack_block = _band_blocks([*layer_tables, stack_table])
    constituents = [{"layer": layer.describe(), "bands": block} for layer, block in zip(layers, layer_blocks)]

    body = {
        "stack": [layer.describe() for layer in layers],
        "narrowband": {
            "frequency_hz": grid.frequencies.tolist(),
            "stl_db": _round_db(stack.stl_db),
        },
        "bands": stack_block,
        "constituents": constituents,
    }
    return air, None, body, {"stack_stl_db": stack_table}


class _UsageError(TubelossError):
    """A command line the parser rejects: a missing, unknown or malformed argument."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`_UsageError` where argparse would print usage and exit 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _opt(*flags, **keywords) -> tuple:
    """One ``add_argument`` call's arguments."""
    return flags, keywords


# the options several commands read, each group declared once
_CONFIG = (_opt("--config", metavar="PATH", help="INI config with [air] and [tube]"),)
_BAND_MODE = (_opt("--band-mode", choices=("power", "db"), default="power"),)
_FRANGE = (_opt("--f-min", type=float, default=100.0), _opt("--f-max", type=float, default=5000.0))
_BAND_CSV = (_opt("--band-csv", metavar="PATH"),)
_OUTPUT = (_opt("--output", "-o", default="-", metavar="PATH", help="'-' for stdout"),)

#: Each command's help line, its options (shared groups first) and its ``_cmd_*``.
_COMMANDS = {
    "bands": ("list third-octave bands", (*_FRANGE, *_OUTPUT), _cmd_bands),
    "synth": (
        "generate synthetic mic spectra",
        (
            *_CONFIG,
            _opt("scenario", help="scenario INI file"),
            _opt("--seed", type=int, default=None, metavar="U64"),
            _opt("--output", "-o", required=True, metavar="PATH", help="mic-spectra CSV to write"),
        ),
        _cmd_synth,
    ),
    "stl": (
        "transmission loss from mic spectra files",
        (
            *_CONFIG, *_BAND_MODE, *_FRANGE, *_BAND_CSV, *_OUTPUT,
            _opt("inputs", nargs="+", help="mic-spectra CSV files (repetitions)"),
            _opt("--rep-mode", choices=("db", "power"), default="db"),
            _opt("--narrowband-csv", metavar="PATH"),
        ),
        _cmd_stl,
    ),
    "masslaw": (
        "mass-law predictions per material",
        (
            *_CONFIG, *_FRANGE, *_BAND_CSV, *_OUTPUT,
            _opt("--materials", required=True, metavar="PATH", help="materials JSON"),
            _opt("--masslaw-constant", choices=MASS_LAW_CONSTANTS, default="paper"),
        ),
        _cmd_masslaw,
    ),
    "il": (
        "insertion loss from two band CSVs",
        (
            *_BAND_CSV, *_OUTPUT,
            _opt("--before", required=True, metavar="PATH", help="receiver levels, no sample"),
            _opt("--after", required=True, metavar="PATH", help="receiver levels, sample installed"),
        ),
        _cmd_il,
    ),
    "stack": (
        "predicted loss of a layer stack",
        (
            *_CONFIG, *_BAND_MODE, *_FRANGE, *_BAND_CSV, *_OUTPUT,
            _opt("--stack", required=True, metavar="PATH", help="stack JSON"),
            _opt("--f-step", type=float, default=10.0),
        ),
        _cmd_stack,
    ),
}


def _fill(parser: _Parser, command: str) -> _Parser:
    """``parser`` given ``command``'s options, with ``func`` and ``command`` as defaults."""
    _, options, func = _COMMANDS[command]
    for flags, keywords in options:
        parser.add_argument(*flags, **keywords)
    parser.set_defaults(func=func, command=command)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tubeloss",
        description="Impedance-tube transmission loss and two-room insertion loss toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(command, help=help_line), command)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """``argv`` parsed as :func:`_build_parser`'s parser parses it, building less where it can.

    A command line that begins with a command name takes only that command's
    parser; any other goes to the full parser. The two differ only where an
    argument beginning ``--=`` comes before any ``--``: the command's parser
    refuses it as ambiguous between its own long options, the full parser
    between its top level's ``--help`` and ``--version``.
    """
    if not argv or argv[0] not in _COMMANDS:
        return _build_parser().parse_args(argv)
    args, extra = _fill(_Parser(prog=f"tubeloss {argv[0]}"), argv[0]).parse_known_args(argv[1:])
    if extra:
        raise _UsageError(f"tubeloss: unrecognized arguments: {' '.join(extra)}")
    return args


# every C0 control but tab (NUL and most line breaks among them) and the other characters
# str.splitlines() breaks a line at, each mapped to its escape as repr() writes it
_CONTROLS = {ord(c): repr(c)[1:-1] for c in (*map(chr, range(32)), "\x85", "\u2028", "\u2029") if c != "\t"}


def _print_line(kind: str, message) -> None:
    """Print ``kind: message`` to stderr as one line, every C0 control but tab escaped."""
    print(f"{kind}: {str(message).translate(_CONTROLS)}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = args.func(args)
            if result is not None and args.band_csv is not None:
                write_band_csv(args.band_csv, result[3])
        messages = [str(w.message) for w in caught]
        if result is not None:
            air, geometry, body, _ = result
            write_report(args.output, {**_provenance(args, air, geometry), **body, "warnings": messages})
        for message in messages:
            _print_line("warning", message)
    except NumericalValidityError as exc:
        _print_line("error", exc)
        return 3
    except (TubelossError, OSError, ValueError) as exc:
        _print_line("error", exc)
        return 2
    except MemoryError as exc:  # numpy's refused allocations included; a bare one has no message
        _print_line("error", str(exc) or "out of memory")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
