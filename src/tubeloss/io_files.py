"""File formats: config, mic-spectra CSV, band CSV, stack/scenario/material files.

All numeric I/O is SI. Floats are written with ``repr`` so that a write, read,
write cycle is byte-identical and a read returns every bit written.

The mic-spectra reader accepts LF, CRLF or CR line endings, blank lines, and
``#`` lines anywhere; a ``#`` line holding ``=`` is read as a ``key = value``
header field wherever it stands. A rejected file names its first bad line.
One line classifier reads every file: the lines above the column header one
at a time, the rows in blocks. Two converters read its row blocks: numpy's C
``loadtxt`` first, and on any failure ``float()`` on each field of a second
reading, which names the first bad line. Both give the same bits: ``loadtxt``
converts each field with ``PyOS_string_to_double``, as ``float()`` does (numpy
1.23 and later), and the few spellings it takes that ``float()`` rejects send
the file to ``float()``.
"""
from __future__ import annotations

import configparser
import contextlib
import hashlib
import itertools
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .bands import BandTable, band_from_nominal
from .core import (
    AirProperties, DEFAULT_AIR, FrequencyGrid, MaterialSpec, MicSpectra, TubeGeometry, _frequency_fault, _frozen,
)
from .errors import ConfigMismatchError, InputFormatError
from .models import LayerModel
from .synth import SynthScenario

__all__ = [
    "load_config",
    "dump_config",
    "config_hash",
    "write_mic_spectra",
    "read_mic_spectra",
    "require_header_matches",
    "write_band_csv",
    "write_narrowband_csv",
    "read_band_csv",
    "load_stack",
    "load_materials",
    "load_scenario",
    "write_text_atomic",
    "write_report",
]

MIC_SPECTRA_MAGIC = "# tubeloss mic spectra v1"
MIC_SPECTRA_HEADER = "frequency_hz,p1_re,p1_im,p2_re,p2_im,p3_re,p3_im,p4_re,p4_im"
_HEADER_RTOL = 1e-9  # relative tolerance of a file's geometry/air echo against the config
_ROWS_PER_BLOCK = 1024  # CSV rows converted and written at a time
_BLOCK_CHARS = 1 << 16  # mic-spectra text checked at a time before loadtxt parses it
# the ASCII file, group, record and unit separators: str.isspace() counts them as
# whitespace, so loadtxt strips them around a number, but float() rejects them
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"
_REQUIRED = object()  # the default, in a key table, of a key that must be given
_LIST_ENCODERS = {}  # indent -> the C encoder's encode of a flat list whose items sit at that indent


def _fmt(value) -> str:
    """A config value as the config dump and the mic-spectra header write it: ``repr`` floats, ``none`` for None."""
    if isinstance(value, tuple):
        return " ".join(map(_fmt, value))
    return "none" if value is None else repr(float(value))


@contextlib.contextmanager
def _atomic_text_file(path):
    """A text handle for the output ``path``: stdout for ``-``, else a temp file replacing it on success.

    An empty path, and an existing ``path`` that is neither a regular file nor
    a directory (a device, FIFO or socket, after following symlinks), are input
    errors raised before the temp file exists. A failed write raises its
    ``OSError`` naming ``path`` as given, never the temp file. A new file gets
    the mode ``open(path, "w")`` gives (0o666 less the umask); a replaced
    regular file keeps its permission bits.
    """
    path = os.fspath(path)
    if path == "-":
        yield sys.stdout
        return
    if not path:
        raise InputFormatError("output path is empty")
    try:
        mode = os.stat(path).st_mode
    except (OSError, ValueError):  # a missing path, or one no file can have: the write names it
        mode = None
    if mode is not None and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        raise InputFormatError("not a regular file; refusing to replace it", path=path)
    name = os.path.join(os.path.dirname(os.path.abspath(path)), f".tubeloss-{os.urandom(8).hex()}.tmp")
    tmp = None
    try:
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", newline="") as handle:
            if mode is not None and stat.S_ISREG(mode):
                os.chmod(fd, mode & 0o777)
            yield handle
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


@contextlib.contextmanager
def _open_utf8(path, what: str, newline=None):
    """A UTF-8 text handle on the ``what`` file ``path``.

    An empty path is an input error raised before anything is opened. A file
    that cannot be opened or read (missing, a directory, unreadable, or a name
    no file can have, such as one holding a NUL byte) and a byte that is not
    UTF-8 are input errors naming the file.
    """
    path = os.fspath(path)
    if not path:
        raise InputFormatError(f"{what} path is empty")
    unreadable = f"{what} file not found or unreadable"
    try:
        handle = open(path, "r", encoding="utf-8", newline=newline)
    except (OSError, ValueError):
        raise InputFormatError(unreadable, path=path) from None
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"not UTF-8 text: {exc.reason}", path=path) from None
        except OSError:  # a read that fails after the open, such as EIO
            raise InputFormatError(unreadable, path=path) from None


@contextlib.contextmanager
def _record_errors(label: str, path, line=None):
    """Turn an error raised while a record of the file ``path`` is built into an input error.

    A ``KeyError``, ``TypeError``, ``ValueError``, ``OverflowError`` or
    ``configparser.Error`` becomes ``InputFormatError("<label>: <error>",
    path, line)``; an :class:`InputFormatError` passes unchanged, given
    ``path`` and ``line`` if it names no file.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, configparser.Error) as exc:
        if isinstance(exc, InputFormatError):
            if exc.path is None:  # a key parser's own wording, such as a scenario's bad termination
                raise InputFormatError(str(exc), path=path, line=line) from exc
            raise
        raise InputFormatError(f"{label}: {exc}", path=path, line=line) from exc


def write_text_atomic(path, text: str) -> None:
    """Write a text file atomically (temp file + rename in the same directory); ``-`` is stdout."""
    with _atomic_text_file(path) as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# input keys and configuration


def _read_keys(fields, keys: dict, where: str) -> dict:
    """Each key of ``keys``, a table of key -> (parser, default), from ``fields``, a JSON record or INI section.

    A given key is parsed, a missing one takes its default (``KeyError`` if ``_REQUIRED``); first, a key
    ``keys`` does not declare raises ``ValueError``: ``<where> takes no key '<key>'``.
    """
    _refuse_undeclared(fields, keys, f"{where} takes no key")
    return {key: _read_key(fields, key, *spec) for key, spec in keys.items()}


def _read_key(fields, key: str, parse, default):
    return parse(fields[key]) if key in fields or default is _REQUIRED else default


def _refuse_undeclared(names, declared, what: str) -> None:
    """Raise ``ValueError("<what> '<name>'")`` for the first name not ``declared``, with the closest declared one."""
    for name in names:
        if name not in declared:
            import difflib  # on this error path only, so that no good input pays for its import
            close = difflib.get_close_matches(name, declared, n=1)
            raise ValueError(f"{what} '{name}'" + (f" (did you mean '{close[0]}'?)" if close else ""))


# the config's sections, each section's keys in the order of its record's fields
_CONFIG_KEYS = {
    "air": {
        "density": (float, DEFAULT_AIR.density), "sound_speed": (float, DEFAULT_AIR.sound_speed),
        "temperature": (float, None), "relative_humidity": (float, None),
    },
    "tube": {
        "mic_positions": (lambda text: tuple(map(float, text.replace(",", " ").split())), _REQUIRED),  # or commas
        "sample_thickness": (float, _REQUIRED), "diameter": (float, _REQUIRED),
    },
}


def _read_ini(path, what: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with _open_utf8(path, what) as handle:
            parser.read_file(handle, source=os.fspath(path))
    except configparser.Error as exc:
        # the parser's messages quote the offending lines; keep the first, one-line part
        raise InputFormatError(f"{what} file is not INI: {str(exc).splitlines()[0]}", path=path) from None
    return parser


def load_config(path) -> tuple[AirProperties, TubeGeometry]:
    """Read the INI config: [air] density/sound_speed..., [tube] geometry, each checked by its record alone."""
    parser = _read_ini(path, "config")
    with _record_errors("bad config", path):
        _refuse_undeclared(parser.sections(), _CONFIG_KEYS, "a config takes no section")
        air_section = parser["air"] if parser.has_section("air") else {}
        air = AirProperties(*_read_keys(air_section, _CONFIG_KEYS["air"], "[air]").values())
        if not parser.has_section("tube"):
            raise InputFormatError("missing [tube] section", path=path)
        geometry = TubeGeometry(*_read_keys(parser["tube"], _CONFIG_KEYS["tube"], "[tube]").values())
    return air, geometry


def dump_config(air: AirProperties, geometry: TubeGeometry | None) -> str:
    """Canonical flat rendering of the effective configuration: ``<section>.<key>=<value>`` per config key."""
    lines = []
    for (section, keys), record in zip(_CONFIG_KEYS.items(), (air, geometry)):
        if record is None:
            lines.append(f"{section}=none")
        else:
            lines += [f"{section}.{key}={_fmt(value)}" for key, value in zip(keys, record._fields())]
    return "\n".join(lines) + "\n"


def config_hash(air: AirProperties, geometry: TubeGeometry | None) -> str:
    return "sha256:" + hashlib.sha256(dump_config(air, geometry).encode()).hexdigest()


# ---------------------------------------------------------------------------
# mic spectra CSV

# the header's echo of the config, by record: header key -> (record field, parser, mismatch label, numbered
# from 1 for the mic positions, which are split at whitespace only)
_HEADER_ECHO = {
    TubeGeometry: {
        "mic_positions_m": ("mic_positions", lambda text: tuple(map(float, text.split())), "mic x{}"),
        "sample_thickness_m": ("sample_thickness", float, "sample_thickness"),
        "tube_diameter_m": ("tube_diameter", float, "tube_diameter"),
    },
    AirProperties: {"air_density_kg_m3": ("density", float, "air density"),
                    "air_sound_speed_m_s": ("sound_speed", float, "sound speed")},
}


def _write_csv(path, head: list[str], columns) -> None:
    """Atomically write ``head`` lines, then one row of ``repr`` floats per index of ``columns``.

    The table is written one block of rows at a time, so neither its Python
    floats nor the file's whole text are ever held in memory at once. Each
    block's floats go through ``float.__repr__`` in one flat pass and are
    grouped into rows by ``zip`` over that one iterator, so a block costs
    little beyond the ``repr`` of its floats.
    """
    table = np.column_stack(columns)
    width = table.shape[1]
    with _atomic_text_file(path) as handle:
        handle.write("\n".join(head) + "\n")
        for start in range(0, len(table), _ROWS_PER_BLOCK):
            cells = map(float.__repr__, table[start : start + _ROWS_PER_BLOCK].ravel().tolist())
            handle.write("\n".join(map(",".join, zip(*[cells] * width))) + "\n")


def write_mic_spectra(path, spectra: MicSpectra, geometry: TubeGeometry, air: AirProperties) -> None:
    """Write the ``(4, n)`` pressures of ``spectra`` with the geometry/air echo header."""
    grid = spectra.grid
    head = [MIC_SPECTRA_MAGIC, f"# n_frequencies = {len(grid)}"]
    for record, echo in zip((geometry, air), _HEADER_ECHO.values()):
        head += [f"# {key} = {_fmt(getattr(record, field))}" for key, (field, _, _) in echo.items()]
    head.append(MIC_SPECTRA_HEADER)
    columns = [grid.frequencies]
    for p in spectra.pressures:
        columns += [p.real, p.imag]
    _write_csv(path, head, columns)


def read_mic_spectra(path):
    """Read a mic-spectra CSV.

    Returns (MicSpectra, TubeGeometry, AirProperties). A malformed file
    raises :class:`InputFormatError` naming its first bad line.

    :func:`_row_blocks` classifies the lines, and two converters read the
    rows. ``np.loadtxt``'s C reader runs first and names no line. On any
    ``ValueError`` the file is read again, each field through ``float()``
    (:func:`_float_rows`), which names the first bad line. Both give the same
    bits: ``loadtxt`` converts with ``PyOS_string_to_double``, as ``float()``
    does (numpy 1.23 and later). Only ``float()`` takes ``1_0`` and non-ASCII
    digits; only ``loadtxt`` takes ``_LOADTXT_ONLY_SPACES``, which never reach it.
    """
    with _open_utf8(path, "mic-spectra") as handle:
        header: dict[str, str] = {}
        try:
            lines = itertools.chain.from_iterable(block for _, block in _row_blocks(path, handle, header, True))
            data = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
            if data.shape[1] != 9:
                raise ValueError("rows without 9 columns")
            return _spectra_from_table(path, header, data, linenos=None)
        except ValueError:  # InputFormatError included: the float() reading names the error
            handle.seek(0)
            header.clear()
        return _spectra_from_table(path, header, *_float_rows(path, _row_blocks(path, handle, header, False)))


def _row_blocks(path, handle, header: dict[str, str], for_loadtxt: bool):
    """The format's definition: the rows of the mic-spectra file ``handle`` as (first line number, lines) blocks.

    A line ends at LF, CRLF or CR (``handle`` reads each as LF). A blank line
    is skipped. A ``#`` line may stand anywhere and sets a ``key = value``
    field of ``header``; a ``#`` first line must be the magic line. The first
    other line must be the column header, each line after it a row. Lines
    above the column header are read one at a time, the rows in blocks of
    about ``_BLOCK_CHARS`` characters, where a ``#`` line is blanked in place:
    a row's line number is its block's first line number plus its index.
    ``for_loadtxt`` raises ``ValueError`` at a block holding one of
    ``_LOADTXT_ONLY_SPACES``. A file without rows raises after its last block,
    so that ``loadtxt`` never warns of one.
    """
    for lineno, line in enumerate(handle, start=1):
        line = line.rstrip("\n")
        if line.startswith("#"):
            if lineno == 1 and line != MIC_SPECTRA_MAGIC:
                raise InputFormatError(f"not a mic-spectra file (expected '{MIC_SPECTRA_MAGIC}')", path=path, line=1)
            _set_header_field(header, line)
        elif line:
            if line != MIC_SPECTRA_HEADER:
                raise InputFormatError(f"unexpected column header '{line}'", path=path, line=lineno)
            break
    any_row = False  # whether a line below the column header holds more than whitespace
    while lines := handle.readlines(_BLOCK_CHARS):
        text = "".join(lines)
        if for_loadtxt and any(char in text for char in _LOADTXT_ONLY_SPACES):
            raise ValueError("a separator character that float() rejects")
        if "#" in text:
            for i, line in enumerate(lines):
                if line.startswith("#"):
                    _set_header_field(header, line)
                    lines[i] = "\n"
            text = "".join(lines)
        any_row = any_row or not text.isspace()
        yield lineno + 1, lines
        lineno += len(lines)
    if not any_row:  # a row of whitespace alone is an error the float() reading names first
        raise InputFormatError("no data rows", path=path)


def _set_header_field(header: dict[str, str], line: str) -> None:
    if "=" in line:  # a '# key = value' line
        key, _, value = line[1:].partition("=")
        header[key.strip()] = value.strip()


def _float_rows(path, blocks) -> tuple[np.ndarray, list[int]]:
    """The (n, 9) table of ``blocks`` and each row's line number; a bad row is an error naming its line."""
    rows: list[list[float]] = []
    linenos: list[int] = []
    for first, lines in blocks:
        for lineno, line in enumerate(lines, start=first):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 9:
                raise InputFormatError(f"expected 9 numeric columns, got {len(fields)}", path=path, line=lineno)
            try:
                rows.append(list(map(float, fields)))
            except ValueError as exc:
                raise InputFormatError(f"bad number: {exc}", path=path, line=lineno) from exc
            linenos.append(lineno)
    return np.array(rows), linenos


def _spectra_from_table(path, header: dict[str, str], data: np.ndarray, linenos):
    """The spectra, geometry and air of a file's header fields and (n, 9) table.

    ``linenos`` gives each row's line number, named when a row is rejected;
    with None (the ``loadtxt`` path, whose errors are not shown) no line is named.
    """
    with _record_errors("bad or missing header field", path):
        geometry, air = (
            record(**{field: parse(header[key]) for key, (field, parse, _) in echo.items()})
            for record, echo in _HEADER_ECHO.items()
        )
        n_declared = int(header["n_frequencies"])
    if n_declared != len(data):
        raise InputFormatError(
            f"header declares {n_declared} frequencies but file has {len(data)} rows",
            path=path,
        )

    try:
        grid = FrequencyGrid(data[:, 0])
    except ValueError as exc:
        # name the first row breaking the rule the message states
        line = None if linenos is None else linenos[_frequency_fault(data[:, 0])[1]]
        raise InputFormatError(f"bad frequency column: {exc}", path=path, line=line) from exc
    # each (re, im) column pair viewed as one complex column keeps every bit, -0.0 included;
    # the (n, 4) view is copied once, into the container's (4, n) layout
    pressures = np.ascontiguousarray(data[:, 1:].view(complex).T)
    try:
        spectra = MicSpectra(grid, *_frozen(pressures))
    except ValueError as exc:
        first = int(np.flatnonzero(~np.isfinite(pressures).all(axis=0))[0])
        line = None if linenos is None else linenos[first]
        raise InputFormatError(str(exc), path=path, line=line) from None
    return spectra, geometry, air


def require_header_matches(
    path, file_geometry: TubeGeometry, file_air: AirProperties, geometry: TubeGeometry, air: AirProperties
) -> None:
    """Abort when a file's geometry/air echo disagrees with the active config."""
    problems = []
    for got_record, want_record, echo in zip((file_geometry, file_air), (geometry, air), _HEADER_ECHO.values()):
        for field, _, label in echo.values():
            got, want = getattr(got_record, field), getattr(want_record, field)
            for i, (a, b) in enumerate(zip(got, want) if isinstance(got, tuple) else [(got, want)], start=1):
                if not abs(a - b) <= _HEADER_RTOL * max(abs(a), abs(b), 1e-300):
                    problems.append(f"{label.format(i)}: file {a} vs config {b}")
    if problems:
        raise ConfigMismatchError("header disagrees with active config: " + "; ".join(problems), path=path)


# ---------------------------------------------------------------------------
# band tables CSV


def write_band_csv(path, tables: dict[str, BandTable]) -> None:
    """Write band tables: nominal-center header row, then value and coverage rows."""
    if not tables:
        raise ValueError("need at least one table")
    first = next(iter(tables.values()))
    for name, table in tables.items():
        if first.bands != table.bands:
            raise ValueError(f"table '{name}' uses a different band set")
        if any(ch in name for ch in ",\n\r"):
            raise ValueError(f"table name '{name}' may not contain commas or newlines")
        if name.endswith("_coverage"):  # the reader takes such a row for another table's coverage
            raise ValueError(f"table name '{name}' may not end in '_coverage'")
    header = "band_nominal_hz," + ",".join(format(b.nominal, "g") for b in first.bands)
    lines = [header]
    for name, table in tables.items():
        values = ",".join("" if math.isnan(v) else repr(v) for v in table.values.tolist())
        coverage = ",".join(map(float.__repr__, table.coverage.tolist()))
        lines.append(f"{name},{values}")
        lines.append(f"{name}_coverage,{coverage}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_narrowband_csv(path, grid: FrequencyGrid, stl_db, spread_db, reflectance) -> None:
    """Write the narrowband STL mean, spread and reflectance, one row per bin."""
    head = ["frequency_hz,stl_db,stl_spread_db,reflectance"]
    _write_csv(path, head, [grid.frequencies, stl_db, spread_db, reflectance])


def read_band_csv(path) -> dict[str, BandTable]:
    """Read band tables written by :func:`write_band_csv`."""
    with _open_utf8(path, "band CSV", newline="") as handle:
        stripped = (line.rstrip("\n").rstrip("\r") for line in handle)
        # blank lines are skipped but counted, so an error names the line of the file
        lines = [(lineno, line) for lineno, line in enumerate(stripped, start=1) if line]
    if not lines:
        raise InputFormatError("empty band CSV", path=path)
    head_lineno, head_line = lines[0]
    head = head_line.split(",")
    if head[0] != "band_nominal_hz" or len(head) < 2:
        raise InputFormatError(
            "first row must be 'band_nominal_hz,<centers...>'", path=path, line=head_lineno
        )
    with _record_errors("bad nominal center", path, head_lineno):
        bands = tuple(band_from_nominal(float(v)) for v in head[1:])

    rows: dict[str, tuple[int, list[float]]] = {}  # name -> (line, values), in file order
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(bands) + 1:
            raise InputFormatError(
                f"expected {len(bands) + 1} columns, got {len(fields)}", path=path, line=lineno
            )
        name = fields[0]
        if name in rows:
            raise InputFormatError(f"duplicate row '{name}'", path=path, line=lineno)
        with _record_errors("bad number", path, lineno):
            rows[name] = (lineno, [float(v) if v else float("nan") for v in fields[1:]])

    tables: dict[str, BandTable] = {}
    for name, (lineno, values) in rows.items():
        if name.endswith("_coverage"):
            if name[: -len("_coverage")] not in rows:
                raise InputFormatError(f"coverage row '{name}' has no value row", path=path, line=lineno)
            continue
        if name + "_coverage" in rows:
            coverage = rows[name + "_coverage"][1]
        else:
            coverage = [0.0 if np.isnan(v) else 1.0 for v in values]
        with _record_errors(f"table '{name}'", path):  # descending band centres, or a coverage outside [0, 1]
            tables[name] = BandTable(bands, np.array(values), np.array(coverage))
    if not tables:
        raise InputFormatError("no value rows found", path=path)
    return tables


# ---------------------------------------------------------------------------
# stacks, materials, scenarios


def _load_records(path, what: str, label: str, build) -> tuple:
    """``build(record)`` of each record of the ``what`` file ``path``, a non-empty JSON list.

    A record that is not a JSON object, and a record ``build`` rejects, is an
    input error naming it: ``bad <label> #<i>: <error>``.
    """
    with _open_utf8(path, what) as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise InputFormatError(f"invalid JSON: {exc}", path=path) from exc
    if not isinstance(data, list) or not data:
        raise InputFormatError(f"{what} file must be a non-empty JSON list", path=path)
    records = []
    for i, record in enumerate(data, start=1):
        with _record_errors(f"bad {label} #{i}", path):
            if not isinstance(record, dict):
                raise TypeError(f"expected a JSON object, got {type(record).__name__}")
            records.append(build(record))
    return tuple(records)


def _matrix_entry(pair) -> complex:
    re_part, im_part = pair
    return complex(float(re_part), float(im_part))


_MATRIX_ENTRIES = ("t11", "t12", "t21", "t22")
# each stack layer kind's keys besides "kind"
_LAYER_KEYS = {
    "limp-mass": {"surface_density": (float, _REQUIRED)}, "air-gap": {"thickness": (float, _REQUIRED)}, "identity": {},
    "matrix": {**dict.fromkeys(_MATRIX_ENTRIES, (_matrix_entry, _REQUIRED)), "passive_symmetric": (bool, False),
               "thickness": (float, 0.0)},
}
_MATERIAL_KEYS = {
    "name": (str, _REQUIRED), "thickness_mm": (float, _REQUIRED), "surface_density": (float, _REQUIRED),
    "bulk_density": (lambda value: None if value is None else float(value), None),
}


def _layer_from_record(record: dict) -> LayerModel:
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in _LAYER_KEYS:  # a list or object kind is unhashable
        raise ValueError(f"unknown kind '{kind}'")
    values = _read_keys(record, {"kind": (str, _REQUIRED), **_LAYER_KEYS[kind]}, f"kind '{kind}'")
    if kind == "matrix":
        values["matrix"] = tuple(values.pop(key) for key in _MATRIX_ENTRIES)
    return LayerModel(**values)


def load_stack(path) -> tuple[LayerModel, ...]:
    """Read an ordered JSON list of layer records (incident side first)."""
    return _load_records(path, "stack", "layer", _layer_from_record)


def load_materials(path) -> tuple[MaterialSpec, ...]:
    """Read a JSON list of material records."""
    return _load_records(
        path, "materials", "material", lambda record: MaterialSpec(**_read_keys(record, _MATERIAL_KEYS, "a material"))
    )


def _complex(text: str, what: str) -> complex:
    """A complex number written as ``0.2+0.1j``, spaces allowed; an error names ``what``."""
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise InputFormatError(f"bad {what}: '{text}'") from None


# [scenario], read after the sample kind's own keys
_SCENARIO_KEYS = {
    "sample": (str.strip, "identity"),
    "termination": (lambda text: 0j if text.strip() == "anechoic" else _complex(text.strip(), "termination"), 0j),
    "incident_amplitude": (lambda text: _complex(text, "incident amplitude"), 1 + 0j),
    "snr_db": (lambda text: None if text.strip().lower() in ("off", "none", "") else float(text.strip().lower()), None),
    "seed": (int, 0), "f_min": (float, 100.0), "f_max": (float, 2000.0), "f_step": (float, 10.0),
}
# each sample kind's own keys: scenario key -> the layer-record key it gives (a stack's file holds its records)
_SAMPLE_KEYS = {
    "limp-mass": {"surface_density": "surface_density"}, "air-gap": {"gap_thickness": "thickness"},
    "identity": {}, "stack": {"stack_file": "stack_file"},
}


def load_scenario(path, geometry: TubeGeometry, air: AirProperties) -> tuple[SynthScenario, FrequencyGrid]:
    """Read a synthesis scenario INI; geometry and air come from the config."""
    parser = _read_ini(path, "scenario")
    with _record_errors("bad scenario", path):
        _refuse_undeclared(parser.sections(), ("scenario",), "a scenario takes no section")
        if not parser.has_section("scenario"):
            raise InputFormatError("missing [scenario] section", path=path)
        section = parser["scenario"]
        sample = _read_key(section, "sample", *_SCENARIO_KEYS["sample"])
        if sample not in _SAMPLE_KEYS:
            raise InputFormatError(f"unknown sample kind '{sample}'", path=path)
        own = _SAMPLE_KEYS[sample]
        keys = {**dict.fromkeys(own, (str, _REQUIRED)), **_SCENARIO_KEYS}
        values = _read_keys(section, keys, f"[scenario] with sample = {sample}")
        if sample == "stack":
            # from the scenario's directory, kept relative, so a message names it as the user did
            layers = load_stack(os.path.join(os.path.dirname(os.fspath(path)), values["stack_file"]))
        else:
            layers = (_layer_from_record({"kind": sample, **{own[key]: values[key] for key in own}}),)
        grid = FrequencyGrid.from_range(values["f_min"], values["f_max"], values["f_step"])
        signal = (values[key] for key in ("incident_amplitude", "termination", "snr_db", "seed"))
        scenario = SynthScenario(layers, geometry, air, *signal)
    return scenario, grid


# ---------------------------------------------------------------------------
# run reports


def _json_indent2(value, pad: str = "") -> str:
    """The text of ``json.dumps(value, indent=2, allow_nan=True)``, indented by ``pad``.

    With ``indent`` set, ``json`` runs its pure-Python encoder; this lays the
    text out itself and hands each piece to the function that encoder would
    call. Strings and dict keys go through ``encode_basestring_ascii`` and
    finite scalars of type ``float`` through ``float.__repr__``; any other
    scalar (None, a bool, an int, a non-finite float, a float subclass such
    as ``np.float64``) goes through ``json.dumps``. A flat list of scalars
    (the per-bin arrays) is rendered by the C encoder, which runs when
    ``indent`` is None, with the line break and indent of each item put into
    the item separator; one such encoder per indent is kept in
    ``_LIST_ENCODERS``. Dicts with string keys, and lists of non-empty dicts
    or lists (the constituent blocks), are laid out here, so the flat lists
    inside them reach the C encoder too.
    """
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not isinstance(value, (dict, list, tuple)):  # a scalar: indent changes nothing
        return json.dumps(value, allow_nan=True)
    inner = pad + "  "
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        items = (f"{inner}{encode_basestring_ascii(key)}: {_json_indent2(v, inner)}" for key, v in value.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list) and value and all(isinstance(v, (dict, list)) and v for v in value):
        items = (inner + _json_indent2(v, inner) for v in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if (
        isinstance(value, list)
        and value
        and not any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, value)))
    ):
        encode = _LIST_ENCODERS.get(inner)
        if encode is None:
            encode = _LIST_ENCODERS[inner] = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode
        return "[\n" + inner + encode(value)[1:-1] + "\n" + pad + "]"
    # json escapes every newline inside a string, so each line break here is layout
    return json.dumps(value, indent=2, allow_nan=True).replace("\n", "\n" + pad)


def write_report(path, report: dict) -> None:
    """Write a run report as indented JSON; ``-`` is stdout."""
    write_text_atomic(path, _json_indent2(report) + "\n")
