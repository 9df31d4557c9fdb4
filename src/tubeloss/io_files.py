"""File formats: config, mic-spectra CSV, band CSV, stack/scenario/material files.

All numeric I/O is SI. Floats are written with ``repr`` so that a write, read,
write cycle is byte-identical and a read returns every bit written.

The mic-spectra reader accepts LF, CRLF or CR line endings, blank lines, and
``#`` lines anywhere; a ``#`` line holding ``=`` is read as a ``key = value``
header field wherever it stands. A rejected file names its first bad line.
It has two paths. A file laid out as the writer lays it out has its rows
parsed by numpy's C ``loadtxt``; every other file, and every file that path
fails on, is read again line by line, and that reading is the definition of
the format and of its error messages. Both give the same bits: ``loadtxt``
converts each field with ``PyOS_string_to_double``, as ``float()`` does
(numpy 1.23 and later), and the few spellings it takes that ``float()``
rejects send the file to the per-line path.
"""
from __future__ import annotations

import configparser
import contextlib
import hashlib
import itertools
import json
import math
import os
import tempfile

import numpy as np

from .bands import BandTable, band_from_nominal
from .core import AirProperties, ComplexSpectrum, FrequencyGrid, MaterialSpec, TubeGeometry
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


def _fmt(x: float) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _atomic_text_file(path):
    """A text handle on a temp file that replaces ``path`` when the ``with`` body succeeds."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tubeloss-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _open_utf8(path, newline=None):
    """A UTF-8 text handle on ``path``; a byte that is not UTF-8 is an input error naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text: {exc.reason}", path=path) from None


def write_text_atomic(path, text: str) -> None:
    """Write a text file atomically (temp file + rename in the same directory)."""
    with _atomic_text_file(path) as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# configuration


def _read_ini(path, what: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with _open_utf8(path) as handle:
            parser.read_file(handle, source=os.fspath(path))
    except OSError:
        raise InputFormatError(f"{what} file not found or unreadable", path=path) from None
    except configparser.Error as exc:
        # the parser's messages quote the offending lines; keep the first, one-line part
        raise InputFormatError(f"{what} file is not INI: {str(exc).splitlines()[0]}", path=path) from None
    return parser


def load_config(path) -> tuple[AirProperties, TubeGeometry]:
    """Read the INI config: [air] density/sound_speed..., [tube] geometry."""
    parser = _read_ini(path, "config")
    try:
        air_section = parser["air"] if parser.has_section("air") else {}
        air = AirProperties(
            density=float(air_section.get("density", AirProperties.density)),
            sound_speed=float(air_section.get("sound_speed", AirProperties.sound_speed)),
            temperature=(
                float(air_section["temperature"]) if "temperature" in air_section else None
            ),
            relative_humidity=(
                float(air_section["relative_humidity"])
                if "relative_humidity" in air_section
                else None
            ),
        )
        if not parser.has_section("tube"):
            raise InputFormatError("missing [tube] section", path=path)
        tube = parser["tube"]
        positions = tuple(float(v) for v in tube["mic_positions"].replace(",", " ").split())
        geometry = TubeGeometry(
            mic_positions=positions,  # type: ignore[arg-type]
            sample_thickness=float(tube["sample_thickness"]),
            tube_diameter=float(tube["diameter"]),
        )
    except InputFormatError:
        raise
    except (KeyError, ValueError, configparser.Error) as exc:
        raise InputFormatError(f"bad config: {exc}", path=path) from exc
    return air, geometry


def dump_config(air: AirProperties, geometry: TubeGeometry | None) -> str:
    """Canonical flat rendering of the effective configuration."""
    lines = [
        f"air.density={_fmt(air.density)}",
        f"air.sound_speed={_fmt(air.sound_speed)}",
        f"air.temperature={'none' if air.temperature is None else _fmt(air.temperature)}",
        "air.relative_humidity="
        + ("none" if air.relative_humidity is None else _fmt(air.relative_humidity)),
    ]
    if geometry is None:
        lines.append("tube=none")
    else:
        lines += [
            "tube.mic_positions=" + " ".join(_fmt(x) for x in geometry.mic_positions),
            f"tube.sample_thickness={_fmt(geometry.sample_thickness)}",
            f"tube.diameter={_fmt(geometry.tube_diameter)}",
        ]
    return "\n".join(lines) + "\n"


def config_hash(air: AirProperties, geometry: TubeGeometry | None) -> str:
    return "sha256:" + hashlib.sha256(dump_config(air, geometry).encode()).hexdigest()


# ---------------------------------------------------------------------------
# mic spectra CSV


def _write_csv(path, head: list[str], columns) -> None:
    """Atomically write ``head`` lines, then one row of ``repr`` floats per index of ``columns``.

    Rows are converted with ``tolist()`` and written one block at a time, so
    neither the table's Python floats nor the file's whole text are ever held
    in memory at once.
    """
    table = np.column_stack(columns)
    with _atomic_text_file(path) as handle:
        handle.write("\n".join(head) + "\n")
        for start in range(0, len(table), _ROWS_PER_BLOCK):
            block = table[start : start + _ROWS_PER_BLOCK].tolist()
            handle.write("\n".join([",".join(map(float.__repr__, row)) for row in block]) + "\n")


def write_mic_spectra(path, spectra, geometry: TubeGeometry, air: AirProperties) -> None:
    """Write four pressure spectra with the geometry/air echo header."""
    p1, p2, p3, p4 = spectra
    grid = p1.grid
    for s in (p2, p3, p4):
        grid.require_matches(s.grid, "write_mic_spectra")
    head = [
        MIC_SPECTRA_MAGIC,
        f"# n_frequencies = {len(grid)}",
        "# mic_positions_m = " + " ".join(_fmt(x) for x in geometry.mic_positions),
        f"# sample_thickness_m = {_fmt(geometry.sample_thickness)}",
        f"# tube_diameter_m = {_fmt(geometry.tube_diameter)}",
        f"# air_density_kg_m3 = {_fmt(air.density)}",
        f"# air_sound_speed_m_s = {_fmt(air.sound_speed)}",
        MIC_SPECTRA_HEADER,
    ]
    columns = [grid.frequencies]
    for s in (p1, p2, p3, p4):
        columns += [s.values.real, s.values.imag]
    _write_csv(path, head, columns)


def read_mic_spectra(path):
    """Read a mic-spectra CSV.

    Returns (spectra tuple, TubeGeometry, AirProperties). A malformed file
    raises :class:`InputFormatError` naming its first bad line.

    A file laid out as :func:`write_mic_spectra` lays it out (any line
    ending, blank lines among the rows) has its rows parsed by
    ``np.loadtxt``'s C reader. Any other file, and any file that path fails
    on, is read again line by line by :func:`_read_rows`, which defines the
    format and names the first bad line. Both paths give the same bits:
    ``loadtxt`` converts each field with ``PyOS_string_to_double``, the
    conversion ``float()`` makes (numpy 1.23 and later). Of the spellings the
    two do not share, ``loadtxt`` rejects those ``float()`` takes (``1_0``,
    non-ASCII digits), and a file holding one of ``_LOADTXT_ONLY_SPACES``,
    which only ``loadtxt`` takes, never reaches it.
    """
    try:
        return _spectra_from_table(path, *_read_canonical(path), linenos=None)
    except ValueError:  # InputFormatError included: the per-line reading names the error
        pass
    return _spectra_from_table(path, *_read_rows(path))


def _read_canonical(path) -> tuple[dict[str, str], np.ndarray]:
    """Header fields and the (n, 9) table of a file laid out as the writer lays it out.

    Raises ``ValueError`` on any other layout: a header line that is neither
    the magic line, a ``#`` line nor the column header, a blank first row, a
    character of ``_LOADTXT_ONLY_SPACES`` among the rows, or rows ``loadtxt``
    cannot read as 9 floats each (a ``#`` line among them, for one). Blank
    lines among the rows are skipped, as by :func:`_read_rows`.
    """
    header: dict[str, str] = {}
    with _open_utf8(path) as handle:
        if handle.readline() != MIC_SPECTRA_MAGIC + "\n":
            raise ValueError("not a canonical mic-spectra header")
        for line in handle:
            if not line.startswith("#"):
                break
            if "=" in line:
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
        else:
            raise ValueError("no column header")
        rows = itertools.chain.from_iterable(_checked_line_blocks(handle))
        first = next(rows, "")
        if line != MIC_SPECTRA_HEADER + "\n" or not first.strip():
            # without a first row loadtxt would warn that the input holds no data
            raise ValueError("not a canonical mic-spectra body")
        data = np.loadtxt(
            itertools.chain((first,), rows), delimiter=",", comments=None, dtype=float, ndmin=2
        )
    if data.shape[1] != 9:
        raise ValueError("rows without 9 columns")
    return header, data


def _checked_line_blocks(handle):
    """The rest of ``handle`` as lists of lines, about ``_BLOCK_CHARS`` characters each.

    Raises ``ValueError`` at a block holding a character of
    ``_LOADTXT_ONLY_SPACES``, which ``loadtxt`` strips from a number and
    ``float()`` rejects.
    """
    while lines := handle.readlines(_BLOCK_CHARS):
        block = "".join(lines)
        if any(char in block for char in _LOADTXT_ONLY_SPACES):
            raise ValueError("a separator character that float() rejects")
        yield lines


def _read_rows(path) -> tuple[dict[str, str], np.ndarray, list[int]]:
    """Header fields, the (n, 9) table and each row's line number, read line by line.

    This is the format's definition. LF, CRLF and CR end a line; blank lines
    are skipped; a ``#`` line may stand anywhere and, holding ``=``, sets a
    ``key = value`` header field; each row is 9 fields ``float()`` reads.
    A bad line raises :class:`InputFormatError` naming it.
    """
    header: dict[str, str] = {}
    rows: list[list[float]] = []
    linenos: list[int] = []
    seen_columns = False
    with _open_utf8(path, newline="") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if line.startswith("#"):
                if lineno == 1 and line != MIC_SPECTRA_MAGIC:
                    raise InputFormatError(
                        f"not a mic-spectra file (expected '{MIC_SPECTRA_MAGIC}')",
                        path=path,
                        line=lineno,
                    )
                if "=" in line:
                    key, _, value = line[1:].partition("=")
                    header[key.strip()] = value.strip()
                continue
            if not seen_columns:
                if line != MIC_SPECTRA_HEADER:
                    raise InputFormatError(
                        f"unexpected column header '{line}'", path=path, line=lineno
                    )
                seen_columns = True
                continue
            fields = line.split(",")
            if len(fields) != 9:
                raise InputFormatError(
                    f"expected 9 numeric columns, got {len(fields)}", path=path, line=lineno
                )
            try:
                rows.append(list(map(float, fields)))
            except ValueError as exc:
                raise InputFormatError(f"bad number: {exc}", path=path, line=lineno) from exc
            linenos.append(lineno)
    if not rows:
        raise InputFormatError("no data rows", path=path)
    return header, np.array(rows), linenos


def _spectra_from_table(path, header: dict[str, str], data: np.ndarray, linenos):
    """The spectra, geometry and air of a file's header fields and (n, 9) table.

    ``linenos`` gives each row's line number, named when a row is rejected;
    with None (the ``loadtxt`` path, whose errors are not shown) no line is named.
    """
    try:
        positions = tuple(float(v) for v in header["mic_positions_m"].split())
        geometry = TubeGeometry(
            mic_positions=positions,  # type: ignore[arg-type]
            sample_thickness=float(header["sample_thickness_m"]),
            tube_diameter=float(header["tube_diameter_m"]),
        )
        air = AirProperties(
            density=float(header["air_density_kg_m3"]),
            sound_speed=float(header["air_sound_speed_m_s"]),
        )
        n_declared = int(header["n_frequencies"])
    except (KeyError, ValueError) as exc:
        raise InputFormatError(f"bad or missing header field: {exc}", path=path) from exc
    if n_declared != len(data):
        raise InputFormatError(
            f"header declares {n_declared} frequencies but file has {len(data)} rows",
            path=path,
        )

    try:
        grid = FrequencyGrid(data[:, 0])
    except ValueError as exc:
        # name the first row breaking the rule the message states, in FrequencyGrid's check order
        f = data[:, 0]
        bad = ~np.isfinite(f)
        if not bad.any():
            bad = f <= 0.0
        if not bad.any():
            bad = np.diff(f, prepend=-np.inf) <= 0.0
        line = None if linenos is None else linenos[int(np.flatnonzero(bad)[0])]
        raise InputFormatError(f"bad frequency column: {exc}", path=path, line=line) from exc
    # each (re, im) column pair viewed as one complex column keeps every bit, -0.0 included
    pressures = np.ascontiguousarray(data[:, 1:]).view(complex)
    try:
        spectra = tuple(ComplexSpectrum(grid, pressures[:, i]) for i in range(4))
    except ValueError as exc:
        first = int(np.flatnonzero(~np.isfinite(pressures).all(axis=1))[0])
        line = None if linenos is None else linenos[first]
        raise InputFormatError(str(exc), path=path, line=line) from None
    return spectra, geometry, air


def require_header_matches(
    path,
    file_geometry: TubeGeometry,
    file_air: AirProperties,
    geometry: TubeGeometry,
    air: AirProperties,
) -> None:
    """Abort when a file's geometry/air echo disagrees with the active config."""

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= _HEADER_RTOL * max(abs(a), abs(b), 1e-300)

    problems = []
    for i, (got, want) in enumerate(zip(file_geometry.mic_positions, geometry.mic_positions)):
        if not close(got, want):
            problems.append(f"mic x{i + 1}: file {got} vs config {want}")
    if not close(file_geometry.sample_thickness, geometry.sample_thickness):
        problems.append(
            f"sample_thickness: file {file_geometry.sample_thickness} "
            f"vs config {geometry.sample_thickness}"
        )
    if not close(file_geometry.tube_diameter, geometry.tube_diameter):
        problems.append(
            f"tube_diameter: file {file_geometry.tube_diameter} vs config {geometry.tube_diameter}"
        )
    if not close(file_air.density, air.density):
        problems.append(f"air density: file {file_air.density} vs config {air.density}")
    if not close(file_air.sound_speed, air.sound_speed):
        problems.append(f"sound speed: file {file_air.sound_speed} vs config {air.sound_speed}")
    if problems:
        raise ConfigMismatchError(
            "header disagrees with active config: " + "; ".join(problems), path=path
        )


# ---------------------------------------------------------------------------
# band tables CSV


def write_band_csv(path, tables: dict[str, BandTable]) -> None:
    """Write band tables: nominal-center header row, then value and coverage rows."""
    if not tables:
        raise ValueError("need at least one table")
    first = next(iter(tables.values()))
    for name, table in tables.items():
        if not first.same_bands(table):
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
    with _open_utf8(path, newline="") as handle:
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
    try:
        bands = tuple(band_from_nominal(float(v)) for v in head[1:])
    except ValueError as exc:
        raise InputFormatError(f"bad nominal center: {exc}", path=path, line=head_lineno) from exc

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
        try:
            rows[name] = (lineno, [float(v) if v else float("nan") for v in fields[1:]])
        except ValueError as exc:
            raise InputFormatError(f"bad number: {exc}", path=path, line=lineno) from exc

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
        try:
            tables[name] = BandTable(bands, np.array(values), np.array(coverage))
        except ValueError as exc:  # descending band centres, or a coverage outside [0, 1]
            raise InputFormatError(f"table '{name}': {exc}", path=path) from exc
    if not tables:
        raise InputFormatError("no value rows found", path=path)
    return tables


# ---------------------------------------------------------------------------
# stacks, materials, scenarios


def _load_json_list(path, what: str) -> list:
    try:
        with _open_utf8(path) as handle:
            data = json.load(handle)
    except InputFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise InputFormatError(f"invalid JSON: {exc}", path=path) from exc
    if not isinstance(data, list) or not data:
        raise InputFormatError(f"{what} file must be a non-empty JSON list", path=path)
    return data


# what reading a JSON record can raise: a missing key, a wrong type, a bad value, or an
# integer too large for a float
_BAD_RECORD = (KeyError, TypeError, ValueError, OverflowError)


def _layer_from_record(record: dict, path, index: int) -> LayerModel:
    if not isinstance(record, dict):
        raise InputFormatError(
            f"bad layer #{index + 1}: expected a JSON object, got {type(record).__name__}",
            path=path,
        )
    kind = record.get("kind")
    try:
        if kind == "limp-mass":
            return LayerModel.limp_mass(float(record["surface_density"]))
        if kind == "air-gap":
            return LayerModel.air_gap(float(record["thickness"]))
        if kind == "identity":
            return LayerModel.identity()
        if kind == "matrix":
            entries = []
            for key in ("t11", "t12", "t21", "t22"):
                re_part, im_part = record[key]
                entries.append(complex(float(re_part), float(im_part)))
            return LayerModel.explicit(
                *entries,
                passive_symmetric=bool(record.get("passive_symmetric", False)),
                thickness=float(record.get("thickness", 0.0)),
            )
    except _BAD_RECORD as exc:
        raise InputFormatError(f"bad layer #{index + 1}: {exc}", path=path) from exc
    raise InputFormatError(f"bad layer #{index + 1}: unknown kind '{kind}'", path=path)


def load_stack(path) -> tuple[LayerModel, ...]:
    """Read an ordered JSON list of layer records (incident side first)."""
    data = _load_json_list(path, "stack")
    return tuple(_layer_from_record(rec, path, i) for i, rec in enumerate(data))


def load_materials(path) -> tuple[MaterialSpec, ...]:
    """Read a JSON list of material records."""
    materials = []
    for i, rec in enumerate(_load_json_list(path, "materials")):
        try:
            materials.append(
                MaterialSpec(
                    name=str(rec["name"]),
                    thickness_mm=float(rec["thickness_mm"]),
                    surface_density=float(rec["surface_density"]),
                    bulk_density=(
                        float(rec["bulk_density"])
                        if rec.get("bulk_density") is not None
                        else None
                    ),
                )
            )
        except _BAD_RECORD as exc:
            raise InputFormatError(f"bad material #{i + 1}: {exc}", path=path) from exc
    return tuple(materials)


def _parse_complex(text: str, what: str, path) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise InputFormatError(f"bad {what}: '{text}'", path=path) from exc


def load_scenario(path, geometry: TubeGeometry, air: AirProperties) -> tuple[SynthScenario, FrequencyGrid]:
    """Read a synthesis scenario INI; geometry and air come from the config."""
    parser = _read_ini(path, "scenario")
    if not parser.has_section("scenario"):
        raise InputFormatError("missing [scenario] section", path=path)
    section = parser["scenario"]
    try:
        sample_kind = section.get("sample", "identity").strip()
        if sample_kind == "limp-mass":
            layers: tuple[LayerModel, ...] = (
                LayerModel.limp_mass(float(section["surface_density"])),
            )
        elif sample_kind == "air-gap":
            layers = (LayerModel.air_gap(float(section["gap_thickness"])),)
        elif sample_kind == "identity":
            layers = (LayerModel.identity(),)
        elif sample_kind == "stack":
            stack_path = section["stack_file"]
            if not os.path.isabs(stack_path):
                stack_path = os.path.join(os.path.dirname(os.path.abspath(os.fspath(path))), stack_path)
            layers = load_stack(stack_path)
        else:
            raise InputFormatError(f"unknown sample kind '{sample_kind}'", path=path)

        termination_text = section.get("termination", "anechoic").strip()
        termination = (
            0j if termination_text == "anechoic" else _parse_complex(termination_text, "termination", path)
        )
        incident = _parse_complex(section.get("incident_amplitude", "1.0"), "incident amplitude", path)
        snr_text = section.get("snr_db", "off").strip().lower()
        snr = None if snr_text in ("off", "none", "") else float(snr_text)
        seed = int(section.get("seed", "0"))
        grid = FrequencyGrid.from_range(
            float(section.get("f_min", "100")),
            float(section.get("f_max", "2000")),
            float(section.get("f_step", "10")),
        )
        scenario = SynthScenario(
            sample=layers,
            geometry=geometry,
            air=air,
            incident_amplitude=incident,
            termination_ratio=termination,
            snr_db=snr,
            seed=seed,
        )
    except InputFormatError:
        raise
    except (KeyError, ValueError, configparser.Error) as exc:
        raise InputFormatError(f"bad scenario: {exc}", path=path) from exc
    return scenario, grid


# ---------------------------------------------------------------------------
# run reports


def _json_indent2(value, pad: str = "") -> str:
    """The text of ``json.dumps(value, indent=2, allow_nan=True)``, indented by ``pad``.

    With ``indent`` set, ``json`` runs its pure-Python encoder. A flat list of
    scalars (the per-bin arrays) is instead rendered by the C encoder, which
    runs when ``indent`` is None, with the line break and indent of each item
    put into the item separator. Dicts with string keys, and lists of
    non-empty dicts or lists (the constituent blocks), are laid out here, so
    the flat lists inside them reach the C encoder too.
    """
    if not isinstance(value, (dict, list, tuple)):  # a scalar: indent changes nothing
        return json.dumps(value, allow_nan=True)
    inner = pad + "  "
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        items = (f"{inner}{json.dumps(key)}: {_json_indent2(v, inner)}" for key, v in value.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list) and value and all(isinstance(v, (dict, list)) and v for v in value):
        items = (inner + _json_indent2(v, inner) for v in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if (
        isinstance(value, list)
        and value
        and not any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, value)))
    ):
        flat = json.dumps(value, separators=(",\n" + inner, ": "), allow_nan=True)
        return "[\n" + inner + flat[1:-1] + "\n" + pad + "]"
    # json escapes every newline inside a string, so each line break here is layout
    return json.dumps(value, indent=2, allow_nan=True).replace("\n", "\n" + pad)


def write_report(path, report: dict) -> str:
    """Serialize a run report as JSON; path None or '-' prints to stdout."""
    text = _json_indent2(report) + "\n"
    if path is None or path == "-":
        print(text, end="")
    else:
        write_text_atomic(path, text)
    return text
