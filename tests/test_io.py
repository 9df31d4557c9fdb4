import configparser
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from tubeloss import (
    AirProperties,
    BandTable,
    ConfigMismatchError,
    DEFAULT_AIR,
    FrequencyGrid,
    InputFormatError,
    LayerModel,
    MicSpectra,
    SynthScenario,
    TubelossError,
    TubeGeometry,
    band_from_nominal,
    synth_mic_pressures,
    third_octave_bands,
)
from tubeloss import io_files
from tubeloss.io_files import (
    MIC_SPECTRA_HEADER,
    MIC_SPECTRA_MAGIC,
    _json_indent2,
    _write_csv,
    config_hash,
    dump_config,
    load_config,
    load_materials,
    load_scenario,
    load_stack,
    read_band_csv,
    read_mic_spectra,
    require_header_matches,
    write_band_csv,
    write_mic_spectra,
)
from tubeloss.models import _KIND_PARAMETERS

from helpers import AIR, GEOMETRY

CONFIG_TEXT = """
[air]
density = 1.204
sound_speed = 343.2
temperature = 23.7
relative_humidity = 66.3

[tube]
mic_positions = -0.33 -0.25 0.25 0.33
sample_thickness = 0.00089
diameter = 0.0998
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tube.ini"
    path.write_text(CONFIG_TEXT)
    return path


def synth_spectra(grid=None):
    grid = grid or FrequencyGrid.from_range(100.0, 500.0, 100.0)
    scenario = SynthScenario(sample=LayerModel.limp_mass(1.135), geometry=GEOMETRY, air=AIR)
    return synth_mic_pressures(scenario, grid)


def test_all_names_every_public_function():
    defined = {
        name
        for name, value in vars(io_files).items()
        if inspect.isfunction(value) and value.__module__ == io_files.__name__ and not name.startswith("_")
    }
    assert sorted(defined - set(io_files.__all__)) == []


class TestConfig:
    def test_load(self, config_path):
        air, geometry = load_config(config_path)
        assert air.density == 1.204
        assert air.temperature == 23.7
        assert geometry.mic_positions == (-0.33, -0.25, 0.25, 0.33)
        assert geometry.sample_thickness == 0.00089
        assert geometry.tube_diameter == 0.0998

    def test_air_defaults_apply(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[tube]\nmic_positions = -0.3, -0.2, 0.2, 0.3\nsample_thickness = 0.001\ndiameter = 0.1\n")
        air, geometry = load_config(path)
        assert air.density == 1.204
        assert air.sound_speed == 343.2
        assert geometry.mic_positions == (-0.3, -0.2, 0.2, 0.3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_config(tmp_path / "nope.ini")

    def test_missing_tube_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[air]\ndensity = 1.2\n")
        with pytest.raises(InputFormatError):
            load_config(path)

    @pytest.mark.parametrize(
        "text", ["band_nominal_hz,500\n", "[tube]\n[tube]\n", "[tube]\nno value here\n"],
        ids=["csv", "duplicate-section", "bad-line"],
    )
    def test_not_ini_is_a_one_line_format_error(self, tmp_path, text):
        path = tmp_path / "not.ini"
        path.write_text(text)
        with pytest.raises(InputFormatError, match="config file is not INI") as info:
            load_config(path)
        assert "\n" not in str(info.value)

    def test_hash_stable_and_sensitive(self, config_path):
        air, geometry = load_config(config_path)
        h1 = config_hash(air, geometry)
        h2 = config_hash(air, geometry)
        assert h1 == h2 and h1.startswith("sha256:")
        other = AirProperties(density=1.3)
        assert config_hash(other, geometry) != h1
        assert "tube.mic_positions" in dump_config(air, geometry)

    # every report's config_hash is the sha256 of this text, so its bytes are pinned
    def test_the_dump_of_a_config_with_temperature_humidity_and_geometry(self, config_path):
        assert dump_config(*load_config(config_path)) == (
            "air.density=1.204\nair.sound_speed=343.2\nair.temperature=23.7\nair.relative_humidity=66.3\n"
            "tube.mic_positions=-0.33 -0.25 0.25 0.33\ntube.sample_thickness=0.00089\ntube.diameter=0.0998\n"
        )

    def test_the_dump_of_the_default_air_without_geometry(self):
        assert dump_config(DEFAULT_AIR, None) == (
            "air.density=1.204\nair.sound_speed=343.2\nair.temperature=none\nair.relative_humidity=none\ntube=none\n"
        )


class TestKeyTables:
    """The key tables of the input formats (``io_files._read_keys``)."""

    def test_the_readme_names_every_declared_section_key_and_kind(self):
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as handle:
            formats = handle.read().split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
        tables = (
            *io_files._CONFIG_KEYS.values(), io_files._SCENARIO_KEYS, *io_files._SAMPLE_KEYS.values(),
            *io_files._LAYER_KEYS.values(), io_files._MATERIAL_KEYS, *io_files._HEADER_ECHO.values(),
        )
        declared = {
            *io_files._CONFIG_KEYS, "scenario", "sample", *io_files._SAMPLE_KEYS, "kind", *io_files._LAYER_KEYS,
            *(key for table in tables for key in table),
        }
        named = re.compile(r"(?<![\w-])({})(?![\w-])".format("|".join(map(re.escape, declared))))
        assert sorted(declared - set(named.findall(formats))) == []

    def test_each_layer_kind_reads_the_parameters_the_layer_model_declares(self):
        # a stack record's t11..t22 are the model's one matrix; a sample kind names the record keys it gives
        matrix = dict.fromkeys(("t11", "t12", "t21", "t22"), "matrix")
        record_kinds = {kind: {matrix.get(key, key) for key in keys} for kind, keys in io_files._LAYER_KEYS.items()}
        sample_kinds = {kind: set(keys.values()) for kind, keys in io_files._SAMPLE_KEYS.items() if kind != "stack"}
        declared = {kind: set(parameters) for kind, parameters in _KIND_PARAMETERS.items()}
        assert record_kinds == declared
        assert sample_kinds == {kind: declared[kind] for kind in sample_kinds}

    def test_only_a_refused_key_imports_difflib(self, config_path):
        script = (
            "import sys\n"
            "import tubeloss.cli\n"
            "from tubeloss.io_files import load_config\n"
            "print('difflib' in sys.modules)\n"
            "load_config(sys.argv[1])\n"
            "print('difflib' in sys.modules)\n"
            "open(sys.argv[1], 'a').write('[tub]\\n')\n"
            "try:\n"
            "    load_config(sys.argv[1])\n"
            "except ValueError as exc:\n"
            "    print('difflib' in sys.modules, exc)\n"
        )
        src = os.path.dirname(os.path.dirname(io_files.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script, str(config_path)], capture_output=True, text=True, env=env)
        assert done.stdout.splitlines() == [
            "False", "False", f"True {config_path}: bad config: a config takes no section 'tub' (did you mean 'tube'?)",
        ], done.stderr


class TestMicSpectraCsv:
    def test_round_trip_byte_identical(self, tmp_path):
        spectra = synth_spectra()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_mic_spectra(first, spectra, GEOMETRY, AIR)
        loaded, geometry, air = read_mic_spectra(first)
        write_mic_spectra(second, loaded, geometry, air)
        assert first.read_bytes() == second.read_bytes()

    def test_values_survive(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        loaded, geometry, air = read_mic_spectra(path)
        for original, back in zip(spectra.pressures, loaded.pressures):
            assert np.array_equal(original, back)
        assert geometry == GEOMETRY
        assert air.density == AIR.density

    def test_malformed_row_reports_line(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        lines = path.read_text().splitlines()
        lines[10] = lines[10].rsplit(",", 1)[0]  # drop one column
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputFormatError) as err:
            read_mic_spectra(path)
        assert ":11:" in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# something else\n")
        with pytest.raises(InputFormatError):
            read_mic_spectra(path)

    def test_row_count_checked(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop last data row
        with pytest.raises(InputFormatError):
            read_mic_spectra(path)

    def test_header_mismatch_aborts(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        _, file_geometry, file_air = read_mic_spectra(path)
        other = TubeGeometry((-0.35, -0.25, 0.25, 0.35), 0.00089, 0.0998)
        with pytest.raises(ConfigMismatchError) as err:
            require_header_matches(path, file_geometry, file_air, other, AIR)
        assert "mic x1" in str(err.value)
        # matching config passes silently
        require_header_matches(path, file_geometry, file_air, GEOMETRY, AIR)

    @pytest.mark.parametrize(
        "index, message",
        [
            (0, "mic x1: file -0.35 vs config -0.33"),
            (1, "mic x2: file -0.26 vs config -0.25"),
            (2, "mic x3: file 0.26 vs config 0.25"),
            (3, "mic x4: file 0.35 vs config 0.33"),
            (4, "sample_thickness: file 0.001 vs config 0.00089"),
            (5, "tube_diameter: file 0.1 vs config 0.0998"),
            (6, "air density: file 1.2 vs config 1.204"),
            (7, "sound speed: file 340.0 vs config 343.2"),
        ],
    )
    def test_each_mismatched_header_value_is_named_alone(self, index, message):
        values = [*GEOMETRY.mic_positions, GEOMETRY.sample_thickness, GEOMETRY.tube_diameter]
        values += [AIR.density, AIR.sound_speed]
        values[index] = (-0.35, -0.26, 0.26, 0.35, 0.001, 0.1, 1.2, 340.0)[index]
        file_geometry = TubeGeometry(tuple(values[:4]), values[4], values[5])
        file_air = AirProperties(density=values[6], sound_speed=values[7])
        with pytest.raises(ConfigMismatchError) as err:
            require_header_matches("x.csv", file_geometry, file_air, GEOMETRY, AIR)
        assert str(err.value) == f"x.csv: header disagrees with active config: {message}"


def reference_read_mic_spectra(path):
    """The mic-spectra reader as a plain per-line loop: the oracle of the differential test.

    Returns the (n, 9) table of the file's body floats with the geometry and air
    of its header, after the same grid and spectrum checks as the reader.
    """
    header: dict[str, str] = {}
    rows: list[list[float]] = []
    linenos: list[int] = []
    seen_columns = False
    with open(path, "r", encoding="utf-8", newline="") as handle:
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
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise InputFormatError(f"bad number: {exc}", path=path, line=lineno) from exc
            linenos.append(lineno)
    if not seen_columns or not rows:
        raise InputFormatError("no data rows", path=path)

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
    if n_declared != len(rows):
        raise InputFormatError(
            f"header declares {n_declared} frequencies but file has {len(rows)} rows",
            path=path,
        )

    data = np.array(rows)
    try:
        grid = FrequencyGrid(data[:, 0])
    except ValueError as exc:
        previous = -math.inf
        for lineno, row in zip(linenos, rows):
            broken = {
                "frequencies must be finite": not math.isfinite(row[0]),
                "frequencies must be positive": row[0] <= 0.0,
                "frequencies must be strictly increasing": not row[0] > previous,
            }[str(exc)]
            if broken:
                raise InputFormatError(f"bad frequency column: {exc}", path=path, line=lineno) from exc
            previous = row[0]
        raise
    for lineno, row in zip(linenos, rows):
        if not all(math.isfinite(v) for v in row[1:]):
            raise InputFormatError("spectrum values must be finite", path=path, line=lineno)
    return data, geometry, air


def read_table(path):
    """``read_mic_spectra`` with its spectra laid out as the file's (n, 9) table."""
    spectra, geometry, air = read_mic_spectra(path)
    columns = [spectra.grid.frequencies]
    for p in spectra.pressures:
        columns += [p.real, p.imag]
    return np.column_stack(columns), geometry, air


def read_outcome(reader, path):
    """What a reader makes of a file: its error, or the bits of its table, geometry and air."""
    try:
        table, geometry, air = reader(path)
    except Exception as exc:  # every error type counts, not only InputFormatError
        return ("raised", type(exc).__name__, str(exc))
    return ("read", table.shape, table.tobytes(), repr(geometry), repr(air))


GOOD_HEADER = [
    MIC_SPECTRA_MAGIC,
    None,  # the row count, filled in per file
    "# mic_positions_m = -0.33 -0.25 0.25 0.33",
    "# sample_thickness_m = 0.00089",
    "# tube_diameter_m = 0.0998",
    "# air_density_kg_m3 = 1.204",
    "# air_sound_speed_m_s = 343.2",
    MIC_SPECTRA_HEADER,
]
# texts for one field: numbers float() reads in other spellings, and non-numbers
FIELD_TEXTS = (
    "", "abc", "nan", "-inf", "Infinity", "1e999", " 1.5", "1.5 ", "1_0", "0x10", "1.5.5",
    "+", "--1", "1e", "\u0661\u0662", "1,5", "0", "-0.0", "5e-324", "1e308",
)
# lines put anywhere into a file
LINE_TEXTS = (
    "", "   ", "#", "# comment", "# n_frequencies = 2", "# mic_positions_m = 1 2",
    "# tube_diameter_m = oops", "not a comment", MIC_SPECTRA_HEADER, "frequency_hz,p1_re",
    "# tubeloss mic spectra v2", "1,2,3,4,5,6,7,8,9", "1,2,3,4,5,6,7,8", "1,2,3,4,5,6,7,8,9,10",
)
NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# a changed or padded field is drawn twice as often as each other mutation
MUTATIONS = ("field", "field", "pad", "pad", "drop", "add", "delete", "replace", "insert", "blank")
# whitespace float() strips around a number (\x0b, \x0c, \x85, space) and \x1c, which it does not
PADDING = st.text(alphabet="\x0b\x0c\x1c\x85 ", max_size=2)
# blank and whitespace-only lines: the first two are skipped, the others are rows of one field
BLANK_LINES = ("", "", " ", "\t", "\x0c", " \x0b ")
# frequencies breaking a sorted column: each of FrequencyGrid's rules, at any row
BAD_FREQUENCIES = ("nan", "inf", "0", "negative", "decrease", "repeat")
# pressures float() reads that MicSpectra rejects
NON_FINITE = ("nan", "inf", "-inf", "1e999", "-nan")
ENDINGS = ("\n", "\r\n", "\r", "\r\r\n")


@st.composite
def mic_spectra_texts(draw):
    """A good mic-spectra file, a broken frequency column, a non-finite pressure or neither,
    then up to three mutations.

    A mutation changes, pads, drops or adds a field, or deletes, replaces or
    inserts a line; each line gets its own line ending.
    """
    n = draw(st.integers(1, 6))
    freqs = sorted(draw(st.sets(st.floats(1.0, 1e5), min_size=n, max_size=n)))
    rows = [[repr(f)] + [draw(NUMBER) for _ in range(8)] for f in freqs]
    defect = draw(st.sampled_from((None, None, "frequency", "frequency", "pressure")))
    if defect == "pressure":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(1, 8))] = draw(st.sampled_from(NON_FINITE))
    elif defect == "frequency":
        broken = draw(st.sampled_from(BAD_FREQUENCIES if n > 1 else BAD_FREQUENCIES[:4]))
        k = draw(st.integers(1 if broken in ("decrease", "repeat") else 0, n - 1))
        rows[k][0] = {
            "negative": repr(-freqs[k]),
            "decrease": repr(freqs[k - 1] / 2),
            "repeat": rows[k - 1][0],
        }.get(broken, broken)
    lines = list(GOOD_HEADER)
    lines[1] = f"# n_frequencies = {n}"
    lines += [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(MUTATIONS))
        # two times in three the mutation lands in the body, when there is one
        body = st.integers(min(len(GOOD_HEADER), len(lines) - 1), len(lines) - 1)
        i = draw(st.integers(0, len(lines) - 1) | body | body)
        if kind == "pad":  # pads a field of a row
            i = draw(body)
        if kind in ("field", "pad"):
            fields = lines[i].split(",")
            j = draw(st.integers(0, len(fields) - 1))
            if kind == "field":
                fields[j] = draw(st.sampled_from(FIELD_TEXTS))
            else:
                fields[j] = draw(PADDING) + fields[j] + draw(PADDING)
            lines[i] = ",".join(fields)
        elif kind == "drop":
            lines[i] = lines[i].rsplit(",", 1)[0]
        elif kind == "add":
            lines[i] += "," + draw(NUMBER)
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "replace":
            lines[i] = draw(st.sampled_from(LINE_TEXTS))
        elif kind == "insert":
            lines.insert(i, draw(st.sampled_from(LINE_TEXTS)))
        elif kind == "blank":
            lines[i:i] = draw(st.lists(st.sampled_from(BLANK_LINES), min_size=1, max_size=3))
    endings = [draw(st.sampled_from(ENDINGS)) for _ in lines]
    if draw(st.booleans()):  # a file may lack its final line ending
        endings[-1] = ""
    return "".join(line + ending for line, ending in zip(lines, endings))


def _float_from_bits(bits: int) -> float:
    return float(np.uint64(bits).view(np.float64))


FINITE_FLOAT_BITS = st.integers(0, 2**64 - 1).map(_float_from_bits).filter(math.isfinite)
# 1 is the smallest subnormal, 0x7FEF... the largest finite double
POSITIVE_FLOAT_BITS = st.integers(1, 0x7FEF_FFFF_FFFF_FFFF).map(_float_from_bits)


def _with_accepted_air(positives: list) -> list:
    """``positives`` with its last, the sound speed, scaled by a power of two so that AirProperties accepts it.

    With density m1 2^e1 and sound speed m2 2^e2 (``math.frexp``), their product
    lies in [2^(e1+e2-2), 2^(e1+e2)), or halves once more if the scaled sound
    speed is subnormal; -1020 <= e1 + e2 <= 1023 keeps it and its inverse finite.
    """
    thickness, diameter, density, sound_speed = positives
    e1 = math.frexp(density)[1]
    m2, e2 = math.frexp(sound_speed)
    return [thickness, diameter, density, math.ldexp(m2, min(max(e2, -1020 - e1), 1023 - e1))]


@pytest.fixture(scope="module")
def drawn_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn")


class TestMicSpectraReader:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=mic_spectra_texts())
    def test_reads_like_the_per_line_loop(self, drawn_dir, text):
        path = drawn_dir / "drawn.csv"
        path.write_bytes(text.encode())
        outcome = read_outcome(read_table, path)
        assert outcome == read_outcome(reference_read_mic_spectra, path)
        # the share of each outcome shows with pytest --hypothesis-show-statistics
        event(outcome[0] if outcome[0] == "read" else outcome[2].split(": ")[1])

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_line_endings_blank_and_comment_lines_are_accepted(self, tmp_path, ending):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        lines = path.read_text().splitlines()
        lines[9:9] = ["", "# measured on the second day"]
        path.write_bytes(ending.join(lines).encode())
        loaded, geometry, air = read_mic_spectra(path)
        for original, back in zip(spectra.pressures, loaded.pressures):
            assert np.array_equal(original, back)
        assert geometry == GEOMETRY and air == AIR

    def test_first_bad_line_is_named(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        lines = path.read_text().splitlines()
        lines[11] = lines[11].rsplit(",", 1)[0]  # a short row on line 14 (12 before the insert)
        fields = lines[10].split(",")
        fields[3] = "x"  # after a bad number on line 13
        lines[10] = ",".join(fields)
        lines[9:9] = ["# a comment inside the body", ""]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputFormatError, match=":13: bad number: could not convert string"):
            read_mic_spectra(path)

    def test_first_non_finite_row_is_named(self, tmp_path):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        lines = path.read_text().splitlines()
        for index, column, text in ((9, 8, "nan"), (10, 1, "inf")):  # p4 on line 10, p1 on line 11
            fields = lines[index].split(",")
            fields[column] = text
            lines[index] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputFormatError, match=r"spectra\.csv:10: spectrum values must be finite$"):
            read_mic_spectra(path)

    @pytest.mark.parametrize(
        "edits, line, rule",
        [
            ({11: "nan", 12: "inf"}, 11, "finite"),
            ({10: "-1", 12: "inf"}, 12, "finite"),  # the earlier row breaks another rule
            ({10: "50", 12: "0"}, 12, "positive"),
            ({10: "50", 11: "-300"}, 11, "positive"),
            ({11: "150"}, 11, "strictly increasing"),  # 150 Hz after 200 Hz
            ({12: "300"}, 12, "strictly increasing"),  # 300 Hz twice
        ],
        ids=["nan", "inf", "zero", "negative", "decrease", "repeat"],
    )
    def test_first_bad_frequency_is_named(self, tmp_path, edits, line, rule):
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, synth_spectra(), GEOMETRY, AIR)  # 100..500 Hz on lines 9..13
        lines = path.read_text().splitlines()
        for lineno, text in edits.items():
            lines[lineno - 1] = text + lines[lineno - 1][lines[lineno - 1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        message = rf"spectra\.csv:{line}: bad frequency column: frequencies must be {rule}$"
        with pytest.raises(InputFormatError, match=message):
            read_mic_spectra(path)

    def test_a_written_file_is_parsed_without_the_per_line_reading(self, tmp_path, monkeypatch):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        text = path.read_text()
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        # the layout of the corpus's commented.csv: a comment and a blank line among the rows
        rows = text.splitlines(keepends=True)
        commented = tmp_path / "commented.csv"
        commented.write_text("".join(rows[:10] + ["# re-seated the sample\n", "\n"] + rows[10:]))
        gapped = tmp_path / "gapped.csv"  # a blank line between two header fields
        gapped.write_text(text.replace("\n# sample_thickness_m", "\n\n# sample_thickness_m"))
        read = read_mic_spectra(path)
        monkeypatch.setattr(io_files, "_float_rows", None)  # a call would raise TypeError
        for back in (read_mic_spectra(path), *map(read_mic_spectra, (crlf, commented, gapped))):
            assert [p.tobytes() for p in back[0].pressures] == [p.tobytes() for p in read[0].pressures]
            assert back[1:] == read[1:]

    @pytest.mark.parametrize("rows", ["", "\n\n", "\r\n \r\n"], ids=["none", "blank", "whitespace"])
    def test_a_header_without_rows_warns_nothing(self, tmp_path, rows):
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, synth_spectra(), GEOMETRY, AIR)
        head = path.read_text().splitlines()[:8]
        path.write_text("\n".join(head) + "\n" + rows)
        message = "no data rows" if rows != "\r\n \r\n" else ":10: expected 9 numeric columns, got 1"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputFormatError, match=message):
                read_mic_spectra(path)
        assert caught == []

    @pytest.mark.parametrize("pad", ["\x0b", "\x0c", "\x85", " ", "\x1c", "\x1d", "\x1e", "\x1f"])
    def test_padded_numbers_read_as_float_reads_them(self, tmp_path, pad):
        spectra = synth_spectra()
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, spectra, GEOMETRY, AIR)
        lines = path.read_text().splitlines()
        lines[10] = ",".join(pad + field + pad for field in lines[10].split(","))
        path.write_bytes("\n".join(lines).encode() + b"\n")
        try:
            float(pad + "1.5")
        except ValueError:  # loadtxt strips \x1c..\x1f around a number, float() does not
            with pytest.raises(InputFormatError, match=r"spectra\.csv:11: bad number: "):
                read_mic_spectra(path)
            return
        loaded, _, _ = read_mic_spectra(path)
        for original, back in zip(spectra.pressures, loaded.pressures):
            assert original.tobytes() == back.tobytes()

    @pytest.mark.parametrize("width", [1, 8, 10, 11, 17])
    def test_rows_of_another_width_are_named(self, tmp_path, width):
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, synth_spectra(), GEOMETRY, AIR)
        lines = path.read_text().splitlines()
        lines[8:] = [",".join((line.split(",") * 2)[:width]) for line in lines[8:]]  # every row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputFormatError, match=rf"spectra\.csv:9: expected 9 numeric columns, got {width}$"):
            read_mic_spectra(path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "\r\r\n"])
    def test_blank_lines_count_toward_the_named_line(self, tmp_path, ending):
        path = tmp_path / "spectra.csv"
        write_mic_spectra(path, synth_spectra(), GEOMETRY, AIR)  # 100..500 Hz on lines 9..13
        lines = path.read_text().splitlines()
        lines[11] = "nan" + lines[11][lines[11].index(","):]  # 400 Hz
        lines[9:9] = ["", "# re-seated", ""]  # 200 Hz moves to line 13, 400 Hz to line 15
        path.write_bytes(ending.join(lines).encode())
        line = 15 if ending != "\r\r\n" else 29  # each \r\r\n ends a line, then a blank one
        message = rf"spectra\.csv:{line}: bad frequency column: frequencies must be finite$"
        with pytest.raises(InputFormatError, match=message):
            read_mic_spectra(path)
        lines[10] = " \t "  # a whitespace-only line is a row of one field
        path.write_bytes(ending.join(lines).encode())
        line = 11 if ending != "\r\r\n" else 21
        with pytest.raises(InputFormatError, match=rf"spectra\.csv:{line}: expected 9 numeric columns, got 1$"):
            read_mic_spectra(path)

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "spectra.csv"
        path.write_text("old\n")
        rows = np.array([1.0] * 3000 + ["not a float"], dtype=object)  # fails in a later block
        with pytest.raises(TypeError):
            _write_csv(path, ["head"], [rows])
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["spectra.csv"]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]).map(
                    lambda v: int(np.float64(v).view(np.uint64))
                ),
            ),
            min_size=8,
            max_size=40,
        ),
        # header floats from any bit pattern a valid header allows: ascending finite
        # positions, a positive finite thickness, diameter, density and sound speed, and
        # a density * sound speed that is positive and finite and has a finite inverse
        positions=st.lists(FINITE_FLOAT_BITS, min_size=4, max_size=4, unique=True).map(sorted),
        positives=st.lists(POSITIVE_FLOAT_BITS, min_size=4, max_size=4).map(_with_accepted_air),
    )
    def test_round_trip_keeps_every_bit(self, drawn_dir, bits, positions, positives):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        n = len(values) // 8
        if n == 0:
            return
        pressures = np.ascontiguousarray(values[: 8 * n].reshape(n, 8)).view(complex)
        grid = FrequencyGrid(np.arange(1.0, n + 1.0) * 0.1)
        spectra = MicSpectra(grid, pressures.T)
        thickness, diameter, density, sound_speed = positives
        geometry = TubeGeometry(tuple(positions), thickness, diameter)
        air = AirProperties(density, sound_speed)
        path = drawn_dir / "round-trip.csv"
        write_mic_spectra(path, spectra, geometry, air)
        loaded, geometry_back, air_back = read_mic_spectra(path)
        for original, back in zip(spectra.pressures, loaded.pressures):
            assert original.tobytes() == back.tobytes()
        header = (*positions, *positives)
        header_back = (
            *geometry_back.mic_positions,
            geometry_back.sample_thickness,
            geometry_back.tube_diameter,
            air_back.density,
            air_back.sound_speed,
        )
        assert [x.hex() for x in header_back] == [x.hex() for x in header]

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])  # around the writer's 1024-row blocks
    @pytest.mark.parametrize("width", [4, 9])
    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), offset=st.integers(0, 71))
    def test_blocks_write_the_per_row_text(self, drawn_dir, n, width, bits, offset):
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 1e22]
        pool = np.roll(np.concatenate([specials, np.array(bits, dtype=np.uint64).view(np.float64)]), offset)
        path = drawn_dir / "blocks.csv"
        if width == 4:
            table = np.resize(pool, (n, width))
            _write_csv(path, ["head"], list(table.T))
            head = "head\n"
        else:  # a mic-spectra file: ascending frequencies, then finite pressures
            pressures = np.resize(pool[np.isfinite(pool)], (n, 8))
            grid = FrequencyGrid(np.arange(1.0, n + 1.0) * 0.1)
            spectra = MicSpectra(grid, pressures.view(complex).T)
            write_mic_spectra(path, spectra, GEOMETRY, AIR)
            table = np.column_stack([grid.frequencies, pressures])
            head = path.read_text().partition(MIC_SPECTRA_HEADER + "\n")[0] + MIC_SPECTRA_HEADER + "\n"
        rows = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
        assert path.read_bytes() == (head + rows).encode()
        if width == 9:
            loaded, _, _ = read_mic_spectra(path)
            assert loaded.grid.frequencies.tobytes() == grid.frequencies.tobytes()
            for original, back in zip(spectra.pressures, loaded.pressures):
                assert original.tobytes() == back.tobytes()


# strings with non-ASCII, quote, backslash and control characters, which json escapes
JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600')), max_size=8)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.floats().map(np.float64),
    JSON_TEXT,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(JSON_TEXT, inner, max_size=5)),
    max_leaves=30,
)


class TestReportEncoding:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(value=JSON_VALUES)
    # nested three and four deep, so flat lists sit at several indents
    @example(
        value={"a\u00e9": [{"b": {"c": [1.5, -0.0, math.nan], "\"": [math.inf]}, "d": [np.float64(0.1)]}], "e": [True]}
    )
    @example(value=[[[[-math.inf, "\x00"]]], [["\u2028"]]])
    def test_same_text_as_json_indent_2(self, value):
        assert _json_indent2(value) == json.dumps(value, indent=2, allow_nan=True)

    def test_report_shapes(self):
        report = {
            "narrowband": {"stl_db": [1.5, None, math.inf, -0.0], "valid": [True, False]},
            "empty": [],
            "nothing": {},
            "constituents": [{"layer": "limp-mass", "bands": {"values_db": [1.0, math.nan]}}],
            "warnings": ["a \"quoted\"\nline", "\u00e9"],
            "nested": [[1, 2], [3]],
            "pair": (1, 2),
        }
        assert _json_indent2(report) == json.dumps(report, indent=2, allow_nan=True)


# nominal centres in ascending order, header cells that name no band, and value-row cells
BAND_CENTERS = ("400", "500", "630", "800", "1000")
ODD_CENTERS = ("1e3", "500", "507", "0", "-1", "nan", "inf", "5e-324", "1e308", "", "x")
BAND_ROW_NAMES = (
    "L_r0", "L_r0_coverage", "L_rs", "L_rs_coverage", "x_coverage", "_coverage", "", "band_nominal_hz",
)
BAND_VALUES = ("", "70.0", "0", "1", "0.5")
ODD_VALUES = ("1.5", "-0.1", "nan", "inf", "-inf", "1e999", "x", " 2", "1_0")


def _with_one_odd_cell(draw, cells: list[str], odd: tuple[str, ...]) -> list[str]:
    """``cells``, in one draw of six with one of them replaced by an ``odd`` text."""
    if cells and not draw(st.integers(0, 5)):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(odd))
    return cells


@st.composite
def band_csv_bytes(draw):
    """A band CSV: a header, value and coverage rows, blank lines, and odd cells, lines and bytes."""
    width = draw(st.integers(1, 4))
    first = draw(st.integers(0, len(BAND_CENTERS) - width))
    head = "band_nominal_hz" if draw(st.integers(0, 9)) else draw(st.sampled_from(BAND_ROW_NAMES))
    centers = _with_one_odd_cell(draw, list(BAND_CENTERS[first : first + width]), ODD_CENTERS)
    lines = [",".join([head, *centers])]
    names = iter(draw(st.permutations(BAND_ROW_NAMES)))  # a name repeats one time in ten
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("row",) * 10 + ("blank",) * 3 + ("text",)))
        if kind == "row":
            name = next(names) if draw(st.integers(0, 9)) else draw(st.sampled_from(BAND_ROW_NAMES))
            cells = width + draw(st.sampled_from((0,) * 13 + (-1, 1)))
            values = [draw(st.sampled_from(BAND_VALUES)) for _ in range(max(cells, 0))]
            lines.append(",".join([name, *_with_one_odd_cell(draw, values, ODD_VALUES)]))
        elif kind == "blank":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "", "", " "))))
        else:
            lines.append(draw(st.text(max_size=12)))
    ending = draw(st.sampled_from(("\n", "\r\n", "\r")))
    tail = draw(st.sampled_from((b"", b"\n") * 4 + (b"\xff",)))  # \xff is not UTF-8
    return ending.join(lines).encode("utf-8", "surrogatepass") + tail


# name fragments: any character, surrogates included, and the texts the format gives a meaning
TABLE_NAMES = st.lists(
    st.one_of(
        st.text(st.characters(exclude_categories=()), max_size=4),
        st.sampled_from(("felt", "_coverage", "band_nominal_hz", ",", "\n", "\r", "\udc80")),
    ),
    max_size=3,
).map("".join)
BAND_TABLE_VALUES = st.one_of(
    st.floats(), st.sampled_from((math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, -0.0))
)


@st.composite
def band_tables(draw):
    """Tables on one run of third-octave bands, with any names and any float values."""
    all_bands = third_octave_bands(100.0, 5000.0)
    first = draw(st.integers(0, len(all_bands) - 1))
    bands = all_bands[first : first + draw(st.integers(1, 4))]
    names = draw(st.lists(TABLE_NAMES, min_size=1, max_size=4, unique=True))
    row = st.lists(BAND_TABLE_VALUES, min_size=len(bands), max_size=len(bands))
    coverage = st.lists(st.floats(0.0, 1.0), min_size=len(bands), max_size=len(bands))
    return {name: BandTable(bands, np.array(draw(row)), np.array(draw(coverage))) for name in names}


class TestBandCsv:
    def make_table(self):
        bands = third_octave_bands(100.0, 5000.0)
        values = np.linspace(5.0, 22.0, len(bands))
        values[3] = np.nan  # absent band
        coverage = np.ones(len(bands))
        coverage[3] = 0.0
        coverage[5] = 0.75
        return BandTable(bands, values, coverage)

    def test_round_trip_byte_identical(self, tmp_path):
        table = self.make_table()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_band_csv(first, {"stl_db": table})
        back = read_band_csv(first)
        write_band_csv(second, back)
        assert first.read_bytes() == second.read_bytes()

    def test_values_and_coverage_survive(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "bands.csv"
        write_band_csv(path, {"stl_db": table})
        back = read_band_csv(path)["stl_db"]
        assert back.bands == table.bands
        assert np.array_equal(back.values, table.values, equal_nan=True)
        assert np.array_equal(back.coverage, table.coverage)

    def test_multiple_quantities(self, tmp_path):
        bands = third_octave_bands(100.0, 200.0)
        a = BandTable.from_values(bands, [70.0, 69.0, 68.0, 67.0])
        b = BandTable.from_values(bands, [59.0, 58.5, 58.0, 57.5])
        path = tmp_path / "rooms.csv"
        write_band_csv(path, {"L_r0": a, "L_rs": b})
        back = read_band_csv(path)
        assert set(back) == {"L_r0", "L_rs"}
        assert np.array_equal(back["L_rs"].values, b.values)

    def test_coverage_defaults_when_missing(self, tmp_path):
        path = tmp_path / "minimal.csv"
        path.write_text("band_nominal_hz,500,630\nL_r0,70.0,\n")
        table = read_band_csv(path)["L_r0"]
        assert table.coverage.tolist() == [1.0, 0.0]
        assert np.isnan(table.values[1])

    def test_bad_nominal_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("band_nominal_hz,507\nx,1.0\n")
        with pytest.raises(InputFormatError):
            read_band_csv(path)

    def test_column_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("band_nominal_hz,500,630\nL_r0,70.0\n")
        with pytest.raises(InputFormatError) as err:
            read_band_csv(path)
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("band_nominal_hz,500,630\n\n\nL_r0,70.0\n", "gap.csv:4: expected 3 columns, got 2"),
            ("band_nominal_hz,500\r\n\r\n \r\n", "gap.csv:3: expected 2 columns, got 1"),
            ("\n\nband_nominal_hz,507\nx,1.0\n", "gap.csv:3: bad nominal center: 507.0 Hz is not"),
            ("\n\nrow,500\n", "gap.csv:3: first row must be"),
        ],
        ids=["short-row", "whitespace-row", "bad-center", "no-head"],
    )
    def test_blank_lines_count_toward_the_named_line(self, tmp_path, text, message):
        path = tmp_path / "gap.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InputFormatError, match=re.escape(message)):
            read_band_csv(path)

    def test_a_coverage_row_without_its_value_row_is_named(self, tmp_path):
        path = tmp_path / "orphan.csv"
        path.write_text(
            "band_nominal_hz,500,630\nL_r0,70.0,71.0\nL_r0_coverage,1.0,1.0\nL_rs_coverage,0.5,2\n"
        )
        message = r"orphan\.csv:4: coverage row 'L_rs_coverage' has no value row$"
        with pytest.raises(InputFormatError, match=message):
            read_band_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", r"rows\.csv: empty band CSV$"),
            ("\n\r\n", r"rows\.csv: empty band CSV$"),
            ("band_nominal_hz,500\nL_r0,70.0\nL_rs,61.0\nL_r0,71.0\n", r"rows\.csv:4: duplicate row 'L_r0'$"),
        ],
        ids=["empty", "blank-lines-only", "duplicate-row"],
    )
    def test_an_empty_file_or_a_duplicate_row_is_named(self, tmp_path, text, message):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError, match=message):
            read_band_csv(path)

    def test_the_writer_refuses_no_tables_or_two_band_sets_and_writes_nothing(self, tmp_path):
        path = tmp_path / "bands.csv"
        with pytest.raises(ValueError, match="^need at least one table$"):
            write_band_csv(path, {})
        a = BandTable.from_values(third_octave_bands(100.0, 200.0), [70.0, 69.0, 68.0, 67.0])
        b = BandTable.from_values(third_octave_bands(100.0, 160.0), [59.0, 58.5, 58.0])
        with pytest.raises(ValueError, match="^table 'L_rs' uses a different band set$"):
            write_band_csv(path, {"L_r0": a, "L_rs": b})
        assert not list(tmp_path.iterdir())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=band_csv_bytes())
    def test_only_input_format_errors_escape(self, drawn_dir, data):
        path = drawn_dir / "bands.csv"
        path.write_bytes(data)
        try:
            tables = read_band_csv(path)
        except InputFormatError as exc:
            # the share of each outcome shows with pytest --hypothesis-show-statistics
            event(re.sub(r"'[^']*'|-?[\d.]+(e[+-]?\d+)?", "_", str(exc).split(": ", 1)[1]))
        else:
            event("read")
            assert tables and all(isinstance(table, BandTable) for table in tables.values())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tables=band_tables())
    def test_what_the_writer_writes_the_reader_reads_bit_for_bit(self, drawn_dir, tables):
        with tempfile.TemporaryDirectory(dir=drawn_dir) as directory:
            path = os.path.join(directory, "tables.csv")
            try:
                write_band_csv(path, tables)
            except ValueError as exc:
                event(type(exc).__name__ + ": " + re.sub(r"'.*' ", "", str(exc), flags=re.S))
                assert not list(os.scandir(directory))
                return
            event("read")
            back = read_band_csv(path)
        assert list(back) == list(tables)
        for name, table in tables.items():
            assert back[name].bands == table.bands
            nan = np.isnan(table.values)
            np.testing.assert_array_equal(np.isnan(back[name].values), nan)
            assert back[name].values[~nan].tobytes() == table.values[~nan].tobytes()
            assert back[name].coverage.tobytes() == table.coverage.tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("band_nominal_hz,500,400\nL_r0,70.0,71.0\n", "bands must be strictly ascending"),
            ("band_nominal_hz,500,630\nL_r0,70.0,\nL_r0_coverage,1.0,1.5\n", r"coverage must lie in \[0, 1\]"),
            ("band_nominal_hz,500,630\nL_r0,70.0,71.0\nL_r0_coverage,,1.0\n", r"coverage must lie in \[0, 1\]"),
        ],
        ids=["descending", "above-one", "nan"],
    )
    def test_a_table_the_band_rules_reject_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError, match=rf"bad\.csv: table 'L_r0': {message}$"):
            read_band_csv(path)


RECORD_KEYS = (
    "kind", "surface_density", "thickness", "t11", "t12", "t21", "t22", "passive_symmetric",
    "name", "thickness_mm", "bulk_density",
)
# a record of each layer kind and a material, each read as given
GOOD_RECORDS = (
    {"kind": "limp-mass", "surface_density": 1.135},
    {"kind": "air-gap", "thickness": 0.05},
    {"kind": "identity"},
    {
        "kind": "matrix", "t11": [1, 0], "t12": [0, 50], "t21": [0, 0], "t22": [1, 0],
        "passive_symmetric": True, "thickness": 0.02,
    },
    {"name": "sheet", "thickness_mm": 0.89, "surface_density": 1.135, "bulk_density": 1275.3},
)
# JSON values, and numbers at and past the ends of the float range
RECORD_VALUES = st.one_of(
    JSON_VALUES,
    st.sampled_from(("limp-mass", "air-gap", "identity", "matrix")),
    st.sampled_from((10**400, -(10**400), 2**1024, 1.7e308, -1.7e308, 5e-324, math.inf, math.nan)),
)
ENTRY_VALUES = st.one_of(st.lists(RECORD_VALUES, min_size=2, max_size=2), RECORD_VALUES)


@st.composite
def json_list_texts(draw):
    """JSON text of a list of records: good layer and material records with keys dropped or redrawn."""
    records = []
    for _ in range(draw(st.integers(1, 3))):
        if not draw(st.integers(0, 9)):
            records.append(draw(RECORD_VALUES))
            continue
        record = dict(draw(st.sampled_from(GOOD_RECORDS)))
        for key in draw(st.lists(st.sampled_from(RECORD_KEYS), unique=True, max_size=3)):
            if draw(st.integers(0, 4)):
                record[key] = draw(ENTRY_VALUES if key in ("t11", "t12", "t21", "t22") else RECORD_VALUES)
            else:
                record.pop(key, None)
        records.append(record)
    return json.dumps(records)


class TestStackAndMaterials:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=json_list_texts())
    @example(text='[{"kind": "limp-mass", "surface_density": 1' + "0" * 400 + "}]")
    @example(text="[" * 100_000 + "]" * 100_000)
    def test_only_tubeloss_errors_escape(self, drawn_dir, text):
        path = drawn_dir / "records.json"
        path.write_text(text)
        for loader in (load_stack, load_materials):
            try:
                loader(path)
            except TubelossError as exc:
                # the share of each outcome shows with pytest --hypothesis-show-statistics
                message = re.sub(r"'[^']*'|-?\d[\w.+-]*", "_", str(exc).split(": ", 1)[1])
                event(f"{loader.__name__}: {message[:60]}")
            else:
                event(f"{loader.__name__}: read")

    def test_stack_loads(self, tmp_path):
        path = tmp_path / "stack.json"
        path.write_text(
            json.dumps(
                [
                    {"kind": "limp-mass", "surface_density": 0.224},
                    {"kind": "air-gap", "thickness": 0.005},
                    {"kind": "matrix", "t11": [1, 0], "t12": [0, 50], "t21": [0, 0], "t22": [1, 0]},
                ]
            )
        )
        layers = load_stack(path)
        assert layers[0].kind == "limp-mass"
        assert layers[1].thickness == 0.005
        assert layers[2].matrix[1] == 50j

    def test_stack_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError):
            load_stack(path)
        path.write_text("[]")
        with pytest.raises(InputFormatError):
            load_stack(path)
        path.write_text('[{"kind": "mystery"}]')
        with pytest.raises(InputFormatError):
            load_stack(path)

    @pytest.mark.parametrize("record, kind", [(1, "int"), ("x", "str"), ([1], "list"), (None, "NoneType")])
    @pytest.mark.parametrize(
        "loader, label, good",
        [
            (load_stack, "layer", {"kind": "identity"}),
            (load_materials, "material", {"name": "x", "thickness_mm": 1.0, "surface_density": 0.1}),
        ],
        ids=["load_stack-layer", "load_materials-material"],
    )
    def test_a_record_that_is_not_an_object_is_refused_in_one_wording(self, tmp_path, loader, label, good, record, kind):
        path = tmp_path / "records.json"
        path.write_text(json.dumps([good, record]))
        with pytest.raises(InputFormatError) as caught:
            loader(path)
        assert str(caught.value) == f"{path}: bad {label} #2: expected a JSON object, got {kind}"
        path.write_text(json.dumps([good]))
        assert len(loader(path)) == 1

    def test_materials_load_and_validate(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(
            json.dumps(
                [
                    {"name": "pure_pvc_sheet", "thickness_mm": 1.012, "surface_density": 1.216},
                    {
                        "name": "pvc_coated_pe_fabric",
                        "thickness_mm": 0.89,
                        "surface_density": 1.135,
                        "bulk_density": 1275.3,
                    },
                ]
            )
        )
        materials = load_materials(path)
        assert materials[0].surface_density == 1.216
        assert materials[1].bulk_density == 1275.3

    def test_materials_consistency_enforced(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(
            json.dumps(
                [{"name": "x", "thickness_mm": 1.0, "surface_density": 1.0, "bulk_density": 2000.0}]
            )
        )
        with pytest.raises(InputFormatError):
            load_materials(path)


# the sections of a config file: each key's good value first, then others
CONFIG_SECTIONS = {
    "air": {
        "density": ("1.204", "inf", "-inf", "nan", "0", "1e400", "x", ""),
        "sound_speed": ("343.2", "inf", "nan", "-1", "1e-320", ""),
        "temperature": ("23.7", "nan", "x"),
        "relative_humidity": ("66.3", "inf", "x"),
    },
    "tube": {
        "mic_positions": (
            "-0.33 -0.25 0.25 0.33", "-0.33, -0.25, 0.25, 0.33", "-inf -0.25 0.25 0.33",
            "-0.33 -0.25 0.25 inf", "-0.33 nan 0.25 0.33", "-0.33 -0.25 0.25", "-0.25 -0.33 0.25 0.33", "",
        ),
        "sample_thickness": ("0.00089", "inf", "0", "nan", "x"),
        "diameter": ("0.0998", "inf", "-1", "x"),
    },
}
# the keys of a scenario file's [scenario] section, after its sample kind's own key
SCENARIO_KEYS = {
    "termination": ("anechoic", "0.2+0.1j", "0.2 + 0.1 j", "2", "nan", "infj", "x"),
    "incident_amplitude": ("1.0", "1+1j", "nan", "x"),
    "snr_db": ("off", "40", "none", "", "inf", "nan", "x"),
    "seed": ("1200", "-1", "1.5", "9" * 5000, "x"),
    "f_min": ("100", "0", "-1", "nan", "inf", "x"),
    "f_max": ("2000", "50", "inf", "1e400", "x"),
    "f_step": ("10", "1e-12", "0", "-1", "nan", "x"),
}
# each sample kind with its own key, and two kinds that do not exist
SAMPLE_KEYS = {
    "limp-mass": {"surface_density": ("1.135", "inf", "-1", "nan", "1e400", "x")},
    "air-gap": {"gap_thickness": ("0.05", "inf", "-1", "x")},
    "identity": {},
    "stack": {"stack_file": ("stack.json", "missing.json", ".", "", "scenario.ini", "sub/stack.json")},
    "foam": {},
    "": {},
}
# lines put anywhere into a file: a stray section, a duplicate or foreign key, no '=', an interpolation
INI_LINES = (
    "[air]", "[extra]", "[DEFAULT]", "density = 2", "gap_thickness = 0.05", "just words", "  continued", "% = 1",
    "f_max = %(f_min)s", "seed = %", "# comment", "", "[unterminated",
)


@st.composite
def ini_texts(draw, sections):
    """An INI file of ``sections``, with values redrawn and lines dropped or added."""
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key, values in keys.items():
            value = draw(st.sampled_from(values)) if not draw(st.integers(0, 3)) else values[0]
            lines.append(f"{key} = {value}")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and i < len(lines):
            del lines[i]
        else:
            lines.insert(i, draw(st.sampled_from(INI_LINES)))
    return "\n".join(lines) + "\n"


SCENARIO_TEXTS = st.sampled_from(list(SAMPLE_KEYS)).flatmap(
    lambda sample: ini_texts({"scenario": {"sample": (sample,), **SAMPLE_KEYS[sample], **SCENARIO_KEYS}})
)


class TestScenario:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(config=ini_texts(CONFIG_SECTIONS), scenario=SCENARIO_TEXTS)
    @example(config="", scenario="[scenario]\nsample = stack\nstack_file = missing.json\n")
    def test_only_tubeloss_errors_escape(self, drawn_dir, config, scenario):
        (drawn_dir / "stack.json").write_text(json.dumps([{"kind": "limp-mass", "surface_density": 0.5}]))
        (drawn_dir / "tube.ini").write_text(config)
        (drawn_dir / "scenario.ini").write_text(scenario)
        loaders = (load_config, lambda path: load_scenario(path, GEOMETRY, AIR))
        for name, loader, path in zip(("load_config", "load_scenario"), loaders, ("tube.ini", "scenario.ini")):
            try:
                loader(drawn_dir / path)
            except TubelossError as exc:
                # the share of each outcome shows with pytest --hypothesis-show-statistics
                message = re.sub(r"'[^']*'|-?\d[\w.+-]*", "_", str(exc).split(": ", 1)[-1])
                event(f"{name}: {message[:60]}")
            else:
                event(f"{name}: read")

    def test_a_missing_stack_file_is_named_relative_to_the_scenario(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs").mkdir()
        path = os.path.join("runs", "scenario.ini")
        (tmp_path / path).write_text("[scenario]\nsample = stack\nstack_file = missing.json\n")
        missing = os.path.join("runs", "missing.json")
        with pytest.raises(InputFormatError, match=f"^{re.escape(missing)}: stack file not found or unreadable$"):
            load_scenario(path, GEOMETRY, AIR)

    def test_load_limp_mass(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(
            "[scenario]\nsample = limp-mass\nsurface_density = 1.135\n"
            "termination = anechoic\nsnr_db = 40\nseed = 7\n"
            "f_min = 100\nf_max = 2000\nf_step = 10\n"
        )
        scenario, grid = load_scenario(path, GEOMETRY, AIR)
        assert scenario.sample[0].surface_density == 1.135
        assert scenario.snr_db == 40.0
        assert scenario.seed == 7
        assert scenario.termination_ratio == 0j
        assert len(grid) == 191

    def test_load_stack_reference(self, tmp_path):
        stack = tmp_path / "stack.json"
        stack.write_text(json.dumps([{"kind": "limp-mass", "surface_density": 0.5}]))
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nsample = stack\nstack_file = stack.json\n")
        scenario, _ = load_scenario(path, GEOMETRY, AIR)
        assert scenario.sample[0].surface_density == 0.5

    def test_complex_termination(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nsample = identity\ntermination = 0.2+0.1j\n")
        scenario, _ = load_scenario(path, GEOMETRY, AIR)
        assert scenario.termination_ratio == pytest.approx(0.2 + 0.1j)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("termination = 0.2+0.1i", "bad termination: '0.2+0.1i'"),
            ("incident_amplitude = x", "bad incident amplitude: 'x'"),
            # an empty stack file name is named with the scenario that holds it
            ("sample = stack\nstack_file =", "stack path is empty"),
        ],
        ids=["termination", "incident-amplitude", "empty-stack-file"],
    )
    def test_a_value_a_key_parser_words_itself_names_the_scenario(self, tmp_path, monkeypatch, line, message):
        monkeypatch.chdir(tmp_path)
        with open("s.ini", "w") as handle:
            handle.write(f"[scenario]\n{line}\n")
        with pytest.raises(InputFormatError) as caught:
            load_scenario("s.ini", GEOMETRY, AIR)
        assert (str(caught.value), caught.value.path) == (f"s.ini: {message}", "s.ini")

    def test_bad_sample_kind(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nsample = foam\n")
        with pytest.raises(InputFormatError):
            load_scenario(path, GEOMETRY, AIR)


class TestRecordErrors:
    """``_record_errors``: the one guard that turns a bad input record into an input error."""

    @pytest.mark.parametrize(
        "error, text",
        [
            (KeyError("density"), "'density'"),
            (TypeError("float() argument must be a string or a real number"), None),
            (ValueError("could not convert string to float: 'x'"), None),
            (OverflowError("int too large to convert to float"), None),
            (configparser.InterpolationSyntaxError("seed", "scenario", "'%' must be followed by '%'"), None),
        ],
        ids=["KeyError", "TypeError", "ValueError", "OverflowError", "configparser.Error"],
    )
    def test_each_record_error_becomes_an_input_error_naming_the_record(self, error, text):
        with pytest.raises(InputFormatError) as caught:
            with io_files._record_errors("bad thing #3", "things.json", 7):
                raise error
        assert str(caught.value) == f"things.json:7: bad thing #3: {text or error}"
        assert (caught.value.path, caught.value.line, caught.value.__cause__) == ("things.json", 7, error)

    def test_an_input_error_that_names_no_file_is_given_the_records(self):
        error = InputFormatError("bad termination: 'x'")
        with pytest.raises(InputFormatError) as caught:
            with io_files._record_errors("bad scenario", "s.ini", 4):
                raise error
        assert str(caught.value) == "s.ini:4: bad termination: 'x'"
        assert (caught.value.path, caught.value.line, caught.value.__cause__) == ("s.ini", 4, error)

    @pytest.mark.parametrize(
        "error", [InputFormatError("missing [tube] section", path="tube.ini"), RuntimeError("x"), MemoryError()]
    )
    def test_an_input_error_and_any_other_error_pass_unchanged(self, error):
        with pytest.raises(type(error)) as caught:
            with io_files._record_errors("bad config", "other.ini"):
                raise error
        assert caught.value is error


def test_band_from_nominal_accepts_csv_formatting():
    # values formatted with %g survive the nominal lookup
    for nominal in (100.0, 3150.0, 5000.0):
        assert band_from_nominal(float(format(nominal, "g"))).nominal == nominal


@pytest.mark.parametrize(
    "reader",
    [
        read_mic_spectra,
        read_band_csv,
        load_stack,
        load_materials,
        load_config,
        lambda path: load_scenario(path, GEOMETRY, AIR),
    ],
    ids=["mic-spectra", "band-csv", "stack", "materials", "config", "scenario"],
)
def test_a_byte_that_is_not_utf8_names_the_file(tmp_path, reader):
    path = tmp_path / "input.txt"
    path.write_bytes(MIC_SPECTRA_MAGIC.encode() + b"\n# J\xfcrgen's sheet\n")
    with pytest.raises(InputFormatError, match=r"input\.txt: not UTF-8 text: invalid start byte$"):
        reader(path)
