"""The command-line contract over a fixed corpus of runs (see ``cli_corpus.py``)."""
import configparser
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tubeloss
from tubeloss.io_files import _CONFIG_KEYS, _LAYER_KEYS, _MATERIAL_KEYS, _SAMPLE_KEYS, _SCENARIO_KEYS, read_band_csv

from cli_corpus import CONFIG, INPUTS, USAGE_ERRORS, digests, inside, manifest, run_corpus, run_one

# mic-spectra files the corpus synthesises and the stl runs read
SPECTRA = ("run1.csv", "anechoic.csv")

OPTIONS = (
    "--output", "-o", "--config", "--band-mode", "--rep-mode", "--masslaw-constant", "--seed",
    "--f-min", "--f-max", "--f-step", "--band-csv", "--narrowband-csv",
    "--materials", "--before", "--after", "--stack",
)
VALUES = (*INPUTS, *SPECTRA, "100", "1000", "inf", "nan", "-1", "0", "power", "db", "paper")
TOKENS = ("bands", "synth", "stl", "masslaw", "il", "stack", *OPTIONS, *VALUES)

# The shortest valid command line of each command. Random tokens alone almost never get
# past the parser, so half the drawn command lines start with one of these and add
# option/value pairs, which reach each command's own checks.
HEADS = (
    ("bands",),
    ("synth", "limp.ini", "--config", "tube.ini", "--output", "run1.csv"),
    ("stl", "run1.csv", "--config", "tube.ini"),
    ("masslaw", "--materials", "materials.json"),
    ("il", "--before", "before.csv", "--after", "after.csv"),
    ("stack", "--stack", "layers.json"),
)
MAX_ARGV = 8


def _head_and_pairs(head):
    pairs = st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES))
    return st.lists(pairs, max_size=(MAX_ARGV - len(head)) // 2).map(
        lambda drawn: [*head, *(token for pair in drawn for token in pair)]
    )


ARGV = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=MAX_ARGV),
    st.sampled_from(HEADS).flatmap(_head_and_pairs),
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


@pytest.fixture(scope="module")
def runs(corpus_dir):
    return run_corpus(corpus_dir)


def test_every_run_keeps_the_cli_contract(runs):
    for run in runs:
        where = f"tubeloss {shlex.join(run.argv)}"
        assert run.escaped is None, f"{where}: {run.escaped}"
        assert run.code in (0, 2, 3), where
        lines = run.stderr.splitlines()
        assert all(line.startswith(("warning: ", "error: ")) for line in lines), (where, lines)
        if run.code != 0:
            assert len(lines) == 1 and lines[0].startswith("error: "), (where, lines)


def test_singular_synth_exits_3_and_infinite_range_exits_2(runs):
    codes = {run.argv: run.code for run in runs}
    assert codes[("synth", "singular.ini", "--config", "tube.ini", "--output", "singular.csv")] == 3
    assert codes[("bands", "--f-max", "inf")] == 2


def test_edited_mic_spectra_read_like_the_original(runs, corpus_dir):
    def narrowband(name):
        return json.loads((corpus_dir / name).read_text())["narrowband"]

    original = narrowband("stl-zero-downstream.json")
    assert narrowband("stl-crlf.json") == original
    assert narrowband("stl-commented.json") == original
    assert narrowband("stl-cr.json") == original
    (bad,) = [run for run in runs if run.argv[1:2] == ("bad-rows.csv",)]
    assert bad.stderr.startswith("error: bad-rows.csv:9: bad number: "), bad.stderr


def test_a_bad_value_or_byte_names_its_file(runs):
    names = ("nan.csv", "latin1.csv", "badf.csv", "dec.csv", "gapped-nan.csv", "whitespace-row.csv")
    stderr = {run.argv[1]: run.stderr for run in runs if len(run.argv) > 1 and run.argv[1] in names}
    stderr.update((run.argv[2], run.stderr) for run in runs if run.argv[:2] == ("il", "--before"))
    assert stderr["nan.csv"] == "error: nan.csv:12: spectrum values must be finite\n"
    assert stderr["latin1.csv"] == "error: latin1.csv: not UTF-8 text: invalid start byte\n"
    assert stderr["badf.csv"] == "error: badf.csv:10: bad frequency column: frequencies must be finite\n"
    assert stderr["dec.csv"] == (
        "error: dec.csv:11: bad frequency column: frequencies must be strictly increasing\n"
    )
    # the blank and comment lines before the bad row count toward its line number
    assert stderr["gapped-nan.csv"] == (
        "error: gapped-nan.csv:14: bad frequency column: frequencies must be finite\n"
    )
    assert stderr["whitespace-row.csv"] == "error: whitespace-row.csv:10: expected 9 numeric columns, got 1\n"
    assert stderr["bad-coverage.csv"] == "error: bad-coverage.csv: table 'L_r0': coverage must lie in [0, 1]\n"
    assert stderr["inf-level.csv"] == "error: inf-level.csv: table 'L_r0': infinite level in bands [630.0] Hz\n"
    # two finite levels whose difference overflows: both files are named
    assert stderr["huge-before.csv"] == (
        "error: huge-before.csv minus huge-after.csv: level difference overflows in bands [630.0] Hz\n"
    )


def test_json_past_the_float_range_or_the_nesting_limit_names_its_file(runs):
    stderr = {run.argv[:3]: run.stderr for run in runs}
    int_too_large = "int too large to convert to float\n"
    too_deep = "invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string\n"
    assert stderr["stack", "--stack", "huge-layer.json"] == f"error: huge-layer.json: bad layer #1: {int_too_large}"
    assert stderr["stack", "--stack", "huge-entry.json"] == f"error: huge-entry.json: bad layer #1: {int_too_large}"
    assert stderr["masslaw", "--materials", "huge-thickness.json"] == (
        f"error: huge-thickness.json: bad material #1: {int_too_large}"
    )
    assert stderr["stack", "--stack", "digits.json"].startswith(
        "error: digits.json: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"
    )
    assert stderr["stack", "--stack", "deep.json"] == f"error: deep.json: {too_deep}"
    assert stderr["masslaw", "--materials", "deep.json"] == f"error: deep.json: {too_deep}"


def test_a_subnormal_denominator_drops_its_bins_without_warnings(runs, corpus_dir):
    (run,) = [run for run in runs if run.argv[:3] == ("stack", "--stack", "subnormal.json")]
    assert (run.code, run.stderr) == (0, "")
    report = json.loads((corpus_dir / "stack-subnormal.json").read_text())
    assert report["warnings"] == []
    assert set(report["narrowband"]["stl_db"]) == set(report["bands"]["values_db"]) == {None}


def test_an_air_gap_whose_phase_overflows_drops_its_bins_without_warnings(runs, corpus_dir):
    (run,) = [run for run in runs if run.argv[:3] == ("stack", "--stack", "long-gap.json")]
    assert (run.code, run.stderr) == (0, "")
    report = json.loads((corpus_dir / "stack-long-gap.json").read_text())
    assert report["warnings"] == []
    assert set(report["narrowband"]["stl_db"]) == set(report["bands"]["values_db"]) == {None}


def test_a_transmission_whose_square_overflows_reads_finite(runs, corpus_dir):
    (run,) = [run for run in runs if run.argv[:3] == ("stack", "--stack", "huge-transmission.json")]
    assert (run.code, run.stderr) == (0, "")
    report = json.loads((corpus_dir / "stack-huge-transmission.json").read_text())
    assert report["warnings"] == []
    # T = 2 z / 1e-200 in every bin, so STL = -20 log10 |T| in every bin and band
    assert set(report["narrowband"]["stl_db"]) == set(report["bands"]["values_db"]) == {-4058.34}


def test_a_line_break_in_a_message_is_escaped(runs):
    stderr = {run.argv: run.stderr for run in runs}
    assert stderr["stack", "--stack", "newline-kind.json"] == (
        "error: newline-kind.json: bad layer #1: unknown kind 'a\\nb'\n"
    )
    assert stderr["masslaw", "--materials", "newline-name.json", "--band-csv", "newline-name.csv"] == (
        "error: table name 'a\\nb' may not contain commas or newlines\n"
    )
    warning = stderr["masslaw", "--materials", "newline-name.json", "--output", "masslaw-newline-name.json"]
    assert warning.startswith("warning: a\\nb: mass-law prediction below validity (negative) in bands ")
    assert warning.count("\n") == 1


def test_a_missing_stack_file_names_it_as_the_scenario_does(runs):
    (run,) = [run for run in runs if run.argv[:2] == ("synth", "missing-stack.ini")]
    assert (run.code, run.stderr) == (2, "error: missing.json: stack file not found or unreadable\n")


def test_a_nan_termination_or_incident_amplitude_names_the_scenario(runs):
    outcome = {run.argv[1]: (run.code, run.stderr) for run in runs if run.argv[0] == "synth"}
    assert outcome["nan-termination.ini"] == (
        2, "error: nan-termination.ini: bad scenario: termination ratio magnitude must be below 1\n"
    )
    assert outcome["nan-incident.ini"] == (
        2, "error: nan-incident.ini: bad scenario: incident amplitude must be finite\n"
    )


def test_a_non_finite_layer_parameter_is_a_bad_layer_or_a_bad_scenario(runs, corpus_dir):
    outcome = {run.argv[1:3]: (run.code, run.stderr) for run in runs}
    assert outcome["nan-mass.ini", "--config"] == (
        2, "error: nan-mass.ini: bad scenario: layer surface_density must be finite\n"
    )
    for name, message in (
        ("1e400-mass.json", "bad layer #1: layer surface_density must be finite"),
        ("nan-mass.json", "bad layer #1: layer surface_density must be finite"),
        ("infinite-gap.json", "bad layer #2: layer thickness must be finite"),
        ("nan-entry.json", "bad layer #1: layer t12 must be finite"),
    ):
        assert outcome["--stack", name] == (2, f"error: {name}: {message}\n")
        assert not (corpus_dir / f"stack-{name}").exists()


def test_a_value_past_the_float_range_is_a_bad_material_or_a_bad_scenario(runs):
    outcome = {run.argv[1:3]: (run.code, run.stderr) for run in runs}
    for name, message in (
        ("inf-thickness.json", "bad material #1: sheet: thickness must be positive and finite"),
        ("inf-mass.json", "bad material #1: sheet: surface density must be positive and finite"),
    ):
        assert outcome["--materials", name] == (2, f"error: {name}: {message}\n")
    assert outcome["loud-noise.ini", "--config"] == (
        2, "error: loud-noise.ini: bad scenario: noise amplitude at snr_db = -7000 must be finite\n"
    )


def test_an_undeclared_section_or_key_names_it_and_the_closest_declared_one(runs):
    outcome = {run.argv: (run.code, run.stderr) for run in runs}
    for argv, message in (
        (
            ("stack", "--stack", "layers.json", "--config", "sound-sped.ini", "--f-max", "1000"),
            "sound-sped.ini: bad config: [air] takes no key 'sound_sped' (did you mean 'sound_speed'?)",
        ),
        (
            ("stack", "--stack", "layers.json", "--config", "capital-air.ini", "--f-max", "1000"),
            "capital-air.ini: bad config: a config takes no section 'Air' (did you mean 'air'?)",
        ),
        (
            ("synth", "snr-bd.ini", "--config", "tube.ini", "--seed", "7", "--output", "snr-bd.csv"),
            "snr-bd.ini: bad scenario: [scenario] with sample = limp-mass takes no key 'snr_bd' (did you mean 'snr_db'?)",
        ),
        (
            ("synth", "gap-mass.ini", "--config", "tube.ini", "--output", "gap-mass.csv"),
            "gap-mass.ini: bad scenario: [scenario] with sample = air-gap takes no key 'surface_density'",
        ),
        (
            ("stack", "--stack", "gap-extras.json", "--f-max", "1000"),
            "gap-extras.json: bad layer #1: kind 'air-gap' takes no key 'surface_density'",
        ),
        (
            ("masslaw", "--materials", "bulk-densty.json"),
            "bulk-densty.json: bad material #1: a material takes no key 'bulk_densty' (did you mean 'bulk_density'?)",
        ),
    ):
        assert outcome[argv] == (2, f"error: {message}\n")


def test_repetitions_on_two_grids_name_the_second_file(runs):
    (run,) = [run for run in runs if run.argv[:3] == ("stl", "run1.csv", "run5.csv")]
    assert (run.code, run.stderr) == (2, "error: input 'run5.csv': operands use different frequency grids\n")


def test_a_nul_byte_in_a_stack_file_name_is_an_unreadable_file_printed_escaped(runs):
    (run,) = [run for run in runs if run.argv[:2] == ("synth", "nul-stack.ini")]
    assert (run.code, run.stderr) == (2, "error: a\\x00b.json: stack file not found or unreadable\n")


def test_no_surviving_bin_says_how_many_were_singular(runs):
    outcome = {run.argv[1]: (run.code, run.stderr) for run in runs if run.argv[0] == "stl" and run.argv[1:]}
    assert outcome["blind.csv"] == (3, "error: no valid frequency bin in any input (all bins singular)\n")
    # the silent file holds no blind spot: the first one is at 2145 Hz
    assert outcome["silent.csv"] == (
        3, "error: no valid frequency bin in any input (0 of 3 bins singular, the rest numerically invalid)\n"
    )
    # the 1e300 Pa file is the limp mass at 1e300 times the scale, and T and R do not depend on it
    assert outcome["huge-incident.csv"] == (0, "")


def test_a_huge_finite_pressure_reads_an_infinite_loss_as_invalid_without_warnings(runs, corpus_dir):
    (run,) = [run for run in runs if run.argv[1:2] == ("huge-pressure.csv",)]
    assert (run.code, run.stderr) == (0, "")
    report = json.loads((corpus_dir / "stl-huge-pressure.json").read_text())
    assert report["warnings"] == []
    # 900 Hz holds the 1e200 Pa pressure; 1000 Hz is the sheet's own silent downstream pair
    assert report["narrowband"]["valid"] == [False, False, True]
    # the 900 Hz bin is kept: p1 alone sets both upstream waves, of one size, so |R|^2 = |B/A|^2 reads 1.0
    assert report["narrowband"]["reflectance"][0] == 1.0


def test_every_file_of_a_group_is_read_before_any_is_analysed(runs):
    stderr = {run.argv[1:-2]: run.stderr for run in runs if run.argv[:2] == ("stl", "overflowing.csv")}
    assert stderr["overflowing.csv",] == "error: overflowing.csv: amplitudes must be finite at every retained frequency\n"
    assert stderr["overflowing.csv", "bad-rows.csv"].startswith("error: bad-rows.csv:9: bad number: ")


def test_each_file_of_a_batch_warns_in_file_order(runs):
    (run,) = [run for run in runs if run.argv[:4] == ("stl", "wide1.csv", "wide2.csv", "wide3.csv")]
    lines = run.stderr.splitlines()
    assert run.code == 0 and len(lines) == 10
    for i, name in enumerate(("wide1.csv", "wide2.csv", "wide3.csv")):
        anechoic, upstream, downstream = lines[3 * i : 3 * i + 3]
        assert anechoic.startswith("warning: anechoic assumption violated: ")
        assert upstream == f"warning: {name}: upstream pair singular at [2145.0, 4290.0] Hz"
        assert downstream == f"warning: {name}: downstream pair singular at [2145.0, 4290.0] Hz"
    assert lines[9].startswith("warning: 4085 bins above the plane-wave cutoff")


def test_a_table_name_the_band_csv_reader_would_misread_writes_nothing(runs, corpus_dir):
    (run,) = [run for run in runs if run.argv[:3] == ("masslaw", "--materials", "coverage-names.json")]
    assert (run.code, run.stderr) == (2, "error: table name 'felt_coverage' may not end in '_coverage'\n")
    assert not (corpus_dir / "coverage-names.csv").exists()
    assert not (corpus_dir / "masslaw-coverage-names.json").exists()


def test_usage_errors_exit_2_with_one_error_line(runs):
    usage_runs = [run for run in runs if run.argv in USAGE_ERRORS]
    assert len(usage_runs) == len(USAGE_ERRORS)
    for run in usage_runs:
        where = f"tubeloss {shlex.join(run.argv)}"
        assert run.escaped is None and run.code == 2, (where, run.escaped, run.code)
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: tubeloss"), (where, lines)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=ARGV)
def test_drawn_command_lines_keep_the_cli_contract(runs, corpus_dir, argv):
    # each command line runs on a fresh copy of the inputs, so no run sees another's outputs
    with tempfile.TemporaryDirectory() as scratch:
        for name in (*INPUTS, *SPECTRA):
            shutil.copy(corpus_dir / name, scratch)
        with inside(scratch):
            run = run_one(argv)
    test_every_run_keeps_the_cli_contract([run])


# numeric texts for the fields of a drawn input file: past the float range, at its edges,
# non-finite, zero, negative and ordinary
NUMBERS = ("1e308", "1e400", "-7000", "5e-324", "0", "-1", "nan", "inf", "1.135", "0.89", "40", "2000")
SCENARIO_FIELDS = (
    "surface_density", "termination", "incident_amplitude", "snr_db", "seed", "f_min", "f_max", "f_step",
)
MATERIAL_FIELDS = ("thickness_mm", "surface_density", "bulk_density")
# JSON spells the non-finite constants its own way
JSON_SPELLING = {"nan": "NaN", "inf": "Infinity"}


def _scenario_ini(fields) -> str:
    section = {"sample": "limp-mass", "surface_density": "1.135", "snr_db": "40", **fields}
    return "[scenario]\n" + "".join(f"{key} = {value}\n" for key, value in section.items())


def _materials_json(fields) -> str:
    record = {"thickness_mm": "0.89", "surface_density": "1.135", **fields}
    pairs = "".join(f', "{key}": {JSON_SPELLING.get(value, value)}' for key, value in record.items())
    return '[{"name": "sheet"' + pairs + "}]"


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON token {name}")


DRAWN_FILES = st.one_of(
    st.dictionaries(st.sampled_from(SCENARIO_FIELDS), st.sampled_from(NUMBERS)).map(
        lambda fields: ("synth", _scenario_ini(fields))
    ),
    st.dictionaries(st.sampled_from(MATERIAL_FIELDS), st.sampled_from(NUMBERS)).map(
        lambda fields: ("masslaw", _materials_json(fields))
    ),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(drawn=DRAWN_FILES)
def test_drawn_input_file_values_keep_the_cli_contract(drawn):
    command, text = drawn
    with tempfile.TemporaryDirectory() as scratch:
        with inside(scratch):
            if command == "synth":
                Path("tube.ini").write_text(CONFIG)
                Path("drawn.ini").write_text(text)
                run = run_one(["synth", "drawn.ini", "--config", "tube.ini", "--output", "drawn.csv"])
            else:
                Path("drawn.json").write_text(text)
                run = run_one(["masslaw", "--materials", "drawn.json"])
    test_every_run_keeps_the_cli_contract([run])
    if command == "masslaw" and run.code == 0:
        json.loads(run.stdout, parse_constant=_reject_constant)


# texts put into one pressure field of a mic-spectra file and one level of a band CSV: finite
# but huge, past the float range, non-finite, subnormal, and a 400-digit number
FIELD_TOKENS = ("1e160", "1e200", "1e308", "-1e308", "1e400", "inf", "-inf", "nan", "5e-324", "9" * 400)


def _short_id(token: str) -> str:
    return token if len(token) < 20 else f"{len(token)}-digits"


def _keeps_the_contract_without_numpy_warnings(run):
    test_every_run_keeps_the_cli_contract([run])
    assert not [line for line in run.stderr.splitlines() if "encountered in" in line], run.stderr


@pytest.mark.parametrize("token", FIELD_TOKENS, ids=_short_id)
def test_one_pressure_field_keeps_the_cli_contract(token, tmp_path):
    sheet = INPUTS["zero-downstream.csv"].replace("900,1.22062,", f"900,{token},")
    with inside(tmp_path):
        Path("tube.ini").write_text(CONFIG)
        Path("drawn.csv").write_text(sheet)
        run = run_one(["stl", "drawn.csv", "--config", "tube.ini"])
    _keeps_the_contract_without_numpy_warnings(run)


@pytest.mark.parametrize(
    "before, after",
    [*((token, "61.5") for token in FIELD_TOKENS), ("1e308", "-1e308")],
    ids=[*map(_short_id, FIELD_TOKENS), "overflowing-pair"],
)
def test_one_band_level_keeps_the_cli_contract(before, after, tmp_path):
    # the 630 Hz levels of the corpus tables, 72.5 dB before and 61.5 dB after, replaced
    with inside(tmp_path):
        Path("before.csv").write_text(INPUTS["before.csv"].replace("72.5", before))
        Path("after.csv").write_text(INPUTS["after.csv"].replace("61.5", after))
        run = run_one(["il", "--before", "before.csv", "--after", "after.csv"])
    _keeps_the_contract_without_numpy_warnings(run)
    if run.code == 0:
        json.loads(run.stdout, parse_constant=_reject_constant)


def _digest_changes(expected: dict, actual: dict) -> list[str]:
    """One line per run of either manifest whose exit code or an output's digest differs."""
    changes = []
    for argv in {**expected, **actual}:
        where = f"tubeloss {argv}"
        if argv not in expected:
            changes.append(f"{where}: not in the manifest")
        elif argv not in actual:
            changes.append(f"{where}: not run")
        else:
            old, new = expected[argv], actual[argv]
            changed = [key for key in ("exit", "stdout", "stderr") if old[key] != new[key]]
            files = {**old["files"], **new["files"]}
            changed += [name for name in files if old["files"].get(name) != new["files"].get(name)]
            if changed:
                changes.append(f"{where}: {', '.join(changed)} changed")
    return changes


def _require_the_manifest_of_its_class(actual: dict) -> None:
    path = manifest(actual["dispatch"])
    assert path.exists(), f"no manifest for numpy dispatch class {actual['dispatch']}: {path.name}"
    expected = json.loads(path.read_text())
    changes = _digest_changes(expected["runs"], actual["runs"])
    versions = (
        f"{path.name}: Python {expected['python']}, numpy {expected['numpy']}, {expected['dispatch']}; "
        f"this run: Python {actual['python']}, numpy {actual['numpy']}, {actual['dispatch']}"
    )
    assert not changes, "\n".join([*changes, versions])


def test_the_corpus_matches_its_committed_digests(runs, corpus_dir):
    _require_the_manifest_of_its_class(digests(corpus_dir, runs))


# numpy's own process-local switch: its AVX-512 kernels off, which changes the last bits of float64
# log10, power, exp and log, and so the CSVs of eight runs
WITHOUT_AVX512 = "AVX512_ICL AVX512_SPR X86_V4"


def test_the_corpus_matches_its_digests_with_numpy_avx512_kernels_off(tmp_path):
    paths = (Path(tubeloss.__file__).parents[1], Path(__file__).parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": WITHOUT_AVX512, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    script = "import json, sys, cli_corpus as c; print(json.dumps(c.digests(sys.argv[1], c.run_corpus(sys.argv[1]))))"
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    actual = json.loads(done.stdout)
    assert actual["dispatch"] != "X86_V4", "the switch left numpy's AVX-512 kernels on"
    _require_the_manifest_of_its_class(actual)


def test_two_runs_of_the_corpus_write_the_same_bytes(runs, corpus_dir, tmp_path):
    def contents(directory):
        return {str(p.relative_to(directory)): p.read_bytes() for p in directory.rglob("*") if p.is_file()}

    run_corpus(tmp_path)
    first, second = contents(corpus_dir), contents(tmp_path)
    assert sorted(first) == sorted(second)
    assert [name for name in first if first[name] != second[name]] == []


PROVENANCE = ["tool", "version", "command", "timestamp", "config_hash", "modes", "seed"]


@pytest.mark.parametrize(
    "report, band_csv, body, tables",
    [
        (
            "stl-db-power.json", "stl-db-power-bands.csv",
            ["inputs", "n_repetitions", "cutoff_hz", "narrowband", "bands"], ["stl_db"],
        ),
        ("masslaw-paper.json", "masslaw-paper.csv", ["constant_db", "materials"], ["sheet", "foil  thin"]),
        ("il.json", "il.csv", ["before", "after", "bands"], ["il_db"]),
        ("stack-power.json", "stack-power.csv", ["stack", "narrowband", "bands", "constituents"], ["stack_stl_db"]),
    ],
    ids=["stl", "masslaw", "il", "stack"],
)
def test_each_report_is_provenance_body_and_warnings_and_writes_its_band_csv(
    runs, corpus_dir, report, band_csv, body, tables
):
    assert list(json.loads((corpus_dir / report).read_text())) == [*PROVENANCE, *body, "warnings"]
    assert list(read_band_csv(corpus_dir / band_csv)) == tables


def test_a_failed_write_is_one_error_line_naming_the_path_as_given(runs, corpus_dir):
    stderr = {run.argv: run.stderr for run in runs}
    missing = "error: [Errno 2] No such file or directory: 'missing-dir/{}'\n"
    assert stderr["masslaw", "--materials", "materials.json", "--output", "missing-dir/report.json"] == (
        missing.format("report.json")
    )
    (narrow,) = [run for run in runs if "stl-narrow-fails.json" in run.argv]
    assert (narrow.code, narrow.stderr) == (2, missing.format("narrow.csv"))
    # the narrowband CSV is written first, so its failure leaves no band CSV and no report
    assert not (corpus_dir / "stl-narrow-fails-bands.csv").exists()
    assert not (corpus_dir / "stl-narrow-fails.json").exists()
    for argv in (("bands", "--output", ""), ("masslaw", "--materials", "materials.json", "--band-csv", "")):
        assert stderr[argv] == "error: output path is empty\n"


# Seeded mutations of the corpus's input files, one mutation per case, each run in-process as
# the corpus runs it. A case is (mutated file, command line).
STL_AND_STACK_RUNS = (
    *((name, ("stl", name, "--config", "tube.ini")) for name in ("zero-downstream.csv", "commented.csv", "crlf.csv")),
    ("tube.ini", ("stl", "zero-downstream.csv", "--config", "tube.ini")),
    *(
        (name, ("stack", "--stack", name, "--config", "tube.ini", "--f-min", "500", "--f-max", "1600"))
        for name in ("layers.json", "mixed.json", "twin-matrix.json")
    ),
    ("tube.ini", ("stack", "--stack", "layers.json", "--config", "tube.ini", "--f-min", "500", "--f-max", "1600")),
)
IL_MASSLAW_AND_SYNTH_RUNS = (
    *(
        (name, ("il", "--before", "before.csv", "--after", "after.csv", "--band-csv", "il.csv"))
        for name in ("before.csv", "after.csv")
    ),
    *(
        ("materials.json", ("masslaw", "--materials", "materials.json", "--masslaw-constant", constant))
        for constant in ("paper", "normal")
    ),
    *(
        (name, ("synth", name, "--config", "tube.ini", "--output", "synth.csv"))
        for name in ("limp.ini", "anechoic.ini")
    ),
)
MUTATED_RUNS = STL_AND_STACK_RUNS + IL_MASSLAW_AND_SYNTH_RUNS
MUTATION_FAMILIES = ("delete", "duplicate", "swap", "token", "insert", "truncate")
# texts swapped in for one token: past the float range, at its edges, non-finite, and no number
SWAP_TOKENS = ("1e308", "-1e308", "1e400", "5e-324", "nan", "inf", "-inf", "0", "-1", "[]", "null", "%", "9" * 400)
# characters put anywhere: separators, C0 and C1 controls, and characters that end a line for
# str.splitlines but not for a file
INSERTED_CHARS = (
    ",", ";", " ", "\t", "\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f", "\x85", "\u2028",
    "\r", "\n", "#", "=", '"', "[", "{", "\ufeff",
)
_TOKEN = re.compile(r'[^\s,=:\[\]{}"]+')
# the runs whose file declares its keys: a config, a scenario, a stack or a materials file
KEYED_RUNS = tuple((name, argv) for name, argv in MUTATED_RUNS if name.endswith((".ini", ".json")))
# every key that a table of the file formats declares
DECLARED_KEYS = {
    *(key for keys in _CONFIG_KEYS.values() for key in keys), *_SCENARIO_KEYS,
    *(key for keys in _SAMPLE_KEYS.values() for key in keys),
    "kind", *(key for keys in _LAYER_KEYS.values() for key in keys), *_MATERIAL_KEYS,
}


def _mutated(name: str, text: str, rng: random.Random) -> tuple[str, str, None]:
    """One mutation of ``text`` drawn from ``rng``: its family, the mutated text and None."""
    family = rng.choice(MUTATION_FAMILIES)
    lines = text.splitlines(keepends=True)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if family == "delete":
        del lines[i]
    elif family == "duplicate":
        lines.insert(i, lines[j])
    elif family == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif family == "token":
        token = rng.choice(list(_TOKEN.finditer(text)))
        return family, text[: token.start()] + rng.choice(SWAP_TOKENS) + text[token.end() :], None
    elif family == "insert":
        k = rng.randrange(len(text) + 1)
        return family, text[:k] + rng.choice(INSERTED_CHARS) + text[k:], None
    else:
        return family, text[: rng.randrange(len(text))], None
    return family, "".join(lines), None


def _near_misses(key: str) -> list[str]:
    """``key`` with one character dropped, doubled or swapped with the next, where no table declares the result."""
    drops = {key[:i] + key[i + 1 :] for i in range(len(key))}
    doubles = {key[:i] + key[i] + key[i:] for i in range(len(key))}
    swaps = {key[:i] + key[i + 1] + key[i] + key[i + 2 :] for i in range(len(key) - 1)}
    return sorted((drops | doubles | swaps) - DECLARED_KEYS - {""})


def _key_mutated(name: str, text: str, rng: random.Random) -> tuple[str, str, str]:
    """A key of one record or section of ``text`` renamed to a near miss, or a key it does not declare moved in.

    Returns the family, the mutated text and the key the file now holds that its table does not declare. A
    layer's kind and a scenario's sample are never renamed: they choose the table, so renaming one is an
    unknown kind.
    """
    if name.endswith(".json"):
        records = json.loads(text)
        i = rng.randrange(len(records))
        record = records[i]
        declared = {"kind", *_LAYER_KEYS[record["kind"]]} if "kind" in record else set(_MATERIAL_KEYS)
        present = [key for key in record if key != "kind"]
    else:
        parser = configparser.ConfigParser()
        parser.read_string(text)
        section = rng.choice(parser.sections())
        if section == "scenario":
            declared = {*_SCENARIO_KEYS, *_SAMPLE_KEYS[parser[section].get("sample", "identity")]}
        else:
            declared = set(_CONFIG_KEYS[section])
        present = [key for key in parser[section] if key != "sample"]
    family = rng.choice(("rename", "foreign")) if present else "foreign"  # an identity layer has no key to rename
    old = rng.choice(present) if family == "rename" else None
    new = rng.choice(_near_misses(old)) if old else rng.choice(sorted(DECLARED_KEYS - declared))
    if name.endswith(".json"):
        renamed = {new if key == old else key: value for key, value in record.items()}
        records[i] = renamed if old else {**record, new: 1.0}
        return family, json.dumps(records, indent=1), new
    if old:
        return family, re.sub(rf"^{old} =", f"{new} =", text, count=1, flags=re.M), new
    return family, text.replace(f"[{section}]\n", f"[{section}]\n{new} = 1\n", 1), new


# Each generator draws its cases from its own runs with its own mutation, after the cases of the ones
# before it, so runs or generators added later only add cases: (runs, seed, cases, mutation). The
# cases of a generator of line and token mutations include every token swap of the config.
MUTATION_DRAWS = (
    (STL_AND_STACK_RUNS, 2611, 1800, _mutated),
    (IL_MASSLAW_AND_SYNTH_RUNS, 2903, 700, _mutated),
    (KEYED_RUNS, 3109, 300, _key_mutated),
)
MUTATION_CASES = sum(cases for _, _, cases, _ in MUTATION_DRAWS)


def _mutation_cases():
    """``MUTATION_CASES`` (file, command line, family, mutated text, undeclared key) cases, the same on every run.

    Every token swap of the config comes first, under each run of a line and token generator that mutates it;
    the rest are drawn. The undeclared key is None but for a key mutation.
    """
    texts = {name: INPUTS[name] for name, _ in MUTATED_RUNS}
    for name in texts:
        if name.endswith(".json"):  # one value to a line, so that line mutations reach inside its records
            texts[name] = json.dumps(json.loads(texts[name]), indent=1)
    for runs, seed, cases, mutation in MUTATION_DRAWS:
        swaps = [
            (name, argv, "token", CONFIG[: token.start()] + swap + CONFIG[token.end() :], None)
            for name, argv in runs
            if name == "tube.ini" and mutation is _mutated
            for token in _TOKEN.finditer(CONFIG)
            for swap in SWAP_TOKENS
        ]
        yield from swaps
        rng = random.Random(seed)
        for _ in range(cases - len(swaps)):
            name, argv = rng.choice(runs)
            yield (name, argv, *mutation(name, texts[name], rng))


def test_mutated_input_files_keep_the_cli_contract(tmp_path):
    with inside(tmp_path):
        for name, _ in MUTATED_RUNS:
            Path(name).write_text(INPUTS[name])
        broken = []
        for name, argv, family, text, key in _mutation_cases():
            Path(name).write_bytes(text.encode())
            run = run_one(argv)
            Path(name).write_text(INPUTS[name])
            lines = run.stderr.splitlines()
            kept = run.escaped is None and run.code in (0, 2, 3) and "encountered in" not in run.stdout + run.stderr
            kept = kept and (
                all(line.startswith("warning: ") for line in lines)
                if run.code == 0
                else len(lines) == 1 and lines[0].startswith("error: ")
            )
            # a key no table declares is an input error that names it
            kept = kept and (key is None or (run.code == 2 and f"'{key}'" in run.stderr))
            if not kept:
                broken.append(f"{family} in {name}, {text!r}: tubeloss {shlex.join(argv)}: {run}")
    assert not broken, f"{len(broken)} of {MUTATION_CASES} cases:\n" + "\n".join(broken[:10])
