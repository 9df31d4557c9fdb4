"""The command-line contract over a fixed corpus of runs (see ``cli_corpus.py``)."""
import json
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from cli_corpus import INPUTS, USAGE_ERRORS, inside, run_corpus, run_one

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
        where = f"tubeloss {' '.join(run.argv)}"
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
    stderr.update((run.argv[2], run.stderr) for run in runs if run.argv[1:3] == ("--before", "bad-coverage.csv"))
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


def test_a_table_name_the_band_csv_reader_would_misread_writes_nothing(runs, corpus_dir):
    (run,) = [run for run in runs if run.argv[:3] == ("masslaw", "--materials", "coverage-names.json")]
    assert (run.code, run.stderr) == (2, "error: table name 'felt_coverage' may not end in '_coverage'\n")
    assert not (corpus_dir / "coverage-names.csv").exists()
    assert not (corpus_dir / "masslaw-coverage-names.json").exists()


def test_usage_errors_exit_2_with_one_error_line(runs):
    usage_runs = [run for run in runs if run.argv in USAGE_ERRORS]
    assert len(usage_runs) == len(USAGE_ERRORS)
    for run in usage_runs:
        where = f"tubeloss {' '.join(run.argv)}"
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
