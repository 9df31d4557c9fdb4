"""The command-line contract over a fixed corpus of runs (see ``cli_corpus.py``)."""
import pytest

from cli_corpus import run_corpus


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("corpus"))


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
