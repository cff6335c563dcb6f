"""Byte-for-byte comparison of CLI output with the files in tests/golden.

The README promises that identical invocations produce byte-identical
output; these cases hold every subcommand to the bytes recorded in
tests/golden (see tests/golden/regenerate.py for how they were made).
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).resolve().parent / "golden" / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def first_difference(expected, got):
    """Line number and the two lines where the outputs first differ."""
    exp_lines = expected.decode().splitlines(keepends=True)
    got_lines = got.decode().splitlines(keepends=True)
    for i, (a, b) in enumerate(zip(exp_lines, got_lines), start=1):
        if a != b:
            return f"line {i}:\n  golden: {a!r}\n  got:    {b!r}"
    i = min(len(exp_lines), len(got_lines)) + 1
    return f"line {i}: golden has {len(exp_lines)} lines, got {len(got_lines)}"


@pytest.mark.parametrize("name,argv,ext", golden.CASES, ids=[c[0] for c in golden.CASES])
def test_cli_output_matches_golden(name, argv, ext):
    code, files = golden.run_case(argv)
    assert code == 0
    paths = golden.golden_paths(name, ext)
    for key, data in files.items():
        expected = paths[key].read_bytes()
        assert data == expected, f"{paths[key].name} differs at {first_difference(expected, data)}"


@pytest.mark.parametrize("name,argv,code", golden.TEXT_CASES,
                         ids=[c[0] for c in golden.TEXT_CASES])
def test_help_and_rejection_texts_match_golden(name, argv, code):
    """--help, each <command> --help, two argparse rejections and three
    rejections the commands make, at 80 columns: the subcommand parsers
    fill their arguments on first use, and these texts show whether that
    moved a byte."""
    data = golden.text_case_bytes(argv, code)
    expected = (golden.GOLDEN / f"{name}.txt").read_bytes()
    assert data == expected, f"{name}.txt differs at {first_difference(expected, data)}"


def test_series_engine_past_the_cli_cap_matches_golden():
    """Every kappa^m coefficient through order 12, as repr, for both
    branches and the gap: the exact engine beyond the orders the CLI shows."""
    expected = golden.SERIES_ENGINE_FILE.read_bytes()
    got = golden.series_engine_doc()
    assert got == expected, f"{golden.SERIES_ENGINE_FILE.name} differs at {first_difference(expected, got)}"



def test_one_parser_serves_every_call():
    """main builds its parser once per process: a rejected command line
    between runs leaves the next outputs at their golden bytes."""
    cases = {name: (argv, ext) for name, argv, ext in golden.CASES}
    cli = golden.cli

    def assert_golden(name):
        argv, ext = cases[name]
        code, files = golden.run_case(argv)
        assert code == 0
        assert files["stdout"] == golden.golden_paths(name, ext)["stdout"].read_bytes(), name

    cli._parser.cache_clear()
    assert_golden("eigen_shoot")
    with pytest.raises(SystemExit):  # argparse rejects the unknown method
        cli.main(["eigen", "--n", "2", "--K", "1", "--D", "1", "--method", "ritz"])
    assert_golden("series")
    assert_golden("eigen_shoot")
    assert cli._parser.cache_info().misses == 1
