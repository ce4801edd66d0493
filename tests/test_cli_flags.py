"""Bad numeric CLI flags end in one argparse usage error (exit 2)."""

import pathlib

import pytest

from repro.cli import main

TRACE = str(
    pathlib.Path(__file__).parent.parent
    / "examples" / "traces" / "uniform_1k.jsonl"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--shards", "0"],
        ["serve", "--max-queue", "0"],
        ["serve", "--batch-max", "0"],
        ["serve", "--batch-delay", "-1"],
        ["serve", "--capacity", "0"],
        ["replay", TRACE, "--capacity", "0"],
        ["pack", "trace.csv", "--capacity", "-0.5"],
        ["replay", TRACE, "--trace-capacity", "-3"],
        ["replay", TRACE, "--limit", "-5"],
        ["replay", TRACE, "--checkpoint-every", "-1"],
        ["replay", TRACE, "--capacity", "nan"],
        ["serve", "--shards", "two"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_bad_numeric_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    assert f"argument {argv[-2]}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", TRACE, "--limit", "0", "--no-ledger"],
        ["replay", TRACE, "--checkpoint-every", "0", "--no-ledger"],
        ["replay", TRACE, "--capacity", "1.5", "--limit", "10",
         "--no-ledger"],
    ],
)
def test_zero_and_positive_values_still_parse(argv, capsys):
    assert main(argv) == 0
    assert "cost=" in capsys.readouterr().out
