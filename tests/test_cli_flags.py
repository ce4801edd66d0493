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


@pytest.mark.parametrize("items", ["0", "1", "-5"])
def test_loadgen_too_few_items_is_a_usage_error(items):
    # -n 1 passes the flag's own check but not the default (uniform)
    # generator's; it must not end in a traceback either
    import subprocess
    import sys

    src = pathlib.Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "loadgen", "--port", "1",
         "-n", items],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == [errors[0]] and "argument -n/--items" in errors[0]
