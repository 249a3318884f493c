"""The command runner and the diff of scripts/cli_diff.py."""

import os
import sys

_SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
sys.path.insert(0, _SCRIPTS)
import cli_diff  # noqa: E402


def test_run_command_is_reproducible_and_records_the_exit_code():
    command = "affine --type A --rank 1 --level 0 --horizon 2"
    first = cli_diff.run_command(cli_diff.ROOT, command)
    assert first[-1] == "[exit 0]"
    assert first[0].startswith("# looplab ")
    assert cli_diff.run_command(cli_diff.ROOT, command) == first


def test_usage_error_shows_on_stderr_and_exit_code():
    lines = cli_diff.run_command(cli_diff.ROOT, "frobnicate")
    assert lines[-1] == "[exit 1]"
    assert any(line.startswith("[stderr] usage error") for line in lines)


def test_diff_is_empty_only_for_equal_output():
    assert cli_diff.diff("x", ["a", "b"], ["a", "b"]) == []
    lines = cli_diff.diff("x", ["a", "1.0"], ["a", "2.0"])
    assert "-1.0" in lines and "+2.0" in lines
