"""Option handling of the serve harness subcommands.

``--help`` exits 0.  A bad value exits 2 with a message before any
journal, server or socket starts; ``serve-soak`` keeps exit 1 for a
wrong answer or a failed recovery.
"""

from __future__ import annotations

import pytest

from repro.harness.servecli import bench_serve_main, serve_main, serve_soak_main


@pytest.mark.parametrize("main", [serve_main, bench_serve_main, serve_soak_main])
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_exits_zero(main, flag, capsys) -> None:
    assert main([flag]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--port", "abc"], "--port needs a number, got 'abc'"),
        (["--port", "70000"], "--port must be in 0..65535, got 70000"),
        (["--request-deadline", "x"], "--request-deadline needs a number"),
        (["--idle-timeout", "soon"], "--idle-timeout needs a number"),
        (["--max-inflight", "0"], "max_inflight must be at least 1"),
        (["--max-pending", "-1"], "max_pending must be non-negative"),
        (["--no-fsync"], "unknown option '--no-fsync'"),
    ],
)
def test_serve_rejects_bad_values_before_starting(
    argv, message, tmp_path, capsys
) -> None:
    journal = tmp_path / "journal"
    assert serve_main(["--journal-dir", str(journal), *argv]) == 2
    assert message in capsys.readouterr().out
    assert not journal.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seed", "x"], "--seed needs a number, got 'x'"),
        (["--rounds", "many"], "--rounds needs a number"),
        (["--clients", "0"], "--clients and --rounds must be positive"),
        (["--kill-round", "-1"], "--kill-round must be below --rounds"),
        (["--kill-round", "24"], "--kill-round must be below --rounds"),
    ],
)
def test_soak_rejects_bad_values_with_exit_two(argv, message, capsys) -> None:
    assert serve_soak_main(argv) == 2
    assert message in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--bogus"], ["--out"]])
def test_bench_serve_usage_errors_exit_two(argv, capsys) -> None:
    assert bench_serve_main(argv) == 2
    assert "usage:" in capsys.readouterr().out
