"""argparse's surface of ``cli.run``: help, usage lines and refusals.

Each golden under golden/cli/argparse/ holds what ``cli.run(argv)`` gives
with COLUMNS=80: the exit code (argparse's ``SystemExit`` code), stdout and
stderr, with the candidate file's path written as FILE.  argparse's wording
and line wrapping are the standard library's and change between Python
versions, so the bytes are compared on the version that recorded them; on
every version the exit code must match, and ``run`` must print what the
parser that ``build_parser()`` builds in full prints for the same argv.
"""

import argparse
import sys
from pathlib import Path

import pytest

from cuspidal import cli

GOLDEN = Path(__file__).parent / "golden" / "cli" / "argparse"
QUARTIC = Path(__file__).parent / "golden" / "cli" / "inputs" / "quartic.txt"
RECORDED_WITH = (3, 11)

COMMANDS = ("invariants", "check", "cohomology", "catalog", "oracle", "stability")

# golden name -> argv; "FILE" is a candidate file of the quartic's three cusps
CASES = {
    "help": ["-h"],
    "no_arguments": [],
    "bogus": ["bogus"],
    **{f"{name}_help": [name, "-h"] for name in COMMANDS},
    "check_extra": ["check", "FILE", "extra"],
    "catalog_family_z": ["catalog", "--family", "Z"],
    "cohomology_a_and_all_spinc": ["cohomology", "FILE", "--a", "1", "--all-spinc"],
    "catalog_no_family": ["catalog"],
    "format_before_command": ["--format", "machine", "check", "FILE"],
}


def outcome(call, argv, capsys, monkeypatch):
    """The golden text of call(argv): exit code, stdout and stderr."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [str(QUARTIC) if arg == "FILE" else arg for arg in argv]
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = (text.replace(str(QUARTIC), "FILE") for text in capsys.readouterr())
    return f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}"


def full_parse(argv):
    cli.build_parser().parse_args(argv)
    return 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_argparse_surface(case, capsys, monkeypatch):
    got = outcome(cli.run, CASES[case], capsys, monkeypatch)
    golden = (GOLDEN / f"{case}.txt").read_text()
    assert got.split("\n", 1)[0] == golden.split("\n", 1)[0]
    if sys.version_info[:2] == RECORDED_WITH:
        assert got == golden
    assert got == outcome(full_parse, CASES[case], capsys, monkeypatch)


def test_run_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["check", str(QUARTIC), "--format", "machine"]
    assert cli.run(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["cuspidal", *argv])
    assert cli.run(None) == 0
    assert capsys.readouterr() == expected


def subparsers(parser):
    return next(a for a in parser._actions if a.dest == "subcommand").choices


def shape(parser):
    return [(a.option_strings, a.dest) for a in parser._actions]


@pytest.mark.parametrize("command", COMMANDS)
def test_run_adds_arguments_to_the_named_subparser_only(command, capsys, monkeypatch):
    build, built = cli.build_parser, []

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    with pytest.raises(SystemExit):
        cli.run([command, "-h"])
    assert capsys.readouterr().out.startswith(f"usage: cuspidal {command} [-h]")
    full = subparsers(build())
    assert list(full) == list(subparsers(built[0])) == list(COMMANDS)
    for name, p in subparsers(built[0]).items():
        if name == command:
            assert shape(p) == shape(full[name])
        else:
            assert shape(p) == shape(argparse.ArgumentParser(add_help=False)) == []
    # in full, every subcommand has its own -h and --format
    assert all({("-h", "--help"), ("--format",)} <= {tuple(o) for o, _ in shape(p)}
               for p in full.values())
