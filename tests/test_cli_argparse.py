"""argparse's surface of ``cli.run``: help, usage lines and refusals.

Each golden under golden/cli/argparse/ holds what ``cli.run(argv)`` gives
with COLUMNS=80: the exit code (argparse's ``SystemExit`` code), stdout and
stderr, with the candidate file's path written as FILE.  argparse's wording
and line wrapping are the standard library's and change between Python
versions, so the bytes are compared on the version that recorded them; on
every version the exit code must match, and ``run`` must print what the
parser of ``build_parser()``, which has every subcommand, prints for the same argv.
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
    """Everything argparse reads off a parser's actions and exclusive groups."""
    actions = [(a.option_strings, a.dest, a.nargs, a.const, a.default, a.type,
                a.choices, a.required, a.help, a.metavar) for a in parser._actions]
    groups = [[a.dest for a in g._group_actions] for g in parser._mutually_exclusive_groups]
    return parser.prog, actions, groups


@pytest.fixture
def parsers(monkeypatch):
    """The ArgumentParsers constructed, and the build_parser calls made, by run,
    starting from no kept subcommand parser."""
    cli._parser.cache_clear()
    made, calls = [], []
    init, build = argparse.ArgumentParser.__init__, cli.build_parser

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def spy():
        calls.append(None)
        return build()

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    monkeypatch.setattr(cli, "build_parser", spy)
    return made, calls


@pytest.mark.parametrize("command", COMMANDS)
def test_run_adds_arguments_to_the_named_subparser_only(command, parsers, capsys):
    # the first named run builds one parser, build_parser()'s subparser
    # standing alone, and a second run of the command builds none
    made, calls = parsers
    for _ in range(2):
        with pytest.raises(SystemExit):
            cli.run([command, "-h"])
        assert capsys.readouterr().out.startswith(f"usage: cuspidal {command} [-h]")
        assert len(made) == 1 and calls == []
    full = subparsers(cli.build_parser())
    assert list(full) == list(COMMANDS)
    assert shape(made[0]) == shape(full[command])
    # in full, every subcommand has its own -h and --format
    assert all({("-h", "--help"), ("--format",)} <= {tuple(a[0]) for a in shape(p)[1]}
               for p in full.values())


def test_parsed_run_builds_one_parser(parsers):
    made, calls = parsers
    for _ in range(2):
        assert cli.run(["check", str(QUARTIC), "--format", "machine"]) == 0
        assert len(made) == 1 and calls == []


@pytest.mark.parametrize("argv", [["check", "-h"], ["catalog", "--family", "Z"]])
def test_kept_parser_prints_what_a_fresh_one_prints(argv, capsys, monkeypatch):
    # the parser kept from a run at one terminal width wraps help and
    # refusals at the width of the run that uses it
    def printed(columns):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        return exc.value.code, capsys.readouterr()

    cli._parser.cache_clear()
    wide = printed("80")
    kept = printed("40")
    cli._parser.cache_clear()
    assert kept == printed("40") != wide


def test_leftover_arguments_go_to_the_full_parser(parsers, capsys):
    _, calls = parsers
    with pytest.raises(SystemExit) as exc:
        cli.run(["check", str(QUARTIC), "extra"])
    assert exc.value.code == 2 and len(calls) == 1
    assert capsys.readouterr().err.startswith("usage: cuspidal [-h]")
