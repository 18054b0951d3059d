"""Text-format snapshots of every subcommand, stored under golden/cli/.

Each case runs ``cli.run`` in both formats.  The text output must equal its
snapshot, and it must equal the command's renderer applied to the parsed
machine document: the text needs nothing the document does not hold (the
oracle renderer also reads ``--sweep``, which the document does not record).
"""

import json
from pathlib import Path

import pytest

from cuspidal import cli

SNAPSHOTS = Path(__file__).parent / "golden" / "cli"
INPUTS = SNAPSHOTS / "inputs"

# snapshot name -> argv; "@name" is the candidate file golden/cli/inputs/name
CASES = {
    "invariants_quartic": ["invariants", "@quartic.txt"],
    "invariants_quartic_window12": ["invariants", "@quartic.txt", "--window", "12"],
    "invariants_quartic_d2": ["invariants", "@quartic.txt", "--d", "2"],
    "invariants_noncandidate": ["invariants", "@noncandidate.txt"],
    "invariants_octic": ["invariants", "@octic.txt"],
    "check_octic": ["check", "@octic.txt"],
    "check_octic_only": ["check", "@octic.txt", "--only", "bezout,bl"],
    "check_one_force": ["check", "@one.txt", "--d", "4", "--force"],
    "check_ghost": ["check", "@ghost.txt", "--d", "5"],
    "check_quartic": ["check", "@quartic.txt"],
    "cohomology_octic_all_spinc": ["cohomology", "@octic.txt", "--d", "8", "--all-spinc"],
    "cohomology_octic_a4": ["cohomology", "@octic.txt", "--d", "8", "--a", "4"],
    "catalog_c92": ["catalog", "--family", "C", "--d", "9", "--u", "2"],
    "catalog_c92_check": ["catalog", "--family", "C", "--d", "9", "--u", "2", "--check"],
    "catalog_c82_check": ["catalog", "--family", "C", "--d", "8", "--u", "2", "--check"],
    "catalog_d1": ["catalog", "--family", "D", "--l", "1"],
    "catalog_d2_check": ["catalog", "--family", "D", "--l", "2", "--check"],
    "catalog_e1": ["catalog", "--family", "E", "--l", "1"],
    "catalog_e1_check": ["catalog", "--family", "E", "--l", "1", "--check"],
    "catalog_sporadic4": ["catalog", "--family", "sporadic4"],
    "catalog_sporadic3_check": ["catalog", "--family", "sporadic3", "--check"],
    "oracle_quartic_sweep": ["oracle", "@quartic.txt", "--sweep"],
    "oracle_one_j0": ["oracle", "@one.txt", "--j", "0"],
    "oracle_quartic_j2_margin1": ["oracle", "@quartic.txt", "--j", "2", "--box-margin", "1"],
    "stability_degree5": ["stability", "@degree5.txt"],
    "stability_sporadic4": ["stability", "@sporadic4.txt"],
}


def argv_of(case):
    return [str(INPUTS / arg[1:]) if arg.startswith("@") else arg for arg in CASES[case]]


@pytest.mark.parametrize("case", sorted(CASES))
def test_text_matches_snapshot_and_document(case, capsys):
    argv = argv_of(case)
    text_code = cli.run(argv)
    text = capsys.readouterr().out
    assert text == (SNAPSHOTS / f"{case}.txt").read_text()

    machine_code = cli.run(argv + ["--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert machine_code == text_code
    args = cli.build_parser().parse_args(argv)
    *_, render = cli._COMMANDS[args.subcommand]
    assert "\n".join(render(doc, args)) + "\n" == text
