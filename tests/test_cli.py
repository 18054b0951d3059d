import json
import subprocess
import sys
import time

import pytest

from conftest import child_env, fresh_python
from cuspidal import cli, criteria, cubical, invariants, semigroup


@pytest.fixture
def octic_file(tmp_path):
    path = tmp_path / "octic.txt"
    path.write_text("# degree-8 tricuspidal curve\ndegree: 8\n[6] [2_4] [2_2]\n")
    return str(path)


@pytest.fixture
def quartic_file(tmp_path):
    path = tmp_path / "quartic.txt"
    path.write_text("[2] [2] [2]\n")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_machine(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "machine")
    return code, json.loads(out), err


class TestCandidateFiles:
    def test_json_document(self, tmp_path, capsys):
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({"degree": 5, "cusps": ["[3]", "[2_2]", "[2]"]}))
        code, doc, _ = run_machine(capsys, "invariants", str(path))
        assert code == 0
        assert doc["degree"] == 5 and doc["delta"] == 6

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("[2]\n[zzz]\n")
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2
        assert ":2:" in err

    def test_json_parse_error_reports_index(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cusps": ["[2]", "[zzz]"]}))
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and not out
        assert f"{path}: cusps[1]: " in err

    @pytest.mark.parametrize("degree", [True, -5])
    def test_json_degree_must_be_nonnegative_integer(self, tmp_path, capsys, degree):
        # true was read as degree 1, and -5 gave p_g = -35
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({"degree": degree, "cusps": ["[2]", "[2]", "[2]"]}))
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and not out
        assert "field 'degree' must be a nonnegative integer" in err

    @pytest.mark.parametrize("framing", ["text", "json"])
    def test_each_literal_parsed_once(self, tmp_path, capsys, monkeypatch, framing):
        # a generator literal runs the semigroup sieve when it is parsed
        calls = []
        sieve = semigroup.semigroup_from_generators

        def counting_sieve(gens):
            calls.append(gens)
            return sieve(gens)

        monkeypatch.setattr(semigroup, "semigroup_from_generators", counting_sieve)
        path = tmp_path / "cand.txt"
        path.write_text("<4,6,13>\n" if framing == "text" else json.dumps({"cusps": ["<4,6,13>"]}))
        code, doc, _ = run_machine(capsys, "invariants", str(path))
        assert code == 0 and doc["semigroups"] == ["<4,6,13>"]
        assert len(calls) == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "/nonexistent/file")
        assert code == 2 and "error" in err

    def test_no_cusps(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        code, _, err = run_cli(capsys, "invariants", str(path))
        assert code == 2


class TestInvariants:
    def test_quartic_table(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "invariants", quartic_file)
        assert code == 0
        assert doc["table"]["H(k+1)"] == [1, 1, 2, 2, 3]
        assert doc["table"]["F(k)"] == [1, -1, 3, 0, 3]
        assert doc["table"]["H(k+1)-F(k)"] == [0, 2, -1, 2, 0]
        assert doc["q"] == [3, 0, 3, -1, 1]
        assert doc["alexander"] == [1, -3, 6, -7, 6, -3, 1]
        assert doc["degree"] == 4 and doc["p_g"] == 4

    def test_single_cusp_rows_equal(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        code, doc, _ = run_machine(capsys, "invariants", str(path))
        assert code == 0
        assert doc["table"]["H(k+1)"] == doc["table"]["F(k)"]

    def test_octic_values(self, octic_file, capsys):
        code, doc, _ = run_machine(capsys, "invariants", octic_file)
        assert code == 0
        h = doc["table"]["H(k+1)"]
        f = doc["table"]["F(k)"]
        assert [h[k] for k in range(0, 41, 8)] == [1, 3, 6, 10, 15, 21]
        assert [f[k] for k in range(0, 41, 8)] == [1, 4, 5, 9, 16, 21]

    def test_text_layout_mirrors_rows(self, quartic_file, capsys):
        code, out, _ = run_cli(capsys, "invariants", quartic_file)
        assert code == 0
        lines = out.splitlines()
        for label in ("k ", "H(k+1)", "F(k)", "H(k+1)-F(k)"):
            assert any(line.startswith(label) for line in lines), label

    def test_window_flag(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "invariants", quartic_file, "--window", "8")
        assert doc["table"]["k"] == list(range(9))

    def test_window_above_cap_refused(self, quartic_file, capsys, monkeypatch):
        # a window of 2e8 ended in a MemoryError traceback; nothing is tabulated
        monkeypatch.setattr(invariants, "f_sequence", None)
        code, out, err = run_cli(capsys, "invariants", quartic_file, "--window", "1000001")
        assert code == 3 and not out
        assert "window too large: 1000001 exceeds cap 1000000" in err

    def test_negative_window_refused(self, quartic_file, capsys):
        # it used to print an empty table
        code, out, err = run_cli(capsys, "invariants", quartic_file, "--window", "-1")
        assert code == 2 and not out
        assert "--window must be nonnegative, got -1" in err

    def test_text_and_machine_same_numbers(self, quartic_file, capsys):
        _, doc, _ = run_machine(capsys, "invariants", quartic_file)
        _, out, _ = run_cli(capsys, "invariants", quartic_file)
        frow = next(line for line in out.splitlines() if line.startswith("F(k)"))
        assert [int(v) for v in frow.split("|")[1].split()] == doc["table"]["F(k)"]

    def test_alexander_product_computed_once(self, quartic_file, capsys, monkeypatch):
        calls = []
        convolve = invariants.convolve

        def counting_convolve(a, b):
            calls.append(1)
            return convolve(a, b)

        monkeypatch.setattr(invariants, "convolve", counting_convolve)
        code, _, _ = run_machine(capsys, "invariants", quartic_file)
        assert code == 0
        assert len(calls) == 3  # one per cusp, for the alexander row and q together

    def test_determinism(self, octic_file, capsys):
        _, out1, _ = run_cli(capsys, "invariants", octic_file, "--format", "machine")
        _, out2, _ = run_cli(capsys, "invariants", octic_file, "--format", "machine")
        assert out1 == out2


class TestCheck:
    def test_octic_verdicts(self, octic_file, capsys):
        code, doc, _ = run_machine(capsys, "check", octic_file)
        assert code == 1  # conj_original fails
        by_name = {c["criterion"]: c for c in doc["criteria"]}
        assert by_name["bezout"]["passed"]
        assert by_name["bl"]["passed"]
        assert not by_name["conj_original"]["passed"]
        assert [row[0] for row in by_name["conj_original"]["rows"] if not row[3]] == [1, 4]
        assert by_name["conj_index"]["passed"]
        assert by_name["conj_index"]["difference"] == 0

    def test_ghost_quintic(self, tmp_path, capsys):
        path = tmp_path / "ghost.txt"
        path.write_text("[3,2] [2] [2]\n")
        code, doc, _ = run_machine(capsys, "check", str(path), "--d", "5")
        assert code == 1
        by_name = {c["criterion"]: c for c in doc["criteria"]}
        assert by_name["bl"]["passed"]
        assert not by_name["conj_index"]["passed"]

    def test_non_candidate_refused(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        code, _, err = run_cli(capsys, "check", str(path), "--d", "4")
        assert code == 2 and "not a candidate" in err

    def test_force(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        code, doc, _ = run_machine(capsys, "check", str(path), "--d", "4", "--force")
        assert code == 1
        by_name = {c["criterion"]: c for c in doc["criteria"]}
        assert not by_name["bl"]["passed"]

    def test_only_subset(self, octic_file, capsys):
        code, doc, _ = run_machine(capsys, "check", octic_file, "--only", "bezout,bl")
        assert code == 0
        assert [c["criterion"] for c in doc["criteria"]] == ["bezout", "bl"]


class TestCohomology:
    def test_octic_all_spinc(self, octic_file, capsys):
        code, doc, _ = run_machine(capsys, "cohomology", octic_file, "--d", "8",
                                   "--all-spinc")
        assert code == 0
        rows = {r["a"]: r for r in doc["rows"]}
        assert (rows[0]["eu_h0"], rows[0]["eu_hstar"]) == (56, 56)
        assert (rows[4]["eu_h0"], rows[4]["eu_hstar"]) == (42, 45)
        assert rows[4]["reflected_a"] == 4
        assert rows[3]["reflected_a"] == 5

    def test_quartic_canonical(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "cohomology", quartic_file, "--d", "4",
                                   "--a", "0")
        assert code == 0
        assert doc["rows"][0]["eu_h0"] == 4 and doc["rows"][0]["eu_hstar"] == 4

    def test_degree_one(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "cohomology", quartic_file, "--d", "1")
        assert code == 0
        assert len(doc["rows"]) == 1
        # the single class sums every j
        assert doc["rows"][0]["eu_h0"] == sum(t[1] for t in doc["rows"][0]["terms"])

    def test_degree_from_file(self, octic_file, capsys):
        code, doc, _ = run_machine(capsys, "cohomology", octic_file)
        assert code == 0
        assert doc["degree"] == 8
        assert [r["a"] for r in doc["rows"]] == list(range(8))

    def test_no_degree(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("[2] [2]\n")  # 2*delta = 4 is no (d-1)(d-2)
        code, out, err = run_cli(capsys, "cohomology", str(path))
        assert code == 2 and not out and "pass --d" in err

    def test_degree_cap_inclusive(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "cohomology", quartic_file,
                                   "--d", "2000", "--a", "0")
        assert code == 0 and doc["degree"] == 2000
        code, out, err = run_cli(capsys, "cohomology", quartic_file,
                                 "--d", "2001", "--a", "0")
        assert code == 3 and not out
        assert "degree too large: 2001 exceeds cap 2000" in err

    def test_bad_index(self, quartic_file, capsys):
        code, _, err = run_cli(capsys, "cohomology", quartic_file, "--d", "4",
                               "--a", "7")
        assert code == 2


_DEGREE_COMMANDS = [("invariants",), ("check", "--force"),
                    ("cohomology", "--all-spinc"), ("stability",)]


class TestDegreeRule:
    # _load checks the resolved degree once, whatever its source; nothing
    # that grows with d may run before the check
    @pytest.fixture(autouse=True)
    def no_rows(self, monkeypatch):
        for name in ("r_poly", "spinc_report", "eu_canonical"):
            monkeypatch.setattr(invariants, name, None)
        monkeypatch.setattr(criteria, "run_criterion", None)

    @pytest.mark.parametrize("argv", _DEGREE_COMMANDS)
    def test_negative_degree_refused(self, quartic_file, capsys, argv):
        # `invariants --d -5` printed p_g: -35 and exited 0
        code, out, err = run_cli(capsys, argv[0], quartic_file, *argv[1:], "--d", "-5")
        assert code == 2 and not out
        assert "degree must be nonnegative, got -5" in err

    @pytest.mark.parametrize("argv", _DEGREE_COMMANDS)
    def test_degree_above_cap_refused(self, quartic_file, capsys, argv):
        # `invariants --d 100000` ended in a MemoryError traceback
        code, out, err = run_cli(capsys, argv[0], quartic_file, *argv[1:],
                                 "--d", "100000")
        assert code == 3 and not out
        assert "degree too large: 100000 exceeds cap 2000" in err

    @pytest.mark.parametrize("text", ["degree: 100000\n[2] [2] [2]\n",
                                      '{"degree": 100000, "cusps": ["[2]"]}'])
    def test_file_degree_above_cap_refused(self, tmp_path, capsys, text):
        path = tmp_path / "cand.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 3 and not out
        assert "degree too large: 100000 exceeds cap 2000" in err

    def test_candidate_degree_above_cap_refused(self, quartic_file, capsys, monkeypatch):
        monkeypatch.setattr(criteria, "candidate_degree", lambda c: 100000)
        code, out, err = run_cli(capsys, "invariants", quartic_file)
        assert code == 3 and not out
        assert "degree too large: 100000 exceeds cap 2000" in err


class TestCatalog:
    def test_c92_check(self, capsys):
        code, doc, _ = run_machine(capsys, "catalog", "--family", "C", "--d", "9",
                                   "--u", "2", "--check")
        assert code == 0
        assert doc["check"]["difference"] == 12
        assert doc["check"]["expected_difference"] == 12
        assert doc["check"]["difference_matches"]

    def test_sporadic3_check(self, capsys):
        code, doc, _ = run_machine(capsys, "catalog", "--family", "sporadic3",
                                   "--check")
        assert code == 0
        assert doc["check"]["difference"] == 6
        assert doc["check"]["expected_difference"] is None

    def test_d1_cusps(self, capsys):
        code, doc, _ = run_machine(capsys, "catalog", "--family", "D", "--l", "1")
        assert code == 0
        assert doc["cusps"] == ["[2_2]", "[3]", "[2]"]
        assert doc["degree"] == 5

    def test_c82_exit_code(self, capsys):
        # conj_original fails on this existing curve, so --check exits 1
        code, doc, _ = run_machine(capsys, "catalog", "--family", "C", "--d", "8",
                                   "--u", "2", "--check")
        assert code == 1
        assert doc["check"]["difference_matches"]

    def test_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "--family", "C", "--d", "4",
                               "--u", "3")
        assert code == 2


class TestOracle:
    def test_quartic_sweep(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "oracle", quartic_file, "--sweep")
        assert code == 0
        assert doc["all_agree"]
        assert [run["j"] for run in doc["runs"]] == list(range(5))

    def test_single_j_table(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        code, doc, _ = run_machine(capsys, "oracle", str(path), "--j", "0")
        assert code == 0
        run = doc["runs"][0]
        assert run["eu_h0"] == 1 and run["eu_hstar"] == 1 and run["agree"]
        assert run["betti_rows"]  # table dumped

    def test_two_cusp_positivity_report(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("[3] [2_2]\n")
        code, doc, _ = run_machine(capsys, "oracle", str(path), "--sweep")
        assert code == 0
        for run in doc["runs"]:
            assert run["betti_totals"][1] >= 0
            assert run["eu_h0"] - run["eu_hstar"] == run["betti_totals"][1]

    def test_cap_exit_code(self, quartic_file, capsys):
        code, _, err = run_cli(capsys, "oracle", quartic_file, "--j", "0",
                               "--cap", "10")
        assert code == 3 and "cap" in err

    def test_negative_j(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "oracle", quartic_file, "--j", "-1")
        assert code == 0 and doc["all_agree"]
        code, out, err = run_cli(capsys, "oracle", quartic_file, "--j", "-2")
        assert code == 2 and not out and "error" in err

    def test_negative_j_refused_before_cap(self, quartic_file, capsys):
        code, out, err = run_cli(capsys, "oracle", quartic_file, "--j", "-2",
                                 "--cap", "10")
        assert code == 2 and not out and "error" in err

    def test_cap_fires_before_min_w_scan(self, quartic_file, capsys, monkeypatch):
        # the diagonal scan grows with the box, so a box over the cap must
        # fail before it runs
        calls = []
        monkeypatch.setattr(cubical, "min_w_over_diagonal",
                            lambda *a, **k: calls.append(1))
        code, _, err = run_cli(capsys, "oracle", quartic_file, "--j", "3",
                               "--box", "3000,3000,3000")
        assert code == 3 and "cap" in err
        assert not calls

    def test_box_margin(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "oracle", quartic_file, "--j", "2",
                                   "--box-margin", "1")
        assert code == 0 and doc["runs"][0]["agree"]

    @pytest.mark.parametrize("box", ["-1,2,2", "-3,2,2", "-3,-3,2000000"])
    def test_negative_box_sizes_refused(self, quartic_file, capsys, box):
        # before the cap, which a product of negative sizes would slip past
        code, out, err = run_cli(capsys, "oracle", quartic_file, "--j", "0",
                                 f"--box={box}")
        assert code == 2 and not out
        assert "box sizes must be nonnegative" in err

    def test_empty_box_refused(self, quartic_file, capsys):
        # it silently fell back to the default box
        code, out, err = run_cli(capsys, "oracle", quartic_file, "--j", "0", "--box=")
        assert code == 2 and not out
        assert "bad --box ''" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_refused(self, quartic_file, capsys, cap):
        # no box fits under it; it exited 3 as if the box were too large
        code, out, err = run_cli(capsys, "oracle", quartic_file, "--j", "0",
                                 "--cap", cap)
        assert code == 2 and not out
        assert f"--cap must be at least 1, got {cap}" in err

    def test_tsv_rows_in_text(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        code, out, _ = run_cli(capsys, "oracle", str(path), "--j", "0")
        assert code == 0
        assert any("\t" in line for line in out.splitlines())


class TestStability:
    def test_degree5_family(self, tmp_path, capsys):
        path = tmp_path / "deg5.txt"
        path.write_text("[3] [2_3]\n")
        code, doc, _ = run_machine(capsys, "stability", str(path))
        assert code == 0
        assert len(doc["regroupings"]) == 5
        assert doc["h_equal"]
        assert doc["bl_constant"]

    def test_single_cusp(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        code, doc, _ = run_machine(capsys, "stability", str(path))
        assert code == 0
        assert len(doc["regroupings"]) == 1

    def test_max_parts_below_one_refused(self, tmp_path, capsys):
        # with no part allowed nothing is compared, which must not read as PASS
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        code, out, err = run_cli(capsys, "stability", str(path), "--max-parts", "0")
        assert code == 2
        assert out == ""
        assert "--max-parts must be at least 1, got 0" in err

    def test_max_parts_leaving_no_regrouping_refused(self, tmp_path, capsys):
        # [6,2] is inadmissible, so one part allows no regrouping to compare
        path = tmp_path / "six_two.txt"
        path.write_text("[6] [2]\n")
        code, out, err = run_cli(capsys, "stability", str(path), "--max-parts", "1")
        assert code == 2
        assert out == ""
        assert "--max-parts 1 leaves no admissible regrouping" in err

    def test_long_multiset_refused_before_walk(self, tmp_path, capsys, monkeypatch):
        # the walk nests one generator per entry and overflowed Python's
        # stack on 1200 entries
        monkeypatch.setattr(criteria, "_walk", None)
        path = tmp_path / "long.txt"
        path.write_text("[2_1200]\n")
        code, out, err = run_cli(capsys, "stability", str(path))
        assert code == 3 and not out
        assert "1200 entries exceed cap 256" in err

    def test_rows_capped_by_window(self, tmp_path, capsys):
        # the multiset of C(60,1), delta = 1,711: each row computes H, bl and
        # eu at that delta, and the 10,000-row walk cap alone ran for minutes
        path = tmp_path / "c601.txt"
        path.write_text("[58] [2_57] [2]\n")
        start = time.perf_counter()
        code, doc, _ = run_machine(capsys, "stability", str(path))
        assert time.perf_counter() - start < 10
        assert code == 0 and doc["truncated"] and doc["h_equal"]
        assert len(doc["regroupings"]) == cli._STABILITY_CELLS // (2 * 1711 + 1)

    def test_sporadic_multiset_eu_variation(self, tmp_path, capsys):
        path = tmp_path / "sp4.txt"
        path.write_text("degree: 5\n[2_3] [2] [2] [2]\n")
        code, doc, _ = run_machine(capsys, "stability", str(path))
        assert code == 0
        assert doc["h_equal"] and doc["bl_constant"]
        assert len(doc["eu_h0_values"]) == 1
        assert 6 in [doc["eu_h0_values"][0] - v for v in doc["eu_hstar_values"]]
        assert 8 in [doc["eu_h0_values"][0] - v for v in doc["eu_hstar_values"]]


def test_module_entry_point(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("[2] [2] [2]\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cuspidal.cli", "check", str(path)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout


def test_reader_closing_pipe_early(tmp_path):
    # 185 KB of machine output, more than a pipe buffer holds
    path = tmp_path / "big.txt"
    path.write_text("[40] [40]\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "cuspidal.cli", "invariants", str(path), "--format", "machine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert b"Traceback" not in err, err.decode()
    assert 0 <= code <= 3


def test_light_commands_leave_numpy_unloaded(tmp_path):
    # importing numpy is most of a cold start: only the oracle and min-plus
    # windows above the list evaluator's size may load it
    octic = tmp_path / "octic.txt"
    octic.write_text("degree: 8\n[6] [2_4] [2_2]\n")
    c401 = tmp_path / "c401.txt"
    c401.write_text("degree: 40\n[38] [2_37] [2]\n")
    quartic = tmp_path / "quartic.txt"
    quartic.write_text("[2] [2] [2]\n")
    quintic = tmp_path / "quintic.txt"
    quintic.write_text("degree: 5\n[3] [2_2] [2]\n")
    light = [
        ["check", str(octic)],
        ["invariants", str(quartic)],
        ["cohomology", str(c401), "--d", "40", "--all-spinc"],
        ["catalog", "--family", "C", "--d", "9", "--u", "2", "--check"],
        ["stability", str(octic)],
    ]
    code = ("import contextlib, io, json, sys\n"
            "import cuspidal\n"
            "loaded = ['numpy' in sys.modules]\n"
            "from cuspidal import cli\n"
            "codes = []\n"
            f"for argv in {light!r} + [{['oracle', str(quintic), '--sweep']!r}]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.run(argv))\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "print(json.dumps([codes, loaded]))\n")
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [1, 0, 0, 0, 0, 0]  # the octic fails conj_original
    # after import cuspidal, after each light command, after the oracle
    assert loaded == [False] * 6 + [True]
