import hashlib
import importlib
import itertools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

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


# every command that resolves a candidate file's cusps, with its options
REFUSING_COMMANDS = (("stability",), ("invariants",), ("oracle", "--j", "1"),
                     ("check", "--d", "5"))


def run_machine(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "machine")
    return code, json.loads(out), err


class TestCandidateFiles:
    def test_json_document(self, tmp_path, capsys):
        path = tmp_path / "cand.json"
        for degree in (5, 0):
            path.write_text(json.dumps({"degree": degree, "cusps": ["[3]", "[2_2]", "[2]"]}))
            code, doc, _ = run_machine(capsys, "invariants", str(path))
            assert code == 0
            assert doc["degree"] == degree and doc["delta"] == 6

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

    def test_deeply_nested_json_is_bad_json(self, tmp_path, capsys):
        # json.loads raised RecursionError: a traceback and exit 1
        path = tmp_path / "deep.json"
        path.write_text('{"cusps": ["[2]"], "x": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(capsys, "invariants", str(path), "--format", "machine")
        assert code == 2 and not out
        assert err.startswith(f"error: {path}: bad JSON: ")

    @pytest.mark.parametrize("degree", [True, -5, -1])
    def test_json_degree_must_be_nonnegative_integer(self, tmp_path, capsys, degree):
        # true was read as degree 1, and -5 gave p_g = -35
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({"degree": degree, "cusps": ["[2]", "[2]", "[2]"]}))
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and not out
        assert "field 'degree' must be a nonnegative integer" in err

    @pytest.mark.parametrize("framing", ["text", "json"])
    def test_each_literal_parsed_once(self, tmp_path, capsys, monkeypatch, framing):
        # a generator literal runs the round-robin walk when it is parsed
        calls = []
        walk = semigroup.semigroup_from_generators

        def counting_walk(gens):
            calls.append(gens)
            return walk(gens)

        monkeypatch.setattr(semigroup, "semigroup_from_generators", counting_walk)
        path = tmp_path / "cand.txt"
        path.write_text("<4,6,13>\n" if framing == "text" else json.dumps({"cusps": ["<4,6,13>"]}))
        code, doc, _ = run_machine(capsys, "invariants", str(path))
        assert code == 0 and doc["semigroups"] == ["<4,6,13>"]
        assert len(calls) == 1

    @pytest.mark.parametrize("name,content", [
        ("bom.txt", "[2] [2] [2]\n"),
        ("bom.json", json.dumps({"cusps": ["[2]", "[2]", "[2]"]})),
    ])
    def test_byte_order_mark(self, tmp_path, capsys, name, content):
        # the mark was read as part of the first literal, or hid the JSON
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + content.encode())
        code, doc, _ = run_machine(capsys, "invariants", str(path))
        assert code == 0 and doc["cusps"] == ["[2]", "[2]", "[2]"]

    def test_not_utf8(self, tmp_path, capsys):
        # the decode error went out without the file's name
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"[2] \xff[2]\n")
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and not out
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("cusps", ["[2] [2]", ["[2]", 2], None])
    def test_json_cusps_must_be_list_of_literals(self, tmp_path, capsys, cusps):
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({"cusps": cusps}))
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and not out
        assert err == f"error: {path}: field 'cusps' must be a list of literals\n"

    @pytest.mark.parametrize("name,content,message", [
        # int read '1_0' as 10, and a $ anchor let '3\n' through as 3
        ("gens.txt", "<1_0,11>\n", "{path}:1: token 1: bad generator list '<1_0,11>'"),
        ("newline.json", json.dumps({"cusps": ["[3\n]"]}),
         "{path}: cusps[0]: bad multiplicity token '3\\n' in '[3\\n]'"),
        ("zero.txt", "[2] [2_0]\n", "{path}:1: token 2: bad repetition count in '2_0'"),
    ])
    def test_bad_literal_tokens(self, tmp_path, capsys, name, content, message):
        path = tmp_path / name
        path.write_text(content)
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and not out
        assert err == "error: " + message.format(path=path) + "\n"

    # digits one past int's limit on str conversion; at most 1 where the
    # interpreter has no limit
    _PAST_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: -1)() + 1

    @pytest.mark.skipif(_PAST_LIMIT < 2, reason="int has no digit limit here")
    @pytest.mark.parametrize("name,content,message", [
        ("value.txt", "[{n}]\n", "{path}:1: token 1: bad multiplicity token '{n}'"),
        ("count.txt", "[2_{n}]\n", "{path}:1: token 1: bad repetition count in '2_{n}'"),
        ("newton.txt", "({n},3)\n", "{path}:1: token 1: bad Newton pairs '({n},3)'"),
        ("degree.txt", "degree: {n}\n[2] [2] [2]\n", "{path}:1: bad degree line 'degree: {n}'"),
        ("degree.json", '{{"degree": {n}, "cusps": ["[2]"]}}', "{path}: bad JSON: "),
    ], ids=["multiplicity", "count", "newton", "degree", "json"])
    def test_number_past_int_digit_limit(self, tmp_path, capsys, name, content, message):
        # int's own message named neither the file nor the token
        n = "1" * self._PAST_LIMIT
        path = tmp_path / name
        path.write_text(content.format(n=n))
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and not out
        assert err.startswith("error: " + message.format(path=path, n=n))

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "/nonexistent/file")
        assert code == 2 and "error" in err

    def test_no_cusps(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        code, _, err = run_cli(capsys, "invariants", str(path))
        assert code == 2


class TestInvariants:
    def test_inadmissible_sequence_refused(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("[6,4]\n")
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and not out
        assert err.startswith("error: bad cusp '[6,4]': inadmissible multiplicity sequence")

    @pytest.mark.parametrize("literal", ["[2_20000]", "<2,40001>"])
    def test_long_chains_are_linear(self, tmp_path, capsys, literal):
        # the chains on Apery sets cost O(m^2) a step; the gap-list chains,
        # which listed every gap at every step, took 44-56 s here
        semigroup._semigroup_from_entries.cache_clear()
        path = tmp_path / "long.txt"
        path.write_text(literal + "\n")
        start = time.perf_counter()
        code, doc, _ = run_machine(capsys, "invariants", str(path))
        assert time.perf_counter() - start < 1
        assert code == 0 and doc["delta"] == 20000
        assert (semigroup.semigroup_from_multseq(semigroup.MultSeq((2,) * 20000))
                == semigroup.semigroup_from_generators([2, 40001]))

    def test_quartic_table(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "invariants", quartic_file)
        assert code == 0
        assert doc["table"]["H(k+1)"] == [1, 1, 2, 2, 3]
        assert doc["table"]["F(k)"] == [1, -1, 3, 0, 3]
        assert doc["table"]["H(k+1)-F(k)"] == [0, 2, -1, 2, 0]
        assert doc["q"] == [3, 0, 3, -1, 1]
        assert doc["alexander"] == [1, -3, 6, -7, 6, -3, 1]
        assert doc["degree"] == 4 and doc["p_g"] == 4 and doc["is_candidate"] is True

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

    def test_window_flag(self, quartic_file, capsys, monkeypatch):
        # a window of 0 is one row, and a window equal to the cap is tabulated,
        # whether the cap is _MAX_WINDOW or the default window 2*delta - 2 = 4
        for window, cap in ((8, cli._MAX_WINDOW), (0, cli._MAX_WINDOW), (8, 8), (4, 0)):
            monkeypatch.setattr(cli, "_MAX_WINDOW", cap)
            code, doc, _ = run_machine(capsys, "invariants", quartic_file,
                                       "--window", str(window))
            assert code == 0 and doc["table"]["k"] == list(range(window + 1)), (window, cap)

    def test_window_above_cap_refused(self, quartic_file, capsys, monkeypatch):
        # a window of 2e8 ended in a MemoryError traceback; nothing is tabulated.
        # The cap is the larger of _MAX_WINDOW and the default window, 4 here
        monkeypatch.setattr(invariants, "f_sequence", None)
        for max_window, window, cap in ((cli._MAX_WINDOW, 1000001, 1000000), (0, 5, 4)):
            monkeypatch.setattr(cli, "_MAX_WINDOW", max_window)
            code, out, err = run_cli(capsys, "invariants", quartic_file, "--window", str(window))
            assert code == 3 and not out
            assert f"window too large: {window} exceeds cap {cap}" in err

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

    def test_r_terms_without_the_dense_r(self, tmp_path, capsys, monkeypatch):
        # R has d - 2 terms, read from q; the dense r_poly has d(d-3) + 1
        # coefficients, about 4 million here, and is never built.  The digest
        # is of the bytes printed when the terms were read from r_poly.
        path = tmp_path / "two.txt"
        path.write_text("[2]\n")
        monkeypatch.setattr(invariants, "r_poly", None)
        code, out, _ = run_cli(capsys, "invariants", str(path), "--d", "2000",
                               "--format", "machine")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "8cc59064a02430f5bc0b032293639a4bbf7d7a1451514ec540b81b10c233132f"
        terms = json.loads(out)["r"]["terms"]
        # [2] has q = (1,): every coefficient is -(j+1)(j+2)/2, plus q_0 at j = d - 3
        assert len(terms) == 1998
        assert terms[0] == [0, 1997 * 2000, -1]
        assert terms[-1] == [1997, 0, 1 - 1998 * 1999 // 2]
        # d = 3 is the least degree with R: one term, e = 0 and q_0 - 1
        code, doc, _ = run_machine(capsys, "invariants", str(path), "--d", "3")
        assert code == 0 and doc["r"] == {"d": 3, "terms": [[0, 0, 0]]}

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

    def test_non_candidate_refused(self, tmp_path, quartic_file, capsys):
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        for file, d in ((str(path), "4"), (quartic_file, "5")):
            code, _, err = run_cli(capsys, "check", file, "--d", d)
            assert code == 2 and "not a candidate" in err, file

    def test_no_candidate_degree_refused(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("[2] [2]\n")  # 2*delta = 4 is no (d-1)(d-2)
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2 and not out
        assert err.startswith("error: no degree: 2*delta has no candidate solution; pass --d")

    def test_unknown_criterion_refused(self, octic_file, capsys):
        code, out, err = run_cli(capsys, "check", octic_file, "--only", "bezout,nosuch")
        assert code == 2 and not out
        assert err == "error: unknown criterion 'nosuch'\n"

    def test_force(self, tmp_path, quartic_file, capsys):
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        for file, d in ((str(path), "4"), (quartic_file, "5")):
            code, doc, _ = run_machine(capsys, "check", file, "--d", d, "--force")
            assert code == 1, file
            by_name = {c["criterion"]: c for c in doc["criteria"]}
            assert not by_name["bl"]["passed"], file

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

    def test_degree_zero_refused(self, quartic_file, capsys):
        code, out, err = run_cli(capsys, "cohomology", quartic_file, "--d", "0")
        assert code == 2 and not out
        assert err == "error: degree must be positive, got 0\n"

    def test_bad_index(self, quartic_file, capsys):
        code, _, err = run_cli(capsys, "cohomology", quartic_file, "--d", "4",
                               "--a", "7")
        assert code == 2


_DEGREE_COMMANDS = [("invariants",), ("check", "--force"),
                    ("cohomology", "--all-spinc"), ("stability",)]


@pytest.mark.parametrize("d", [0, 1, 2])
def test_degree_below_three_is_no_candidate(tmp_path, capsys, d):
    # (0-1)(0-2) = 2 = 2*delta of [2]: `invariants --d 0` printed "candidate: yes"
    path = tmp_path / "a2.txt"
    path.write_text("[2]\n")
    code, doc, _ = run_machine(capsys, "invariants", str(path), "--d", str(d))
    assert code == 0 and doc["is_candidate"] is False
    code, out, err = run_cli(capsys, "invariants", str(path), "--d", str(d))
    assert code == 0 and f"degree: {d}  (candidate: no)" in out
    for force in ((), ("--force",)):
        code, out, err = run_cli(capsys, "check", str(path), "--d", str(d), *force)
        assert (code, out, err) == (2, "", f"error: degree {d} < 3\n"), force


class TestDegreeRule:
    # _load checks the resolved degree once, whatever its source; nothing
    # that grows with d may run before the check
    @pytest.fixture(autouse=True)
    def no_rows(self, monkeypatch):
        for name in ("r_poly", "_r_terms", "spinc_report", "eu_canonical"):
            monkeypatch.setattr(invariants, name, None)
        monkeypatch.setattr(criteria, "run_criterion", None)

    @pytest.mark.parametrize("argv", _DEGREE_COMMANDS)
    def test_negative_degree_refused(self, quartic_file, capsys, argv):
        # `invariants --d -5` printed p_g: -35 and exited 0
        for d in ("-5", "-1"):
            code, out, err = run_cli(capsys, argv[0], quartic_file, *argv[1:], "--d", d)
            assert code == 2 and not out, d
            assert f"degree must be nonnegative, got {d}" in err

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
        monkeypatch.setattr(invariants, "candidate_degree", lambda c: 100000)
        code, out, err = run_cli(capsys, "invariants", quartic_file)
        assert code == 3 and not out
        assert "degree too large: 100000 exceeds cap 2000" in err


class TestDeltaCap:
    # delta of <100000,100001> and of [100000] is 4,999,950,000: the oracle,
    # `cohomology --d 4` and `check --d 5 --force` ended in a MemoryError
    # traceback in counting_fn, and [100000] ran its chain for minutes
    DELTA_MESSAGE = "delta too large: 4999950000 exceeds cap 1997001"

    @pytest.fixture
    def generators_file(self, tmp_path, monkeypatch):
        def refuse(s):
            raise AssertionError("counting_fn ran past the delta cap")

        monkeypatch.setattr(semigroup, "counting_fn", refuse)
        monkeypatch.setattr(invariants, "counting_fn", refuse)
        path = tmp_path / "big.txt"
        path.write_text("<100000,100001>\n")
        return str(path)

    def test_cap_is_the_delta_of_the_largest_degree(self):
        assert cli._MAX_DELTA == 1997001 == 1999 * 1998 // 2
        cli._cap_delta(cli._MAX_DELTA)
        with pytest.raises(invariants.CapExceeded, match="delta too large: 1997002 exceeds"):
            cli._cap_delta(cli._MAX_DELTA + 1)

    @pytest.mark.parametrize("argv", [("oracle", "--j", "0"), ("oracle", "--sweep"),
                                      ("cohomology", "--d", "4"),
                                      ("check", "--d", "5", "--force")])
    def test_generator_literal_refused(self, generators_file, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], generators_file, *argv[1:])
        assert code == 3 and not out
        assert err == f"error: {self.DELTA_MESSAGE}\n"

    @pytest.mark.parametrize("argv", [("invariants",), ("check",), ("stability",),
                                      ("cohomology", "--d", "4"), ("oracle", "--j", "0")],
                             ids=lambda argv: argv[0])
    def test_delta_is_checked_first(self, tmp_path, capsys, monkeypatch, argv):
        # every spelling of the cusp reads its delta in closed form, so each
        # is refused on delta alike, before the candidate degree 100001 and
        # before any chain, generator walk or counting function runs
        def refuse(*args):
            raise AssertionError("ran past the delta cap")

        for name in ("_unblowup", "_blowup", "counting_fn"):
            monkeypatch.setattr(semigroup, name, refuse)
        monkeypatch.setattr(invariants, "counting_fn", refuse)
        path = tmp_path / "big.txt"
        # the Newton spelling comes last: the generator literal is walked as it is parsed
        for literal in ("[100000]", "<100000,100001>", "(100000,100001)"):
            if literal.startswith("("):
                monkeypatch.setattr(semigroup, "semigroup_from_generators", refuse)
            path.write_text(literal + "\n")
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert (code, out, err) == (3, "", f"error: {self.DELTA_MESSAGE}\n"), literal

    def test_generator_literal_refused_under_a_memory_limit(self, tmp_path):
        # unstubbed, in a child with 2 GiB of address space: counting_fn
        # would ask for a 10 GB array
        limit = 2 * 1024 ** 3
        path = tmp_path / "big.txt"
        path.write_text("<100000,100001>\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cuspidal.cli", "oracle", str(path), "--j", "0"],
            capture_output=True, text=True, env=child_env(), timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", f"error: {self.DELTA_MESSAGE}\n")

    def test_newton_pairs_past_an_index_refused(self, tmp_path, capsys):
        # b_0 = 2**70 is past any list index: the generator walk ended in an
        # OverflowError traceback before the post-build delta check
        path = tmp_path / "deep.txt"
        path.write_text("(2,3)" + "(2,1)" * 69 + "\n")
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert code == 3 and not out
        assert err.startswith("error: delta too large: ") and err.endswith(" exceeds cap 1997001\n")

    @pytest.mark.parametrize("literal, digits", [("[" + "9" * 2200 + "]", 4400),
                                                 ("(2,3)" + "(2,1)" * 7200, 4336)],
                             ids=["multiplicity", "newton"])
    def test_delta_past_the_int_digit_limit_refused(self, tmp_path, capsys, literal, digits):
        # str() refuses an int of more than 4,300 digits: the refusal was
        # int's ValueError, exit 2
        path = tmp_path / "huge.txt"
        path.write_text(literal + "\n")
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert (code, out, err) == (
            3, "", f"error: delta too large: a {digits}-digit number exceeds cap 1997001\n")

    @pytest.mark.parametrize("delta, digits", [(10**4400 - 1, 4400), (10**4400, 4401)],
                             ids=["nines", "power"])
    def test_digit_count_at_a_power_of_ten(self, delta, digits):
        # log10 of a run of nines rounds up to the next power's exponent
        with pytest.raises(invariants.CapExceeded,
                           match=f"^delta too large: a {digits}-digit number exceeds"):
            cli._cap_delta(delta)

    @pytest.mark.parametrize("argv", [("invariants",), ("oracle", "--j", "0")])
    def test_multiplicity_sequence_refused_before_its_chain(self, tmp_path, capsys,
                                                             monkeypatch, argv):
        # the chain between a literal's sequence and its semigroup never
        # runs: the blowup chains of the last two took over 20 s and 6.8 s
        def refuse(*args):
            raise AssertionError("a chain ran past the delta cap")

        monkeypatch.setattr(semigroup, "_unblowup", refuse)
        monkeypatch.setattr(semigroup, "_blowup", refuse)
        path = tmp_path / "big.txt"
        for literal, delta in (("[100000]", 4999950000), ("(2,400000001)", 200000000),
                               ("<2,4000001>", 2000000)):
            path.write_text(literal + "\n")
            start = time.perf_counter()
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert time.perf_counter() - start < 1, literal
            assert (code, out, err) == (
                3, "", f"error: delta too large: {delta} exceeds cap 1997001\n"), literal


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

    @pytest.mark.parametrize("argv, degree", [
        (("--family", "C", "--d", "2001", "--u", "1", "--check"), 2001),
        (("--family", "D", "--l", "999"), 2001),
        (("--family", "E", "--l", "666", "--check"), 2002),
        (("--family", "E", "--l", "9" * 4300), "a 4301-digit number"),
    ])
    def test_degree_above_cap_refused(self, capsys, monkeypatch, argv, degree):
        # the degree of a FILE command was capped, the series parameter was
        # not: C(2001,1) --check ran for 38 s and wrote 597 KB of JSON
        monkeypatch.setattr(criteria, "MultSeq", None)  # no sequence is built
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "catalog", *argv)
        assert time.perf_counter() - start < 10
        assert code == 3 and not out
        assert f"degree too large: {degree} exceeds cap 2000" in err


class TestOracle:
    def test_quartic_sweep(self, quartic_file, capsys):
        code, doc, _ = run_machine(capsys, "oracle", quartic_file, "--sweep")
        assert code == 0
        assert doc["all_agree"]
        assert [run["j"] for run in doc["runs"]] == list(range(5))
        # every j of the window [0, 4], ends included, is compared with the formulas
        assert all((run["expected_eu_h0"], run["expected_eu_hstar"])
                   == (run["eu_h0"], run["eu_hstar"]) for run in doc["runs"])

    def test_needs_j_or_sweep(self, quartic_file, capsys):
        code, out, err = run_cli(capsys, "oracle", quartic_file)
        assert code == 2 and not out
        assert err == "error: oracle needs --j or --sweep\n"

    def test_single_j_table(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("[2]\n")
        code, doc, _ = run_machine(capsys, "oracle", str(path), "--j", "0")
        assert code == 0
        run = doc["runs"][0]
        assert run["eu_h0"] == 1 and run["eu_hstar"] == 1 and run["agree"]
        # one row per level, [level, b_0, b_1], and the columns' totals
        assert run["betti_rows"] == [[0, 1, 0], [1, 0, 0]]
        assert run["betti_totals"] == [1, 0]

    def test_two_cusp_positivity_report(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("[3] [2_2]\n")
        code, doc, _ = run_machine(capsys, "oracle", str(path), "--sweep")
        assert code == 0
        for run in doc["runs"]:
            assert run["betti_totals"][1] >= 0
            assert run["eu_h0"] - run["eu_hstar"] == run["betti_totals"][1]

    def test_cap_exit_code(self, quartic_file, capsys):
        # 1 is the least cap accepted; the quartic's box has 64 points
        for cap in ("10", "1"):
            code, _, err = run_cli(capsys, "oracle", quartic_file, "--j", "0",
                                   "--cap", cap)
            assert code == 3 and "cap" in err, cap

    def test_cell_cap_fires_before_allocation(self, tmp_path, capsys, monkeypatch):
        # nine [2]: 262,144 points fit the default cap, 40,353,607 cells do
        # not; numpy failed to allocate them after 4 s under a 2 GB limit
        monkeypatch.setattr(cubical, "_grids", None)
        path = tmp_path / "nine.txt"
        path.write_text("[2] " * 9 + "\n")
        code, out, err = run_cli(capsys, "oracle", str(path), "--j", "0")
        assert code == 3 and not out
        assert err == "error: rectangle too large: 40353607 cells exceed cap 8000000\n"

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

    @pytest.mark.parametrize("cap, code", [("320", 0), ("319", 3)])
    def test_sweep_capped_by_total_points(self, quartic_file, capsys, cap, code):
        # 5 runs of 64 points each; --cap bounded only one box
        got, out, err = run_cli(capsys, "oracle", quartic_file, "--sweep", "--cap", cap)
        assert got == code
        if code == 3:
            assert not out
            assert "sweep too large: 5 runs of 64 lattice points exceed cap 319" in err

    def test_sweep_refused_before_any_box(self, tmp_path, capsys, monkeypatch):
        # each box is 8% of the default cap, but at about 0.8 s a box the
        # 799 of them add up to minutes
        monkeypatch.setattr(cubical, "oracle_eu", None)
        path = tmp_path / "long.txt"
        path.write_text("[2_200] [2_200]\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", str(path), "--sweep")
        assert time.perf_counter() - start < 10
        assert code == 3 and not out
        assert "799 runs of 161604 lattice points exceed cap 2000000" in err

    def test_zero_length_axes_cost_nothing(self, tmp_path, capsys):
        # an axis of length 0 has no cubes; walking all 2^22 axis masks for
        # this one-point box ran past 30 s
        path = tmp_path / "many.txt"
        path.write_text(" ".join(["[2]"] * 22) + "\n")
        start = time.perf_counter()
        code, doc, _ = run_machine(capsys, "oracle", str(path), "--j", "0",
                                   "--box", ",".join(["0"] * 22))
        assert time.perf_counter() - start < 10
        assert code == 1  # the formulas need a larger box
        assert doc["runs"][0]["betti_rows"] == [[0] * 24]

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
        assert all(row["difference"] == row["eu_h0"] - row["eu_hstar"]
                   for row in doc["regroupings"])

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

    def test_long_sequence_refused_before_build(self, tmp_path, capsys, monkeypatch):
        # the un-blowup chain of [2_1200] took 0.75 s before the refusal
        monkeypatch.setattr(cli, "build_collection", None)
        path = tmp_path / "long.txt"
        path.write_text("[2_1200]\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "stability", str(path))
        assert time.perf_counter() - start < 0.1
        assert code == 3 and not out
        assert "multiset too large: 1200 entries exceed cap 256" in err

    @pytest.mark.parametrize("literal", ["<2,2401>", "(2,2401)"])
    def test_long_semigroup_refused_before_build(self, tmp_path, capsys, literal):
        # the blowup chain, linear in its 1,200 entries, reads the multiset
        # that regroupings refuses before any H is built
        path = tmp_path / "long.txt"
        path.write_text(literal + "\n")
        code, out, err = run_cli(capsys, "stability", str(path))
        assert code == 3 and not out
        assert "multiset too large: 1200 entries exceed cap 256" in err

    def test_sequences_given_are_never_re_derived(self, tmp_path, capsys, monkeypatch):
        # a collection keeps the multiplicity sequences it is given, so no
        # caller that holds them runs the blowup chain
        def refuse(s):
            raise AssertionError(f"blowup chain run on {s}")

        monkeypatch.setattr(invariants, "multseq_from_semigroup", refuse)
        seqs = [semigroup.MultSeq(e) for e in ((6, 3), (4, 2), (3, 2), (2, 2))]
        assert invariants.CuspCollection(seqs).multseqs == tuple(seqs)
        entry = criteria.catalog("C", d=9, u=2)
        assert entry.collection().multseqs == entry.cusps
        groups = criteria.regroupings(criteria.multiplicity_multiset(
            invariants.CuspCollection(seqs)), cap=20)
        assert [c.multseqs for c in groups.cusp_collections()] == list(groups.collections)
        path = tmp_path / "four.txt"
        path.write_text("[6,3] [4,2] [3,2] [2_2]\n")
        assert run_cli(capsys, "stability", str(path))[::2] == (0, "")
        assert run_cli(capsys, "catalog", "--family", "C", "--d", "9", "--u", "2",
                       "--check")[::2] == (0, "")

    def test_smooth_point_refused(self, tmp_path, capsys):
        path = tmp_path / "smooth.txt"
        for text, token in (("<1,5> [2]", 1), ("[2] <1,5>", 2)):
            path.write_text(text + "\n")
            for command in REFUSING_COMMANDS:
                code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
                assert code == 2 and not out
                assert err == (f"error: {path}:1: token {token}: bad cusp '<1,5>': "
                               "smooth point is not a cusp\n")

    def test_non_plane_branch_refused(self, tmp_path, capsys):
        path = tmp_path / "apery.txt"
        path.write_text("<3,4,5>\n")
        for command in REFUSING_COMMANDS:
            code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
            assert code == 2 and not out
            assert err == ("error: bad cusp '<3,4,5>': not a plane-branch semigroup: "
                           "blowup does not preserve the Apery order\n")

    @pytest.mark.parametrize("text, entries", [
        ("[3,2_300]\n", 301),         # inadmissible itself
        ("[2_300] [3,2_3]\n", 304),   # the second literal is inadmissible
    ])
    def test_long_multiset_refused_before_resolution_errors(self, tmp_path, capsys,
                                                            text, entries):
        # the count comes from the parsed literals, so it precedes the error
        # that resolving them would raise (exit 2, "bad cusp")
        path = tmp_path / "long.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "stability", str(path))
        assert code == 3 and not out
        assert f"multiset too large: {entries} entries exceed cap 256" in err
        assert "bad cusp" not in err

    def test_rows_capped_by_window(self, tmp_path, capsys, monkeypatch):
        # the multiset of C(60,1), delta = 1,711: each row computes H, bl and
        # eu at that delta, and the 10,000-row walk cap alone ran for minutes
        path = tmp_path / "c601.txt"
        path.write_text("[58] [2_57] [2]\n")
        start = time.perf_counter()
        code, doc, _ = run_machine(capsys, "stability", str(path))
        assert time.perf_counter() - start < 10
        assert code == 0 and doc["truncated"] and doc["h_equal"]
        assert len(doc["regroupings"]) == criteria._STABILITY_CELLS // (2 * 1711 + 1)
        # a row per 2*delta + 1 = 13 cells of [3] [2_3], and at least one: budgets
        # of 24, 26 and 5 cells allow 1, 2 and 1 of its five rows
        path.write_text("[3] [2_3]\n")
        for cells, rows in ((24, 1), (26, 2), (5, 1)):
            monkeypatch.setattr(criteria, "_STABILITY_CELLS", cells)
            code, doc, _ = run_machine(capsys, "stability", str(path))
            assert code == 0 and doc["truncated"] and len(doc["regroupings"]) == rows, cells

    def test_walk_bounded_by_parts_tried(self, tmp_path, capsys):
        # under --max-parts the walk tries every sub-multiset that holds the
        # largest entry, about 3 * 4**11 here, and keeps almost none: the row
        # cap never fired and it ran for minutes
        path = tmp_path / "twelve_values.txt"
        path.write_text(" ".join(f"[{m}]" for m in range(13, 1, -1) for _ in range(3)) + "\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "stability", str(path), "--max-parts", "1")
        assert time.perf_counter() - start < 10
        assert code == 3 and not out
        cap = criteria._MAX_PARTS_TRIED
        assert f"{cap + 1} parts tried exceed cap {cap}" in err

    def test_text_names_a_varying_eu_h0(self, tmp_path, capsys, monkeypatch):
        # no input known today gives two eu_h0 values (the paper's theorem),
        # so the renderer, which reads only the document, gets a built one
        doc = {
            "cusps": ["[3]", "[2_2]"], "multiset": [3, 2, 2], "truncated": False,
            "regroupings": [
                {"parts": ["[3]", "[2_2]"], "h_matches": True,
                 "eu_h0": 6, "eu_hstar": 6, "difference": 0},
                {"parts": ["[3]", "[2]", "[2]"], "h_matches": False,
                 "eu_h0": 7, "eu_hstar": 6, "difference": 1},
            ],
            "h_equal": False, "bl_constant": None,
            "eu_h0_values": [6, 7], "eu_hstar_values": [6],
        }
        assert cli.text_stability(doc, None)[-4:] == [
            "H identical across regroupings: NO",
            "eu_h0 VARIES: 6 7",
            "eu_hstar values: 6",
            "overall: FAIL",
        ]
        # and the command, given a varying eu_h0 by a stub, exits 1
        values = itertools.count()
        monkeypatch.setattr(invariants, "eu_canonical", lambda c, d: (next(values), 0))
        path = tmp_path / "deg5.txt"
        path.write_text("[3] [2_3]\n")
        code, out, _ = run_cli(capsys, "stability", str(path))
        assert code == 1 and out.endswith("overall: FAIL\n")

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


def test_console_script_is_main(quartic_file, monkeypatch):
    # pip installs `cuspidal` as a script that calls this target and exits
    # with its return value; tomllib is 3.11+, so the line is read as text
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    name, target = (part.strip().strip('"') for part in scripts.strip().split("="))
    module, func = target.split(":")
    assert name == "cuspidal"
    main = getattr(importlib.import_module(module), func)
    assert main is cli.main
    for argv, code in ((["check", quartic_file], 0), (["check", quartic_file, "--d", "5"], 2),
                       (["check", quartic_file, "--d", "5", "--force"], 1)):
        monkeypatch.setattr(sys, "argv", ["cuspidal", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code, argv


def test_reader_closing_pipe_early(tmp_path):
    # 430 KB of machine output, more than a pipe buffer holds: the write
    # meets the closed pipe, and the command still ends quietly with its code
    path = tmp_path / "big.txt"
    path.write_text("[60] [60]\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "cuspidal.cli", "invariants", str(path), "--format", "machine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")


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


def test_no_command_lists_the_gaps(tmp_path, capsys, monkeypatch):
    # every command computes from the Apery sets; listing the gaps costs
    # delta integers a cusp, which <60,61> alone makes 1,770
    def refuse(self):
        raise AssertionError("a command listed the gaps")

    monkeypatch.setattr(semigroup.Semigroup, "gaps", property(refuse))
    semigroup._semigroup_from_entries.cache_clear()
    inv = tmp_path / "inv.txt"
    inv.write_text("<60,61> (20,21)(2,1) [6,3]\n")
    quintic = tmp_path / "quintic.txt"
    quintic.write_text("[3] [2_2] [2]\n")
    stab = tmp_path / "stab.txt"
    stab.write_text("[6,3] [4,2] [3,2] [2_2]\n")
    for argv in (["invariants", str(inv)], ["check", str(quintic)],
                 ["oracle", str(quintic), "--j", "1"], ["cohomology", str(quintic), "--d", "4"],
                 ["stability", str(stab)], ["catalog", "--family", "C", "--d", "7", "--u", "2", "--check"]):
        code, _, err = run_machine(capsys, *argv)
        assert code == 0, (argv, err)
