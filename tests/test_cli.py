import json
from pathlib import Path

import pytest

from nonrepcolor import cli, construct, decide
from nonrepcolor.cli import main
from nonrepcolor.model import Graph, cycle_graph

# P7 laid out 1-6-3-5-2-0-4
P7_RELABELLED = str(Path(__file__).parent / "data" / "p7_relabelled.json")
# the graph of construct fig1: a triangle with a tail, no path or cycle
FIG1_GRAPH = str(Path(__file__).parent / "data" / "fig1_graph.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rejected(capsys, *argv):
    """The exit code of a command line argparse rejects; nothing on stdout."""
    code, out, err = run(capsys, *argv)
    assert out == "" and "unrecognized arguments" in err
    return code


@pytest.mark.parametrize("argv", [["--help"], ["sa", "encode", "--help"]])
def test_help_returns_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.startswith("usage: nonrepcolor") and err == ""


def test_usage_errors_return_two(capsys):
    """Usage errors argparse finds and ones main finds take one exit path."""
    code, out, err = run(capsys, "solve", "path:5")
    assert (code, out) == (2, "") and "required: --property" in err
    code, out, err = run(capsys, "solve", "path:x", "--property", "stroll",
                         "--max-colors", "3")
    assert (code, out) == (2, "") and "bad graph size" in err


def _unbuilt(n, *edges):
    raise AssertionError(f"a graph of {n} vertices was built")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv", [
    ["verify", "path:900000000", "--colors", "1", "--property", "path"],
    ["verify", "cycle:900000000", "--colors", "121", "--property", "walk"],
    ["sa", "encode", "path:900000000", "--colors", "12"],
])
def test_line_longer_than_its_coloring_is_not_built(capsys, monkeypatch, argv):
    """N is checked against the coloring before path:N or cycle:N is built."""
    monkeypatch.setattr(cli, "path_graph", _unbuilt)
    monkeypatch.setattr(cli, "cycle_graph", _unbuilt)
    code, out, err = run(capsys, *argv)
    n = len(argv[argv.index("--colors") + 1])
    assert (code, out, err) == (2, "", f"error: coloring has {n} entries but "
                                       "the graph has 900000000 vertices\n")


@pytest.mark.parametrize("argv", [
    ["verify", "FILE", "--property", "path", "--colors", "121"],
    ["sa", "encode", "FILE", "--colors", "121"],
])
def test_graph_file_larger_than_its_coloring_is_not_built(
        capsys, monkeypatch, tmp_path, argv):
    """A graph file's n is checked against the coloring, as path:N's is,
    before the graph is built."""
    path = tmp_path / "g.json"
    path.write_text('{"n": 1000000, "edges": []}')
    monkeypatch.setattr(Graph, "from_edges", _unbuilt)
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert (code, out, err) == (2, "", "error: coloring has 3 entries but "
                                       "the graph has 1000000 vertices\n")


@pytest.mark.parametrize("target,argv", [
    ((cli, "path_graph"), ["verify", "path:5", "--colors", "12131",
                           "--property", "stroll"]),
    ((construct, "rho_path_coloring"), ["construct", "rho-path", "--n", "9",
                                        "--budget", "1"]),
])
def test_out_of_memory_is_not_a_verdict(capsys, monkeypatch, target, argv):
    """Running out of memory is exit 4 with one line, not exit 1 (fails)."""
    monkeypatch.setattr(*target, _out_of_memory)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (4, "", "error: out of memory\n")


class TestVerify:
    def test_walk_holds(self, capsys):
        code, out, _ = run(capsys, "verify", "cycle:8",
                           "--colors", "12341243", "--property", "walk")
        assert code == 0 and "OK" in out

    def test_stroll_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "path:7",
                           "--colors", "1232123", "--property", "stroll")
        assert code == 1
        assert "12321232" in out

    def test_length_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "path:5",
                           "--colors", "1213", "--property", "path")
        assert code == 2 and "error" in err

    def test_colors_below_one_name_the_vertex(self, capsys):
        code, out, err = run(capsys, "verify", "path:3",
                             "--colors", "000", "--property", "path")
        assert code == 2 and out == ""
        assert "vertex 0 has color 0" in err and "k must" not in err

    def test_missing_coloring(self, capsys):
        code, _, err = run(capsys, "verify", "path:5", "--property", "path")
        assert code == 2 and "coloring" in err

    def test_bad_graph_spec(self, capsys):
        code, _, err = run(capsys, "verify", "cycle:x",
                           "--colors", "121", "--property", "path")
        assert code == 2 and "error" in err

    def test_dist2(self, capsys):
        code, out, _ = run(capsys, "verify", "path:3",
                           "--colors", "121", "--property", "dist2", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["schema"] == 1 and data["violating_pair"] == [0, 2]

    def test_dist2_holds(self, capsys):
        argv = ["verify", "path:3", "--colors", "123", "--property", "dist2"]
        assert run(capsys, *argv) == (0, "OK: distance-2\n", "")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out) == {
            "schema": 1, "property": "dist2", "holds": True}

    def test_json_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "path:2",
                           "--colors", "11", "--property", "stroll", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["witness"]["walk"] == [0, 1]

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(cycle_graph(6).to_json())
        code, out, _ = run(capsys, "verify", str(path),
                           "--colors", "123423", "--property", "walk")
        assert code == 0

    def test_invalid_graph_size_message(self, capsys):
        code, out, err = run(capsys, "verify", "path:0",
                             "--colors", "1", "--property", "path")
        assert (code, out, err) == (
            2, "", "error: path needs at least one vertex\n")

    @pytest.mark.parametrize("command", [
        ["solve", "--property", "stroll", "--max-colors", "3"],
        ["verify", "--colors", "1", "--property", "path"],
    ])
    def test_empty_graph_file(self, capsys, tmp_path, command):
        path = tmp_path / "g.json"
        path.write_text('{"n": 0, "edges": []}')
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (2, "")
        assert err == (f"error: cannot load graph from {str(path)!r}: n must be "
                       "a positive integer and edges a list of integer [u, v] pairs\n")

    @pytest.mark.parametrize("text,key", [
        ('{"n": 3}', "edges"),
        ('{"edges": [[0, 1]]}', "n"),
        ("{}", "n"),
    ])
    def test_graph_file_missing_key(self, capsys, tmp_path, text, key):
        path = tmp_path / "g.json"
        path.write_text(text)
        code, out, err = run(capsys, "solve", str(path), "--property", "path",
                             "--max-colors", "3")
        assert (code, out, err) == (
            2, "", f"error: cannot load graph from {str(path)!r}: "
                   f"missing key {key!r}\n")

    @pytest.mark.parametrize("text", [
        "[1,2]",
        '{"n": 3, "edges": [[0, "a"]]}',
        '{"n": 3, "edges": [[0, 1.5]]}',
    ])
    def test_malformed_graph_file(self, capsys, tmp_path, text):
        path = tmp_path / "g.json"
        path.write_text(text)
        code, _, err = run(capsys, "verify", str(path),
                           "--colors", "123", "--property", "path")
        assert code == 2 and "cannot load graph" in err

    def test_colors_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([1, 2, 3, 4, 2, 3]))
        code, _, _ = run(capsys, "verify", "cycle:6",
                         "--colors-file", str(path), "--property", "walk")
        assert code == 0

    def test_colors_and_colors_file_conflict(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "path:3", "--property",
                             "stroll", "--colors", "121", "--colors-file",
                             str(tmp_path / "missing.json"))
        assert code == 2 and out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("text", ["[1.7, 2, 3]", "[[1], 2, 3]",
                                      "[true, 2, 3]"])
    def test_non_integer_colors_file(self, capsys, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "path:3",
                             "--colors-file", str(path), "--property", "path")
        assert code == 2 and out == ""
        assert "cannot load coloring" in err

    def test_witness_colors_above_nine_human(self, capsys, tmp_path):
        """Colors above 9 print as a list, never as run-together digits."""
        path = tmp_path / "c.json"
        path.write_text("[10, 11, 10, 11]")
        code, out, _ = run(capsys, "verify", "path:4",
                           "--colors-file", str(path), "--property", "path")
        assert code == 1
        assert out == ("FAIL: repetitive path witness [0, 1, 2, 3] "
                       "with colors [10, 11, 10, 11]\n")

    @pytest.mark.parametrize("colors, want", [
        ([10, 11, 10, 11], [10, 11, 10, 11]),
        ([1, 2, 1, 2], "1212"),
    ])
    def test_witness_colors_json(self, capsys, tmp_path, colors, want):
        """A digit string when k <= 9, else a list of ints, as solve does."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps(colors))
        code, out, _ = run(capsys, "verify", "path:4", "--colors-file",
                           str(path), "--property", "path", "--json")
        assert code == 1
        assert json.loads(out)["witness"]["colors"] == want


    @pytest.mark.parametrize("prop", ["path", "stroll", "walk"])
    def test_colors_past_chr_json(self, capsys, tmp_path, prop):
        """Colors of 0x110000 and more give the witness their ranks give,
        printed in the colors of the file."""
        big = [0x110000 + col for col in (1, 2, 3, 1, 2, 3, 4)]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(big))
        code, out, _ = run(capsys, "verify", "cycle:7", "--colors-file",
                           str(path), "--property", prop, "--json")
        assert code == 1
        assert json.loads(out)["witness"] == {
            "walk": [0, 1, 2, 3, 4, 5], "colors": big[:6], "violated": prop}


class TestSolve:
    def test_six_cycle_stroll_value(self, capsys):
        code, out, _ = run(capsys, "solve", "cycle:6",
                           "--property", "stroll", "--max-colors", "4")
        assert code == 0 and "value 3" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "solve", "cycle:9",
                           "--property", "path", "--max-colors", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1 and data["value"] == 4

    def test_relabelled_path_file(self, capsys):
        code, out, _ = run(capsys, "solve", P7_RELABELLED, "--property",
                           "stroll", "--max-colors", "4", "--json")
        data = json.loads(out)
        assert code == 0 and data["value"] == 3 and data["exhausted_k"] == [1, 2]
        assert data["graph"]["edges"] == [[0, 2], [0, 4], [1, 6], [2, 5],
                                          [3, 5], [3, 6]]
        code, _, _ = run(capsys, "verify", P7_RELABELLED, "--colors",
                         data["certificate"], "--property", "stroll")
        assert code == 0

    def test_fig1_graph_file(self, capsys):
        assert Graph.from_json(Path(FIG1_GRAPH).read_text()) == \
            construct.figure1_fixture()[0]
        edges = json.loads(Path(FIG1_GRAPH).read_text())["edges"]
        for prop, value in (("path", 3), ("stroll", 4), ("walk", 4)):
            argv = ["solve", FIG1_GRAPH, "--property", prop, "--max-colors", "5"]
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.startswith(f"value {value}  certificate ")
            code, out, _ = run(capsys, *argv, "--json")
            data = json.loads(out)
            assert code == 0 and data["value"] == value
            assert data["graph"] == {"kind": "graph", "n": 10, "edges": edges}

    def test_infeasible(self, capsys):
        argv = ["solve", "cycle:5", "--property", "walk", "--max-colors", "4"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("infeasible for k <= 4  nodes ")
        code, out, _ = run(capsys, *argv, "--json")
        data = json.loads(out)
        assert code == 0 and data["value"] is None
        assert data["notes"] == ["infeasible for all k <= 4"]

    def test_budget_exhausted(self, capsys):
        code, out, _ = run(capsys, "solve", "cycle:9", "--property", "path",
                           "--max-colors", "3", "--budget", "5")
        assert code == 3 and "ABORTED" in out

    def test_budget_is_set_by_flag_alone(self, capsys, monkeypatch):
        """The node budget has no environment variable: NONREP_BUDGET, once
        one, leaves solve's default budget as it is."""
        argv = ["solve", "cycle:9", "--property", "path", "--max-colors", "4"]
        want = run(capsys, *argv)
        monkeypatch.setenv("NONREP_BUDGET", "5")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == want and code == 0
        assert "certificate" in out

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_non_positive_budget(self, capsys, budget):
        code, out, err = run(capsys, "solve", "path:5", "--property", "stroll",
                             "--max-colors", "4", "--budget", budget)
        assert (code, out) == (2, "")
        assert err == f"error: --budget must be a positive node count, " \
                      f"not {budget}\n"


class TestSa:
    def test_longest(self, capsys):
        code, out, _ = run(capsys, "sa", "longest", "--json")
        data = json.loads(out)
        assert code == 0 and data["max_length"] == 19
        assert data["words"] == ["SASAASAAASAAASAASAS"]

    def test_longest_takes_no_length_cap(self, capsys):
        """A cap below 19 would report a shorter word as the longest."""
        assert rejected(capsys, "sa", "longest", "--max-len", "5") == 2
        code, out, _ = run(capsys, "sa", "longest", "--json")
        assert code == 0 and json.loads(out)["max_length"] == 19

    def test_encode(self, capsys):
        code, out, _ = run(capsys, "sa", "encode", "path:4",
                           "--colors", "1213")
        assert code == 0 and out.strip() == "SA"

    def test_encode_relabelled_path_file(self, capsys, tmp_path):
        path = tmp_path / "p4.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [0, 3], [2, 3]]}')
        code, out, err = run(capsys, "sa", "encode", str(path),
                             "--colors", "2131")
        assert (code, out, err) == (0, "SA\n", "")

    def test_encode_needs_graph(self, capsys):
        code, out, err = run(capsys, "sa", "encode", "--colors", "1213")
        assert code == 2 and out == ""
        assert "the following arguments are required: graph" in err

    def test_decode_inconsistent_cycle(self, capsys):
        code, out, _ = run(capsys, "sa", "decode",
                           "--word", "AAAASAAASAAA", "--kind", "cycle")
        assert code == 1 and "FAIL" in out

    def test_decode_consistent_cycle(self, capsys):
        argv = ["sa", "decode", "--word", "AAA", "--kind", "cycle"]
        assert run(capsys, *argv) == (0, "123\n", "")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out) == {
            "schema": 1, "consistent": True, "coloring": "123"}

    def test_decode_invalid_word_message(self, capsys):
        code, out, err = run(capsys, "sa", "decode", "--word", "XYZ")
        assert (code, out, err) == (
            2, "", "error: word must be over {S, A}: 'XYZ'\n")

    def test_check(self, capsys):
        code, out, _ = run(capsys, "sa", "check", "--word", "AASAASAA",
                           "--json")
        data = json.loads(out)
        assert code == 1 and data["factor"] == "AASAASAA"

    def test_check_h_free(self, capsys):
        argv = ["sa", "check", "--word", "SASAASAAASAAASAASAS"]
        assert run(capsys, *argv) == (0, "OK: no forbidden factor\n", "")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out) == {"schema": 1, "h_free": True}

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "sa", "witness", "--word", "SS")
        assert code == 0 and "1212" in out

    def test_longest_rejects_colors(self, capsys):
        code = rejected(capsys, "sa", "longest", "--colors", "12")
        assert code == 2

    def test_check_rejects_kind(self, capsys):
        code = rejected(capsys, "sa", "check", "--word", "SS", "--kind",
                         "cycle")
        assert code == 2


class TestConstruct:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "construct", "table1", "--n", "8", "--json")
        data = json.loads(out)
        assert code == 0 and data["value"] == 4
        assert len(data["coloring"]) == 8

    def test_sigma_cycle_with_trace(self, capsys):
        code, out, _ = run(capsys, "construct", "sigma-cycle", "--n", "24",
                           "--trace", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["trace"]["base_cycle_n"] == 16
        assert len(data["coloring"]) == 24

    def test_rho_path(self, capsys):
        code, out, _ = run(capsys, "construct", "rho-path", "--n", "21",
                           "--json")
        data = json.loads(out)
        assert code == 0 and data["value"] == 3

    def test_rho_cycle(self, capsys):
        code, out, _ = run(capsys, "construct", "rho-cycle", "--n", "8")
        assert code == 0 and "12132123" in out

    def test_fig1(self, capsys):
        code, out, _ = run(capsys, "construct", "fig1", "--json")
        data = json.loads(out)
        assert code == 0 and len(data["coloring"]) == 10

    def test_out_of_range_n(self, capsys):
        code, _, err = run(capsys, "construct", "table1", "--n", "3")
        assert code == 2

    def test_budget_exhausted(self, capsys):
        code, _, err = run(capsys, "construct", "sigma-cycle", "--n", "24",
                           "--budget", "5")
        assert code == 3 and "ABORTED" in err

    @pytest.mark.parametrize("target", [
        "table1", "sigma-cycle", "rho-path", "rho-cycle"])
    def test_n_is_required(self, capsys, target):
        """A forgotten --n is named by argparse, not read as n = 0."""
        code, out, err = run(capsys, "construct", target)
        assert (code, out) == (2, "")
        assert "the following arguments are required: --n" in err

    def test_fig1_rejects_n(self, capsys):
        assert rejected(capsys, "construct", "fig1", "--n", "3") == 2

    def test_table1_rejects_trace_and_budget(self, capsys):
        code = rejected(capsys, "construct", "table1", "--n", "5", "--trace",
                         "--budget", "3")
        assert code == 2

    def test_rho_path_rejects_trace(self, capsys):
        code = rejected(capsys, "construct", "rho-path", "--n", "5",
                         "--trace")
        assert code == 2

    # above 21 vertices rho returns sigma's coloring, and its Barát–Wood walk
    # check is the one that fails: rho-path 22 through a square the scan
    # reports, rho-cycle 30 through a fold; the path verdicts of sigma's
    # base search, a regex each, still pass
    @pytest.mark.parametrize("target,n", [
        ("rho-cycle", "8"), ("rho-path", "22"), ("rho-cycle", "30")])
    def test_failed_self_verification_is_internal_error(self, capsys,
                                                        monkeypatch, target, n):
        if n == "22":
            monkeypatch.setattr(decide, "_least_squares",
                                lambda g, text: [g.line[:2] * 2])
        elif n == "30":
            monkeypatch.setattr(decide, "_short_witness",
                                lambda g, text, allow_diagonal: (None, True))
        else:
            real = decide.holds
            monkeypatch.setattr(decide, "holds", lambda g, c, prop: (
                prop == "path" and real(g, c, prop)))
        code, _, err = run(capsys, "construct", target, "--n", n)
        assert code == 4 and "internal error" in err
        assert "self-verification" in err


class TestReproduce:
    def test_lemma5_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce", "lemma5")
        assert code == 0 and "PASS" in out

    def test_fig1_json(self, capsys):
        code, out, _ = run(capsys, "reproduce", "fig1", "--json")
        data = json.loads(out)
        assert code == 0 and data["pass"] is True and data["schema"] == 1

    @pytest.mark.parametrize("budget,shown", [
        ("-1", "-1"), ("0", "0"), ("nan", "nan"), ("inf", "inf")])
    def test_bad_time_budget(self, capsys, budget, shown):
        code, out, err = run(capsys, "reproduce", "lemma5",
                             "--time-budget", budget)
        assert (code, out, err) == (
            2, "", f"error: --time-budget must be a positive, finite number "
                   f"of seconds, not {shown}\n")

    def test_failed_construction_is_a_failed_row(self, capsys, monkeypatch):
        """thm1 reports sigma's failure as its row's detail: a failed claim,
        exit 1, not the internal error (exit 4) of construct sigma-cycle."""
        def fails(n, node_budget=None):
            raise RuntimeError("constructed coloring failed self-verification")

        monkeypatch.setattr(construct, "sigma_cycle_coloring", fails)
        code, out, _ = run(capsys, "reproduce", "thm1", "--json")
        data = json.loads(out)
        assert code == 1 and data["pass"] is False and not data["aborted"]
        failed = [r for r in data["rows"] if not r["pass"]]
        assert [r["check"] for r in failed] == [
            f"C{n}: 4-coloring built and walk-verifies" for n in range(22, 41)]
        assert {r["detail"] for r in failed} == {
            "constructed coloring failed self-verification"}
        assert data["rows"][-1]["pass"]
        code, out, _ = run(capsys, "reproduce", "thm1")
        assert code == 1 and out.endswith("FAIL: thm1 (1/20 checks)\n")

    def test_time_budget_abort(self, capsys):
        code, out, _ = run(capsys, "reproduce", "table1",
                           "--time-budget", "0.0001")
        assert code == 3
