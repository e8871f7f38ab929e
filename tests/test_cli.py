import json

import pytest

from nonrepcolor import decide
from nonrepcolor.cli import main
from nonrepcolor.model import cycle_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_colors_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([1, 2, 3, 4, 2, 3]))
        code, _, _ = run(capsys, "verify", "cycle:6",
                         "--colors-file", str(path), "--property", "walk")
        assert code == 0


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

    def test_budget_exhausted(self, capsys):
        code, out, _ = run(capsys, "solve", "cycle:9", "--property", "path",
                           "--max-colors", "3", "--budget", "5")
        assert code == 3 and "ABORTED" in out

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("NONREP_BUDGET", "5")
        code, _, _ = run(capsys, "solve", "cycle:9",
                         "--property", "path", "--max-colors", "3")
        assert code == 3


class TestSa:
    def test_longest(self, capsys):
        code, out, _ = run(capsys, "sa", "longest", "--json")
        data = json.loads(out)
        assert code == 0 and data["max_length"] == 19
        assert data["words"] == ["SASAASAAASAAASAASAS"]

    def test_encode(self, capsys):
        code, out, _ = run(capsys, "sa", "encode", "path:4",
                           "--colors", "1213")
        assert code == 0 and out.strip() == "SA"

    def test_encode_needs_graph(self, capsys):
        code, _, err = run(capsys, "sa", "encode", "--colors", "1213")
        assert code == 2

    def test_decode_inconsistent_cycle(self, capsys):
        code, out, _ = run(capsys, "sa", "decode",
                           "--word", "AAAASAAASAAA", "--kind", "cycle")
        assert code == 1 and "FAIL" in out

    def test_check(self, capsys):
        code, out, _ = run(capsys, "sa", "check", "--word", "AASAASAA",
                           "--json")
        data = json.loads(out)
        assert code == 1 and data["factor"] == "AASAASAA"

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "sa", "witness", "--word", "SS")
        assert code == 0 and "1212" in out


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

    def test_failed_self_verification_is_internal_error(self, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(decide, "exists_repetitive_stroll",
                            lambda g, c: object())
        code, _, err = run(capsys, "construct", "rho-cycle", "--n", "8")
        assert code == 4 and "internal error" in err


class TestReproduce:
    def test_lemma5_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce", "lemma5")
        assert code == 0 and "PASS" in out

    def test_fig1_json(self, capsys):
        code, out, _ = run(capsys, "reproduce", "fig1", "--json")
        data = json.loads(out)
        assert code == 0 and data["pass"] is True and data["schema"] == 1

    def test_time_budget_abort(self, capsys):
        code, out, _ = run(capsys, "reproduce", "table1",
                           "--time-budget", "0.0001")
        assert code == 3
