import json
import random

import pytest

import torhom.recursion as recursion
from torhom.cli import main
from torhom.links import TorusLinkSpec, torus_link_homology
from torhom.recursion import MemoTable
from torhom.ring import render


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    return json.loads(out)


class TestExitCodes:
    def test_domain_error(self, capsys):
        assert run(capsys, ["torus", "0", "5"])[0] == 2

    def test_weight_mismatch(self, capsys):
        assert run(capsys, ["pair", "11", "1"])[0] == 2

    def test_bad_bits(self, capsys):
        assert run(capsys, ["pair", "012", "01"])[0] == 2

    def test_sigma_out_of_range(self, capsys):
        assert run(capsys, ["sigma", "2", "3"])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_check_pass(self, capsys):
        code, out, _ = run(capsys, ["check", "unknot-family"])
        assert code == 0
        assert "checks passed" in out

    def test_check_flags(self, capsys):
        assert run(capsys, ["check", "lemma53", "--r", "1", "--len", "2"])[0] == 0

    def test_check_rejects_flags_the_suite_does_not_take(self, capsys):
        code, out, err = run(capsys, ["check", "symmetry", "--r", "3"])
        assert code == 2
        assert out == ""
        assert err == "error: check symmetry does not take --r\n"
        assert run(capsys, ["check", "roundtrip", "--seed", "1"])[0] == 2


class TestTorus:
    def test_human_output(self, capsys):
        code, out, err = run(capsys, ["torus", "1", "1"])
        assert code == 0
        assert "T(1,1) = (1 + a) / ((1-q))" in out
        assert "memo entries:" in err

    def test_json_matches_library(self, capsys):
        data = run_json(capsys, ["torus", "2", "3"])
        want = json.loads(render(torus_link_homology(TorusLinkSpec(2, 3)), "json"))
        assert data["command"] == "torus"
        assert data["params"] == {"m": 2, "n": 3, "normalized": False}
        assert data["result"] == want
        assert {"seconds", "entries", "hits", "misses", "max_depth"} <= set(data["timing"])

    def test_memo_counters(self, capsys, tmp_path):
        path = str(tmp_path / "memo.tsv")
        cold = run_json(capsys, ["torus", "4", "4", "--cache", path])["timing"]
        # every stored value was computed once; shared sub-pairs were hits
        assert cold["misses"] == cold["entries"] == 31
        assert cold["hits"] > 0
        assert cold["max_depth"] > 1
        warm = run_json(capsys, ["torus", "4", "4", "--cache", path])["timing"]
        assert warm["misses"] == 0 and warm["hits"] == 1

    def test_json_deterministic_minus_timing(self, capsys):
        a = run_json(capsys, ["torus", "3", "2"])
        b = run_json(capsys, ["torus", "3", "2"])
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_normalized(self, capsys):
        data = run_json(capsys, ["torus", "2", "3", "--normalized"])
        plain = run_json(capsys, ["torus", "2", "3"])
        shifted = [[q - 4, a + 1, t + 1, c] for q, a, t, c in plain["result"]["num"]]
        assert data["result"]["num"] == sorted(shifted)


class TestPair:
    def test_empty_pair(self, capsys):
        code, out, _ = run(capsys, ["pair", "", ""])
        assert code == 0
        assert "p(empty,empty) = 1" in out

    def test_expand_flag(self, capsys):
        data = run_json(capsys, ["pair", "0", "0", "--expand", "2"])
        assert data["expand_depth"] == 2
        # (1+a)(1 + q + q^2): six terms, no denominator left
        assert len(data["expansion"]["num"]) == 6
        assert data["expansion"]["den"] == []

    def test_latex(self, capsys):
        code, out, _ = run(capsys, ["pair", "0", "0", "--format", "latex"])
        assert code == 0
        assert "\\frac{" in out


class TestColored:
    def test_single_order(self, capsys):
        data = run_json(capsys, ["colored", "1", "1", "2", "--order", "theorem"])
        assert data["params"]["order"] == "theorem"
        assert "orders_match_up_to_monomial" not in data

    def test_both_orders(self, capsys):
        data = run_json(capsys, ["colored", "1", "1", "2"])
        assert "result_example" in data
        assert "orders_match_up_to_monomial" in data

    def test_domain_error(self, capsys):
        assert run(capsys, ["colored", "0", "1", "1"])[0] == 2


class TestSigma:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, ["sigma", "5", "3,0,1,5", "--stats"])
        assert code == 0
        assert "v = 1110" in out
        assert "w = 010000100100" in out
        assert "inv = 2" in out
        assert "c = 7" in out
        assert "rev = 5,1,0,3" in out

    def test_single_zero(self, capsys):
        code, out, _ = run(capsys, ["sigma", "1", "0"])
        assert code == 0
        assert "f(0) = 1 + a" in out

    def test_g_flag(self, capsys):
        data = run_json(capsys, ["sigma", "2", "1,0", "--g"])
        assert data["params"]["g"] is True
        assert data["w"].endswith("0") is False  # w shown without the appended zero


class TestCache:
    def test_cache_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "memo.tsv")
        a = run_json(capsys, ["torus", "2", "3", "--cache", path])
        assert a["timing"]["entries"] > 0
        b = run_json(capsys, ["torus", "2", "3", "--cache", path])
        assert b["timing"]["hits"] >= 1
        assert a["result"] == b["result"]

    def test_warm_run_leaves_an_unchanged_cache_alone(self, capsys, tmp_path):
        path = tmp_path / "memo.tsv"
        run_json(capsys, ["torus", "2", "3", "--cache", str(path)])
        before = path.stat().st_mtime_ns, path.read_bytes()
        path.chmod(0o444)  # a rewrite would fail
        try:
            run_json(capsys, ["torus", "2", "3", "--cache", str(path)])
        finally:
            path.chmod(0o644)
        assert (path.stat().st_mtime_ns, path.read_bytes()) == before
        run_json(capsys, ["torus", "3", "3", "--cache", str(path)])
        assert len(path.read_bytes()) > len(before[1])

    def test_damaged_cache_entry_exits_two(self, capsys, tmp_path):
        path = tmp_path / "memo.tsv"
        for payload in ('{"num":[[0,0,0,1.5]],"den":[]}', '{"num":[[0,0,1]],"den":[]}',
                        '{"den":[]}'):
            path.write_text(f"{MemoTable._version_line()}\n|\t{payload}\n")
            code, _, err = run(capsys, ["pair", "0", "0", "--cache", str(path)])
            assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("damage", [
        ("[0,0,0,1]", "[0,0,0,1.5]"),     # non-integer coefficient
        ("[0,0,0,1]", "[0,0,0,01]"),      # leading zero
        ("[0,0,0,1]", "[-0,0,0,1]"),      # negative zero
        ("[0,0,0,1]", "[0,0,0,0]"),       # zero coefficient
        ("[0,0,0,1]", "[0,0,1]"),         # three fields
        ('"den":[]', '"den":[[0,1]]'),    # denominator index 0
        ("]}", "]} "),                    # trailing text
        ("\t", " "),                     # no tab after the key
    ])
    def test_damaged_entry_off_the_query_path_exits_two(self, capsys, tmp_path, damage):
        path = tmp_path / "memo.tsv"
        run_json(capsys, ["torus", "4", "4", "--cache", str(path)])
        lines = path.read_text().splitlines(keepends=True)
        # the last line is the base case p(,) = 1, which a warm T(4,4) never reads
        assert lines[-1] == '|\t{"num":[[0,0,0,1]],"den":[]}\n'
        lines[-1] = lines[-1].replace(*damage)
        path.write_text("".join(lines))
        code, out, err = run(capsys, ["torus", "4", "4", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: damaged cache line {len(lines)} in ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["1|", "01|00", "1|0110"])
    def test_cache_key_with_unequal_weights_exits_two(self, capsys, tmp_path, key):
        path = tmp_path / "memo.tsv"
        run_json(capsys, ["torus", "2", "2", "--cache", str(path)])
        with path.open("a") as fh:
            fh.write(f'{key}\t{{"num":[[0,0,0,1]],"den":[]}}\n')
        code, out, err = run(capsys, ["torus", "2", "2", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad cache key '{key}'") and "weight mismatch" in err

    def test_warm_run_decodes_only_the_entry_it_reads(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "memo.tsv")
        cold = run_json(capsys, ["torus", "6", "6", "--cache", path])
        decoded = []
        decode = recursion._series_from_json
        monkeypatch.setattr(recursion, "_series_from_json",
                            lambda payload: decoded.append(payload) or decode(payload))
        warm = run_json(capsys, ["torus", "6", "6", "--cache", path])
        assert len(decoded) == 1
        assert warm["result"] == cold["result"]
        assert warm["timing"]["entries"] == cold["timing"]["entries"] == 127
        memo = MemoTable(path=path)
        assert len(memo) == 127
        assert len(list(memo.values())) == 127 and len(decoded) == 128

    def test_extending_a_loaded_cache_writes_the_cold_file(self, capsys, tmp_path):
        cold = tmp_path / "cold.tsv"
        run_json(capsys, ["torus", "7", "7", "--cache", str(cold)])
        grown = tmp_path / "grown.tsv"
        run_json(capsys, ["torus", "6", "6", "--cache", str(grown)])
        run_json(capsys, ["torus", "7", "7", "--cache", str(grown)])
        assert grown.read_bytes() == cold.read_bytes()

    def test_cache_file_has_version_header(self, capsys, tmp_path):
        path = tmp_path / "memo.tsv"
        run_json(capsys, ["pair", "0", "0", "--cache", str(path)])
        header = path.read_text().splitlines()[0]
        assert header == MemoTable._version_line()


class TestTruncatedCache:
    """A cache file cut short anywhere either exits 2 or changes nothing."""

    LINES = 32  # the header and T(4,4)'s 31 memo entries

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("t44") / "memo.tsv"
        memo = MemoTable()
        result = torus_link_homology(TorusLinkSpec(4, 4), memo)
        memo.save(str(path))
        return path.read_bytes(), json.loads(render(result, "json"))

    def run_cut(self, capsys, tmp_path, cold, cut):
        data, result = cold
        path = tmp_path / "memo.tsv"
        path.write_bytes(data[:cut])
        code, out, err = run(capsys, ["torus", "4", "4", "--format", "json",
                                      "--cache", str(path)])
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 0 and json.loads(out)["result"] == result
        return code

    @pytest.mark.parametrize("line", range(LINES + 1))
    def test_cut_at_a_line_boundary(self, capsys, tmp_path, cold, line):
        data = cold[0]
        assert data.count(b"\n") == self.LINES
        cut = sum(len(x) for x in data.splitlines(keepends=True)[:line])
        code = self.run_cut(capsys, tmp_path, cold, cut)
        assert code == (2 if line == 0 else 0)  # whole lines are a smaller valid table

    @pytest.mark.parametrize("seed", range(40))
    def test_cut_at_a_byte_offset(self, capsys, tmp_path, cold, seed):
        self.run_cut(capsys, tmp_path, cold, random.Random(seed).randrange(len(cold[0])))


class TestCheckFailurePath:
    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        import torhom.checks as checks

        def broken(**_):
            return [("always-broken", False, "forced")]

        monkeypatch.setitem(checks.SUITES, "unknot-family", broken)
        code, out, _ = run(capsys, ["check", "unknot-family"])
        assert code == 1
        assert "[FAIL] always-broken" in out
