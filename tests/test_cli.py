import contextlib
import hashlib
import io
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torhom.cli as cli
import torhom.links as links
import torhom.recursion as recursion
from torhom.cli import main
from torhom.links import TorusLinkSpec, torus_link_homology
from torhom.recursion import MemoTable
from torhom.ring import GradedSeries, expand_series, qat_monomial, render, series_json
from torhom.sequences import pair_validate


def cache_line(body: str) -> str:
    """A cache line with a valid checksum, newline included."""
    return f"{hashlib.sha256(body.encode()).hexdigest()[:16]}\t{body}\n"


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

    @pytest.mark.parametrize("sigma, entry", [
        ("1_0", "'1_0'"), (" 1", "' 1'"), ("1,,2", "''"), ("1,", "''"), ("0,-1", "'-1'"),
        ("+1", "'+1'"), ("\u0661", "'\u0661'"),
    ])
    def test_sigma_entries_are_ascii_decimal(self, capsys, sigma, entry):
        # int() alone reads '1_0' as 10, ' 1' as 1 and the Arabic-Indic one as 1
        code, out, err = run(capsys, ["sigma", "20", sigma])
        assert (code, out) == (2, "")
        assert err == f"error: sigma entry {entry} is not a decimal number\n"

    def test_sigma_entries_that_parse(self, capsys):
        assert run_json(capsys, ["sigma", "3", ""])["params"]["sigma"] == []
        assert run_json(capsys, ["sigma", "5", "3,0,1,5"])["params"]["sigma"] == [3, 0, 1, 5]
        assert run_json(capsys, ["sigma", "20", "010"])["params"]["sigma"] == [10]

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

    @pytest.mark.parametrize("argv, flag", [
        (["check", "positivity", "--len", "2", "--depth", "-3"], "--depth"),
        (["check", "symmetry", "--len", "-1"], "--len"),
        (["check", "lemma53", "--r", "0"], "--r"),
        (["check", "roundtrip", "--r", "-2"], "--r"),
        (["torus", "3", "3", "--expand", "-1"], "--expand"),
        (["colored", "2", "3", "2", "--expand", "-2"], "--expand"),
        (["torus", "2", "3", "--cache", ""], "--cache"),
        (["sigma", "3", "1,0", "--cache", ""], "--cache"),
    ])
    def test_flags_that_leave_nothing_to_show(self, capsys, monkeypatch, argv, flag):
        # each would pass a check on no cases, print an empty expansion or
        # write no cache file; refused before any evaluation
        def never(*args, **kwargs):
            raise AssertionError("evaluated despite a refused flag")

        for module in (cli, recursion, links):
            monkeypatch.setattr(module, "eval_p", never)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    def test_least_flag_values_are_accepted(self, capsys):
        assert run(capsys, ["check", "symmetry", "--len", "0"])[0] == 0
        assert run(capsys, ["check", "positivity", "--len", "1", "--depth", "0"])[0] == 0
        assert run(capsys, ["torus", "2", "3", "--expand", "0"])[0] == 0

    def test_pair_rejects_normalized(self, capsys):
        code, out, err = run(capsys, ["pair", "01", "10", "--normalized"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --normalized" in err

    @pytest.mark.parametrize("argv", [["torus", "3", "2"], ["colored", "2", "3", "2"]])
    def test_out_of_memory(self, capsys, monkeypatch, argv):
        # as when building the sequences of a huge input; nothing large is allocated
        def too_large(*args):
            raise MemoryError

        monkeypatch.setattr(links, "torus_link_homology", too_large)
        monkeypatch.setattr(links, "colored_torus_homology", too_large)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_cache_path_that_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, ["torus", "2", "3", "--cache", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_cache_path_in_a_missing_directory(self, capsys, tmp_path, monkeypatch):
        # refused when the memo is opened: before any evaluation, naming the given path
        def never(*args, **kwargs):
            raise AssertionError("evaluated before the cache path was checked")

        for module in (cli, recursion, links):
            monkeypatch.setattr(module, "eval_p", never)
        path = tmp_path / "missing" / "c.tsv"
        code, out, err = run(capsys, ["torus", "2", "3", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path} " in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []


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
        # each of the 31 pairs was computed once and only the root kept;
        # shared sub-pairs were hits
        assert cold["misses"] == 31 and cold["entries"] == 1
        assert 1 < cold["peak_entries"] < 31
        assert cold["hits"] > 0
        assert cold["max_depth"] > 1
        warm = run_json(capsys, ["torus", "4", "4", "--cache", path])["timing"]
        assert warm["misses"] == 0 and warm["hits"] == 1
        assert warm["entries"] == warm["peak_entries"] == 1

    def test_seconds_ignore_a_stepped_wall_clock(self, capsys, monkeypatch):
        # the wall clock runs backwards an hour per reading; seconds is monotonic
        readings = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(readings)))
        assert run_json(capsys, ["torus", "3", "4"])["timing"]["seconds"] >= 0

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


class TestOutputBuiltOnce:
    @pytest.mark.parametrize("argv", [
        ["torus", "3", "4", "--expand", "2"], ["pair", "0110", "1001"],
        ["colored", "2", "3", "2"], ["sigma", "3", "1,0,2", "--stats"]])
    def test_only_the_printed_form_is_built(self, capsys, monkeypatch, argv):
        def unused(*args):
            raise AssertionError("built but not printed")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "render", unused)
            assert run(capsys, argv + ["--format", "json"])[0] == 0
        for fmt in ("human", "latex"):
            with monkeypatch.context() as patch:
                patch.setattr(cli, "series_json", unused)
                assert run(capsys, argv + ["--format", fmt])[0] == 0


class TestParserOfTheAskedCommand:
    """main builds only the parser of the command its argv names; help,
    usage and error output equal the full parser's, through main(argv) and
    through main() reading sys.argv as the console script does."""

    @staticmethod
    def full_parser(capsys, argv):
        try:
            cli.build_parser().parse_args(argv)
            code = 0
        except SystemExit as exc:
            code = 2 if exc.code not in (0, None) else 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        ["torus", "3"], ["torus", "3", "4", "extra"], ["torus", "3", "4", "--bogus"],
        ["torus", "x", "4"], ["torus", "--help"], ["--help"], ["-h", "torus"], [],
        ["torsu", "3", "4"], ["colored", "2", "3", "2", "--order", "bad"],
        ["check", "nosuch"], ["sigma", "3", "1,2", "--nope"], ["pair", "0", "--help"],
        ["check", "--help"],
    ], ids=" ".join)
    def test_output_equals_the_full_parsers(self, capsys, monkeypatch, argv):
        want = self.full_parser(capsys, argv)
        assert want[0] in (0, 2) and (want[1] or want[2])
        assert run(capsys, argv) == want
        monkeypatch.setattr(sys, "argv", ["torhom", *argv])
        assert run(capsys, None) == want

    @pytest.mark.parametrize("argv, built", [
        (["torus", "2", "3"], "torus"), (["check", "unknot-family"], "check"),
        (["-h", "torus"], None), (["torsu"], None), ([], None)])
    def test_builds_the_named_command_only(self, capsys, monkeypatch, argv, built):
        asked, full = [], cli.build_parser

        def build_parser(command=None):
            asked.append(command)
            return full(command)

        monkeypatch.setattr(cli, "build_parser", build_parser)
        run(capsys, argv)
        assert asked == [built]
        if built:  # no other command's parser is there
            other = next(name for name in cli.COMMANDS if name != built)
            with pytest.raises(SystemExit):
                full(built).parse_args([other])
            assert "invalid choice" in capsys.readouterr().err


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
    """`colored` shows the Sym^l-colored invariant, the ones-first
    ("theorem") ordering of the paper's pair, and no other ordering."""

    def test_single_order(self, capsys):
        data = run_json(capsys, ["colored", "1", "1", "2"])
        assert list(data) == ["command", "params", "result", "timing"]
        assert data["params"] == {"m": 1, "n": 1, "l": 2}
        want = series_json(links.colored_torus_homology(1, 1, 2, "theorem"))
        assert data["result"] == json.loads(want)

    def test_both_orders(self, capsys):
        # one line, the theorem order's: no example line and no comparison line
        for fmt in ("human", "latex"):
            code, out, _ = run(capsys, ["colored", "2", "3", "2", "--format", fmt])
            assert code == 0 and out.startswith("colored(2,3;l=2) = ") and out.count("\n") == 1

    @pytest.mark.parametrize("order", ["theorem", "example", "both"])
    def test_order_flag_is_refused(self, capsys, order):
        code, out, err = run(capsys, ["colored", "2", "3", "2", "--order", order])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"torhom: error: unrecognized arguments: --order {order}"

    def test_domain_error(self, capsys):
        assert run(capsys, ["colored", "0", "1", "1"])[0] == 2

    def test_both_orders_expand_each(self, capsys):
        # one series, so one expansion: the theorem order's, after expand_depth
        data = run_json(capsys, ["colored", "2", "3", "2", "--expand", "1"])
        assert list(data) == ["command", "params", "result", "expand_depth", "expansion",
                              "timing"]
        theorem = links.colored_torus_homology(2, 3, 2, "theorem")
        want = series_json(GradedSeries.from_poly(expand_series(theorem, 1)))
        assert data["expansion"] == json.loads(want)

    def test_example_ordering_is_one_pair_away(self):
        # its uncolored value stays one command away: `torhom pair 0011 000011`
        uncolored = recursion.eval_p(pair_validate("0011", "000011"))
        assert uncolored.with_extra_denominator({1: 1, 2: 1}) == \
            links.colored_torus_homology(2, 3, 2, "example")


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
        # each payload has a valid checksum, so only decoding can reject it
        path = tmp_path / "memo.tsv"
        for payload in ("\t0,0,0,0,0,1,1,1,8,0",                      # odd hex length
                        "\t0,0,0,0,0,1,1,1,8,zz",                     # not hex
                        "\t0,0,0,0,0,1,1,1,12,01",                    # unknown width
                        "\t0,0,0,0,0,0,1,1,8,",                       # non-positive extent
                        "\t2,0,0,0,0,1,1,1,8,01",                     # bad coset
                        "\t0,0,0,0,0,2,1,1,8,0100",                   # empty top q-plane
                        "\t0,0,0,0,0,1,1,1,8,01;0,0,0,0,0,1,1,1,8,01",  # duplicate coset
                        "\t0,0,0,00,0,1,1,1,8,01",                    # leading zero
                        "0:1\t0,0,0,0,0,1,1,1,8,01",                  # denominator index 0
                        "1:1,1:1\t0,0,0,0,0,1,1,1,8,01",              # repeated factor
                        "1:1\t",                                      # zero over a factor
                        "\t0,0,0,0,0,1,1,1,01",                       # nine fields
                        "0,0,0,0,0,1,1,1,8,01"):                      # no denominator
            path.write_text(MemoTable._version_line() + "\n" + cache_line("|\t" + payload))
            code, out, err = run(capsys, ["pair", "0", "0", "--cache", str(path)])
            assert (code, out) == (2, "")
            assert err.startswith("error: damaged cache entry '|'") and err.count("\n") == 1

    @pytest.mark.parametrize("damage", [
        ("8,01\n", "8,02\n"),       # a digit
        ("8,01\n", "8,ff\n"),       # a digit's sign
        (",1,1,1,8", ",1,1,2,8"),   # an extent
        (",8,01", ",16,01"),        # the width
        ("\t\t0,0", "\t\t1,0"),     # the coset
        ("\t\t", "\t1:1\t"),        # the denominator
        ("01\n", "01 \n"),          # trailing text
        ("\t", " "),               # no tab after the checksum
    ])
    def test_damaged_entry_off_the_query_path_exits_two(self, capsys, tmp_path, damage):
        # the damage leaves the checksum as it was, so loading rejects the line
        path = tmp_path / "memo.tsv"
        run_json(capsys, ["torus", "4", "4", "--cache", str(path)])
        run_json(capsys, ["pair", "", "", "--cache", str(path)])
        lines = path.read_text().splitlines(keepends=True)
        # the header, T(4,4), and last the base case p(,) = 1 that the second
        # command wrote and a warm T(4,4) never reads
        assert len(lines) == 3
        assert lines[-1] == "5c693ac2d1befca1\t|\t\t0,0,0,0,0,1,1,1,8,01\n"
        checksum, rest = lines[-1][:16], lines[-1][16:]
        lines[-1] = checksum + rest.replace(*damage, 1)
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
            fh.write(cache_line(f"{key}\t\t0,0,0,0,0,1,1,1,8,01"))
        code, out, err = run(capsys, ["torus", "2", "2", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad cache key '{key}'") and "weight mismatch" in err

    @pytest.mark.parametrize("key, reason", [
        ("0a|01", "not a 0/1 string: '0a'"),
        ("01|00", "weight mismatch: |v|=1, |w|=0"),
        ("0101", "not enough values to unpack (expected 2, got 1)"),
        ("01|01|1", "too many values to unpack (expected 2)"),
    ])
    def test_bad_cache_key_exits_two_with_its_reason(self, capsys, tmp_path, key, reason):
        # keys are checked on the text; a bad one is worded by pair_validate
        path = tmp_path / "memo.tsv"
        run_json(capsys, ["torus", "2", "2", "--cache", str(path)])
        with path.open("a") as fh:
            fh.write(cache_line(f"{key}\t\t0,0,0,0,0,1,1,1,8,01"))
        code, out, err = run(capsys, ["torus", "2", "2", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: bad cache key {key!r} in {path}: {reason}\n"

    def test_warm_run_decodes_only_the_entry_it_reads(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "memo.tsv")
        cold = run_json(capsys, ["torus", "6", "6", "--cache", path])
        decoded = []
        decode = recursion._decode_series
        monkeypatch.setattr(recursion, "_decode_series",
                            lambda line: decoded.append(line) or decode(line))
        warm = run_json(capsys, ["torus", "6", "6", "--cache", path])
        assert len(decoded) == 1
        assert warm["result"] == cold["result"]
        assert warm["timing"]["entries"] == cold["timing"]["entries"] == 1
        memo = MemoTable(path=path)
        assert len(memo) == 1
        assert len(list(memo.values())) == 1 and len(decoded) == 2

    def test_extending_a_loaded_cache_writes_the_cold_file(self, capsys, tmp_path):
        # each root's line is the one a file of that query alone holds
        cold = {}
        for n in ("6", "7"):
            path = tmp_path / f"t{n}{n}.tsv"
            run_json(capsys, ["torus", n, n, "--cache", str(path)])
            header, cold[n] = path.read_bytes().splitlines(keepends=True)
        grown = tmp_path / "grown.tsv"
        run_json(capsys, ["torus", "6", "6", "--cache", str(grown)])
        run_json(capsys, ["torus", "7", "7", "--cache", str(grown)])
        # sorted by key: 0000000|0000000 comes before 000000|000000
        assert grown.read_bytes() == header + cold["7"] + cold["6"]

    def test_timing_shows_cache_load_and_save(self, capsys, tmp_path):
        path = str(tmp_path / "memo.tsv")
        assert "cache_load_s" not in run_json(capsys, ["torus", "3", "3"])["timing"]
        cold = run_json(capsys, ["torus", "3", "3", "--cache", path])["timing"]
        assert cold["cache_load_s"] == 0 and cold["cache_save_s"] > 0  # no file to load yet
        warm = run_json(capsys, ["torus", "3", "3", "--cache", path])["timing"]
        assert warm["cache_load_s"] > 0 and warm["cache_save_s"] == 0  # nothing to write
        code, _, err = run(capsys, ["torus", "3", "3", "--cache", path])
        assert code == 0 and re.search(r"^cache: load \d+\.\d{3}s  save 0\.000s$", err, re.M)

    def test_cache_file_has_version_header(self, capsys, tmp_path):
        path = tmp_path / "memo.tsv"
        run_json(capsys, ["pair", "0", "0", "--cache", str(path)])
        header = path.read_text().splitlines()[0]
        assert header == MemoTable._version_line()


def blank_line_4(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    return b"".join(lines[:3] + [b"\n"] + lines[3:])


class TestCacheLines:
    """How `load` splits a file into lines, pinned on T(3,3)'s cache: the
    header and 15 entries, each line ending in a newline."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("t33") / "memo.tsv"
        memo = MemoTable()
        torus_link_homology(TorusLinkSpec(3, 3), memo)
        memo.save(str(path))
        return path.read_bytes()

    @pytest.mark.parametrize("edit, outcome", [
        (lambda data: data[:-1], 0),                                  # no final newline
        (blank_line_4, "damaged cache line 4 "),
        (lambda data: data + b"\n", "damaged cache line 17 "),        # one more newline
        (lambda data: data.replace(b"\n", b"\r\n"), "cache version mismatch "),
        (lambda data: data[:data.index(b"\n") + 1], 15),              # the header only
        (lambda data: b"", "cache version mismatch "),
    ], ids=["no-final-newline", "blank-line", "extra-newline", "crlf", "header-only", "empty"])
    def test_line_handling(self, capsys, tmp_path, cold, edit, outcome):
        """A table loads with the misses given; a rejected file exits 2."""
        assert cold.count(b"\n") == 16
        path = tmp_path / "memo.tsv"
        path.write_bytes(edit(cold))
        code, out, err = run(capsys, ["torus", "3", "3", "--format", "json",
                                      "--cache", str(path)])
        if isinstance(outcome, int):
            assert code == 0 and json.loads(out)["timing"]["misses"] == outcome
        else:
            assert (code, out) == (2, "") and err.startswith(f"error: {outcome}")


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


class TestDamagedCache:
    """A cache file with any byte changed either exits 2 or changes nothing:
    each line's checksum covers its coefficients, not just its shape."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("t44") / "memo.tsv"
        memo = MemoTable()
        result = torus_link_homology(TorusLinkSpec(4, 4), memo)
        memo.save(str(path))
        return path.read_bytes(), json.loads(render(result, "json"))

    def test_single_byte_change(self, cold, tmp_path_factory):
        data, result = cold
        path = tmp_path_factory.mktemp("fuzz") / "memo.tsv"

        @settings(max_examples=300, deadline=None)
        @given(st.integers(0, len(data) - 1), st.integers(1, 255))
        def check(offset, flip):
            damaged = bytearray(data)
            damaged[offset] ^= flip
            path.write_bytes(damaged)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["torus", "4", "4", "--format", "json", "--cache", str(path)])
            if code == 2:
                assert out.getvalue() == "" and err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
            else:
                assert code == 0 and json.loads(out.getvalue())["result"] == result

        check()

    def test_changed_coefficient_exits_two(self, capsys, tmp_path, cold):
        data, result = cold
        lines = data.decode().splitlines(keepends=True)
        number = next(i for i, line in enumerate(lines) if "\t0000|0000\t" in line)
        checksum, body = lines[number].rstrip("\n").split("\t", 1)
        head, digits = body.rsplit(",", 1)
        cell = next(k for k in range(0, len(digits), 2) if digits[k:k + 2] == "01")
        changed = f"{head},{digits[:cell]}02{digits[cell + 2:]}"
        path = tmp_path / "memo.tsv"
        path.write_text("".join(lines[:number] + [f"{checksum}\t{changed}\n"]
                                + lines[number + 1:]))
        code, out, err = run(capsys, ["torus", "4", "4", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: damaged cache line {number + 1} in ")
        # the same change under a fresh checksum decodes, to another answer
        path.write_text("".join(lines[:number] + [cache_line(changed)] + lines[number + 1:]))
        assert run_json(capsys, ["torus", "4", "4", "--cache", str(path)])["result"] != result

    def test_malformed_entry_exits_two_once_read(self, capsys, tmp_path, cold):
        data, result = cold
        lines = data.decode().splitlines(keepends=True)
        number = next(i for i, line in enumerate(lines) if "\t1|1\t" in line)
        lines[number] = cache_line("1|1\t\t0,0,0,0,0,2,2,1,8,01010000")  # empty top q-plane
        path = tmp_path / "memo.tsv"
        path.write_text("".join(lines))
        # a warm T(4,4) reads only its own entry
        assert run_json(capsys, ["torus", "4", "4", "--cache", str(path)])["result"] == result
        code, out, err = run(capsys, ["pair", "1", "1", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: damaged cache entry '1|1'") and err.count("\n") == 1

    def test_version_one_file_exits_two(self, capsys, tmp_path):
        v1 = "torhom-series-json-1"
        path = tmp_path / "memo.tsv"
        path.write_text(f"{v1} {hashlib.sha256(v1.encode()).hexdigest()[:16]}\n"
                        '|\t{"num":[[0,0,0,1]],"den":[]}\n')
        code, out, err = run(capsys, ["torus", "2", "2", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: cache version mismatch in {path}\n"


class TestCheckFailurePath:
    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        import torhom.checks as checks

        def broken(**_):
            return [("always-broken", False, "forced")]

        monkeypatch.setitem(checks.SUITES, "unknot-family", broken)
        code, out, _ = run(capsys, ["check", "unknot-family"])
        assert code == 1
        assert "[FAIL] always-broken" in out

    def test_paper_values_wants_the_display_itself(self, capsys, monkeypatch):
        # the display times q: the theorem order still matches it up to a
        # monomial, and no longer exactly, so the suite fails
        import torhom.reference as reference

        display = reference.colored_trefoil_display()
        monkeypatch.setattr(reference, "colored_trefoil_display",
                            lambda: display.scale(qat_monomial(1, 0, 0)))
        code, out, _ = run(capsys, ["check", "paper-values"])
        assert code == 1
        assert "[FAIL] colored trefoil equals the display  (shift=(-2, 0, 0))" in out
        assert out.endswith("6/7 checks passed\n")

    def test_suite_names_are_the_suites(self):
        # the parser's choices are kept in cli.py, so that importing it skips checks
        import torhom.checks as checks

        assert cli.SUITE_NAMES == tuple(sorted(checks.SUITES))
