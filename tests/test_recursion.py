import os
import subprocess
import sys

import pytest

import torhom.recursion as recursion
from torhom.recursion import (
    MemoTable,
    RuleTag,
    classify_rule,
    eval_p,
)
from torhom.ring import DenomVector, GradedSeries, LaurentPoly, qat_monomial, series_equal
from torhom.sequences import SeqPair, pair_validate


def qat(terms):
    return LaurentPoly.from_qat(terms)


ONE_PLUS_A = qat({(0, 0, 0): 1, (0, 1, 0): 1})


def over_one_minus_q(num, mult):
    return GradedSeries(num, DenomVector.from_dict({1: mult}))


class TestClassify:
    CASES = [
        (("", ""), RuleTag.BaseEmptyLeft),
        (("", "000"), RuleTag.BaseEmptyLeft),
        (("00", ""), RuleTag.BaseEmptyRight),
        (("01", "01"), RuleTag.Rule2_bothEndOne),
        (("10", "01"), RuleTag.Rule3_v0w1),
        (("01", "10"), RuleTag.Rule4_v1w0),
        (("010", "100"), RuleTag.Rule5_bothEndZero),
        (("00", "00"), RuleTag.AllZeros),
        (("0", "0"), RuleTag.AllZeros),
    ]

    @pytest.mark.parametrize("pair,tag", CASES)
    def test_dispatch(self, pair, tag):
        assert classify_rule(SeqPair(*pair)) == tag


class TestKnownValues:
    def test_empty_pair(self):
        assert eval_p(pair_validate("", "")) == GradedSeries.one()

    def test_base_case(self):
        for n in range(4):
            got = eval_p(pair_validate("", "0" * n))
            num = LaurentPoly.one()
            for _ in range(n):
                num = num * ONE_PLUS_A
            want = over_one_minus_q(num, n) if n else GradedSeries.one()
            assert got == want
            assert eval_p(pair_validate("0" * n, "")) == got

    def test_unknot(self):
        assert eval_p(pair_validate("0", "0")) == over_one_minus_q(ONE_PLUS_A, 1)

    def test_hopf_link(self):
        # t^-1 (1+a)(q + t + a - qt) / (1-q)^2
        core = qat({(1, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 1): -1})
        want = over_one_minus_q(
            (ONE_PLUS_A * core).scale(qat_monomial(0, 0, -1)), 2)
        assert series_equal(eval_p(pair_validate("00", "00")), want)

    def test_trefoil(self):
        # t^-1 (1+a)(q + t + a) / (1-q)
        core = qat({(1, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 1})
        want = over_one_minus_q((ONE_PLUS_A * core).scale(qat_monomial(0, 0, -1)), 1)
        assert series_equal(eval_p(pair_validate("00", "000")), want)

    def test_all_ones(self):
        # prod_{i=1..l} (t^{i-1} + a), no denominator
        for l in range(1, 5):
            num = LaurentPoly.one()
            for i in range(1, l + 1):
                num = num * qat({(0, 0, i - 1): 1, (0, 1, 0): 1})
            assert eval_p(pair_validate("1" * l, "1" * l)) == GradedSeries.from_poly(num)

    def test_denominator_family(self, memo):
        # plain pairs only ever produce powers of (1 - q)
        for v, w in [("0000", "00"), ("0101", "1001"), ("000", "000")]:
            s = eval_p(pair_validate(v, w), memo)
            assert set(s.den.as_dict()) <= {1}


class TestDeterminism:
    def test_fresh_tables_agree(self):
        a = eval_p(pair_validate("0100", "0010"), MemoTable())
        b = eval_p(pair_validate("0100", "0010"), MemoTable())
        assert a == b

    def test_descent_asserted(self, monkeypatch):
        monkeypatch.setattr(recursion, "DEBUG_DESCENT", True)
        eval_p(pair_validate("0010", "0100"), MemoTable())  # must not raise

    def test_long_pair_no_recursion_limit(self):
        # explicit work stack: depth 400 must evaluate even with the
        # interpreter limit squeezed near the current frame depth
        import inspect
        import sys
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            got = eval_p(pair_validate("1", "1" + "0" * 399), MemoTable())
        finally:
            sys.setrecursionlimit(limit)
        assert got == GradedSeries.from_poly(ONE_PLUS_A)


class TestMemo:
    def test_fresh_table_empty(self):
        assert MemoTable().stats().entries == 0

    def test_unknot_entries(self):
        memo = MemoTable()
        eval_p(pair_validate("0", "0"), memo)
        stats = memo.stats()
        assert stats.entries >= 2
        assert stats.misses >= 1

    def test_hit_on_reuse(self):
        memo = MemoTable()
        pair = pair_validate("0", "0")
        eval_p(pair, memo)
        before = memo.hits
        eval_p(pair, memo)
        assert memo.hits > before

    def test_key_is_verbatim_pair(self):
        memo = MemoTable()
        eval_p(pair_validate("01", "10"), memo)
        assert memo.peek(SeqPair("01", "10")) is not None
        # the swap is a theorem, never a key alias
        assert memo.peek(SeqPair("10", "01")) is None


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.tsv")
        memo = MemoTable()
        value = eval_p(pair_validate("00", "000"), memo)
        memo.save(path)
        reloaded = MemoTable(path=path)
        assert reloaded.peek(SeqPair("00", "000")) == value
        assert len(reloaded) == len(memo)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("some-other-encoder deadbeef\n")
        with pytest.raises(ValueError, match="version mismatch"):
            MemoTable(path=str(path))

    def test_save_without_path(self):
        with pytest.raises(ValueError):
            MemoTable().save()

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.tsv"
        memo = MemoTable(path=str(path))
        eval_p(pair_validate("000", "000"), memo)
        memo.save()
        before = path.read_bytes()
        eval_p(pair_validate("0000", "0000"), memo)
        rendered = []
        render = recursion.render

        def failing_render(series, fmt):
            if len(rendered) == 3:
                raise RuntimeError("interrupted")
            rendered.append(fmt)
            return render(series, fmt)

        monkeypatch.setattr(recursion, "render", failing_render)
        with pytest.raises(RuntimeError, match="interrupted"):
            memo.save()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cache.tsv"]
        monkeypatch.setattr(recursion, "render", render)
        path.chmod(0o600)
        memo.save()
        assert path.stat().st_mode & 0o777 == 0o600
        assert MemoTable(path=str(path)).peek(SeqPair("0000", "0000")) == \
            eval_p(pair_validate("0000", "0000"))

    def test_decode_failure_names_the_key(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.tsv")
        memo = MemoTable()
        eval_p(pair_validate("0", "0"), memo)
        memo.save(path)

        def broken(payload):
            raise KeyError("num")

        monkeypatch.setattr(recursion, "_series_from_json", broken)
        with pytest.raises(ValueError, match=r"damaged cache entry '0\|0'"):
            MemoTable(path=path).peek(SeqPair("0", "0"))


class TestParallel:
    def test_import_leaves_the_thread_pool_unloaded(self):
        src = os.path.dirname(os.path.dirname(recursion.__file__))
        code = ("import sys, torhom; "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        assert out == "[]\n"
