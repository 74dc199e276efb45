import os
import random
import subprocess
import sys

import pytest

import torhom.recursion as recursion
import torhom.ring as ring
from torhom import checks, fillings, links
from torhom.recursion import (
    MemoTable,
    RuleTag,
    classify_rule,
    eval_p,
    query_layout,
)
from torhom.ring import (
    DenomVector,
    GradedSeries,
    LaurentPoly,
    decode_numerator,
    encode_numerator,
    qat_monomial,
    series_equal,
    series_json,
)
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
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        eval_p(pair_validate("0010", "0100"), MemoTable())  # must not raise

    @pytest.mark.parametrize("evict", [True, False])
    def test_descent_check_trips_on_a_rule_that_does_not_descend(self, monkeypatch, evict):
        # debug mode only: without the check, a pair that is its own child
        # is walked forever, so the patched rule gives up after many calls;
        # (10, 01) is the root, and below rule 2's (101, 011) a chain's head
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        calls = []

        def itself(pair):
            calls.append(pair)
            if len(calls) > 1000:
                raise RuntimeError("the descent check never ran")
            return (pair,)

        rule = recursion.RULES[RuleTag.Rule3_v0w1]
        monkeypatch.setitem(recursion.RULES, RuleTag.Rule3_v0w1, rule._replace(children=itself))
        for v, w in [("10", "01"), ("101", "011")]:
            calls.clear()
            with pytest.raises(AssertionError):
                eval_p(pair_validate(v, w), MemoTable(evict=evict))

    def test_no_pair_is_pushed_twice(self, monkeypatch):
        # debug mode asserts at each first visit that only a chain's end
        # is pushed twice: every pair of length <= 8 on one keeping table,
        # and T(n,n) on evicting tables
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        memo = MemoTable()
        for pair in checks._valid_pairs(8):
            eval_p(pair, memo)
        assert len(memo) == 48619
        for n in range(9):
            eval_p(torus(n, n), MemoTable(evict=True))

    @pytest.mark.parametrize("evict", [True, False])
    def test_a_chain_end_below_the_first_child_is_planned_once(self, monkeypatch, evict):
        # (10, 100), rule 5: its first child (11, 110) reaches (1, 1) by
        # rule 4 and rule 2, its second (01, 010) by three renamings; (1, 1)
        # waits on the stack while the first child's walk plans it
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        root = pair_validate("10", "100")
        steps, parents, hits, _ = recursion._plan(root, MemoTable(evict=evict))
        assert [key for _, key, _, _ in steps] == ["|", "1|1", "11|11", "10|100"]
        assert [keys for _, _, _, keys in steps][-1] == ("11|11", "1|1")
        assert hits == 1 and parents == ({"1|1": 2, "11|11": 1, "|": 1} if evict else {})
        memo = MemoTable(evict=evict)
        assert eval_p(root, memo) == eval_p(root, MemoTable())
        assert sorted(memo._table) == (["10|100"] if evict else ["10|100", "11|11", "1|1", "|"])

    def test_debug_mode_trips_on_a_pair_pushed_twice(self, monkeypatch):
        # rule 5 made to list its first child twice: both copies are pushed
        # before either is visited
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        rule = recursion.RULES[RuleTag.Rule5_bothEndZero]
        monkeypatch.setitem(recursion.RULES, RuleTag.Rule5_bothEndZero,
                            rule._replace(children=lambda p: rule.children(p)[:1] * 2))
        with pytest.raises(AssertionError, match="pushed twice"):
            recursion._plan(torus(2, 2), MemoTable())

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


def torus(m, n):
    return pair_validate("0" * m, "0" * n)


def payload_bytes(series):
    return series_json(series).encode()


def stored_numerators(memo):
    return [s.num for s in memo.values() if not s.is_zero()]


class TestQueryLayout:
    @pytest.mark.parametrize("v, w, layout", [
        ("0" * 8, "0" * 8, (29, 9)),
        ("0" * 9, "0" * 9, (37, 10)),
        ("0" * 10, "0" * 10, (46, 11)),
        ("0" * 7, "0" * 11, (31, 12)),
        ("", "000", (1, 4)),
        ("00", "", (1, 3)),
        ("", "", (1, 1)),
    ])
    def test_formula(self, v, w, layout):
        assert query_layout(SeqPair(v, w)) == layout

    def test_bound_covers_torus_links(self):
        for m in range(1, 9):
            for n in range(1, 9):
                memo = MemoTable()
                eval_p(torus(m, n), memo)
                te, ae = query_layout(torus(m, n))
                nums = stored_numerators(memo)
                assert all(p.te <= te and p.ae <= ae for p in nums), (m, n)
                if m == n:  # the bound is exact on square links
                    assert (max(p.te for p in nums), max(p.ae for p in nums)) == (te, ae)

    def test_bound_covers_random_pairs(self):
        # up to 5 ones and up to 7 zeros on each side, in random order
        rng = random.Random(1909)
        for _ in range(200):
            ones = rng.randint(0, 5)
            v, w = ("".join(rng.sample(seq, len(seq)))
                    for seq in ("1" * ones + "0" * rng.randint(0, 7) for _ in "vw"))
            pair = pair_validate(v, w)
            memo = MemoTable()
            eval_p(pair, memo)
            te, ae = query_layout(pair)
            assert all(p.te <= te and p.ae <= ae for p in stored_numerators(memo)), pair

    def test_one_layout_per_query(self):
        memo = MemoTable()
        eval_p(torus(9, 9), memo)
        assert {(p.ts, p.ps) for p in stored_numerators(memo)} == {(37, 370)}

    def test_shared_memo_across_sizes(self):
        shared = MemoTable()
        queries = [lambda memo: eval_p(torus(6, 6), memo),
                   lambda memo: eval_p(torus(8, 8), memo),
                   lambda memo: eval_p(torus(7, 7), memo),
                   lambda memo: links.colored_torus_homology(2, 3, 3, memo=memo)]
        for query in queries:
            assert series_json(query(shared)) == series_json(query(MemoTable()))

    def test_small_layout_changes_no_answer(self, monkeypatch):
        # debug mode asserts the layout bound, which this layout breaks on purpose
        monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
        want = series_json(eval_p(torus(6, 7), MemoTable()))
        monkeypatch.setattr(recursion, "query_layout", lambda pair: (1, 1))
        assert series_json(eval_p(torus(6, 7), MemoTable())) == want

    def test_debug_mode_asserts_every_stored_value_is_canonical(self, monkeypatch):
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        eval_p(torus(4, 5), MemoTable())  # base, rule 2, 3/4, 5 and all-zeros values
        one_minus_q = qat({(0, 0, 0): 1, (1, 0, 0): -1})

        def padded(pair, values, layout):  # the right value, not in lowest terms
            value = recursion._all_zeros(pair, values, layout)
            return ring._series(value.num * one_minus_q,
                                value.den.merged_sum(DenomVector.from_dict({1: 1})))

        rule = recursion.RULES[RuleTag.AllZeros]
        monkeypatch.setitem(recursion.RULES, RuleTag.AllZeros, rule._replace(combine=padded))
        with pytest.raises(AssertionError):
            eval_p(torus(2, 3), MemoTable())
        monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
        assert series_equal(eval_p(torus(2, 3), MemoTable()),
                            links.torus_link_homology(links.TorusLinkSpec(2, 3)))

    def test_debug_mode_asserts_the_bound(self, monkeypatch):
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        eval_p(torus(5, 6), MemoTable())  # the true bound holds
        monkeypatch.setattr(recursion, "query_layout", lambda pair: (3, 3))
        with pytest.raises(AssertionError):
            eval_p(torus(5, 6), MemoTable())


class TestMemo:
    def test_fresh_table_empty(self):
        assert len(MemoTable()) == 0

    def test_unknot_entries(self):
        memo = MemoTable()
        eval_p(pair_validate("0", "0"), memo)
        assert len(memo) >= 2
        assert memo.misses >= 1

    def test_hit_on_reuse(self):
        memo = MemoTable()
        pair = pair_validate("0", "0")
        eval_p(pair, memo)
        before = memo.hits
        eval_p(pair, memo)
        assert memo.hits > before

    def test_renamings_are_entries_only_as_roots(self):
        memo = MemoTable()
        roots = [torus(7, 11), pair_validate("0001", "0010"), pair_validate("10", "0001"),
                 pair_validate("0001000000", "0000001000"), pair_validate("0110", "1010"),
                 *[links.colored_sequences(3, 5, 2, o) for o in ("theorem", "example")]]
        for root in roots:
            eval_p(root, memo)
        renamings = {RuleTag.Rule3_v0w1, RuleTag.Rule4_v1w0}
        keys = {root.key() for root in roots}
        assert {classify_rule(root) for root in roots} >= renamings
        assert keys <= set(memo._table) and len(memo) > 2000
        assert all(classify_rule(SeqPair(*key.split("|"))) not in renamings
                   for key in memo._table if key not in keys)

    def test_key_is_verbatim_pair(self):
        memo = MemoTable()
        eval_p(pair_validate("01", "10"), memo)
        assert memo.peek(SeqPair("01", "10")) is not None
        # the swap is a theorem, never a key alias
        assert memo.peek(SeqPair("10", "01")) is None


class TestEviction:
    QUERIES = {
        **{f"T({n},{n})": lambda memo, n=n: [eval_p(torus(n, n), memo)] for n in range(9)},
        "T(7,11)": lambda memo: [eval_p(torus(7, 11), memo)],
        "colored 2 3 3": lambda memo: [
            links.colored_torus_both(2, 3, 3, memo)[o] for o in ("theorem", "example")],
        "sigma 5 3,0,1,5 --g": lambda memo: [
            fillings.g_sigma(fillings.SigmaSeq.of(5, (3, 0, 1, 5)), memo)],
    }

    @pytest.mark.parametrize("name", list(QUERIES))
    def test_evicting_and_keeping_memos_agree(self, name):
        evicting, keeping = MemoTable(evict=True), MemoTable()
        got, want = self.QUERIES[name](evicting), self.QUERIES[name](keeping)
        assert [payload_bytes(s) for s in got] == [payload_bytes(s) for s in want]
        # each query keeps its root alone; counters see the same queries
        assert len(evicting) == len(got) and len(keeping) >= len(got)
        assert evicting.peak_entries <= len(keeping) == keeping.peak_entries
        if len(got) == 1:
            assert (evicting.hits, evicting.misses) == (keeping.hits, keeping.misses)

    # (len, peak_entries, hits, misses, max_depth) on an evicting and on a
    # keeping table; the two orderings of a colored knot are two queries
    COUNTERS = {
        "T(9,9)": (lambda memo: eval_p(torus(9, 9), memo),
                   (1, 137, 502, 1023, 27), (1023, 1023, 502, 1023, 27)),
        "T(7,11)": (lambda memo: eval_p(torus(7, 11), memo),
                    (1, 141, 532, 874, 21), (874, 874, 532, 874, 21)),
        "colored 3 5 3": (lambda memo: links.colored_torus_both(3, 5, 3, memo),
                          (2, 92, 632, 1534, 22), (1470, 1470, 633, 1470, 22)),
        "sigma 5 3,0,1,5 --g": (
            lambda memo: fillings.g_sigma(fillings.SigmaSeq.of(5, (3, 0, 1, 5)), memo),
            (1, 6, 4, 15, 7), (15, 15, 4, 15, 7)),
        "pair 0011 000011": (lambda memo: eval_p(pair_validate("0011", "000011"), memo),
                             (1, 4, 2, 11, 8), (11, 11, 2, 11, 8)),
    }

    @pytest.mark.parametrize("evict", [True, False])
    @pytest.mark.parametrize("name", list(COUNTERS))
    def test_counters(self, name, evict):
        query, evicting, keeping = self.COUNTERS[name]
        memo = MemoTable(evict=evict)
        query(memo)
        assert (len(memo), memo.peak_entries, memo.hits, memo.misses, memo.max_depth) == \
            (evicting if evict else keeping)

    @pytest.mark.parametrize("evict, first, second, computed", [
        *[(evict, None, root, computed) for evict in (True, False) for root, computed in (
            (torus(9, 9), 1023), (torus(7, 11), 874),
            (pair_validate("0001000000", "0000001000"), 2208))],
        (False, torus(8, 8), torus(9, 9), 512),  # the second query on a keeping table
    ])
    def test_each_computed_pair_is_put_once(self, monkeypatch, evict, first, second, computed):
        # the benchmark counts recursion.nodes.* in MemoTable.put(pair, value)
        memo = MemoTable(evict=evict)
        if first is not None:
            eval_p(first, memo)
        put, puts = MemoTable.put, []

        def counted(memo, pair, value):
            puts.append((pair.key(), memo.peek(pair) is None))
            put(memo, pair, value)

        misses = memo.misses
        monkeypatch.setattr(MemoTable, "put", counted)
        eval_p(second, memo)
        assert len(puts) == len({key for key, _ in puts}) == computed == memo.misses - misses
        assert all(new for _, new in puts) and puts[-1][0] == second.key()

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_first_child_first_keeps_the_stack_and_the_table_small(self, n):
        memo = MemoTable(evict=True)
        eval_p(torus(n, n), memo)
        # with the last child first: depth 43, 73, 111 and peak 33, 129, 513
        assert memo.max_depth == 3 * n
        assert memo.peak_entries < 2 ** (n + 1) // 5

    def test_a_memo_passed_in_keeps_every_entry(self):
        memo = MemoTable()
        links.torus_link_homology(links.TorusLinkSpec(6, 6), memo)
        assert len(memo) == memo.peak_entries == 127
        eval_p(torus(7, 7), memo)
        assert len(memo) == 255
        # a check suite fills the table it is given, even an empty one
        memo = MemoTable()
        checks.suite_parity(3, memo)
        assert len(memo) == memo.peak_entries > 0

    def test_a_query_without_a_memo_evicts(self, monkeypatch):
        made = []

        class Recorded(MemoTable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(recursion, "MemoTable", Recorded)
        value = eval_p(torus(6, 6))
        assert [(memo.evict, len(memo)) for memo in made] == [(True, 1)]
        assert made[0].peek(torus(6, 6)) is value

    def test_a_loaded_entry_survives_a_query_that_reads_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        _, parents, _, _ = recursion._plan(torus(5, 5), MemoTable(evict=True))
        shared = min(key for key, count in parents.items() if count > 1)
        path = str(tmp_path / "memo.tsv")
        memo = MemoTable(path=path, evict=True)
        eval_p(pair_validate(*shared.split("|")), memo)
        memo.save()
        memo = MemoTable(path=path, evict=True)
        got = eval_p(torus(5, 5), memo)
        assert sorted(memo._table) == sorted([shared, torus(5, 5).key()])
        assert memo.hits >= parents[shared] and memo.misses < 63
        assert payload_bytes(got) == payload_bytes(eval_p(torus(5, 5), MemoTable()))
        memo.save()
        assert MemoTable(path=path).peek(torus(5, 5)) == got

    def test_debug_mode_trips_on_reading_an_evicted_entry(self, monkeypatch):
        plan = recursion._plan

        def one_parent_short(pair, memo):
            steps, parents, hits, depth = plan(pair, memo)
            parents[min(key for key, n in parents.items() if n > 1)] -= 1
            return steps, parents, hits, depth

        monkeypatch.setattr(recursion, "_plan", one_parent_short)
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        with pytest.raises(AssertionError, match="evicted"):
            eval_p(torus(5, 5), MemoTable(evict=True))


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.tsv")
        memo = MemoTable()
        value = eval_p(pair_validate("00", "000"), memo)
        memo.save(path)
        reloaded = MemoTable(path=path)
        assert reloaded.peek(SeqPair("00", "000")) == value
        assert len(reloaded) == len(memo)

    def test_load_checks_keys_without_building_pairs(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.tsv")
        memo = MemoTable()
        eval_p(torus(8, 8), memo)
        memo.save(path)
        validated = []
        monkeypatch.setattr(recursion, "pair_validate",
                            lambda v, w: validated.append((v, w)) or pair_validate(v, w))
        loaded = MemoTable(path=path)
        assert len(loaded) == 511 and validated == []
        assert loaded.peek(torus(8, 8)) == memo.peek(torus(8, 8))

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
        encoded = []
        encode = recursion._encode_series

        def failing_encode(key, series):
            if len(encoded) == 3:
                raise RuntimeError("interrupted")
            encoded.append(key)
            return encode(key, series)

        monkeypatch.setattr(recursion, "_encode_series", failing_encode)
        with pytest.raises(RuntimeError, match="interrupted"):
            memo.save()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cache.tsv"]
        monkeypatch.setattr(recursion, "_encode_series", encode)
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

        def broken(line):
            raise ValueError("bad part")

        monkeypatch.setattr(recursion, "_decode_series", broken)
        with pytest.raises(ValueError, match=r"damaged cache entry '0\|0'"):
            MemoTable(path=path).peek(SeqPair("0", "0"))

    def test_debug_mode_checks_that_decoded_entries_are_canonical(self, tmp_path, monkeypatch):
        # (1 - q) / (1 - q) under a valid checksum: decodable, not canonical,
        # so refused in both modes
        monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
        one_minus_q = qat({(0, 0, 0): 1, (1, 0, 0): -1})
        line = recursion._encode_series(
            "0|0", ring._series(one_minus_q, DenomVector.from_dict({1: 1})))
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        path = str(tmp_path / "cache.tsv")
        memo = MemoTable()
        eval_p(pair_validate("0" * 5, "0" * 5), memo)
        memo.save(path)
        assert len(list(MemoTable(path=path).values())) == 63  # all canonical
        with open(path, "wb") as fh:
            fh.write(MemoTable._version_line().encode() + b"\n" + line + b"\n")
        for debug in (True, False):
            monkeypatch.setattr(ring, "DEBUG_DESCENT", debug)
            with pytest.raises(ValueError, match=r"damaged cache entry '0\|0'"):
                MemoTable(path=path).peek(SeqPair("0", "0"))

    def test_stored_bytes_are_a_function_of_the_value(self):
        # every part the recursion stores at T(7,7) has a tight box, so its
        # cache text is that of the same terms packed afresh
        memo = MemoTable()
        eval_p(pair_validate("0" * 7, "0" * 7), memo)
        values = list(memo.values())
        assert len(values) == 255
        for value in values:
            assert encode_numerator(value.num) == \
                encode_numerator(LaurentPoly(value.num.terms))
            assert decode_numerator(encode_numerator(value.num)) == value.num


class TestParallel:
    def test_import_leaves_the_thread_pool_unloaded(self):
        src = os.path.dirname(os.path.dirname(recursion.__file__))
        code = ("import sys, torhom; "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        assert out == "[]\n"
