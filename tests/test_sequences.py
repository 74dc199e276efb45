import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torhom.sequences import (
    SeqPair,
    WeightMismatch,
    bit_inversions,
    inversions,
    pair_rank,
    pair_strictly_precedes,
    pair_validate,
    parse_bits,
    weight,
)

bitstrings = st.text(alphabet="01", max_size=12)


def all_bitstrings(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


class TestBasics:
    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_bits("012")

    @pytest.mark.parametrize("text", ["", "0101"])
    def test_parse_accepts_bits(self, text):
        assert parse_bits(text) == text

    @pytest.mark.parametrize("text", ["012", "0 1", "01\n", "2", "10x01"])
    def test_parse_rejects_any_other_character(self, text):
        with pytest.raises(ValueError, match="not a 0/1 string"):
            parse_bits(text)

    def test_weight(self):
        assert weight("") == 0
        assert weight("0110") == 2

    @settings(max_examples=80, deadline=None)
    @given(bitstrings)
    def test_bit_inversions_matches_generic(self, v):
        assert bit_inversions(v) == inversions([int(c) for c in v])

    def test_inversions_zero_iff_sorted(self):
        for v in all_bitstrings(7):
            assert (bit_inversions(v) == 0) == (v == "".join(sorted(v)))


class TestSeqPair:
    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatch) as exc:
            pair_validate("11", "10")
        assert (exc.value.wv, exc.value.ww) == (2, 1)

    def test_parameters(self):
        p = pair_validate("110", "0101")
        assert (p.l, p.m, p.n) == (2, 1, 2)
        assert p.key() == "110|0101"


class TestOrder:
    def test_reflexive(self):
        for v in all_bitstrings(5):
            p = SeqPair(v, v)
            assert pair_rank(p) <= pair_rank(p)
            assert not pair_strictly_precedes(p, p)

    def test_strict_part_well_founded(self):
        # strict precedence is a strict order on integer rank triples,
        # so any descending chain of bounded-length pairs terminates
        pairs = [SeqPair(v, u) for v in all_bitstrings(4)
                 for u in all_bitstrings(4) if weight(v) == weight(u)]
        for p in pairs:
            assert not pair_strictly_precedes(p, p)
            for q in pairs:
                if pair_strictly_precedes(p, q):
                    assert pair_rank(p) < pair_rank(q)
                    assert not pair_strictly_precedes(q, p)

    def test_rule_table_descends(self):
        from torhom.recursion import RULES, RuleTag, classify_rule
        assert set(RULES) == set(RuleTag)
        reached = set()
        pairs = [SeqPair(v, u) for v in all_bitstrings(5)
                 for u in all_bitstrings(5) if weight(v) == weight(u)]
        for p in pairs:
            tag = classify_rule(p)
            reached.add(tag)
            for child in RULES[tag].children(p):
                assert pair_strictly_precedes(child, p), (p, child)
        assert reached == set(RuleTag)
