import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torhom.sequences import (
    EmptyInput,
    SeqPair,
    WeightMismatch,
    bit_inversions,
    compose,
    identity_perm,
    inversions,
    pair_rank,
    pair_strictly_precedes,
    pair_validate,
    parse_bits,
    shuffle_permutation,
    shuffle_permutation_closed,
    transposition,
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


class TestPermutations:
    def test_compose_and_transposition(self):
        s1 = transposition(3, 1)
        s2 = transposition(3, 2)
        assert compose(s1, s2) == (1, 2, 0)
        assert compose(s2, s1) == (2, 0, 1)
        assert compose(identity_perm(3), s1) == s1

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            shuffle_permutation("")

    def test_known_values(self):
        assert shuffle_permutation("01") == (0, 1)
        assert shuffle_permutation("10") == (1, 0)
        assert shuffle_permutation("100") == (1, 2, 0)

    def test_closed_formula_agrees(self):
        for v in all_bitstrings(10):
            if v:
                assert shuffle_permutation(v) == shuffle_permutation_closed(v)

    def test_block_mapping(self):
        # first k positions land on the zero slots in order, the last l
        # on the one slots in order
        for v in all_bitstrings(8):
            if not v:
                continue
            perm = shuffle_permutation(v)
            zeros = [i for i, c in enumerate(v) if c == "0"]
            ones = [i for i, c in enumerate(v) if c == "1"]
            k = len(zeros)
            assert list(perm[:k]) == zeros
            assert list(perm[k:]) == ones
