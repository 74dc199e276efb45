"""Packed ring operations against the dict-of-terms oracle.

Every operation of the Kronecker-packed LaurentPoly is compared with the
same operation on tests/dict_oracle.py's DictPoly, on the full (Q, A, T)
lattice (each value on one of the four cosets of the (q,a,t) sublattice,
and the summands of a sum on one) and with coefficients large enough to
force wider digits.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dict_oracle import DictPoly
from dict_oracle import divide_one_minus as oracle_divide
import torhom.recursion as recursion
import torhom.ring as ring
from torhom import checks, cli
from torhom.ring import (
    DenomVector,
    GradedSeries,
    LaurentPoly,
    decode_numerator,
    denom_monomial,
    divide_one_minus,
    encode_numerator,
    expand_series,
    qat_monomial,
    render,
    series_json,
)
from torhom.sequences import SeqPair

COSETS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (Q mod 2, T mod 2)
coeffs = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)).filter(bool)
shifts = st.tuples(st.integers(-7, 7), st.integers(-4, 4), st.integers(-7, 7))
sublattice_shifts = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-3, 3)).map(
    lambda m: (2 * m[0], m[1], 2 * m[2]))
factor_indices = st.integers(1, 5)  # the divisor 1 - q t^{1-i}


def maps_on(coset, values=coeffs):
    """Term maps {(Q, A, T): coeff} with every term on `coset`."""
    rq, rt = coset
    local = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    return st.dictionaries(local, values, max_size=8).map(
        lambda terms: {(2 * q + rq, a, 2 * t + rt): c for (q, a, t), c in terms.items()})


def one_coset(count):
    """`count` term maps on one coset, drawn from all four: a numerator lies
    on one coset, so their sums are defined."""
    return st.sampled_from(COSETS).flatmap(lambda coset: st.tuples(*[maps_on(coset)] * count))


term_maps = st.sampled_from(COSETS).flatmap(maps_on)


@st.composite
def shifted_pairs(draw, values=coeffs, moves=shifts):
    """(f, g, m): term maps and a shift with m g on f's coset, as f + m g needs."""
    (rq, rt), m = draw(st.sampled_from(COSETS)), draw(moves)
    f = draw(maps_on((rq, rt), values))
    g = draw(maps_on(((rq - m[0]) & 1, (rt - m[2]) & 1), values))
    return f, g, m


def same(packed: LaurentPoly, oracle: DictPoly) -> bool:
    return dict(packed.terms) == oracle.terms


def pair(terms):
    return LaurentPoly(terms), DictPoly(terms)


@settings(max_examples=150, deadline=None)
@given(term_maps)
def test_round_trip_through_terms(terms):
    p, o = pair(terms)
    assert same(p, o)
    assert p.rows() == o.rows()
    assert LaurentPoly(p.terms) == p
    assert p.has_even_t() == all(t % 2 == 0 for (_, _, t) in o.terms)
    assert p.on_sublattice() == o.on_sublattice()


@settings(max_examples=150, deadline=None)
@given(one_coset(2))
def test_add_sub_neg(fg):
    f, g = fg
    (pf, of), (pg, og) = pair(f), pair(g)
    assert same(pf + pg, of + og)
    assert same(pf - pg, of - og)
    assert same(-pf, -of)
    assert (pf - pf).is_zero()


@settings(max_examples=150, deadline=None)
@given(term_maps, term_maps)
def test_mul(f, g):
    (pf, of), (pg, og) = pair(f), pair(g)
    assert same(pf * pg, of * og)


@settings(max_examples=150, deadline=None)
@given(term_maps, shifts)
def test_scale(f, m):
    pf, of = pair(f)
    assert same(pf.scale(m), of.scale(m))


@settings(max_examples=150, deadline=None)
@given(shifted_pairs())
def test_equality(gfm):
    g, f, m = gfm  # m f on g's coset
    (pf, of), (pg, og) = pair(f), pair(g)
    assert (pf == pg) == (of == og)
    # equal values reached through different boxes and layouts
    moved = (pf.scale(m) + pg).scale((-m[0], -m[1], -m[2])) - pg.scale((-m[0], -m[1], -m[2]))
    assert moved == pf
    assert hash(moved) == hash(pf)


def factor(i):
    """1 - q t^{1-i}, packed and in the oracle."""
    return pair({(0, 0, 0): 1, denom_monomial(i): -1})


@settings(max_examples=300, deadline=None)
@given(one_coset(2), factor_indices)
def test_divide_one_minus(fg, i):
    # values on each of the four cosets, with digits up to 2**70
    f, g = fg
    (pf, of), (pg, og), (pp, op) = pair(f), pair(g), factor(i)
    for p, o in ((pf, of), (pf * pp, of * op), (pf * pp + pg, of * op + og),
                 (pf * pp * pp, of * op * op)):
        got, want = divide_one_minus(p, i), oracle_divide(o, denom_monomial(i))
        assert (got is None) == (want is None)
        if want is not None:
            assert same(got, want)
    assert divide_one_minus(pf * pp, i) == pf


sublattice_maps = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 3),
                                            st.integers(-3, 3)), coeffs, min_size=1, max_size=8)


@st.composite
def wrapping_cells(draw):
    """Cells c at (0, 0, tb) and -c at (qe - 1, ae - 1, tb + te - e), packed
    with te + (qe - 1) e t-slots and no spare a-slots.  Their indices differ
    by qe (ps - e), a multiple of the shift by q t^{-e}, though no line of
    that shift joins them: a division that read lines off the packed
    indices would accept them.  Pairs at tb = 0 and tb = e - 1 make the
    box's t-extent te.  Returns (terms, slots, i, extents) for the divisor
    1 - q t^{1-i}, i = e + 1."""
    e, qe, ae = draw(st.integers(1, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 4))
    te = draw(st.integers(e, e + 3))
    dq, da, dt = draw(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(-3, 3)))
    terms = {}
    for tb in (0, e - 1):
        c = draw(coeffs)
        terms[dq, da, dt + tb] = c
        terms[dq + qe - 1, da + ae - 1, dt + tb + te - e] = -c
    return terms, (te + (qe - 1) * e, ae), e + 1, (qe, ae, te)


def test_division_keeps_a_padded_layout():
    # values packed with spare slots, as in a recursion query, divide to a
    # quotient in their own layout, with t-slots below te + qe (i - 1), where
    # a line of the shift can wrap in the packed index, and with more.  P_i f
    # is formed as f - q t^{1-i} f, a sum that keeps f's padded slots as a
    # recursion query's does, and both cases must occur.
    relaid = set()

    @settings(max_examples=150, deadline=None)
    @given(sublattice_maps, sublattice_maps, factor_indices, st.integers(0, 12),
           st.integers(0, 3), wrapping_cells())
    def check(h, g, i, spare_t, spare_a, wrap):
        slots = (7 + spare_t, 4 + spare_a)
        wide = LaurentPoly.from_qat(h, slots)
        p = wide._plus(wide, -1, denom_monomial(i))
        relaid.add(p.ts < p.te + p.qe * (i - 1))
        quo = divide_one_minus(p, i)
        assert quo == wide and dict(quo.terms) == dict(wide.terms)
        assert (quo.ts, quo.ps) == (p.ts, p.ps)
        for x in (wide, p + LaurentPoly.from_qat(g, slots)):
            got, want = divide_one_minus(x, i), oracle_divide(DictPoly(x.terms), denom_monomial(i))
            assert (got is None) == (want is None)
            if want is not None:
                assert same(got, want)
        # cells whose indices in this layout differ by a multiple of the shift
        terms, slots, j, extents = wrap
        x = LaurentPoly.from_qat(terms, slots)
        assert (x.qe, x.ae, x.te, x.ts) == (*extents, slots[0])
        assert oracle_divide(DictPoly(x.terms), denom_monomial(j)) is None
        assert divide_one_minus(x, j) is None

    check()
    assert relaid == {False, True}


def test_lines_leaving_the_box_do_not_wrap():
    # with t-slots te + (qe - 1) e instead of te + qe e, the two cells'
    # packed indices differ by a multiple of the shift, though no line joins
    # them, and f must not pass as divisible
    f = {(-3, 1, -1): -1, (3, -3, -3): 1}
    assert oracle_divide(DictPoly(f), denom_monomial(2)) is None
    assert divide_one_minus(LaurentPoly(f), 2) is None
    # the same cells on the sublattice, packed with exactly those slots
    # (qe = 3, te = 2, e = 1)
    g = LaurentPoly.from_qat({(-2, 1, -1): -1, (-4, -3, -2): 1}, (4, 5))
    assert (g.qe, g.te, g.ts) == (3, 2, 4)
    assert divide_one_minus(g, 2) is None


@settings(max_examples=100, deadline=None)
@given(term_maps, st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2))
def test_render(f, den):
    pf, of = pair(f)
    den = DenomVector.from_dict(den)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "DEBUG_DESCENT", False)  # f / den need not be in lowest terms
        packed, oracle = (ring._series(x, den) for x in (pf, of))
    assert series_json(packed) == series_json(oracle)
    for fmt in ("human", "latex"):
        assert render(packed, fmt) == render(oracle, fmt)


@settings(max_examples=60, deadline=None)
@given(term_maps, st.integers(0, 6))
def test_expansion_matches_geometric_series(f, depth):
    # expand f / (1 - q) term by term with the oracle
    pf, of = pair(f)
    q = denom_monomial(1)
    want, power = DictPoly(), of
    for _ in range(2 * depth + 30):
        want = want + DictPoly({m: c for m, c in power.terms.items()
                                if m[0] + 2 * m[1] + m[2] <= 2 * depth})
        power = power.scale(q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "DEBUG_DESCENT", False)  # f / (1 - q) need not be in lowest terms
        s = ring._series(pf, DenomVector.from_dict({1: 1}))
    got = expand_series(s, depth)
    assert same(got, want)


# coefficients whose digits need each cache width: 8, 16, 32, 64 and 128 bits
wide_coeffs = st.one_of(st.integers(-100, 100), st.integers(-2**14, 2**14),
                        st.integers(-2**30, 2**30), st.integers(-2**62, 2**62),
                        st.integers(-2**100, 2**100)).filter(bool)


@settings(max_examples=200, deadline=None)
@given(shifted_pairs(wide_coeffs),
       st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-2, 3), st.integers(-3, 3)),
                       wide_coeffs, max_size=8),
       st.tuples(st.integers(1, 12), st.integers(1, 6)))
def test_cache_text_round_trip(fgm, h, slots):
    # a difference of shifted values: each of the four cosets, boxes padded
    # to their layout's slots, and rows emptied by cancellation
    f, g, m = fgm
    value = LaurentPoly(f) - LaurentPoly(g).scale(m)
    text = encode_numerator(value)
    back = decode_numerator(text)
    assert back == value
    assert dict(back.terms) == (DictPoly(f) - DictPoly(g).scale(m)).terms
    assert encode_numerator(back) == text
    # the other order of the sum: another layout
    assert encode_numerator(-LaurentPoly(g).scale(m) + LaurentPoly(f)) == text
    # packed with spare slots, as the recursion packs its base cases: the
    # text of the value packed from its terms, at every digit width
    padded = LaurentPoly.from_qat(h, slots)
    text = encode_numerator(padded)
    assert text == encode_numerator(LaurentPoly(padded.terms))
    assert decode_numerator(text) == padded


class TestDigitWidth:
    def test_sum_past_the_digit_limit_widens(self):
        # 2**29 is the largest digit a 32-bit part holds; the sum needs 64 bits
        p = LaurentPoly({(0, 0, 0): 2**29, (2, 0, 0): -2**29, (0, 1, 2): 5})
        assert p.bits == 32
        s = p + p
        assert s.bits == 64
        assert dict(s.terms) == {(0, 0, 0): 2**30, (2, 0, 0): -2**30, (0, 1, 2): 10}

    def test_repeated_doubling_never_wraps(self):
        p, o = pair({(0, 0, 0): 3, (-2, 1, 0): -7, (4, 0, -2): 1})
        for _ in range(200):
            p, o = p + p, o + o
            assert same(p, o)
        assert p.bits >= 256

    def test_products_and_quotients_of_wide_digits(self):
        p, o = pair({(0, 0, 0): 2**70 + 1, (2, 1, -2): -(2**69), (-2, 0, 4): 3})
        q = denom_monomial(1)
        prod = p * p * LaurentPoly({(0, 0, 0): 1, q: -1})
        want = o * o * DictPoly({(0, 0, 0): 1, q: -1})
        assert same(prod, want)
        assert same(divide_one_minus(prod, 1), oracle_divide(want, q))


def test_factor_index_below_one_is_an_error():
    for i in (0, -1):
        with pytest.raises(ValueError):
            divide_one_minus(LaurentPoly.one(), i)


def oracle_planes(o: DictPoly):
    """(coset, q0, qe): the coset, the lowest local q and the number of
    q-planes of the terms, with q = (Q - rq + T - rt)/2 + A as in ring.py."""
    qs = {}
    for (q, a, t), _ in o.terms.items():
        rq, rt = q & 1, t & 1
        qs.setdefault((rq, rt), []).append((q - rq + t - rt) // 2 + a)
    ((coset, v),) = qs.items()
    return coset, min(v), max(v) - min(v) + 1


@pytest.mark.parametrize("debug", [False, True])
@pytest.mark.parametrize("f, g, sign, m, trim", [
    # q0 0 and 1 once g is moved by q: only f holds the lowest plane, so the test is skipped
    ({(0, 0, 0): 1, (2, 0, 0): 3}, {(0, 0, 0): -3, (2, 0, 0): 5}, 1, (2, 0, 0), False),
    # equal q0 whose lowest planes cancel: the test runs and trims the plane
    ({(0, 0, 0): 1, (2, 0, 0): 1}, {(0, 0, 0): 1, (4, 0, 0): -2}, -1, (0, 0, 0), True),
])
def test_sum_tests_the_lowest_plane_only_where_both_operands_hold_it(f, g, sign, m, trim,
                                                                      debug, monkeypatch):
    monkeypatch.setattr(ring, "DEBUG_DESCENT", debug)
    pf, pg = LaurentPoly(f), LaurentPoly(g)
    seen, make = [], ring._make

    def spy(*args):
        seen.append(args[12])  # the sum's `trim`
        return make(*args)

    monkeypatch.setattr(ring, "_make", spy)
    got = pf._plus(pg, sign, m)
    assert seen == [trim]
    want = DictPoly(f) + DictPoly(g).scale(m, sign)
    assert same(got, want)
    assert (got.coset, got.q0, got.qe) == oracle_planes(want)


def test_debug_mode_rejects_a_skipped_test_of_an_empty_plane(monkeypatch):
    # the lowest of three q-planes is empty: a vouched-for plane must not be
    f = LaurentPoly({(2, 0, 0): 1, (4, 0, 0): 1})
    n, ps = f.n << f.bits * f.ps, f.ps
    args = (n, f.bits, f.ts, ps, f.q0 - 1, 0, 0, 3, f.ae, f.te, f.room, f.coset)
    monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
    assert ring._make(*args, False).q0 == f.q0 - 1  # unchecked, as vouched for
    monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
    assert ring._make(*args).q0 == f.q0
    with pytest.raises(AssertionError):
        ring._make(*args, False)


any_shift = st.one_of(shifts, sublattice_shifts)
denominators = st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2)


def round_trips(p: LaurentPoly) -> bool:
    # decode_numerator rejects a part whose box has an empty end plane
    return decode_numerator(encode_numerator(p)) == p


@settings(max_examples=150, deadline=None)
@given(shifted_pairs(moves=any_shift), sublattice_shifts, st.sampled_from([1, -1]))
def test_fused_sum_matches_the_oracle(fgm, s, sign):
    f, g, m = fgm
    (pf, of), (pg, og) = pair(f), pair(g)
    got = pf._plus(pg, sign, m)
    assert same(got, of + og.scale(m, sign))
    assert round_trips(got)
    # one value at two origins, as rule 2 and clearing a denominator add it
    got = pf._plus(pf, sign, s)
    assert same(got, of + of.scale(s, sign))
    assert round_trips(got)


def over(num: DictPoly, have: DenomVector, want: DenomVector) -> DictPoly:
    """num / have written over the denominator want, in the oracle."""
    for i, k in want.mult:
        for _ in range(k - have.as_dict().get(i, 0)):
            num = num * factor(i)[1]
    return num


@settings(max_examples=100, deadline=None)
@given(shifted_pairs(moves=any_shift), denominators, denominators)
def test_plus_scaled_matches_the_oracle(fgm, df, dg):
    f, g, m = fgm
    df, dg = DenomVector.from_dict(df), DenomVector.from_dict(dg)
    x, y = GradedSeries(LaurentPoly(f), df), GradedSeries(LaurentPoly(g), dg)
    got = x.plus_scaled(y, m)
    assert got == x + y.scale(m)
    assert round_trips(got.num)

    # both sides over one common denominator, in the oracle
    lcd = df.merged_max(dg).merged_max(got.den)
    ox, oy = (over(DictPoly(s.num.terms), s.den, lcd) for s in (x, y))
    assert over(DictPoly(got.num.terms), got.den, lcd) == ox + oy.scale(m)


# -- the digit-sum test of a sum's divisions ------------------------------
#
# Every factor 1 - q t^{1-i} vanishes at q = t = 1, so a numerator whose
# coefficients do not sum to 0 is divisible by none; _canonical_parts reads
# the sum mod 2**bits - 1 off the packed int and tries no division then.

@settings(max_examples=200, deadline=None)
@given(one_coset(2), sublattice_maps, sublattice_shifts,
       st.tuples(st.integers(0, 9), st.integers(0, 3)))
def test_digit_sum_residue_is_the_coefficient_sum(fg, h, m, spare):
    f, g = fg
    pf, pg = LaurentPoly(f), LaurentPoly(g)
    wide = LaurentPoly.from_qat(h, (8 + spare[0], 7 + spare[1]))
    # packed from terms, sums at room -1 that may widen, and a padded layout
    for p in (pf, pf + pg, pf._plus(pf, -1, m), wide, wide._plus(wide, 1, m)):
        if p:
            want = sum(p.terms.values()) % ((1 << p.bits) - 1)
            assert ring._digit_sum_residue(p.n, p.bits) == want


@settings(max_examples=150, deadline=None)
@given(term_maps.filter(bool), factor_indices)
def test_a_multiple_of_a_factor_still_divides(f, i):
    pf, of = pair(f)
    num = pf._plus(pf, -1, denom_monomial(i))  # (1 - q t^{1-i}) f
    got, den = ring._canonical_parts(num, DenomVector.from_dict({i: 1}), [i])
    assert den.is_empty()
    assert same(got, oracle_divide(DictPoly(num.terms), denom_monomial(i)))
    assert same(got, of)


def counting_divisions(mp, calls):
    """Record each factor _canonical_parts tries, dividing as before."""
    divide = ring.divide_one_minus
    mp.setattr(ring, "divide_one_minus", lambda p, i: calls.append(i) or divide(p, i))


@settings(max_examples=150, deadline=None)
@given(one_coset(2), st.dictionaries(st.integers(1, 3), st.integers(1, 2), min_size=1, max_size=2))
def test_a_numerator_with_a_nonzero_sum_tries_no_division(fg, den):
    f, g = fg
    den = DenomVector.from_dict(den)
    x, y = GradedSeries(LaurentPoly(f), den), GradedSeries(LaurentPoly(g), den)
    num = x.num + y.num
    assume(x.den == den == y.den and sum(num.terms.values()))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "DEBUG_DESCENT", False)
        counting_divisions(mp, calls)
        got = ring._canonical_parts(num, den, [i for i, _ in den.mult])
        assert got[0] is num and got[1] is den
        # a sum of series over one denominator tries the factors both carry
        total = x + y
    assert not calls
    assert total.num == num and total.den == den
    for i, _ in den.mult:
        assert oracle_divide(DictPoly(num.terms), denom_monomial(i)) is None


@pytest.mark.parametrize("command", [
    "torus 7 7", "colored 3 5 3", "pair 0001000000 0000001000", "sigma 5 3,0,1,5 --g",
    "torus 4 6 --normalized --expand 3", "lemma53"])
def test_the_commands_try_no_division(monkeypatch, capsys, command):
    # the digit-sum test settles every sum these make, so the division
    # itself serves only tests and debug mode
    calls = []
    monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
    counting_divisions(monkeypatch, calls)
    if command == "lemma53":
        assert all(passed for _, passed, _ in checks.suite_lemma53(r_max=2, length=3))
    else:
        assert cli.main(command.split() + ["--format", "json"]) == 0
        capsys.readouterr()
    assert not calls


@pytest.mark.parametrize("qat", [
    {(0, 2, 0): 1, (0, 0, 0): -1},  # (a - 1)(1 + a), one q-plane
    {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): -1, (1, 1, 0): -1},  # (1 - a)(1 + q), two
])
def test_a_numerator_with_a_zero_sum_takes_the_full_test(monkeypatch, qat):
    # it vanishes at q = a = t = 1, yet no factor 1 - q t^{1-i} divides it
    num, den = LaurentPoly.from_qat(qat), DenomVector.from_dict({1: 1, 2: 2, 3: 1})
    assert ring._digit_sum_residue(num.n, num.bits) == 0
    calls = []
    counting_divisions(monkeypatch, calls)
    got = ring._canonical_parts(num, den, [1, 2, 3])
    assert got[0] is num and got[1] is den
    assert calls == [1, 2, 3]
    for i in (1, 2, 3):
        assert oracle_divide(DictPoly(num.terms), denom_monomial(i)) is None


def test_debug_mode_checks_each_rejection_by_the_divisions(monkeypatch):
    f = LaurentPoly.from_qat({(0, 0, 0): 1, (1, 1, 0): 2})
    num, den = f._plus(f, -1, denom_monomial(2)), DenomVector.from_dict({2: 1})
    assert ring._canonical_parts(num, den, [2]) == (f, DenomVector())
    # a test that rejects this divisible numerator
    monkeypatch.setattr(ring, "_digit_sum_residue", lambda n, bits: 1)
    monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
    assert ring._canonical_parts(num, den, [2]) == (num, den)  # unchecked: kept whole
    monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
    with pytest.raises(AssertionError):
        ring._canonical_parts(num, den, [2])


# -- the recursion's fused combines -------------------------------------

@st.composite
def children(draw, coset):
    """A canonical series on `coset` as the recursion reads a child's: over
    no, one or several factors, digits up to 2**100, and on the sublattice
    packed from its terms or with spare slots as a query packs its base
    cases, so two children often differ in layout."""
    den = DenomVector.from_dict(draw(st.dictionaries(st.integers(1, 4), st.integers(1, 2),
                                                     max_size=3)))
    if coset == (0, 0) and draw(st.booleans()):
        h = draw(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 3),
                                           st.integers(-3, 3)), wide_coeffs, max_size=8))
        slots = draw(st.one_of(st.none(), st.tuples(st.integers(1, 12), st.integers(1, 6))))
        num = LaurentPoly.from_qat(h, slots)
    else:
        num = LaurentPoly(draw(maps_on(coset)))
    return GradedSeries(num, den)


# the recursion's children lie on the sublattice; the other cosets check the
# combines off it, where the writhe normalization moves a value
child_cosets = st.one_of(st.just((0, 0)), st.sampled_from(COSETS))


def combined(combine, pair, values, debug):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "DEBUG_DESCENT", debug)  # checks each shortcut through ring._series
        return combine(pair, values, (1, 1))


@settings(max_examples=150, deadline=None)
@given(child_cosets.flatmap(children), st.integers(0, 4), st.booleans())
def test_rule2_is_the_old_formula(child, l, debug):
    got = combined(recursion._rule2, SeqPair("1" * (l + 1), "1" * (l + 1)), [child], debug)
    tl, a = qat_monomial(0, 0, l), qat_monomial(0, 1, 0)
    want = GradedSeries(child.num.scale(tl) + child.num.scale(a), child.den)
    assert got == want and got.num.rows() == want.num.rows()
    assert child.times_t_plus_a(l) == got
    o = DictPoly(child.num.terms)
    assert same(got.num, o.scale(tl) + o.scale(a))
    assert round_trips(got.num)


@settings(max_examples=150, deadline=None)
@given(child_cosets.flatmap(lambda coset: st.tuples(children(coset), children(coset))),
       st.integers(0, 4), st.booleans())
def test_rule5_is_the_old_formula(values, l, debug):
    first, second = values
    got = combined(recursion._rule5, SeqPair("1" * l + "0", "1" * l + "0"), [first, second],
                   debug)
    tl, qtl = qat_monomial(0, 0, -l), qat_monomial(1, 0, -l)
    want = first.scale(tl) + second.scale(qtl)
    assert got == want and got.num.rows() == want.num.rows()
    lcd = first.den.merged_max(second.den).merged_max(got.den)
    o1, o2 = (over(DictPoly(s.num.terms), s.den, lcd) for s in (first, second))
    assert over(DictPoly(got.num.terms), got.den, lcd) == o1.scale(tl) + o2.scale(qtl)
    assert round_trips(got.num)


def test_children_in_two_layouts_take_the_general_sum(monkeypatch):
    first = GradedSeries(LaurentPoly.from_qat({(0, 0, 0): 1, (1, 1, 2): -3}, (8, 4)))
    second = GradedSeries(LaurentPoly.from_qat({(0, 0, 1): 2**70, (2, 0, 0): 5}))
    relaid, relay = [], ring._relaid
    monkeypatch.setattr(ring, "_relaid", lambda p, *layout: relaid.append(p) or relay(p, *layout))
    got = recursion._rule5(SeqPair("10", "10"), [first, second], (1, 1))
    assert relaid
    want = {(i, j, k - 1): c for (i, j, k), c in {(0, 0, 0): 1, (1, 1, 2): -3, (1, 0, 1): 2**70,
                                                   (3, 0, 0): 5}.items()}
    assert got == GradedSeries(LaurentPoly.from_qat(want))


def general_sum(x, y, sign, dq, da, dt):
    """_add_parts without its same-layout branch: every operand relaid to
    the wider of the two layouts, grown when the union does not fit."""
    yq, ya, yt = y.q0 + dq, y.a0 + da, y.t0 + dt
    q0, a0, t0 = min(x.q0, yq), min(x.a0, ya), min(x.t0, yt)
    qe = max(x.q0 + x.qe, yq + y.qe) - q0
    ae = max(x.a0 + x.ae, ya + y.ae) - a0
    te = max(x.t0 + x.te, yt + y.te) - t0
    bits = max(x.bits, y.bits)
    ts, ps = x.ts, x.ps
    if (y.ts, y.ps) != (ts, ps) or te > ts or ae * ts > ps:
        ts = ring._slots(x.ts, y.ts, te)
        ps = ts * ring._slots(x.ps // x.ts, y.ps // y.ts, ae)
    nx, ny = ring._relaid(x, bits, ts, ps), ring._relaid(y, bits, ts, ps)
    nx <<= bits * ((x.q0 - q0) * ps + (x.a0 - a0) * ts + x.t0 - t0)
    ny <<= bits * ((yq - q0) * ps + (ya - a0) * ts + yt - t0)
    room = min(x.room + bits - x.bits, y.room + bits - y.bits) - 1
    return ring._make(nx + sign * ny, bits, ts, ps, q0, a0, t0, qe, ae, te, room, x.coset)


def fields(p):
    return [getattr(p, name) for name in LaurentPoly.__slots__]


@settings(max_examples=200, deadline=None)
@given(sublattice_maps, sublattice_maps, st.tuples(st.integers(-2, 2), st.integers(-1, 1),
                                                   st.integers(-2, 2)),
       st.sampled_from([1, -1]), st.tuples(st.integers(11, 14), st.integers(6, 8)))
def test_same_layout_sum_is_the_general_sum(h, g, move, sign, slots):
    # slots that hold the union of any two such boxes, one moved by `move`
    x = LaurentPoly.from_qat(h, slots)
    y = LaurentPoly.from_qat(g, slots)
    for y in (y, x) if x.bits == y.bits else (x,):  # x and x: rule 2's two copies of f
        assert (x.bits, x.ts, x.ps) == (y.bits, y.ts, y.ps)
        assert fields(ring._add_parts(x, y, sign, *move)) == fields(general_sum(x, y, sign, *move))
