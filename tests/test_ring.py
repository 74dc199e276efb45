import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torhom.ring as ring
from torhom.links import TorusLinkSpec, normalized_homology, torus_link_homology
from torhom.ring import (
    MONO_ONE,
    DenomVector,
    GradedSeries,
    LatticeError,
    LaurentPoly,
    decode_numerator,
    denom_monomial,
    divide_one_minus,
    encode_numerator,
    equal_up_to_monomial,
    expand_series,
    monomial_to_qat,
    qat_monomial,
    render,
    series_equal,
    series_json,
)


def qat(terms):
    return LaurentPoly.from_qat(terms)


ONE_PLUS_A = qat({(0, 0, 0): 1, (0, 1, 0): 1})
T_PLUS_A = qat({(0, 0, 1): 1, (0, 1, 0): 1})


COSETS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (Q mod 2, T mod 2)
coeffs = st.integers(-9, 9).filter(bool)


def on_one_coset(count, values=coeffs, span=3, min_size=0, max_size=6):
    """`count` term maps {(Q, A, T): coeff} with every term on one coset of
    the (q,a,t) sublattice, drawn from all four: a numerator lies on one
    coset, so sums of the maps' values are defined."""
    def on(coset):
        rq, rt = coset
        local = st.dictionaries(st.tuples(*[st.integers(-span, span)] * 3), values,
                                min_size=min_size, max_size=max_size)
        return st.tuples(*[local.map(lambda terms: {(2 * q + rq, a, 2 * t + rt): c
                                                    for (q, a, t), c in terms.items()})] * count)
    return st.sampled_from(COSETS).flatmap(on)


def polys_on_one_coset(count, **sizes):
    return on_one_coset(count, **sizes).map(lambda maps: tuple(map(LaurentPoly, maps)))


# small random Laurent polynomials, one coset each
polys = polys_on_one_coset(1).map(lambda fs: fs[0])
dens = st.dictionaries(st.sampled_from([1, 2, 3]), st.integers(1, 2), max_size=3).map(
    DenomVector.from_dict)
factor_lists = st.lists(st.sampled_from([1, 2, 3]), max_size=2)


def P(i):
    """The denominator factor 1 - q t^{1-i}."""
    return LaurentPoly({(0, 0, 0): 1, denom_monomial(i): -1})


def product_of(factors):
    out = LaurentPoly.one()
    for i in factors:
        out = out * P(i)
    return out


def cleared(num, target, have):
    """num times each factor (1 - q t^{1-i}) that target has beyond have."""
    hd = have.as_dict()
    return num * product_of([i for i, m in target.mult for _ in range(m - hd.get(i, 0))])


def fully_canonical_sum(f, g):
    """f + g canonicalized by every factor of the least common denominator."""
    lcd = f.den.merged_max(g.den)
    return GradedSeries(cleared(f.num, lcd, f.den) + cleared(g.num, lcd, g.den), lcd)


class TestLattice:
    def test_qat_embedding(self):
        assert qat_monomial(1, 0, 0) == (2, 0, 0)
        assert qat_monomial(0, 1, 0) == (-2, 1, 0)
        assert qat_monomial(0, 0, 1) == (-2, 0, 2)

    def test_round_trip(self):
        for m in [(0, 0, 0), (4, 1, -2), (-6, 2, 8)]:
            assert qat_monomial(*monomial_to_qat(m)) == m

    def test_off_lattice(self):
        with pytest.raises(LatticeError):
            monomial_to_qat((1, 0, 0))
        with pytest.raises(LatticeError):
            monomial_to_qat((0, 0, 3))


class TestOneCoset:
    """A numerator lies on one coset (Q mod 2, T mod 2) of the sublattice."""

    Q = LaurentPoly({(1, 0, 0): 1})

    @pytest.mark.parametrize("terms", [
        {(0, 0, 0): 1, (1, 0, 0): 1}, {(0, 0, 0): 1, (0, 0, 1): 1}, {(1, 0, 0): 2, (1, 0, 1): -1},
        {(0, 0, 0): 1, (1, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): 1}])
    def test_terms_on_several_cosets_raise(self, terms):
        with pytest.raises(LatticeError, match="one"):
            LaurentPoly(terms)

    def test_a_sum_across_cosets_raises(self):
        one, Q = LaurentPoly.one(), self.Q
        for total in (lambda: one + Q, lambda: Q - one, lambda: one._plus(one, 1, (0, 0, 1)),
                      lambda: Q._plus(Q, -1, MONO_ONE, (1, 0, 0)),
                      lambda: GradedSeries.one() + GradedSeries.from_poly(Q)):
            with pytest.raises(LatticeError, match="across the cosets"):
                total()

    def test_zero_sums_with_any_coset(self):
        one, Q, zero = LaurentPoly.one(), self.Q, LaurentPoly.zero()
        assert zero + Q == Q + zero == Q and zero - Q == -Q
        assert (Q - Q) + one == one and one != Q and not (Q - Q)
        # one coset's monomials map it onto one: sums and products stay defined
        assert (Q + Q.scale((2, 0, 0))).scale((0, 1, 1)) == LaurentPoly({(1, 1, 1): 1,
                                                                           (3, 1, 1): 1})
        assert Q * LaurentPoly({(0, 0, 1): 1}) == LaurentPoly({(1, 0, 1): 1})


class TestPolyArith:
    def test_additive_inverse(self):
        f = qat({(2, 1, -1): 3, (0, 0, 0): -2})
        assert (f + (-f)).is_zero()
        assert (f - f).is_zero()

    def test_product_example(self):
        got = ONE_PLUS_A * T_PLUS_A
        want = qat({(0, 0, 1): 1, (0, 1, 0): 1, (0, 1, 1): 1, (0, 2, 0): 1})
        assert got == want

    def test_hand_expansion(self):
        # (1+a)(q+t+a-qt), expanded by hand term by term
        f = qat({(1, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 1): -1})
        want = qat({
            (1, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 1): -1,
            (1, 1, 0): 1, (0, 1, 1): 1, (0, 2, 0): 1, (1, 1, 1): -1,
        })
        assert ONE_PLUS_A * f == want

    def test_no_zero_coefficients(self):
        f = qat({(0, 0, 0): 1})
        g = qat({(0, 0, 0): -1, (1, 0, 0): 2})
        assert (0, 0, 0) not in (f + g).terms

    def test_scale(self):
        f = qat({(1, 0, 0): 1, (0, 0, 0): 1})
        assert f.scale((2, 0, 0)) == LaurentPoly({(4, 0, 0): 1, (2, 0, 0): 1})
        assert f.scale((0, 0, 0)) == f
        # a shift off the sublattice moves the part to another coset
        assert f.scale((1, 2, -1)) == LaurentPoly({(3, 2, -1): 1, (1, 2, -1): 1})

    def test_minimum_slots(self):
        terms = {(0, 0, 0): 1, (0, 1, 0): 2, (1, 0, 2): -1}
        f = LaurentPoly.from_qat(terms, (5, 4))
        assert (f.ts, f.ps, f.te, f.ae) == (5, 20, 3, 2)
        assert f == qat(terms)
        assert f.terms == qat(terms).terms
        # slots below the extents leave the exact extents
        g = LaurentPoly.from_qat(terms, (1, 1))
        assert (g.ts, g.ps) == (3, 6)
        # sums in one layout keep it
        s = f + f.scale(qat_monomial(0, 1, 1))
        assert (s.ts, s.ps) == (5, 20)

    def test_within(self):
        f = qat({(0, 0, 0): 1, (0, 2, 3): 1})
        assert f.within(4, 3)
        assert not f.within(3, 3)
        assert not f.within(4, 2)
        assert LaurentPoly.zero().within(0, 0)

    def test_every_zero_is_the_one_zero(self):
        zero = LaurentPoly.zero()
        made = [LaurentPoly(), LaurentPoly({(2, 1, 0): 0}), LaurentPoly.from_qat({}),
                decode_numerator(""), divide_one_minus(zero, 2)]
        for f in (qat({(2, 1, -1): 3, (0, 0, 0): -2}), LaurentPoly({(1, 0, 2): 5, (3, 1, 0): -1})):
            lowest = min(q + 2 * a + t for q, a, t in f.terms)
            made += [f - f, f.truncated(lowest - 1)]
            assert f.truncated(lowest) != zero
        assert all(z is zero for z in made)
        # copies rebuild their fields and leave the one zero as it was
        made += [copy.copy(zero), copy.deepcopy(zero)]
        assert copy.copy(f) == f and copy.copy(f) is not zero and zero.is_zero()
        for z in made:
            assert z.is_zero() and not z and z.coset is None
            assert z == zero and hash(z) == hash(zero) and z.terms == {}
            assert encode_numerator(z) == "" and render(GradedSeries.from_poly(z)) == "0"

    @settings(max_examples=60, deadline=None)
    @given(polys_on_one_coset(3))
    def test_ring_axioms(self, fgh):
        f, g, h = fgh
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=60, deadline=None)
    @given(polys)
    def test_sub_is_add_neg(self, f):
        assert (f - f).is_zero()
        assert -(-f) == f


class TestDivision:
    def test_exact_factor_cancels(self):
        quo = divide_one_minus(P(1) * ONE_PLUS_A, 1)
        assert quo == ONE_PLUS_A

    def test_not_divisible(self):
        assert divide_one_minus(ONE_PLUS_A, 1) is None

    @settings(max_examples=60, deadline=None)
    @given(polys)
    def test_multiply_then_divide_round_trip(self, f):
        for i in (1, 2, 3):
            assert divide_one_minus(P(i) * f, i) == f


class TestDenomVector:
    def test_from_dict_drops_zero(self):
        assert DenomVector.from_dict({1: 2, 2: 0}) == DenomVector(((1, 2),))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            DenomVector.from_dict({0: 1})
        with pytest.raises(ValueError):
            DenomVector.from_dict({1: -1})

    def test_merges(self):
        a = DenomVector.from_dict({1: 2})
        b = DenomVector.from_dict({1: 1, 3: 1})
        assert a.merged_max(b).as_dict() == {1: 2, 3: 1}
        assert a.merged_sum(b).as_dict() == {1: 3, 3: 1}


class TestSeries:
    def test_additive_identity(self):
        x = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        assert x + GradedSeries.zero() == x

    def test_cancellation_forces_canonical(self):
        x = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        zero = x + (-x)
        assert zero.is_zero() and zero.den.is_empty()

    def test_denominators_add_under_product(self):
        x = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        sq = x * x
        assert sq.den.as_dict() == {1: 2}
        assert sq.num == ONE_PLUS_A * ONE_PLUS_A

    @settings(max_examples=40, deadline=None)
    @given(polys)
    def test_canonicalize_round_trip(self, f):
        factor = LaurentPoly({(0, 0, 0): 1, denom_monomial(1): -1})
        s = GradedSeries(factor * f, DenomVector.from_dict({1: 1}))
        assert s == GradedSeries.from_poly(f)
        assert GradedSeries(s.num, s.den) == s

    @settings(max_examples=150, deadline=None)
    @given(polys_on_one_coset(3, span=2, min_size=1), factor_lists, dens,
           st.one_of(st.none(), dens))
    def test_sum_matches_full_canonicalization(self, xh, factors, d1, d2):
        # f + g = common * (h1 + h2) / d: the factors common and d share cancel
        # when both summands carry them equally (d2 None: the same denominator)
        x, h1, h2 = xh
        common = product_of(factors)
        f = GradedSeries(x + common * h1, d1)
        g = GradedSeries(common * h2 - x, d1 if d2 is None else d2)
        for got in (f + g, g + f):
            want = fully_canonical_sum(f, g)
            assert (got.num, got.den) == (want.num, want.den)
        want = fully_canonical_sum(f, -g)
        got = f - g
        assert (got.num, got.den) == (want.num, want.den)

    @settings(max_examples=100, deadline=None)
    @given(polys_on_one_coset(1, span=2, min_size=1), factor_lists, dens, dens)
    def test_extra_denominator_matches_full_canonicalization(self, hs, factors, den, extra):
        (h,) = hs
        f = GradedSeries(product_of(factors) * h, den)
        got = f.with_extra_denominator(extra.as_dict())
        want = GradedSeries(f.num, f.den.merged_sum(extra))
        assert (got.num, got.den) == (want.num, want.den)

    def test_equal_factors_cancel_in_a_sum(self):
        q = qat({(1, 0, 0): 1})
        one_minus_q = DenomVector.from_dict({1: 1})
        assert (GradedSeries(LaurentPoly.one(), one_minus_q)
                + GradedSeries(-q, one_minus_q)) == GradedSeries.one()
        # (1 + a)/D + (-q t^{-1} - a)/D = (1 - q t^{-1})/D with D = (1 - q)(1 - q t^{-1})
        d = DenomVector.from_dict({1: 1, 2: 1})
        f = GradedSeries(ONE_PLUS_A, d)
        g = GradedSeries(P(2) - ONE_PLUS_A, d)
        assert (f.den, g.den) == (d, d)
        assert f + g == GradedSeries(LaurentPoly.one(), one_minus_q)
        total = f + (-f)
        assert total.is_zero() and total.den.is_empty()

    def test_extra_factor_cancels_with_the_numerator(self):
        f = GradedSeries.from_poly(P(3) * ONE_PLUS_A)
        got = f.with_extra_denominator({1: 1, 3: 2})
        assert got == GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1, 3: 1}))

    def test_product_of_canonical_series_can_cancel(self):
        # (1 - q)/1 and 1/(1 - q) are each canonical, but their product is not
        x = GradedSeries.from_poly(P(1))
        y = GradedSeries(LaurentPoly.one(), DenomVector.from_dict({1: 1}))
        assert x.den.is_empty() and y.den.as_dict() == {1: 1}
        assert x * y == GradedSeries.one()

    def test_value_equality_across_representations(self):
        a = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        factor = LaurentPoly({(0, 0, 0): 1, denom_monomial(2): -1})
        b = GradedSeries(ONE_PLUS_A * factor, DenomVector.from_dict({1: 1, 2: 1}))
        assert series_equal(a, b)
        assert a == b  # canonical forms coincide

    def test_expand_geometric(self):
        s = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        want = ONE_PLUS_A * qat({(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1})
        assert expand_series(s, 2) == want

    def test_expand_zero(self):
        assert expand_series(GradedSeries.zero(), 5).is_zero()

    def test_expand_agrees_across_representations(self, monkeypatch):
        monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
        a = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        factor = LaurentPoly({(0, 0, 0): 1, denom_monomial(2): -1})
        b = ring._series(ONE_PLUS_A * factor,
                         DenomVector.from_dict({1: 1, 2: 1}))  # deliberately non-canonical value
        assert expand_series(a, 6) == expand_series(b, 6)

    def test_debug_mode_checks_shortcuts_outside_the_recursion(self, monkeypatch):
        # with_extra_denominator claims its result canonical after dividing
        # by the new factors only; break that shortcut so it divides by none
        real = ring._canonical_parts

        def no_shortcut(num, den, factors):
            factors = list(factors)
            return real(num, den, factors if factors == [i for i, _ in den.mult] else [])

        f = GradedSeries(P(3) * ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        monkeypatch.setattr(ring, "_canonical_parts", no_shortcut)
        monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
        wrong = f.with_extra_denominator({3: 1})
        assert wrong.den.as_dict() == {1: 1, 3: 1}  # P(3) over P(3), not reduced
        monkeypatch.setattr(ring, "DEBUG_DESCENT", True)
        with pytest.raises(AssertionError):
            f.with_extra_denominator({3: 1})
        monkeypatch.setattr(ring, "_canonical_parts", real)
        assert f.with_extra_denominator({3: 1}) == GradedSeries(
            ONE_PLUS_A, DenomVector.from_dict({1: 1}))


class TestCacheText:
    def test_two_parts_are_refused(self):
        a, b = encode_numerator(LaurentPoly.one()), encode_numerator(LaurentPoly({(1, 0, 0): 1}))
        assert decode_numerator(a) == LaurentPoly.one() and decode_numerator(b).terms == {
            (1, 0, 0): 1}
        assert encode_numerator(LaurentPoly.zero()) == "" and decode_numerator("").is_zero()
        for text in (f"{a};{b}", f"{b};{a}", f"{a};{a}", f"{a};", f";{a}"):
            with pytest.raises(ValueError):
                decode_numerator(text)

    @pytest.mark.parametrize("low, high, bits", [
        (-2**29, 2**29 - 1, 32), (-2**15 - 1, 2**15, 32), (-5, 2**30, 64), (-2**31, 5, 64)])
    def test_32_bit_digits_decode_at_the_narrowest_width(self, low, high, bits):
        # digits in [-2**29, 2**29) keep the 32-bit layout a computation holds them in
        f = LaurentPoly.from_qat({(0, 0, 0): low, (1, 1, 2): high, (2, 0, 1): 3})
        text = encode_numerator(f)
        assert text.split(",")[8] == "32"  # the digit width written
        g = decode_numerator(text)
        assert g.bits == bits
        assert g == f and g.terms == f.terms
        assert encode_numerator(g) == text
        assert g + g == f + f and (g + g).terms == {m: 2 * c for m, c in f.terms.items()}


class TestUpToMonomial:
    def test_shift_found(self):
        a = GradedSeries.from_poly(T_PLUS_A)
        b = GradedSeries.from_poly(T_PLUS_A.scale(qat_monomial(2, 0, -1)))
        assert equal_up_to_monomial(b, a) == qat_monomial(2, 0, -1)

    def test_no_shift(self):
        assert equal_up_to_monomial(
            GradedSeries.from_poly(T_PLUS_A),
            GradedSeries.from_poly(ONE_PLUS_A)) is None

    def test_zero_cases(self):
        z = GradedSeries.zero()
        x = GradedSeries.from_poly(ONE_PLUS_A)
        assert equal_up_to_monomial(z, z) == (0, 0, 0)
        assert equal_up_to_monomial(z, x) is None

    def test_shift_over_a_denominator(self):
        a = GradedSeries(T_PLUS_A, DenomVector.from_dict({1: 1, 2: 1}))
        shift = qat_monomial(2, 0, -1)
        assert equal_up_to_monomial(a.scale(shift), a) == shift
        assert equal_up_to_monomial(a, a.scale(shift)) == qat_monomial(-2, 0, 1)

    def test_different_denominators(self):
        a = GradedSeries(T_PLUS_A, DenomVector.from_dict({1: 1, 2: 1}))
        b = GradedSeries(T_PLUS_A, DenomVector.from_dict({1: 1}))
        assert a.den != b.den
        assert equal_up_to_monomial(a, b) is None
        assert equal_up_to_monomial(b, a) is None


class TestGradingConvert:
    def test_round_trip(self):
        f = qat({(2, 1, -3): 5, (0, 0, 0): 1})
        as_qat = {monomial_to_qat(m): c for m, c in f.terms.items()}
        rebuilt = LaurentPoly.from_qat(as_qat)
        assert rebuilt.rows() == f.rows()

    def test_off_lattice_raises(self):
        with pytest.raises(LatticeError):
            for m in LaurentPoly({(1, 0, 0): 1}).terms:
                monomial_to_qat(m)


class TestRender:
    def test_human_simple(self):
        assert render(GradedSeries.from_poly(ONE_PLUS_A), "human") == "1 + a"

    def test_json_bytes(self):
        s = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        assert series_json(s) == '{"num":[[-2,1,0,1],[0,0,0,1]],"den":[[1,1]]}'

    def test_json_round_trips_terms(self):
        s = GradedSeries(T_PLUS_A, DenomVector.from_dict({2: 3}))
        data = json.loads(series_json(s))
        assert data["den"] == [[2, 3]]
        assert LaurentPoly({tuple(row[:3]): row[3] for row in data["num"]}) == s.num

    def test_latex_fraction(self):
        s = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        out = render(s, "latex")
        assert out.startswith("\\frac{") and "(1 - q)" in out

    def test_coefficients_in_each_format(self):
        f = qat({(1, 1, -2): 2, (0, 0, 1): -3, (0, 0, 0): 1})
        s = GradedSeries(f, DenomVector.from_dict({2: 1}))
        assert render(s, "latex") == "\\frac{1 - 3 t + 2 q a t^{-2}}{(1 - q t^{-1})}"
        assert render(s, "human") == "(1 - 3*t + 2*q*a*t^(-2)) / ((1-q*t^(-1)))"
        # off the sublattice the terms are written in Q, A, T
        g = GradedSeries.from_poly(LaurentPoly({(1, 0, 0): -2, (-1, 1, 2): 1}))
        assert render(g, "latex") == "Q^{-1} A T^{2} - 2 Q"
        assert render(g, "human") == "Q^(-1)*A*T^2 - 2*Q"

    def test_denominator_text(self):
        s = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 2, 2: 1}))
        assert "(1-q)^2" in render(s, "human")
        assert "t^(-1)" in render(s, "human")

    def test_unknown_format(self):
        # JSON is written by series_json, not by render
        for fmt in ("yaml", "json"):
            with pytest.raises(ValueError):
                render(GradedSeries.one(), fmt)


def dumps_json(s: GradedSeries) -> str:
    """The JSON text of s as json.dumps writes it: the oracle of series_json."""
    return json.dumps({"num": s.num.rows(), "den": [[i, m] for i, m in s.den.mult]},
                      separators=(",", ":"))


class TestSeriesJson:
    """series_json writes each list by one %-format; json.dumps is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(on_one_coset(1, st.one_of(coeffs, st.integers(-2**80, 2**80)).filter(bool),
                        max_size=12).map(lambda maps: maps[0]),
           st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=4))
    # the zero series; four terms off the sublattice, past 2**64 either way, over three factors
    @example({}, {})
    @example({(1, 0, 1): 2**64 + 1, (3, 0, -1): -2**64 - 1, (1, 1, 3): -(2**70), (-1, 2, 1): 3},
             {1: 1, 2: 3, 5: 2})
    def test_matches_json_dumps(self, terms, den):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring, "DEBUG_DESCENT", False)  # terms / den need not be in lowest terms
            s = ring._series(LaurentPoly(terms), DenomVector.from_dict(den if terms else {}))
        assert series_json(s) == dumps_json(s)

    @pytest.mark.parametrize("value", [
        lambda: torus_link_homology(TorusLinkSpec(9, 9)),
        lambda: normalized_homology(TorusLinkSpec(4, 6)),
        GradedSeries.zero,
    ], ids=["T(9,9)", "normalized T(4,6)", "zero"])
    def test_named_values(self, value):
        s = value()
        assert series_json(s) == dumps_json(s)
