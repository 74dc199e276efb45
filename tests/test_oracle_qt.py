"""q <-> t symmetry and positivity of coprime torus knots, checked without
the ring.

For coprime m < n the Poincaré series of T(m,n) is (1 + a) R / (1 - q),
where R is a polynomial with positive coefficients in m consecutive
a-degrees, symmetric under q <-> t up to a monomial (Mellit,
arXiv:1704.07630), whose lowest a-slice at q = t = 1 is the rational
Catalan number (m+n-1)! / (m! n!).  These facts are read off the rows of
`torhom torus m n --format json` with dicts of integer exponents only, so
a fault in the ring or the recursion that keeps the symmetry and lemma
identities still shows here.
"""

import json
from math import factorial, gcd

import pytest

from torhom.cli import main

KNOTS = [(m, n) for n in range(2, 13) for m in range(1, n) if m + n <= 13 and gcd(m, n) == 1]


def qat_rows(capsys, m, n):
    """The JSON result of T(m,n): its numerator as {(q, a, t): coeff} and its
    denominator rows.  A row [Q, A, T, c] is c Q^Q A^A T^T, and q = Q^2,
    a = A Q^-2, t = T^2 Q^-2."""
    assert main(["torus", str(m), str(n), "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    num = {}
    for big_q, a, big_t, c in result["num"]:
        t, odd_t = divmod(big_t, 2)
        q, odd_q = divmod(big_q + 2 * a + big_t, 2)
        assert not odd_t and not odd_q, "not a monomial in q, a, t"
        num[q, a, t] = c
    return num, result["den"]


def divide_by_one_plus_a(num):
    """The quotient of num by (1 + a), read from the lowest a-degree up;
    None when the division leaves a remainder."""
    quotient = {}
    for q, t in {(q, t) for q, _, t in num}:
        degrees = [a for q2, a, t2 in num if (q2, t2) == (q, t)]
        low, high = min(degrees), max(degrees)
        carry = 0
        for a in range(low, high):
            carry = num.get((q, a, t), 0) - carry
            if carry:
                quotient[q, a, t] = carry
        if num.get((q, high, t), 0) != carry:
            return None
    return quotient


def normalized(poly):
    """poly shifted so that each exponent's least value is 0."""
    low = [min(e[i] for e in poly) for i in range(3)]
    return {tuple(e[i] - low[i] for i in range(3)): c for e, c in poly.items()}


def test_knot_range():
    assert len(KNOTS) == 28


@pytest.mark.parametrize("m, n", KNOTS)
def test_coprime_torus_knot(capsys, m, n):
    num, den = qat_rows(capsys, m, n)
    assert den == [[1, 1]]  # the one factor 1 - q
    r = divide_by_one_plus_a(num)
    assert r is not None, "(1 + a) does not divide the numerator"
    assert all(c > 0 for c in r.values())
    degrees = sorted({a for _, a, _ in r})
    assert degrees == list(range(degrees[0], degrees[0] + m))
    swapped = {(t, a, q): c for (q, a, t), c in r.items()}
    assert normalized(swapped) == normalized(r)
    lowest = sum(c for (_, a, _), c in r.items() if a == degrees[0])
    assert lowest == factorial(m + n - 1) // (factorial(m) * factorial(n))
