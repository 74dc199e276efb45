"""Differential oracle: the sparse dict-of-terms Laurent polynomial.

This is the representation torhom's ring used before numerators were
Kronecker-packed.  It shares no code with ``torhom.ring``: every term is a
dict entry keyed by its (Q, A, T) lattice point, and every operation is a
plain loop over terms.  The ring tests compare each packed operation with
the same operation here.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

Monomial = Tuple[int, int, int]


class DictPoly:
    """Sparse integer Laurent polynomial in Q, A, T; no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None):
        self.terms: Dict[Monomial, int] = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, terms: Dict[Monomial, int]) -> "DictPoly":
        res = cls.__new__(cls)
        res.terms = terms
        return res

    def __add__(self, other: "DictPoly") -> "DictPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return DictPoly._of(out)

    def __neg__(self) -> "DictPoly":
        return DictPoly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "DictPoly") -> "DictPoly":
        return self + (-other)

    def __mul__(self, other: "DictPoly") -> "DictPoly":
        out: Dict[Monomial, int] = {}
        for (q1, a1, t1), c1 in self.terms.items():
            for (q2, a2, t2), c2 in other.terms.items():
                m = (q1 + q2, a1 + a2, t1 + t2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return DictPoly._of(out)

    def scale(self, m: Monomial, coeff: int = 1) -> "DictPoly":
        if coeff == 0:
            return DictPoly()
        dq, da, dt = m
        return DictPoly._of({(q + dq, a + da, t + dt): c * coeff
                             for (q, a, t), c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DictPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def on_sublattice(self) -> bool:
        return all(q % 2 == 0 and t % 2 == 0 for q, _, t in self.terms)

    def rows(self):
        return [(q, a, t, c) for (q, a, t), c in sorted(self.terms.items())]


def divide_one_minus(f: DictPoly, direction: Monomial) -> Optional[DictPoly]:
    """f / (1 - M) by running sums along the lines e + Z*M, or None.

    Along each line write f = sum_k f_k M^k; then f = (1 - M) g iff
    sum_k f_k = 0, with g_k = sum_{j <= k} f_j.  Needs a positive
    Q-component in M so that k = Q // dQ orders each line.
    """
    dq, da, dt = direction
    assert dq > 0
    lines: Dict[Monomial, list] = {}
    for (q, a, t), c in f.terms.items():
        k = q // dq
        lines.setdefault((q - k * dq, a - k * da, t - k * dt), []).append((k, c))
    out: Dict[Monomial, int] = {}
    for (rq, ra, rt), entries in lines.items():
        entries.sort()
        acc = 0
        for idx, (k, c) in enumerate(entries):
            acc += c
            if acc:
                stop = entries[idx + 1][0] if idx + 1 < len(entries) else k + 1
                for kk in range(k, stop):
                    out[(rq + kk * dq, ra + kk * da, rt + kk * dt)] = acc
        if acc != 0:
            return None
    return DictPoly._of(out)
