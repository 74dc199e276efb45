"""Exact arithmetic for trigraded Poincare series.

Everything lives on the integer exponent lattice of the grading shifts
(Q, A, T).  The derived variables q = Q^2, t = T^2 Q^-2, a = A Q^-2 form a
sublattice: the (q,a,t)-monomial q^i a^j t^k sits at
(qexp, aexp, texp) = (2i - 2j - 2k, j, 2k).

A LaurentPoly is an integer Laurent polynomial on the lattice.  A
GradedSeries is a LaurentPoly numerator over a multiset of denominator
factors (1 - q t^{1-i}), i.e. (1 - Q^{2i} T^{2-2i}), indexed by i >= 1.

Packed numerators (Kronecker substitution)
------------------------------------------
A LaurentPoly stores one packed part per coset of the (q,a,t) sublattice.
The coset of (Q, A, T) is (Q mod 2, T mod 2); inside the coset (rq, rt) the
point has local coordinates

    q = (Q - rq)/2 + A + (T - rt)/2,   a = A,   t = (T - rt)/2,

so the sublattice itself is the coset (0, 0) with its usual (q,a,t)
exponents.  Scaling by a monomial maps each coset onto one coset, and a
product of two cosets lands in their sum; no operation splits a part.

Layout.  A part is a box of cells in local coordinates: an origin
(q0, a0, t0), extents (qe, ae, te), and a layout (B, ts, ps).  The cell of
(q0 + i, a0 + j, t0 + k) has index  i*ps + j*ts + k,  with 0 <= k < te <= ts
and 0 <= j < ae <= ps // ts: t is the innermost axis and q the outermost.
The whole part is the one signed integer  n = sum(c_cell * 2**(B * index)),
every coefficient a balanced digit of width B.  A part packed from terms
gets exactly its extents as slots; a sum that outgrows its slots rounds
them up to a multiple of four.  Memory follows the box, so terms far apart
pay for the empty cells between them.  Because q is
outermost, multiplying by q is a shift by one whole plane of ps cells, and
the lines along which (1 - q) divides never wrap inside the box.

Digit invariant.  Every stored digit satisfies |c| <= 2**(B - 3 - room)
for the part's `room` >= 0.  The sum of two parts at room 0 has digits
below 2**(B - 2), which still decode uniquely; a sum whose room would fall
below 0 ends with an add-and-mask test of every cell (``_fits``) that
certifies new room, and when even room 0 fails the value is repacked at
twice the width.  Products are sized from their operands' largest digits
before they are formed, and division first makes room for its running
sums.  B is 32, 64, 128, ...; a digit never wraps.

Operations.  Scaling only moves the origin.  Addition aligns two parts of
a coset: the result box is the union of theirs, in the wider of their
layouts (grown when the union does not fit); a part whose layout differs
is repacked with row copies through ``array``.  Multiplying by 1 - X, as
clearing a denominator does, is a shift and a subtraction.  Division by
(1 - q) folds the q-planes onto each other to read every line sum, and
builds the quotient only when they all vanish, by running sums with
log-doubling shifts.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, itemgetter, sub
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

Monomial = Tuple[int, int, int]  # (qexp, aexp, texp) on the (Q,A,T) lattice

MONO_ONE: Monomial = (0, 0, 0)


class LatticeError(ValueError):
    """A term does not lie on the (q,a,t) sublattice."""


def qat_monomial(i: int, j: int, k: int) -> Monomial:
    """Lattice point of q^i a^j t^k."""
    return (2 * i - 2 * j - 2 * k, j, 2 * k)


def monomial_to_qat(m: Monomial) -> Tuple[int, int, int]:
    """Inverse of qat_monomial; raises LatticeError off the sublattice."""
    qexp, aexp, texp = m
    if qexp % 2 or texp % 2:
        raise LatticeError(f"monomial {m} is not on the (q,a,t) sublattice")
    return (qexp // 2 + aexp + texp // 2, aexp, texp // 2)


# -- packed parts -------------------------------------------------------

_MIN_BITS = 32
# signed array typecode for each digit width that fits a machine word
_TYPECODE = {array(code).itemsize * 8: code for code in "iq"}
_BIG_ENDIAN = sys.byteorder == "big"


def _slots(n: int) -> int:
    """Slots for an extent n: n rounded up to a multiple of four, which
    left room for most later growth at T(9,9) to T(11,11), using less
    memory and no more time than powers of two."""
    return (n + 3) & ~3


def _bits_for(maxabs: int) -> int:
    bits = _MIN_BITS
    while maxabs > 1 << (bits - 3):
        bits <<= 1
    return bits


def _room_for(maxabs: int, bits: int) -> int:
    """Spare bits of a part whose digits are at most maxabs <= 2**(bits - 3)."""
    return bits - 3 - (maxabs - 1).bit_length()


# Both caches below hold constants, each a pure function of its key, so
# sharing them between callers cannot change any result.
_PATTERNS: Dict[Tuple[int, int], Tuple[int, int]] = {}  # (bits, word) -> (pattern, cells)


def _pattern(bits: int, word: int, cells: int) -> int:
    """The integer with `word` in each of `cells` digits of width `bits`."""
    have, count = _PATTERNS.get((bits, word), (0, 0))
    if count < cells:
        count = max(cells, 2 * count, 256)
        have = int.from_bytes(word.to_bytes(bits // 8, "little") * count, "little")
        _PATTERNS[bits, word] = (have, count)
    # every digit is the same word, so dropping the lowest ones leaves `cells` of them
    return have >> (bits * (count - cells))


def _fits(n: int, bits: int, cells: int, limit: int) -> bool:
    """True iff every digit of n lies in [-2**limit, 2**limit).

    Exact while every digit is below 2**(bits - 1) in magnitude: adding
    2**limit to each digit then carries out of no cell, and any digit out
    of range leaves a bit above position `limit` set in its cell.
    """
    bias = _pattern(bits, 1 << limit, cells)
    high = _pattern(bits, (1 << bits) - (2 << limit), cells)
    return not (n + bias) & high


def _zeros(bits: int, cells: int):
    if bits in _TYPECODE:
        return array(_TYPECODE[bits], bytes(cells * bits // 8))
    return [0] * cells


def _cells(n: int, bits: int, cells: int):
    """The balanced digits of n, lowest first: an array, or a list past 64 bits."""
    top = _pattern(bits, 1 << (bits - 1), cells)
    raw = ((n + top) ^ top).to_bytes(cells * bits // 8, "little")  # two's complement digits
    if bits in _TYPECODE:
        out = array(_TYPECODE[bits])
        out.frombytes(raw)
        if _BIG_ENDIAN:
            out.byteswap()
        return out
    width = bits // 8
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, len(raw), width)]


def _from_cells(cells, bits: int) -> int:
    if bits in _TYPECODE:
        if _BIG_ENDIAN:
            cells = array(cells.typecode, cells)
            cells.byteswap()
        raw = cells.tobytes()
    else:
        raw = b"".join(c.to_bytes(bits // 8, "little", signed=True) for c in cells)
    top = _pattern(bits, 1 << (bits - 1), len(cells))
    return (int.from_bytes(raw, "little") ^ top) - top


def _widened(cells, bits: int):
    if bits in _TYPECODE:
        return array(_TYPECODE[bits], cells)
    return list(cells)


class _Part:
    """One coset's packed value; see the module docstring.  Immutable."""

    __slots__ = ("n", "bits", "ts", "ps", "q0", "a0", "t0", "qe", "ae", "te", "room")

    def __init__(self, n, bits, ts, ps, q0, a0, t0, qe, ae, te, room):
        self.n = n
        self.bits = bits
        self.ts = ts
        self.ps = ps
        self.q0 = q0
        self.a0 = a0
        self.t0 = t0
        self.qe = qe
        self.ae = ae
        self.te = te
        self.room = room  # every digit is at most 2**(bits - 3 - room), room >= 0

    def moved(self, dq: int, da: int, dt: int, n: Optional[int] = None) -> "_Part":
        return _Part(self.n if n is None else n, self.bits, self.ts, self.ps,
                     self.q0 + dq, self.a0 + da, self.t0 + dt, self.qe, self.ae, self.te,
                     self.room)

    def cells(self):
        return _cells(self.n, self.bits, self.qe * self.ps)

    def maxabs(self) -> int:
        cells = self.cells()
        return max(max(cells), -min(cells))


def _relaid(p: _Part, bits: int, ts: int, ps: int) -> int:
    """p's value in the layout (bits, ts, ps), same origin."""
    if (p.ts, p.ps) == (ts, ps):
        if p.bits == bits:
            return p.n
        return _from_cells(_widened(p.cells(), bits), bits)
    src = _widened(p.cells(), bits) if bits != p.bits else p.cells()
    dst = _zeros(bits, p.qe * ps)
    te = p.te
    for i in range(p.qe):
        for j in range(p.ae):
            s = i * p.ps + j * p.ts
            d = i * ps + j * ts
            dst[d:d + te] = src[s:s + te]
    return _from_cells(dst, bits)


_SPARE = 8  # spare bits a passed digit test tries to certify, so most sums skip it


def _make(n, bits, ts, ps, q0, a0, t0, qe, ae, te, room) -> Optional[_Part]:
    """Part from a fresh value, or None if it is zero.

    room = -1 means the digits may be up to 2**(bits - 2), as after a sum
    of two parts with no spare bits: they are then tested, and the value
    is repacked at twice the width if any digit breaks the invariant.
    Empty q-planes at either end are trimmed.
    """
    if not n:
        return None
    if room < 0:
        cells = qe * ps
        if _fits(n, bits, cells, bits - 3 - _SPARE):
            room = _SPARE
        elif _fits(n, bits, cells, bits - 3):
            room = 0
        else:
            n = _from_cells(_widened(_cells(n, bits, cells), 2 * bits), 2 * bits)
            bits, room = 2 * bits, bits - 1
    plane = bits * ps
    if not n & ((1 << plane) - 1):
        low = ((n & -n).bit_length() - 1) // plane
        n >>= low * plane
        q0 += low
    # with |digit| <= 2**(bits - 3) the top digit sits at bit_length // bits
    qe = abs(n).bit_length() // bits // ps + 1
    return _Part(n, bits, ts, ps, q0, a0, t0, qe, ae, te, room)


def _add_parts(x: _Part, y: _Part, sign: int = 1) -> Optional[_Part]:
    """x + sign * y over the union of their boxes."""
    q0, a0, t0 = min(x.q0, y.q0), min(x.a0, y.a0), min(x.t0, y.t0)
    qe = max(x.q0 + x.qe, y.q0 + y.qe) - q0
    ae = max(x.a0 + x.ae, y.a0 + y.ae) - a0
    te = max(x.t0 + x.te, y.t0 + y.te) - t0
    bits = max(x.bits, y.bits)
    ts, ps = x.ts, x.ps
    if (y.ts, y.ps) != (ts, ps) or te > ts or ae * ts > ps:
        ts = max(x.ts, y.ts, _slots(te))
        ps = ts * max(x.ps // x.ts, y.ps // y.ts, _slots(ae))
    nx = _relaid(x, bits, ts, ps)
    if y.n is x.n and (y.bits, y.ts, y.ps) == (x.bits, x.ts, x.ps):
        ny = nx  # one value at two origins, e.g. rule 2's t^l f + a f
    else:
        ny = _relaid(y, bits, ts, ps)
    nx <<= bits * ((x.q0 - q0) * ps + (x.a0 - a0) * ts + (x.t0 - t0))
    ny <<= bits * ((y.q0 - q0) * ps + (y.a0 - a0) * ts + (y.t0 - t0))
    room = min(x.room + bits - x.bits, y.room + bits - y.bits) - 1
    return _make(nx + ny if sign > 0 else nx - ny, bits, ts, ps, q0, a0, t0, qe, ae, te, room)


def _mul_parts(x: _Part, y: _Part, dq: int, dt: int) -> Optional[_Part]:
    """Kronecker product of two parts; (dq, dt) is the coset carry."""
    qe, ae, te = x.qe + y.qe - 1, x.ae + y.ae - 1, x.te + y.te - 1
    ts = max(x.ts, y.ts)
    if te > ts:
        ts = _slots(te)
    slots_a = max(x.ps // x.ts, y.ps // y.ts)
    if ae > slots_a:
        slots_a = _slots(ae)
    ps = ts * slots_a
    # a product digit sums at most min(#cells) products of two digits
    bound = x.maxabs() * y.maxabs() * min(x.qe * x.ae * x.te, y.qe * y.ae * y.te)
    bits = _bits_for(bound)
    n = _relaid(x, bits, ts, ps) * _relaid(y, bits, ts, ps)
    return _make(n, bits, ts, ps, x.q0 + y.q0 + dq, x.a0 + y.a0, x.t0 + y.t0 + dt,
                 qe, ae, te, _room_for(bound, bits))


def _widened_by(p: _Part, extra: int) -> _Part:
    """p repacked at a width with at least `extra` more bits per digit."""
    bits = p.bits
    while bits < p.bits + extra:
        bits <<= 1
    return _Part(_relaid(p, bits, p.ts, p.ps), bits, p.ts, p.ps,
                 p.q0, p.a0, p.t0, p.qe, p.ae, p.te, p.room + bits - p.bits)


def _times(p: _Part, coeff: int) -> _Part:
    if coeff == -1:
        return p.moved(0, 0, 0, -p.n)
    grow = abs(coeff).bit_length()
    p = _widened_by(p, grow)
    return _Part(p.n * coeff, p.bits, p.ts, p.ps, p.q0, p.a0, p.t0, p.qe, p.ae, p.te,
                 p.room - grow)


def _with_headroom(p: _Part, spare: int) -> _Part:
    """p with room >= spare: a sum of at most 2**spare of its digits keeps
    the digit invariant, with room - spare to spare."""
    if p.room >= spare:
        return p
    if _fits(p.n, p.bits, p.qe * p.ps, p.bits - 3 - spare):
        return _Part(p.n, p.bits, p.ts, p.ps, p.q0, p.a0, p.t0, p.qe, p.ae, p.te, spare)
    return _widened_by(p, spare)


def _balanced_low(n: int, nbits: int) -> int:
    """The value of the lowest nbits of n read as balanced digits."""
    low = n & ((1 << nbits) - 1)
    return low - (1 << nbits) if low >> (nbits - 1) else low


def _divide_q(p: _Part) -> Optional[_Part]:
    """p / (1 - q): each line is one cell position across the q-planes."""
    if p.qe < 2:
        return None
    spare = p.qe.bit_length()
    p = _with_headroom(p, spare)
    plane = p.bits * p.ps
    # fold the planes onto each other; what is left holds every line sum
    s, planes = p.n, p.qe
    while planes > 1:
        half = (planes + 1) >> 1
        k = half * plane
        low = _balanced_low(s, k)
        s = low + ((s - low) >> k)
        planes = half
    if s:
        return None
    # quotient = running sums along q: p * (1 + q + q^2 + ...), doubling the span
    g, span = p.n, 1
    while span < p.qe:
        g += g << (span * plane)
        span <<= 1
    return _make(_balanced_low(g, (p.qe - 1) * plane), p.bits, p.ts, p.ps,
                 p.q0, p.a0, p.t0, p.qe - 1, p.ae, p.te, p.room - spare)


def _divide_general(p: _Part, dq: int, da: int, dt: int) -> Optional[_Part]:
    """p / (1 - M) for M = q^dq a^da t^dt, lexicographically positive.

    In a layout with ts > |dt| and ps // ts > |da|, M is a positive shift
    s of the cell index.  If p = (1 - M) g, then g is the exact 1-D
    quotient of p by (1 - x^s), which running sums recover; so the
    candidate is cut to g's box and checked by multiplying back.
    """
    ext = (p.qe - abs(dq), p.ae - abs(da), p.te - abs(dt))
    if min(ext) <= 0:
        return None
    ts = max(p.ts, _slots(abs(dt) + 1))
    ps = ts * max(p.ps // p.ts, _slots(abs(da) + 1))
    p = _with_headroom(p, max(p.qe, p.ae, p.te).bit_length())
    bits, cells = p.bits, p.qe * ps
    g, span = _relaid(p, bits, ts, ps), dq * ps + da * ts + dt
    while span < cells:
        g += g << (span * bits)
        span <<= 1
    g = _balanced_low(g, cells * bits)
    if not _fits(g, bits, cells, bits - 3):
        return None  # a quotient's digits are line sums, within the headroom
    src = _cells(g, bits, cells)
    # p = g - M g: along each axis g's box starts |d| later when d < 0
    lo = (max(-dq, 0), max(-da, 0), max(-dt, 0))
    dst = _zeros(bits, ext[0] * ps)
    for i in range(ext[0]):
        for j in range(ext[1]):
            s = (i + lo[0]) * ps + (j + lo[1]) * ts + lo[2]
            d = i * ps + j * ts
            dst[d:d + ext[2]] = src[s:s + ext[2]]
    quo = _make(_from_cells(dst, bits), bits, ts, ps, p.q0 + lo[0], p.a0 + lo[1], p.t0 + lo[2],
                *ext, 0)
    if quo is None:
        return None
    back = _add_parts(quo, quo.moved(dq, da, dt), -1)
    if back is None or _add_parts(back, p, -1) is not None:
        return None
    return quo


def _divide_part(p: _Part, dq: int, da: int, dt: int) -> Optional[_Part]:
    if (dq, da, dt) < (0, 0, 0):
        # 1 - M = -M (1 - M^-1)
        quo = _divide_part(p, -dq, -da, -dt)
        return None if quo is None else quo.moved(-dq, -da, -dt, -quo.n)
    if (dq, da, dt) == (1, 0, 0):
        return _divide_q(p)
    return _divide_general(p, dq, da, dt)


_PLANE_ORDER: Dict[Tuple[int, int], tuple] = {}  # (ts, ps) -> see _plane_order


def _plane_order(ts: int, ps: int):
    """A plane's cells in (Q, A, T) order, with their relative exponents.

    Q = 2 (q - a - t) + const, so inside one q-plane the order is by
    -(a + t), then a, then t.  Returns a gather of a plane's digits into
    that order and the relative Q, A and T of each position.
    """
    got = _PLANE_ORDER.get((ts, ps))
    if got is None:
        cells = sorted((-a - t, a, t) for a in range(ps // ts) for t in range(ts))
        gather = itemgetter(*[a * ts + t for _, a, t in cells]) if ps > 1 else tuple
        got = (gather, [2 * d for d, _, _ in cells], [a for _, a, _ in cells],
               [2 * t for _, _, t in cells])
        _PLANE_ORDER[ts, ps] = got
    return got


def _part_rows(coset: Tuple[int, int], p: _Part):
    """(Q, A, T, coeff) of every nonzero cell, each q-plane in order."""
    cells = p.cells()
    ps = p.ps
    gather, qrel, arel, trel = _plane_order(p.ts, ps)
    rq, rt = coset
    qoff = 2 * (p.q0 - p.a0 - p.t0) + rq
    aexp = list(map(add, arel, repeat(p.a0)))
    texp = list(map(add, trel, repeat(2 * p.t0 + rt)))
    out = []
    for i in range(p.qe):
        plane = gather(cells[i * ps:(i + 1) * ps])
        out.extend(zip(map(add, compress(qrel, plane), repeat(qoff + 2 * i)),
                       compress(aexp, plane), compress(texp, plane), compress(plane, plane)))
    return out


def _pack(coset, rows) -> Optional[_Part]:
    """Part of one coset from its (Q, A, T, coeff) rows."""
    rq, rt = coset
    _, aexp, texp, coeffs = zip(*rows)
    a0, t0 = min(aexp), (min(texp) - rt) >> 1
    ae, te = max(aexp) - a0 + 1, ((max(texp) - rt) >> 1) - t0 + 1
    ts, ps = te, te * ae  # a sum grows these when it must
    skew = a0 * ts + t0
    # the cell index from q = 0, with q = (Q - rq + T - rt)/2 + A and
    # t = (T - rt)/2; the plane of a cell, key // ps, is q itself
    keys = [(((q - rq + t - rt) >> 1) + a) * ps + a * ts + ((t - rt) >> 1) - skew
            for q, a, t, _ in rows]
    low = min(keys) // ps
    qe = max(keys) // ps - low + 1
    maxabs = max(max(coeffs), -min(coeffs))
    bits = _bits_for(maxabs)
    cells = _zeros(bits, qe * ps)
    deque(map(cells.__setitem__, map(sub, keys, repeat(low * ps)), coeffs), maxlen=0)
    return _make(_from_cells(cells, bits), bits, ts, ps, low, a0, t0, qe, ae, te,
                 _room_for(maxabs, bits))


class LaurentPoly:
    """Integer Laurent polynomial in Q, A, T, packed one part per coset.

    Instances are immutable; all operations return new values.  `terms`
    is a read-only {(Q, A, T): coeff} view without zero coefficients,
    decoded on each access.
    """

    __slots__ = ("_parts",)

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None):
        self._parts: Dict[Tuple[int, int], _Part] = {}
        if terms:
            rows = [(q, a, t, c) for (q, a, t), c in terms.items() if c]
            if rows:
                self._parts = _parts_of_rows(rows)

    @classmethod
    def _of(cls, parts: Dict[Tuple[int, int], _Part]) -> "LaurentPoly":
        res = cls.__new__(cls)
        res._parts = parts
        return res

    @classmethod
    def from_rows(cls, rows) -> "LaurentPoly":
        """Build from (Q, A, T, coeff) rows, as `rows()` and the cache give them."""
        return cls._of(_parts_of_rows(rows) if rows else {})

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({MONO_ONE: 1})

    @classmethod
    def from_qat(cls, qat_terms: Mapping[Tuple[int, int, int], int]) -> "LaurentPoly":
        """Build from a map {(i, j, k): coeff} of q^i a^j t^k terms."""
        return cls({qat_monomial(i, j, k): c for (i, j, k), c in qat_terms.items()})

    # -- arithmetic -----------------------------------------------------

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        parts = dict(self._parts)
        for coset, y in other._parts.items():
            x = parts.get(coset)
            if x is None:
                parts[coset] = y if sign > 0 else y.moved(0, 0, 0, -y.n)
                continue
            s = _add_parts(x, y, sign)
            if s is None:
                del parts[coset]
            else:
                parts[coset] = s
        return LaurentPoly._of(parts)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({c: p.moved(0, 0, 0, -p.n) for c, p in self._parts.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = LaurentPoly()
        for (rq1, rt1), x in self._parts.items():
            for (rq2, rt2), y in other._parts.items():
                cq, ct = rq1 & rq2, rt1 & rt2  # a carry into the local coordinates
                p = _mul_parts(x, y, cq + ct, ct)
                if p is not None:
                    out = out + LaurentPoly._of({(rq1 ^ rq2, rt1 ^ rt2): p})
        return out

    def scale(self, m: Monomial, coeff: int = 1) -> "LaurentPoly":
        """Multiply by coeff * Q^a A^b T^c: moves each part's origin."""
        if coeff == 0:
            return LaurentPoly.zero()
        dQ, dA, dT = m
        parts = {}
        for (rq, rt), p in self._parts.items():
            sq, st = rq + dQ, rt + dT
            coset = (sq & 1, st & 1)
            dt = (st - coset[1]) >> 1
            if coeff != 1:
                p = _times(p, coeff)
            parts[coset] = p.moved(((sq - coset[0]) >> 1) + dA + dt, dA, dt)
        return LaurentPoly._of(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return False
        if self._parts.keys() != other._parts.keys():
            return False
        for coset, x in self._parts.items():
            y = other._parts[coset]
            if (x.bits, x.ts, x.ps, x.q0, x.a0, x.t0) == (y.bits, y.ts, y.ps, y.q0, y.a0, y.t0):
                if x.n != y.n:
                    return False
            elif _add_parts(x, y, -1) is not None:
                return False
        return True

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.sorted_terms())!r})"

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return MappingProxyType({(q, a, t): c for coset, p in self._parts.items()
                                 for q, a, t, c in _part_rows(coset, p)})

    def rows(self):
        """Sorted (Q, A, T, coeff) tuples of the nonzero terms."""
        out = []
        for coset, p in self._parts.items():
            out.extend(_part_rows(coset, p))
        out.sort()
        return out

    def is_zero(self) -> bool:
        return not self._parts

    def sorted_terms(self):
        return [((q, a, t), c) for q, a, t, c in self.rows()]

    def has_even_t(self) -> bool:
        return all(rt == 0 for _, rt in self._parts)

    def truncated(self, limit: int) -> "LaurentPoly":
        """The terms with Q + 2A + T <= limit, i.e. q-degree <= limit / 2."""
        parts = {}
        for (rq, rt), p in self._parts.items():
            # Q + 2A + T = 2 q + rq + rt in local coordinates
            keep = ((limit - rq - rt) >> 1) - p.q0 + 1
            if keep >= p.qe:
                parts[(rq, rt)] = p
            elif keep > 0:
                n = _balanced_low(p.n, keep * p.ps * p.bits)
                part = _make(n, p.bits, p.ts, p.ps, p.q0, p.a0, p.t0, keep, p.ae, p.te,
                             p.room)
                if part is not None:
                    parts[(rq, rt)] = part
        return LaurentPoly._of(parts)


def _parts_of_rows(rows) -> Dict[Tuple[int, int], _Part]:
    groups: Dict[Tuple[int, int], list] = {(0, 0): rows}
    if any([(q | t) & 1 for q, _, t, _ in rows]):  # terms off the sublattice
        groups = {}
        for row in rows:
            groups.setdefault((row[0] & 1, row[2] & 1), []).append(row)
    parts = {}
    for coset, group in groups.items():
        part = _pack(coset, group)
        if part is not None:
            parts[coset] = part
    return parts


def denom_monomial(i: int) -> Monomial:
    """Lattice point of q t^{1-i} = Q^{2i} T^{2-2i}."""
    return (2 * i, 0, 2 - 2 * i)


def divide_one_minus(f: LaurentPoly, direction: Monomial) -> Optional[LaurentPoly]:
    """Exact quotient f / (1 - M) with M the given lattice direction.

    Returns None if not divisible.  Along each line e + Z*M write
    f = sum_k f_k M^k; then f = (1 - M) g iff sum_k f_k = 0, with
    g_k = sum_{j <= k} f_j.  A direction off the sublattice links two
    cosets; then f / (1 - M) = f (1 + M) / (1 - M^2).
    """
    if direction == MONO_ONE:
        raise ValueError("cannot divide by 1 - 1")
    dQ, dA, dT = direction
    if dQ % 2 or dT % 2:
        return divide_one_minus(f + f.scale(direction), (2 * dQ, 2 * dA, 2 * dT))
    dq, da, dt = monomial_to_qat(direction)
    parts = {}
    for coset, p in f._parts.items():
        quo = _divide_part(p, dq, da, dt)
        if quo is None:
            return None
        parts[coset] = quo
    return LaurentPoly._of(parts)


@dataclass(frozen=True)
class DenomVector:
    """Multiset of denominator factors (1 - q t^{1-i}), keyed by i >= 1."""

    mult: Tuple[Tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "DenomVector":
        items = tuple(sorted((i, m) for i, m in d.items() if m))
        for i, m in items:
            if i < 1 or m < 1:
                raise ValueError(f"bad denominator entry ({i}, {m})")
        return cls(items)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.mult)

    def is_empty(self) -> bool:
        return not self.mult

    def merged_max(self, other: "DenomVector") -> "DenomVector":
        d = self.as_dict()
        for i, m in other.mult:
            d[i] = max(d.get(i, 0), m)
        return DenomVector.from_dict(d)

    def merged_sum(self, other: "DenomVector") -> "DenomVector":
        d = self.as_dict()
        for i, m in other.mult:
            d[i] = d.get(i, 0) + m
        return DenomVector.from_dict(d)


def _cleared(num: LaurentPoly, target: DenomVector, have: DenomVector) -> LaurentPoly:
    """num times (1 - q t^{1-i}) for each factor target has beyond have.

    Each factor is one shift and one subtraction: N - q t^{1-i} N.
    """
    hd = have.as_dict()
    for i, m in target.mult:
        direction = denom_monomial(i)
        for _ in range(m - hd.get(i, 0)):
            num = num - num.scale(direction)
    return num


class GradedSeries:
    """num / prod (1 - q t^{1-i})^{d_i}, kept canonical.

    Canonical: the numerator is not divisible by any active denominator
    factor, and a zero numerator carries an empty denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: DenomVector = DenomVector(),
                 canonical: bool = False):
        if canonical:
            self.num = num
            self.den = den
        else:
            self.num, self.den = _canonical_parts(num, den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "GradedSeries":
        return cls(LaurentPoly.zero(), DenomVector(), canonical=True)

    @classmethod
    def one(cls) -> "GradedSeries":
        return cls(LaurentPoly.one(), DenomVector(), canonical=True)

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "GradedSeries":
        return cls(p, DenomVector(), canonical=True)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        lcd = self.den.merged_max(other.den)
        n1 = _cleared(self.num, lcd, self.den)
        n2 = _cleared(other.num, lcd, other.den)
        return GradedSeries(n1 + n2, lcd)

    def __neg__(self) -> "GradedSeries":
        return GradedSeries(-self.num, self.den, canonical=True)

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        return GradedSeries(self.num * other.num, self.den.merged_sum(other.den))

    def scale(self, m: Monomial, coeff: int = 1) -> "GradedSeries":
        if coeff == 0:
            return GradedSeries.zero()
        return GradedSeries(self.num.scale(m, coeff), self.den, canonical=True)

    def with_extra_denominator(self, factors: Mapping[int, int]) -> "GradedSeries":
        extra = DenomVector.from_dict(dict(factors))
        return GradedSeries(self.num, self.den.merged_sum(extra))

    def __eq__(self, other: object) -> bool:
        # canonical representatives are unique, so syntactic equality suffices
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __repr__(self) -> str:
        return f"GradedSeries({self.num!r}, {self.den!r})"


def _canonical_parts(num: LaurentPoly, den: DenomVector) -> Tuple[LaurentPoly, DenomVector]:
    if num.is_zero():
        return LaurentPoly.zero(), DenomVector()
    d = den.as_dict()
    for i in sorted(d):
        direction = denom_monomial(i)
        while d[i] > 0:
            quo = divide_one_minus(num, direction)
            if quo is None:
                break
            num = quo
            d[i] -= 1
            if num.is_zero():
                return LaurentPoly.zero(), DenomVector()
        if d[i] == 0:
            del d[i]
    return num, DenomVector.from_dict(d)


def series_equal(f: GradedSeries, g: GradedSeries) -> bool:
    """Value equality via cross-multiplied numerators."""
    if f.den == g.den:
        return f.num == g.num
    lcd = f.den.merged_max(g.den)
    return _cleared(f.num, lcd, f.den) == _cleared(g.num, lcd, g.den)


def expand_series(s: GradedSeries, depth: int) -> LaurentPoly:
    """Truncated geometric expansion, keeping q-degree <= depth.

    Every denominator factor has q-degree exactly 1, so the expansion of
    each factor contributes finitely many terms below the cutoff.
    """
    limit = 2 * depth
    out = s.num.truncated(limit)
    for i, mult in s.den.mult:
        direction = denom_monomial(i)
        for _ in range(mult):
            total = frontier = out
            while frontier:
                frontier = frontier.scale(direction).truncated(limit)
                total = total + frontier
            out = total
    return out


def equal_up_to_monomial(f: GradedSeries, g: GradedSeries) -> Optional[Monomial]:
    """Return M with f = M * g (cross-multiplied), or None.

    The candidate shift is fixed by the lexicographically least terms:
    a monomial shift preserves lexicographic order of exponents.
    """
    lcd = f.den.merged_max(g.den)
    nf = _cleared(f.num, lcd, f.den)
    ng = _cleared(g.num, lcd, g.den)
    if nf.is_zero() or ng.is_zero():
        return MONO_ONE if nf.is_zero() and ng.is_zero() else None
    mf = min(nf.terms)
    mg = min(ng.terms)
    shift = (mf[0] - mg[0], mf[1] - mg[1], mf[2] - mg[2])
    if ng.scale(shift) == nf:
        return shift
    return None


# -- rendering ----------------------------------------------------------


def _fmt_power(var: str, e: int, latex: bool) -> str:
    if e == 1:
        return var
    if latex:
        return f"{var}^{{{e}}}"
    return f"{var}^{e}" if 0 <= e <= 9 else f"{var}^({e})"


def _fmt_qat_monomial(i: int, j: int, k: int, latex: bool = False) -> str:
    parts = []
    if i:
        parts.append(_fmt_power("q", i, latex))
    if j:
        parts.append(_fmt_power("a", j, latex))
    if k:
        parts.append(_fmt_power("t", k, latex))
    if not parts:
        return "1"
    return ("" if latex else "*").join(parts) if not latex else " ".join(parts)


def _fmt_QAT_monomial(m: Monomial, latex: bool = False) -> str:
    parts = []
    for var, e in zip("QAT", m):
        if e:
            parts.append(_fmt_power(var, e, latex))
    if not parts:
        return "1"
    return " ".join(parts) if latex else "*".join(parts)


def _group_terms_qat(f: LaurentPoly):
    """Terms as {a-degree: {t-degree: {q-degree: coeff}}}, sorted."""
    grouped: Dict[int, Dict[int, Dict[int, int]]] = {}
    for m, c in f.terms.items():
        i, j, k = monomial_to_qat(m)
        grouped.setdefault(j, {}).setdefault(k, {})[i] = c
    return grouped

def _fmt_signed(text: str, coeff: int, first: bool) -> str:
    mag = abs(coeff)
    if text == "1":
        body = str(mag)
    elif mag == 1:
        body = text
    else:
        body = f"{mag}{text}" if text.startswith("(") else f"{mag}*{text}"
    if first:
        return f"-{body}" if coeff < 0 else body
    return f" - {body}" if coeff < 0 else f" + {body}"


def _poly_text_qat(f: LaurentPoly, latex: bool) -> str:
    if f.is_zero():
        return "0"
    grouped = _group_terms_qat(f)
    chunks = []
    first = True
    for j in sorted(grouped):
        for k in sorted(grouped[j]):
            for i in sorted(grouped[j][k]):
                c = grouped[j][k][i]
                chunks.append(_fmt_signed(_fmt_qat_monomial(i, j, k, latex), c, first))
                first = False
    return "".join(chunks)


def _poly_text_QAT(f: LaurentPoly, latex: bool) -> str:
    if f.is_zero():
        return "0"
    chunks = []
    first = True
    for m, c in f.sorted_terms():
        chunks.append(_fmt_signed(_fmt_QAT_monomial(m, latex), c, first))
        first = False
    return "".join(chunks)


def _on_sublattice(f: LaurentPoly) -> bool:
    return all(q % 2 == 0 and t % 2 == 0 for (q, _, t) in f.terms)


def _denom_text(den: DenomVector, latex: bool) -> str:
    parts = []
    for i, m in den.mult:
        if i == 1:
            base = "(1-q)" if not latex else "(1 - q)"
        else:
            tpow = _fmt_power("t", 1 - i, latex)
            base = f"(1-q*{tpow})" if not latex else f"(1 - q {tpow})"
        if m > 1:
            base += f"^{{{m}}}" if latex else f"^{m}"
        parts.append(base)
    return ("" if latex else "*").join(parts) if not latex else " ".join(parts)


def render(s: GradedSeries, fmt: str = "human") -> str:
    if fmt == "json":
        num = s.num.rows()  # tuples encode as JSON arrays
        den = [[i, m] for i, m in s.den.mult]
        return json.dumps({"num": num, "den": den}, separators=(",", ":"))
    qat = _on_sublattice(s.num)
    if fmt == "human":
        num_text = _poly_text_qat(s.num, False) if qat else _poly_text_QAT(s.num, False)
        if s.den.is_empty():
            return num_text
        return f"({num_text}) / ({_denom_text(s.den, False)})"
    if fmt == "latex":
        num_text = _poly_text_qat(s.num, True) if qat else _poly_text_QAT(s.num, True)
        if s.den.is_empty():
            return num_text
        return f"\\frac{{{num_text}}}{{{_denom_text(s.den, True)}}}"
    raise ValueError(f"unknown format {fmt!r}")
