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
A LaurentPoly is a coset of the (q,a,t) sublattice and the packed cells
of its terms on it.  The coset of (Q, A, T) is (Q mod 2, T mod 2); inside
the coset (rq, rt) the point has local coordinates

    q = (Q - rq)/2 + A + (T - rt)/2,   a = A,   t = (T - rt)/2,

so the sublattice itself is the coset (0, 0) with its usual (q,a,t)
exponents.  A monomial maps a coset onto one coset, so every value the
program makes lies on one coset (see LaurentPoly).

Layout.  A value's cells form a box in local coordinates on its coset:
an origin (q0, a0, t0), extents (qe, ae, te), and a layout (B, ts, ps).
The cell of (q0 + i, a0 + j, t0 + k) has index  i*ps + j*ts + k,  with
0 <= k < te <= ts and 0 <= j < ae <= ps // ts: t is the innermost axis and
q the outermost.  The cells are the one signed integer
n = sum(c_cell * 2**(B * index)), every coefficient a balanced digit of
width B.  The recursion packs its base cases with the slots of a bound on
the query's root pair, so every value of one query shares one layout and
its sums never repack.  Elsewhere a value packed from terms gets exactly
its extents as slots, and a sum that outgrows its slots rounds them up to
a multiple of four.  Memory follows the box and its slots, so terms far
apart, or a small value in a large query's layout, pay for the empty
cells.  Because q is outermost, multiplying by q t^{1-i} is a shift by
ps - (i - 1) cells.

Codec.  One set of byte routines changes a value's digit width or layout,
for the arithmetic and the cache alike: n as little-endian two's-complement
digits (``_bytes``), each digit's low bytes at another width (``_recut``;
``_int`` reads the result back as a value's int, sign-extending a widened
digit), and one slice per row into another (ts, ps) (``_relayout``).

Digit invariant.  Every stored digit satisfies |c| <= 2**(B - 3 - room)
for the value's `room` >= 0.  The sum of two values at room 0 has digits
below 2**(B - 2), which still decode uniquely; a sum whose room would fall
below 0 ends with an add-and-mask test of every cell (``_fits``) that
certifies new room, and when even room 0 fails the value is repacked at
twice the width.  B is 32, 64, 128, ...; a digit never wraps.

Operations.  The recursion only adds, scales and divides; it never
multiplies two numerators.  Scaling only moves the origin and the coset,
so a sum M1 f + M2 g is one addition of two values.  Addition aligns two
values on one coset: the result box is the union of theirs, in the wider
of their layouts (grown when the union does not fit); a value whose
layout differs is relaid through the codec; two values of one layout that
holds their union, as in one query, are added as they are.  A sum shifts
only an operand that is off the union's corner, and tests the lowest
q-plane only where both operands hold it, as a plane one operand holds
alone cannot cancel.  Multiplying by 1 - X, as clearing a denominator
does, is a shift and a subtraction, and by t^l + a, as rule 2 does, a sum
of two shifts; a sum of series looks up by its two denominators which
factors to clear.  Division by 1 - q t^{1-i} works on the terms, by
running sums along the lines of that shift (``divide_one_minus``), and a
sum of series tries none when its numerator's digits do not sum to 0.

Cache text.  ``encode_numerator`` writes a value as its coset, origin,
extents, a digit width and the box's cells in hex: the codec's bytes cut
to the narrowest width in 8, 16, 32, ... that holds every digit and relaid
to the box's own layout (ts = te, ps = te * ae), so the text does not
depend on the layout.  ``decode_numerator`` reads them back into that
layout at the digits' own width (at least 32) unless a digit needs the
invariant's headroom, and raises ValueError on any malformed field.  Zero
is the empty text.
"""

from __future__ import annotations

import os
import sys
from array import array
from itertools import chain, compress, repeat
from operator import add, itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .record import Record

Monomial = Tuple[int, int, int]  # (qexp, aexp, texp) on the (Q,A,T) lattice

MONO_ONE: Monomial = (0, 0, 0)

# Debug mode: `_series` checks each series it stores unreduced, a sum each
# skipped plane test, and recursion.eval_p descent and its layout bound.
DEBUG_DESCENT = bool(os.environ.get("TLH_DEBUG_DESCENT"))


class LatticeError(ValueError):
    """A term off the (q,a,t) sublattice, or terms or summands on two cosets."""


def qat_monomial(i: int, j: int, k: int) -> Monomial:
    """Lattice point of q^i a^j t^k."""
    return (2 * i - 2 * j - 2 * k, j, 2 * k)


def monomial_to_qat(m: Monomial) -> Tuple[int, int, int]:
    """Inverse of qat_monomial; raises LatticeError off the sublattice."""
    qexp, aexp, texp = m
    if qexp % 2 or texp % 2:
        raise LatticeError(f"monomial {m} is not on the (q,a,t) sublattice")
    return (qexp // 2 + aexp + texp // 2, aexp, texp // 2)


# -- packed values ------------------------------------------------------

_MIN_BITS = 32
# signed array typecode for each digit width that fits a machine word
_TYPECODE = {array(code).itemsize * 8: code for code in "iq"}
_BIG_ENDIAN = sys.byteorder == "big"


def _slots(x: int, y: int, n: int) -> int:
    """Slots for an extent n of a sum of values with x and y slots: the
    wider of those, or n rounded up to a multiple of four where it
    outgrows both.  Every value of one recursion query has the query's
    layout, so only arithmetic outside one grows: references, and sums of
    values from different queries."""
    wide = max(x, y)
    return wide if n <= wide else (n + 3) & ~3


def _room_for(maxabs: int, bits: int) -> int:
    """Spare bits of a value whose digits are at most maxabs <= 2**(bits - 3)."""
    return bits - 3 - (maxabs - 1).bit_length()


# Both caches below hold constants, each a pure function of its key, so
# sharing them between callers cannot change any result.
_PATTERNS: Dict[Tuple[int, int], Tuple[int, int]] = {}  # (bits, word) -> (pattern, cells)
_MASKS: Dict[int, int] = {}  # width -> (1 << width) - 1, a q-plane's mask in _make


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


def _bytes(n: int, bits: int, cells: int) -> bytes:
    """n's balanced digits of width `bits` as little-endian two's-complement
    bytes, lowest digit first."""
    top = _pattern(bits, 1 << (bits - 1), cells)
    return ((n + top) ^ top).to_bytes(cells * bits // 8, "little")


def _recut(raw, width: int, bits: int, cells: int):
    """raw's `cells` digits of width `width` at width `bits`: the low bytes
    of each digit, zero-padded when bits > width."""
    step, keep = bits // 8, width // 8
    if step == keep:
        return raw
    out = bytearray(cells * step)
    for k in range(min(step, keep)):
        out[k::step] = raw[k::keep]
    return out


def _int(raw, width: int, bits: int, cells: int) -> int:
    """The packed int whose digits of width `bits` >= `width` are raw's
    `cells` two's-complement digits of width `width`, sign-extended."""
    top = _pattern(bits, 1 << (width - 1), cells)
    return (int.from_bytes(_recut(raw, width, bits, cells), "little") ^ top) - top


def _cells(n: int, bits: int, cells: int):
    """The balanced digits of n, lowest first: an array, or a list past 64 bits."""
    raw = _bytes(n, bits, cells)
    if bits in _TYPECODE:
        out = array(_TYPECODE[bits])
        out.frombytes(raw)
        if _BIG_ENDIAN:
            out.byteswap()
        return out
    width = bits // 8
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, len(raw), width)]


_NEW = object.__new__


def _poly(n, bits, ts, ps, q0, a0, t0, qe, ae, te, room, coset) -> LaurentPoly:
    """The value with these fields, stored as given; see LaurentPoly."""
    f = _NEW(LaurentPoly)
    f.n, f.bits, f.ts, f.ps, f.q0, f.a0, f.t0 = n, bits, ts, ps, q0, a0, t0
    f.qe, f.ae, f.te, f.room, f.coset = qe, ae, te, room, coset
    return f


def _relayout(raw, step: int, p: LaurentPoly, ts: int, ps: int):
    """raw, p's cells at `step` bytes a digit, moved from p's layout to
    (ts, ps): its rows of te digits joined with zeros in the empty slots."""
    if (p.ts, p.ps) == (ts, ps):
        return raw
    row, sts, sps = p.te * step, p.ts * step, p.ps * step
    # zeros after a row, and after a plane's last row (its a-slots too)
    gap, end = bytes((ts - p.te) * step), bytes((ps - p.ae * ts + ts - p.te) * step)
    planes = [gap.join([raw[s:s + row] for s in range(i * sps, i * sps + p.ae * sts, sts)])
              for i in range(p.qe)]
    return end.join(planes + [b""])


def _relaid(p: LaurentPoly, bits: int, ts: int, ps: int) -> int:
    """p's n in the layout (bits, ts, ps), same origin, bits >= p.bits."""
    if (p.bits, p.ts, p.ps) == (bits, ts, ps):
        return p.n
    raw = _relayout(_bytes(p.n, p.bits, p.qe * p.ps), p.bits // 8, p, ts, ps)
    return _int(raw, p.bits, bits, p.qe * ps)


_SPARE = 8  # spare bits a passed digit test tries to certify, so most sums skip it


def _make(n, bits, ts, ps, q0, a0, t0, qe, ae, te, room, coset, trim=True) -> LaurentPoly:
    """The value of a fresh n on `coset`, or the zero if n is 0.

    room = -1 means the digits may be up to 2**(bits - 2), as after a sum
    of two values with no spare bits: they are then tested, and the value
    is repacked at twice the width if any digit breaks the invariant.
    Empty q-planes at either end are trimmed, tested on |n| (a negative
    int's low bits cost a two's-complement pass); trim=False vouches that
    the lowest plane is not empty, which debug mode checks.
    """
    if not n:
        return _ZERO
    if room < 0:
        cells = qe * ps
        if _fits(n, bits, cells, bits - 3 - _SPARE):
            room = _SPARE
        elif _fits(n, bits, cells, bits - 3):
            room = 0
        else:
            n = _int(_bytes(n, bits, cells), bits, 2 * bits, cells)
            bits, room = 2 * bits, bits - 1
    plane = bits * ps
    if (trim or DEBUG_DESCENT) and not abs(n) & (
            _MASKS.get(plane) or _MASKS.setdefault(plane, (1 << plane) - 1)):
        assert trim, "a sum skipped the test of its empty lowest q-plane"
        low = ((n & -n).bit_length() - 1) // plane
        n >>= low * plane
        q0 += low
    f = _NEW(LaurentPoly)  # as _poly builds it, without the call
    f.n, f.bits, f.ts, f.ps, f.q0, f.a0, f.t0 = n, bits, ts, ps, q0, a0, t0
    # with |digit| <= 2**(bits - 3) the top digit sits at bit_length // bits
    f.qe, f.ae, f.te, f.room, f.coset = n.bit_length() // bits // ps + 1, ae, te, room, coset
    return f


def _add_parts(x: LaurentPoly, y: LaurentPoly, sign: int, dq=0, da=0, dt=0,
               bq=0, ba=0, bt=0, coset=None) -> LaurentPoly:
    """x + sign * y for nonzero x and y, y's origin moved by (dq, da, dt)
    and x's by (bq, ba, bt), both onto `coset` (x's own when None), over
    the union of their boxes; see "Operations" in the module docstring."""
    xq, xa, xt, yq, ya, yt = x.q0 + bq, x.a0 + ba, x.t0 + bt, y.q0 + dq, y.a0 + da, y.t0 + dt
    xq1, xa1, xt1, yq1, ya1, yt1 = xq + x.qe, xa + x.ae, xt + x.te, yq + y.qe, ya + y.ae, yt + y.te
    # the union box, by comparisons: builtin min and max cost a call each
    q0, a0, t0 = xq if xq < yq else yq, xa if xa < ya else ya, xt if xt < yt else yt
    qe = (xq1 if xq1 > yq1 else yq1) - q0
    ae = (xa1 if xa1 > ya1 else ya1) - a0
    te = (xt1 if xt1 > yt1 else yt1) - t0
    bits, ts, ps = x.bits, x.ts, x.ps
    if y.bits == bits and y.ts == ts and y.ps == ps and te <= ts and ae * ts <= ps:
        nx, ny = x.n, y.n  # one layout that holds the union, as in one query
        room = (x.room if x.room < y.room else y.room) - 1
    else:
        bits = max(bits, y.bits)
        if (y.ts, y.ps) != (ts, ps) or te > ts or ae * ts > ps:
            ts = _slots(x.ts, y.ts, te)
            ps = ts * _slots(x.ps // x.ts, y.ps // y.ts, ae)
        nx = _relaid(x, bits, ts, ps)
        if y.n is x.n and (y.bits, y.ts, y.ps) == (x.bits, x.ts, x.ps):
            ny = nx  # one value at two origins, e.g. rule 2's t^l f + a f
        else:
            ny = _relaid(y, bits, ts, ps)
        room = min(x.room + bits - x.bits, y.room + bits - y.bits) - 1
    sx = (xq - q0) * ps + (xa - a0) * ts + xt - t0
    sy = (yq - q0) * ps + (ya - a0) * ts + yt - t0
    nx = nx << bits * sx if sx else nx  # n << 0 copies the whole int
    ny = ny << bits * sy if sy else ny
    return _make(nx + ny if sign > 0 else nx - ny, bits, ts, ps, q0, a0, t0, qe, ae, te, room,
                 coset or x.coset, xq == yq)


def _balanced_low(n: int, nbits: int) -> int:
    """The value of the lowest nbits of n read as balanced digits."""
    low = n & ((1 << nbits) - 1)
    return low - (1 << nbits) if low >> (nbits - 1) else low


def _digit_sum_residue(n: int, bits: int) -> int:
    """The sum of n's digits of width `bits` mod 2**bits - 1.

    2**bits is 1 mod 2**bits - 1, and so is 2**cut for every multiple
    `cut` of bits: adding n's bits above `cut` onto those below keeps the
    residue and halves the length, down to two digits for one small %.
    A negative n folds the same way, its high part a negative floor.
    """
    while n.bit_length() > 2 * bits:
        cut = bits * ((n.bit_length() + bits) // (2 * bits))
        n = (n & ((1 << cut) - 1)) + (n >> cut)
    return n % ((1 << bits) - 1)


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


def _rows(p: LaurentPoly):
    """(Q, A, T, coeff) of every nonzero cell, each q-plane in order."""
    if not p.n:
        return []
    cells = _cells(p.n, p.bits, p.qe * p.ps)
    ps = p.ps
    gather, qrel, arel, trel = _plane_order(p.ts, ps)
    rq, rt = p.coset
    qoff = 2 * (p.q0 - p.a0 - p.t0) + rq
    aexp = list(map(add, arel, repeat(p.a0)))
    texp = list(map(add, trel, repeat(2 * p.t0 + rt)))
    out = []
    for i in range(p.qe):
        plane = gather(cells[i * ps:(i + 1) * ps])
        out.extend(zip(map(add, compress(qrel, plane), repeat(qoff + 2 * i)),
                       compress(aexp, plane), compress(texp, plane), compress(plane, plane)))
    return out


def _pack(coset, rows, slots: Optional[Tuple[int, int]] = None) -> LaurentPoly:
    """The value on `coset` of its (Q, A, T, coeff) rows, each monomial
    once and every coeff nonzero, with at least `slots` = (t-slots,
    a-slots) when given."""
    rq, rt = coset
    _, aexp, texp, coeffs = zip(*rows)
    a0, t0 = min(aexp), (min(texp) - rt) >> 1
    ae, te = max(aexp) - a0 + 1, ((max(texp) - rt) >> 1) - t0 + 1
    ts, slots_a = (max(te, slots[0]), max(ae, slots[1])) if slots else (te, ae)
    ps = ts * slots_a  # a sum grows these when it must
    skew = a0 * ts + t0
    # the cell index from q = 0, with q = (Q - rq + T - rt)/2 + A and
    # t = (T - rt)/2; the plane of a cell, key // ps, is q itself
    keys = [(((q - rq + t - rt) >> 1) + a) * ps + a * ts + ((t - rt) >> 1) - skew
            for q, a, t, _ in rows]
    low = min(keys) // ps
    qe = max(keys) // ps - low + 1
    maxabs = max(max(coeffs), -min(coeffs))
    bits = _MIN_BITS
    while maxabs > 1 << (bits - 3):
        bits <<= 1
    step, base = bits // 8, low * ps
    raw = bytearray(qe * ps * step)
    for key, c in zip(keys, coeffs):
        at = (key - base) * step
        raw[at:at + step] = c.to_bytes(step, "little", signed=True)
    return _make(_int(raw, bits, bits, qe * ps), bits, ts, ps, low, a0, t0, qe, ae, te,
                 _room_for(maxabs, bits), coset)


def _image(coset: Tuple[int, int], m: Monomial) -> Tuple[Tuple[int, int], int, int, int]:
    """The coset that multiplying by m maps `coset` onto, and the move of a
    value's origin in local coordinates."""
    sq, st = coset[0] + m[0], coset[1] + m[2]
    return (sq & 1, st & 1), (sq >> 1) + m[1] + (st >> 1), m[1], st >> 1


class LaurentPoly:
    """Integer Laurent polynomial in Q, A, T: a coset and its packed cells.

    The fields are those of the module docstring: `coset`, the packed int
    `n`, its digit width `bits`, layout `ts`, `ps`, origin `q0`, `a0`,
    `t0`, extents `qe`, `ae`, `te`, and `room`, with every digit at most
    2**(bits - 3 - room), room >= 0.  Zero is one object, with n = 0 and
    coset None: every way of making zero returns it.

    One coset suffices: the recursion's base cases (1 + a)^n lie on the
    sublattice, which its sums, its products by sublattice monomials, by
    t^l + a and by 1 - q t^{1-i}, and its divisions by the last all keep.
    The writhe normalization scales a finished value by one monomial,
    which maps a coset onto one coset.  So terms on several cosets, and a
    sum across two, raise LatticeError.

    Instances are immutable; all operations return new values.  `terms`
    is a read-only {(Q, A, T): coeff} view without zero coefficients,
    decoded on each access.
    """

    __slots__ = ("n", "bits", "ts", "ps", "q0", "a0", "t0", "qe", "ae", "te", "room", "coset")

    def __new__(cls, terms: Optional[Mapping[Monomial, int]] = None):
        rows = [(q, a, t, c) for (q, a, t), c in terms.items() if c] if terms else None
        return _pack(_coset_of(rows), rows) if rows else _ZERO

    def __reduce__(self):
        # copy and pickle rebuild from the fields; by default they would write
        # them into the one zero that __new__() returns
        return _poly, tuple([getattr(self, name) for name in self.__slots__])

    def moved(self, coset: Tuple[int, int], dq: int, da: int, dt: int,
              n: Optional[int] = None) -> LaurentPoly:
        """The value with origin moved by (dq, da, dt) onto `coset`, as
        `_image` gives them, and n in place of its own when given."""
        return _poly(self.n if n is None else n, self.bits, self.ts, self.ps, self.q0 + dq,
                     self.a0 + da, self.t0 + dt, self.qe, self.ae, self.te, self.room, coset)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({MONO_ONE: 1})

    @classmethod
    def from_qat(cls, qat_terms: Mapping[Tuple[int, int, int], int],
                 slots: Optional[Tuple[int, int]] = None) -> LaurentPoly:
        """Build from a map {(i, j, k): coeff} of q^i a^j t^k terms, packed
        with at least `slots` = (t-slots, a-slots) when given."""
        rows = [(*qat_monomial(i, j, k), c) for (i, j, k), c in qat_terms.items() if c]
        return _pack((0, 0), rows, slots) if rows else _ZERO

    # -- arithmetic -----------------------------------------------------

    def _plus(self, other: LaurentPoly, sign: int, m: Monomial = MONO_ONE,
              base: Monomial = MONO_ONE) -> LaurentPoly:
        """base self + sign * m other: a monomial Q^a A^b T^c maps a coset
        onto one, and the two summands must land on the same one.  Both
        moves go to `_add_parts`, so neither summand is copied."""
        if not other.n:
            return self.moved(*_image(self.coset, base)) if self.n and base != MONO_ONE else self
        coset, dq, da, dt = _image(other.coset, m)
        if not self.n:
            return other.moved(coset, dq, da, dt, other.n if sign > 0 else -other.n)
        if base == MONO_ONE:
            xcoset, bq, ba, bt = self.coset, 0, 0, 0
        else:
            xcoset, bq, ba, bt = _image(self.coset, base)
        if coset != xcoset:
            raise LatticeError(f"a sum across the cosets {xcoset} and {coset}")
        return _add_parts(self, other, sign, dq, da, dt, bq, ba, bt, coset)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        return self._plus(other, 1)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self._plus(other, -1)

    def __neg__(self) -> LaurentPoly:
        return _ZERO._plus(self, -1)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        """Schoolbook product over the terms.  The recursion never multiplies
        two numerators; only reference values, tests and the benchmark's
        tracer still use `*`."""
        acc: Dict[Monomial, int] = {}
        right = other.terms.items()
        for (q1, a1, t1), c1 in self.terms.items():
            for (q2, a2, t2), c2 in right:
                key = (q1 + q2, a1 + a2, t1 + t2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return LaurentPoly(acc)

    def scale(self, m: Monomial) -> LaurentPoly:
        """Multiply by Q^a A^b T^c: moves the origin."""
        return _ZERO._plus(self, 1, m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly) or self.coset != other.coset:
            return False
        if not self.n:  # both zero
            return True
        if ((self.bits, self.ts, self.ps, self.q0, self.a0, self.t0)
                == (other.bits, other.ts, other.ps, other.q0, other.a0, other.t0)):
            return self.n == other.n
        return not _add_parts(self, other, -1).n

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.n)

    def __repr__(self) -> str:
        terms = {(q, a, t): c for q, a, t, c in self.rows()}
        return f"LaurentPoly({terms!r})"

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return MappingProxyType({(q, a, t): c for q, a, t, c in _rows(self)})

    def rows(self):
        """Sorted (Q, A, T, coeff) tuples of the nonzero terms."""
        out = _rows(self)
        out.sort()
        return out

    def is_zero(self) -> bool:
        return not self.n

    def within(self, te: int, ae: int) -> bool:
        """True iff the box spans at most te t-cells and ae a-cells."""
        return self.te <= te and self.ae <= ae

    def has_even_t(self) -> bool:
        return self.coset is None or self.coset[1] == 0

    def on_sublattice(self) -> bool:
        """True iff every term is a (q,a,t)-monomial, read off the coset."""
        return self.coset in (None, (0, 0))

    def truncated(self, limit: int) -> LaurentPoly:
        """The terms with Q + 2A + T <= limit, i.e. q-degree <= limit / 2."""
        if not self.n:
            return self
        # Q + 2A + T = 2 q + rq + rt in local coordinates
        keep = ((limit - sum(self.coset)) >> 1) - self.q0 + 1
        if keep >= self.qe:
            return self
        n = _balanced_low(self.n, keep * self.ps * self.bits) if keep > 0 else 0
        return _make(n, self.bits, self.ts, self.ps, self.q0, self.a0, self.t0, keep, self.ae,
                     self.te, self.room, self.coset)


# the one zero: no cells, and extents 0 so that it lies within any box
_ZERO = _poly(0, _MIN_BITS, 1, 1, 0, 0, 0, 0, 0, 0, 0, None)


def _coset_of(rows) -> Tuple[int, int]:
    """The one coset of the (Q, A, T, coeff) rows; LatticeError if several."""
    cosets = {(q & 1, t & 1) for q, _, t, _ in rows}
    if len(cosets) > 1:
        raise LatticeError(f"terms on the cosets {sorted(cosets)}: a numerator lies on one")
    return cosets.pop()


def denom_monomial(i: int) -> Monomial:
    """Lattice point of q t^{1-i} = Q^{2i} T^{2-2i}."""
    return (2 * i, 0, 2 - 2 * i)


def divide_one_minus(f: LaurentPoly, i: int) -> Optional[LaurentPoly]:
    """Exact quotient f / (1 - q t^{1-i}), or None if it does not divide.

    Along each line c + Z*M, M = q t^{1-i} = Q^{2i} T^{2-2i}, write
    f = sum_k f_k M^k; then f = (1 - M) g iff sum_k f_k = 0, with
    g_k = sum_{j <= k} f_j.  A term at Q has k = Q // 2i on the line whose
    foot c has Q mod 2i.  The quotient's terms lie between f's on each
    line, so inside f's box, and it keeps f's slots.
    """
    if i < 1:
        raise ValueError(f"no denominator factor i = {i}")
    if not f.n:
        return f
    rows, step, back = _rows(f), 2 * i, 2 * i - 2
    feet = [(q % step, a, t + back * (q // step)) for q, a, t, _ in rows]
    sums: Dict[Monomial, int] = {}
    for foot, row in zip(feet, rows):  # the line sums alone, as most attempts fail
        sums[foot] = sums.get(foot, 0) + row[3]
    if any(sums.values()):
        return None
    lines: Dict[Monomial, Dict[int, int]] = {}
    for foot, (q, _, _, c) in zip(feet, rows):
        lines.setdefault(foot, {})[q // step] = c
    out = []
    for (q, a, t), line in lines.items():
        g = 0
        for k in range(min(line), max(line)):
            g += line.get(k, 0)
            if g:
                out.append((q + step * k, a, t - back * k, g))
    return _pack(f.coset, out, (f.ts, f.ps // f.ts))


class DenomVector(Record):
    """Multiset of denominator factors (1 - q t^{1-i}), keyed by i >= 1."""

    __slots__ = ("mult",)

    def __init__(self, mult: Tuple[Tuple[int, int], ...] = ()):
        self.mult = mult

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


# (den.mult, den.mult) -> see _common_denominator; constants, like _PATTERNS
_LCD: Dict[Tuple[tuple, tuple], tuple] = {}


def _common_denominator(a: DenomVector, b: DenomVector) -> tuple:
    """(lcd, clear_a, clear_b, shared): the least common denominator of a
    and b; the monomial q t^{1-i} once per power of 1 - q t^{1-i} that lcd
    has beyond a, and beyond b; the factors a and b share with equal
    multiplicity, ascending."""
    got = _LCD.get((a.mult, b.mult))
    if got is None:
        lcd = a if a == b else a.merged_max(b)
        clear = [tuple([denom_monomial(i) for i, m in lcd.mult for _ in range(m - have.get(i, 0))])
                 for have in (a.as_dict(), b.as_dict())]
        shared = tuple([i for i, k in a.mult if (i, k) in b.mult])
        got = _LCD[a.mult, b.mult] = (lcd, *clear, shared)
    return got


class GradedSeries:
    """num / prod (1 - q t^{1-i})^{d_i}, in lowest terms by construction.

    Canonical: the numerator is not divisible by any active denominator
    factor, and a zero numerator carries an empty denominator.
    `GradedSeries(num, den)` always reduces.  Only this module skips the
    reduction: each shortcut below builds through `_series` beside its
    proof that the result is already canonical, and debug mode checks it.

    Sums try to divide only by the factors both summands carry with the
    same multiplicity; no other factor can cancel.  Write
    P_i = 1 - q t^{1-i} and take canonical A / D_A and B / D_B with, say,
    d_A(i) < d_B(i).  The sum's numerator over the least common
    denominator is A P_i^k U + B V with k >= 1 and V a product of factors
    P_j, j != i.  In the Laurent ring of the whole (Q, A, T) lattice
    P_i = (1 - m_i)(1 + m_i) with m_i = Q^i T^{1-i} primitive, so both
    factors are prime and neither divides any P_j.  If P_i divided the
    sum, it would divide B V, so both primes would divide B, and so would
    P_i; but B is canonical and d_B(i) > 0.  Dividing the sum by other
    factors cannot bring P_i in.  The same argument covers a sum with the
    zero series, whose denominator is empty.  The same primes make the
    canonical form unique (A / D_A = B / D_B with d_A(i) > d_B(i) puts P_i
    in A), so equality compares forms; a monomial M is a unit, so M B / D_B
    is canonical too, as `equal_up_to_monomial` uses.  `with_extra_denominator`
    leaves the numerator as it is, so it tries only the factors that are
    new to the series.  Products get no shortcut: one factor's numerator
    can cancel the other's denominator, as in (1 - q)/1 * 1/(1 - q) = 1.

    Every P_i vanishes at q = t = 1, so a numerator N = P_i G has
    N(1, 1, 1) = 0: its coefficients sum to 0.  A numerator whose sum is
    not 0 is divisible by no factor, and a sum reads it as the residue of
    its packed digits mod 2**B - 1 (`_digit_sum_residue`, one fold), so
    it tries the divisions only when that residue is 0.  In the recursion
    no sum divides, by induction: every denominator is a power of the one
    factor 1 - q (a base case gives (1 - q)^n, rule 2 and the renamings
    keep it, the all-zeros rule adds one), so rule 5's least common
    denominator is one summand's own, that summand is never cleared, and
    the numerator sums at Q = A = T = 1 to S(1v,1w) + S(0v,0w), or to the
    uncleared summand's sum alone, which is above 0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: DenomVector = DenomVector()):
        self.num, self.den = _canonical_parts(num, den, [i for i, _ in den.mult])

    # -- constructors: over no denominator, any numerator is canonical ---

    @classmethod
    def zero(cls) -> "GradedSeries":
        return _series(LaurentPoly.zero(), DenomVector())

    @classmethod
    def one(cls) -> "GradedSeries":
        return _series(LaurentPoly.one(), DenomVector())

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "GradedSeries":
        return _series(p, DenomVector())

    # -- arithmetic -----------------------------------------------------

    def plus_scaled(self, other: "GradedSeries", m: Monomial = MONO_ONE,
                    base: Monomial = MONO_ONE) -> "GradedSeries":
        """base self + m other for monomials base and m: monomials are units,
        so each summand is canonical over its own denominator and the class
        docstring's shortcut holds.  Each numerator is cleared first."""
        lcd, clear_self, clear_other, shared = _common_denominator(self.den, other.den)
        n1, n2 = self.num, other.num
        for d in clear_self:
            n1 = n1._plus(n1, -1, d)
        for d in clear_other:
            n2 = n2._plus(n2, -1, d)
        return _series(*_canonical_parts(n1._plus(n2, 1, m, base), lcd, shared))

    __add__ = plus_scaled

    def __neg__(self) -> "GradedSeries":
        return _series(-self.num, self.den)  # -1 is a unit

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        return GradedSeries(self.num * other.num, self.den.merged_sum(other.den))

    def scale(self, m: Monomial) -> "GradedSeries":
        return _series(self.num.scale(m), self.den)  # a monomial is a unit

    def times_t_plus_a(self, l: int) -> "GradedSeries":
        """(t^l + a) self, one sum t^l num + a num over the same denominator.
        It stays canonical: t^l + a = T^{2l} Q^{-2l} + A Q^{-2} has a unit
        A-coefficient, so neither prime 1 - m_i, 1 + m_i of P_i (see above),
        free of A, divides it; P_i then divides (t^l + a) num only if it
        divides num."""
        # a and t^l as lattice points: qat_monomial(0, 1, 0) and qat_monomial(0, 0, l)
        num = self.num._plus(self.num, 1, (-2, 1, 0), (-2 * l, 0, 2 * l))
        return _series(num, self.den)

    def with_extra_denominator(self, factors: Mapping[int, int]) -> "GradedSeries":
        extra = DenomVector.from_dict(dict(factors))
        have = self.den.as_dict()
        new = [i for i, _ in extra.mult if i not in have]
        return _series(*_canonical_parts(self.num, self.den.merged_sum(extra), new))

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


def _canonical_parts(num: LaurentPoly, den: DenomVector, factors: Iterable[int]
                     ) -> Tuple[LaurentPoly, DenomVector]:
    """num / den in lowest terms, dividing by the factors i in `factors`
    (ascending, each active in den) as often as they divide.  Only
    `GradedSeries.__init__`, which passes every factor, and this module's
    shortcuts call it; a shortcut proves that no other factor of den
    divides num, and builds its result through `_series`.  A num whose
    coefficients do not sum to 0 tries none (see GradedSeries), which
    debug mode checks against the divisions themselves."""
    if num.is_zero():
        return LaurentPoly.zero(), DenomVector()
    if not factors:
        return num, den
    if _digit_sum_residue(num.n, num.bits):
        # num(1, 1, 1) != 0, and every factor vanishes at q = t = 1
        if DEBUG_DESCENT:
            for i in factors:
                assert divide_one_minus(num, i) is None, i
        return num, den
    given, d = num, den.as_dict()
    for i in factors:
        while d[i] > 0:
            quo = divide_one_minus(num, i)
            if quo is None:
                break
            num = quo
            d[i] -= 1
    # most sums divide by nothing: then den is already the answer's
    return num, den if num is given else DenomVector.from_dict(d)


def _series(num: LaurentPoly, den: DenomVector) -> GradedSeries:
    """The series num / den, stored as given: its caller proves it
    canonical, and debug mode checks that it is a fixed point of reducing
    by every factor."""
    s = _NEW(GradedSeries)
    s.num, s.den = num, den
    if DEBUG_DESCENT:
        assert _canonical_parts(num, den, [i for i, _ in den.mult]) == (num, den), den
    return s


def series_equal(f: GradedSeries, g: GradedSeries) -> bool:
    """Value equality: canonical forms are unique (see GradedSeries), so
    two series are equal exactly when their forms are."""
    return f == g


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
    """Return M with f = M * g, or None.

    M * g is canonical with g's denominator (see GradedSeries), so only
    numerators over one denominator are compared.  The candidate shift is
    fixed by the lexicographically least terms: a monomial shift preserves
    lexicographic order of exponents.
    """
    if f.den != g.den:
        return None
    if f.is_zero() or g.is_zero():
        return MONO_ONE if f.is_zero() and g.is_zero() else None
    mf = min(f.num.terms)
    mg = min(g.num.terms)
    shift = (mf[0] - mg[0], mf[1] - mg[1], mf[2] - mg[2])
    if g.num.scale(shift) == f.num:
        return shift
    return None


# -- cache text ---------------------------------------------------------

def encode_numerator(f: LaurentPoly) -> str:
    """rq,rt,q0,a0,t0,qe,ae,te,width,hex: f's coset, origin, extents and
    box's cells, t innermost, as little-endian two's-complement digits of
    the narrowest width in 8, 16, 32, ... that holds them all, the layout's
    slots left out; the empty text for zero."""
    if not f.n:
        return ""
    bits, cells = f.bits, f.qe * f.ps
    width = 8
    while width < bits and not _fits(f.n, bits, cells, width - 1):
        width <<= 1
    raw = _recut(_bytes(f.n, bits, cells), bits, width, cells)
    raw = _relayout(raw, width // 8, f, f.te, f.te * f.ae)  # drops the slots
    rq, rt = f.coset
    return f"{rq},{rt},{f.q0},{f.a0},{f.t0},{f.qe},{f.ae},{f.te},{width},{raw.hex()}"


def decode_numerator(text: str) -> LaurentPoly:
    """Inverse of encode_numerator, in the box's own layout (ts = te,
    ps = te * ae); raises ValueError on any malformed field, two
    `;`-joined numerators included: a numerator lies on one coset."""
    if not text:
        return _ZERO
    *head, digits = text.split(",")
    fields = [int(x) for x in head]
    if len(fields) != 9 or list(map(str, fields)) != head:
        raise ValueError(f"bad numerator header {text[:80]!r}")
    rq, rt, q0, a0, t0, qe, ae, te, width = fields
    if rq not in (0, 1) or rt not in (0, 1):
        raise ValueError(f"bad coset ({rq}, {rt})")
    if min(qe, ae, te) < 1:
        raise ValueError(f"non-positive extent ({qe}, {ae}, {te})")
    if width < 8 or width & (width - 1):
        raise ValueError(f"unknown digit width {width}")
    cells, keep = qe * ae * te, width // 8
    if len(digits) != 2 * cells * keep:
        raise ValueError(f"{len(digits)} hex digits for {cells} cells of width {width}")
    raw = bytes.fromhex(digits)
    if len(raw) != cells * keep:  # fromhex skips whitespace
        raise ValueError("whitespace in the digits")
    # the digits' own width, or twice it when a digit needs the invariant's headroom
    bits = max(width, _MIN_BITS)
    n = _int(raw, width, bits, cells)
    if bits == width and not _fits(n, bits, cells, bits - 3):
        bits <<= 1
        n = _int(raw, width, bits, cells)
    f = _make(n, bits, te, te * ae, q0, a0, t0, qe, ae, te,
              _room_for(1 << min(width - 1, bits - 3), bits), (rq, rt))
    if (f.q0, f.qe) != (q0, qe):  # the zero has qe = 0
        raise ValueError("an empty q-plane at an end of the box")
    return f


# -- rendering ----------------------------------------------------------


def _fmt_power(var: str, e: int, latex: bool) -> str:
    if e == 1:
        return var
    if latex:
        return f"{var}^{{{e}}}"
    return f"{var}^{e}" if 0 <= e <= 9 else f"{var}^({e})"


def _fmt_monomial(names: str, exps: Tuple[int, int, int], latex: bool) -> str:
    parts = [_fmt_power(var, e, latex) for var, e in zip(names, exps) if e]
    if not parts:
        return "1"
    return " ".join(parts) if latex else "*".join(parts)


def _fmt_signed(text: str, coeff: int, first: bool, latex: bool) -> str:
    mag = abs(coeff)
    if text == "1":
        body = str(mag)
    elif mag == 1:
        body = text
    else:
        body = f"{mag} {text}" if latex else f"{mag}*{text}"
    if first:
        return f"-{body}" if coeff < 0 else body
    return f" - {body}" if coeff < 0 else f" + {body}"


def _poly_text(f: LaurentPoly, latex: bool) -> str:
    """f in q, a, t ordered by a, then t, then q when every term lies on
    the sublattice; otherwise in Q, A, T in lexicographic order."""
    if f.is_zero():
        return "0"
    if f.on_sublattice():
        keyed = sorted((j, k, i, c) for m, c in f.terms.items() for i, j, k in [monomial_to_qat(m)])
        terms = [("qat", (i, j, k), c) for j, k, i, c in keyed]
    else:
        terms = [("QAT", (q, a, t), c) for q, a, t, c in f.rows()]
    return "".join([_fmt_signed(_fmt_monomial(names, m, latex), c, n == 0, latex)
                    for n, (names, m, c) in enumerate(terms)])


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
    return " ".join(parts) if latex else "*".join(parts)


def series_json(s: GradedSeries) -> str:
    """The compact JSON text of s: {"num": its sorted [Q, A, T, coeff] rows,
    "den": its [i, multiplicity] pairs}, each list written by one %-format."""
    rows, den = s.num.rows(), s.den.mult
    num = ("[%d,%d,%d,%d]," * len(rows))[:-1] % tuple(chain.from_iterable(rows))
    pairs = ("[%d,%d]," * len(den))[:-1] % tuple(chain.from_iterable(den))
    return f'{{"num":[{num}],"den":[{pairs}]}}'


def render(s: GradedSeries, fmt: str = "human") -> str:
    if fmt not in ("human", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    latex = fmt == "latex"
    num_text = _poly_text(s.num, latex)
    if s.den.is_empty():
        return num_text
    den_text = _denom_text(s.den, latex)
    return f"\\frac{{{num_text}}}{{{den_text}}}" if latex else f"({num_text}) / ({den_text})"
