"""Memoized evaluation of the graded-rank recursion on sequence pairs.

The evaluator runs on an explicit work stack (pairs a few hundred bits
long must not hit Python's recursion limit) and caches canonical series
keyed by the pair verbatim.  The symmetry p(v,w) = p(w,v) is a theorem
under test, so keys are never canonicalized across the swap.

`classify_rule` picks a pair's rule; `RULES` gives, for each rule, the
pairs its value depends on and the step that combines their values.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from .ring import (
    DenomVector,
    GradedSeries,
    LaurentPoly,
    qat_monomial,
    render,
)
from .sequences import SeqPair, pair_strictly_precedes, pair_validate

ENCODER_VERSION = "torhom-series-json-1"

# One cache line: the key v|w, a tab, then the payload in the shape
# render(series, "json") gives it: (Q, A, T, coeff) rows of integers as
# Python prints them, with nonzero coefficients, and (i, multiplicity)
# denominator entries, both positive.  Plain groups only, so the pattern
# also runs on Python 3.10.
_INT = r"(?:-?[1-9][0-9]*|0)"
_ROW = rf"\[{_INT},{_INT},{_INT},-?[1-9][0-9]*\]"
_DEN = r"\[[1-9][0-9]*,[1-9][0-9]*\]"
_CACHE_LINE = re.compile(
    rf'(([01]*)\|([01]*))\t(\{{"num":\[(?:{_ROW}(?:,{_ROW})*)?\],'
    rf'"den":\[(?:{_DEN}(?:,{_DEN})*)?\]\}})\n?')

DEBUG_DESCENT = bool(os.environ.get("TLH_DEBUG_DESCENT"))


class RuleTag(Enum):
    BaseEmptyLeft = "base-empty-left"
    BaseEmptyRight = "base-empty-right"
    Rule2_bothEndOne = "rule2"
    Rule3_v0w1 = "rule3"
    Rule4_v1w0 = "rule4"
    Rule5_bothEndZero = "rule5"
    AllZeros = "all-zeros"


def classify_rule(p: SeqPair) -> RuleTag:
    if not p.v:
        return RuleTag.BaseEmptyLeft
    if not p.w:
        return RuleTag.BaseEmptyRight
    last = (p.v[-1], p.w[-1])
    if last == ("1", "1"):
        return RuleTag.Rule2_bothEndOne
    if last == ("0", "1"):
        return RuleTag.Rule3_v0w1
    if last == ("1", "0"):
        return RuleTag.Rule4_v1w0
    if "1" in p.v or "1" in p.w:
        return RuleTag.Rule5_bothEndZero
    return RuleTag.AllZeros


def _one_plus_a_over_one_minus_q(n: int) -> GradedSeries:
    num = LaurentPoly.from_qat({(0, j, 0): comb(n, j) for j in range(n + 1)})  # (1 + a)^n
    # (1+a)^n has no common factor with any 1 - q t^{1-i}: already canonical
    den = DenomVector.from_dict({1: n}) if n else DenomVector()
    return GradedSeries(num, den, canonical=True)


def _rule2(pair: SeqPair, values: List[GradedSeries]) -> GradedSeries:
    l = pair.l - 1
    (child,) = values
    # t^l + a shares no factor with 1 - Q^{2i}T^{2-2i} (substitute
    # T^2 = Q^{2i} components: the two terms stay distinct), so the
    # product of a canonical numerator stays canonical
    num = child.num.scale(qat_monomial(0, 0, l)) + child.num.scale(qat_monomial(0, 1, 0))
    return GradedSeries(num, child.den, canonical=True)


def _all_zeros(pair: SeqPair, values: List[GradedSeries]) -> GradedSeries:
    (child,) = values
    return GradedSeries(child.num, child.den.merged_sum(DenomVector.from_dict({1: 1})),
                        canonical=True)


def _rule5(pair: SeqPair, values: List[GradedSeries]) -> GradedSeries:
    # t^{-l} p(1v,1w) + q t^{-l} p(0v,0w)
    l = pair.l
    first, second = values
    return first.scale(qat_monomial(0, 0, -l)) + second.scale(qat_monomial(1, 0, -l))


class Rule(NamedTuple):
    """A rule: the pairs a value depends on, and how their values combine."""

    children: Callable[[SeqPair], Tuple[SeqPair, ...]]
    combine: Callable[[SeqPair, List[GradedSeries]], GradedSeries]


RULES: Dict[RuleTag, Rule] = {
    RuleTag.BaseEmptyLeft: Rule(
        lambda p: (), lambda p, _: _one_plus_a_over_one_minus_q(len(p.w))),
    RuleTag.BaseEmptyRight: Rule(
        lambda p: (), lambda p, _: _one_plus_a_over_one_minus_q(len(p.v))),
    RuleTag.Rule2_bothEndOne: Rule(lambda p: (SeqPair(p.v[:-1], p.w[:-1]),), _rule2),
    RuleTag.Rule3_v0w1: Rule(lambda p: (SeqPair(p.v[:-1], "1" + p.w[:-1]),), lambda p, vs: vs[0]),
    RuleTag.Rule4_v1w0: Rule(lambda p: (SeqPair("1" + p.v[:-1], p.w[:-1]),), lambda p, vs: vs[0]),
    RuleTag.Rule5_bothEndZero: Rule(
        lambda p: (SeqPair("1" + p.v[:-1], "1" + p.w[:-1]),
                   SeqPair("0" + p.v[:-1], "0" + p.w[:-1])),
        _rule5),
    RuleTag.AllZeros: Rule(lambda p: (SeqPair("1" + p.v[1:], "1" + p.w[1:]),), _all_zeros),
}


@dataclass
class MemoStats:
    entries: int
    hits: int
    misses: int
    max_depth: int


class MemoTable:
    """Map SeqPair -> GradedSeries with hit and miss counters.

    `get` counts one lookup; eval_p counts its own lookups and folds them
    in once per call.

    An entry read from a cache file stays its payload text until a
    lookup first needs it, so a warm query decodes one series instead of
    the whole table; `load` still checks the shape of every line.
    """

    def __init__(self, path: Optional[str] = None):
        self._table: Dict[str, Union[GradedSeries, str]] = {}
        self.hits = 0
        self.misses = 0
        self.max_depth = 0
        self.path = path
        self._synced: Optional[str] = None  # a file that holds exactly this table
        if path and os.path.exists(path):
            self.load(path)

    def get(self, pair: SeqPair) -> Optional[GradedSeries]:
        key = pair.key()
        value = self._table.get(key)
        if isinstance(value, str):
            value = self._decode(key, value)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def peek(self, pair: SeqPair) -> Optional[GradedSeries]:
        key = pair.key()
        value = self._table.get(key)
        if isinstance(value, str):  # checked inline: peek is the evaluator's hot path
            value = self._decode(key, value)
        return value

    def _decode(self, key: str, payload: str) -> GradedSeries:
        """Replace an entry still held as cache text by its series.
        Decoding leaves the table's contents as they were, so `_synced`
        stays."""
        try:
            value = _series_from_json(payload)
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"damaged cache entry {key!r}") from exc
        self._table[key] = value
        return value

    def put(self, pair: SeqPair, value: GradedSeries) -> None:
        self._table[pair.key()] = value
        self._synced = None

    def record(self, hits: int, misses: int, depth: int) -> None:
        self.hits += hits
        self.misses += misses
        self.max_depth = max(self.max_depth, depth)

    def __len__(self) -> int:
        return len(self._table)

    def values(self):
        for key, payload in [(k, v) for k, v in self._table.items() if isinstance(v, str)]:
            self._decode(key, payload)
        return self._table.values()

    def stats(self) -> MemoStats:
        return MemoStats(len(self._table), self.hits, self.misses, self.max_depth)

    # -- persistence ----------------------------------------------------

    @staticmethod
    def _version_line() -> str:
        digest = hashlib.sha256(ENCODER_VERSION.encode()).hexdigest()[:16]
        return f"{ENCODER_VERSION} {digest}"

    def save(self, path: Optional[str] = None) -> None:
        """Write the table to a temp file beside `path`, sync it, and move
        it over `path`, so an interrupted save leaves the old file whole."""
        path = path or self.path
        if not path:
            raise ValueError("no cache path configured")
        if path == self._synced:
            return  # nothing was added since this file was read or written
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(self._version_line() + "\n")
                for key in sorted(self._table):
                    value = self._table[key]
                    if not isinstance(value, str):
                        value = render(value, "json")
                    fh.write(f"{key}\t{value}\n")
                fh.flush()
                os.fsync(fh.fileno())
            if os.path.exists(path):
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)  # keep the file's mode
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._synced = path

    def load(self, path: str) -> None:
        synced = path if not self._table else None
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            if header != self._version_line():
                raise ValueError(f"cache version mismatch in {path}")
            for number, line in enumerate(fh, 2):
                entry = _CACHE_LINE.fullmatch(line)
                if entry is None:
                    raise ValueError(f"damaged cache line {number} in {path}")
                key, v, w, payload = entry.groups()
                try:
                    pair_validate(v, w)
                except ValueError as exc:
                    raise ValueError(f"bad cache key {key!r} in {path}: {exc}") from exc
                self._table[key] = payload
        self._synced = synced


def _series_from_json(payload: str) -> GradedSeries:
    data = json.loads(payload)
    num = LaurentPoly.from_rows(data["num"])
    den = DenomVector.from_dict({i: m for i, m in data["den"]})
    return GradedSeries(num, den, canonical=True)


def eval_p(pair: SeqPair, memo: Optional[MemoTable] = None) -> GradedSeries:
    """Evaluate the recursion with an explicit post-order work stack.

    A pair's first visit looks up its rule and pushes its missing
    children; the second combines their stored values.  A hit is a
    lookup that finds a stored value, a miss a value computed here; both,
    and the deepest stack, reach the memo's counters once.
    """
    if memo is None:
        memo = MemoTable()
    cached = memo.peek(pair)
    if cached is not None:
        memo.record(1, 0, 0)
        return cached
    hits = misses = 0
    depth = 1
    stack: List[Tuple[SeqPair, Optional[Callable], Tuple[SeqPair, ...]]] = [(pair, None, ())]
    while stack:
        if len(stack) > depth:
            depth = len(stack)
        current, combine, children = stack.pop()
        if combine is not None:  # second visit: every child is stored by now
            memo.put(current, combine(current, [memo.peek(child) for child in children]))
            misses += 1
            continue
        if memo.peek(current) is not None:
            hits += 1  # a pair pushed twice
            continue
        children_of, combine = RULES[classify_rule(current)]
        children = children_of(current)
        if DEBUG_DESCENT:
            for child in children:
                assert pair_strictly_precedes(child, current), (current, child)
        stack.append((current, combine, children))
        for child in children:
            if memo.peek(child) is None:
                stack.append((child, None, ()))
            else:
                hits += 1
    memo.record(hits, misses, depth)
    result = memo.peek(pair)
    assert result is not None
    return result


# Nothing in torhom calls this; the benchmark's tracer (perfbench/tracing.py)
# still resolves it by name.  It goes once the tracer drops that target.
def eval_p_parallel(pair: SeqPair, memo: Optional[MemoTable] = None) -> GradedSeries:
    return eval_p(pair, memo)
