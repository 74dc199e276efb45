"""Memoized evaluation of the graded-rank recursion on sequence pairs.

The evaluator runs on an explicit work stack (pairs a few hundred bits
long must not hit Python's recursion limit) and caches canonical series
keyed by the pair verbatim.  The symmetry p(v,w) = p(w,v) is a theorem
under test, so keys are never canonicalized across the swap.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Dict, List, Optional, Tuple, Union

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


def _children(pair: SeqPair) -> List[SeqPair]:
    tag = classify_rule(pair)
    v, w = pair.v, pair.w
    if tag in (RuleTag.BaseEmptyLeft, RuleTag.BaseEmptyRight):
        return []
    if tag is RuleTag.Rule2_bothEndOne:
        return [SeqPair(v[:-1], w[:-1])]
    if tag is RuleTag.Rule3_v0w1:
        return [SeqPair(v[:-1], "1" + w[:-1])]
    if tag is RuleTag.Rule4_v1w0:
        return [SeqPair("1" + v[:-1], w[:-1])]
    if tag is RuleTag.AllZeros:
        return [SeqPair("1" + v[1:], "1" + w[1:])]
    # rule 5
    return [
        SeqPair("1" + v[:-1], "1" + w[:-1]),
        SeqPair("0" + v[:-1], "0" + w[:-1]),
    ]


def _one_plus_a_over_one_minus_q(n: int) -> GradedSeries:
    num = LaurentPoly.from_qat({(0, j, 0): comb(n, j) for j in range(n + 1)})  # (1 + a)^n
    # (1+a)^n has no common factor with any 1 - q t^{1-i}: already canonical
    den = DenomVector.from_dict({1: n}) if n else DenomVector()
    return GradedSeries(num, den, canonical=True)


def _combine(pair: SeqPair, tag: RuleTag, child_values: List[GradedSeries]) -> GradedSeries:
    if tag is RuleTag.BaseEmptyLeft:
        return _one_plus_a_over_one_minus_q(len(pair.w))
    if tag is RuleTag.BaseEmptyRight:
        return _one_plus_a_over_one_minus_q(len(pair.v))
    if tag is RuleTag.Rule2_bothEndOne:
        l = pair.l - 1
        (child,) = child_values
        # t^l + a shares no factor with 1 - Q^{2i}T^{2-2i} (substitute
        # T^2 = Q^{2i} components: the two terms stay distinct), so the
        # product of a canonical numerator stays canonical
        num = child.num.scale(qat_monomial(0, 0, l)) + child.num.scale(qat_monomial(0, 1, 0))
        return GradedSeries(num, child.den, canonical=True)
    if tag in (RuleTag.Rule3_v0w1, RuleTag.Rule4_v1w0):
        (child,) = child_values
        return child
    if tag is RuleTag.AllZeros:
        (child,) = child_values
        return GradedSeries(child.num, child.den.merged_sum(DenomVector.from_dict({1: 1})),
                            canonical=True)
    # rule 5: t^{-l} p(1v,1w) + q t^{-l} p(0v,0w)
    l = pair.l
    first, second = child_values
    return first.scale(qat_monomial(0, 0, -l)) + second.scale(qat_monomial(1, 0, -l))


@dataclass
class MemoStats:
    entries: int
    hits: int
    misses: int
    max_depth: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "max_depth": self.max_depth,
        }


class MemoTable:
    """Concurrent map SeqPair -> GradedSeries with idempotent writes.

    Values are deterministic, so racing writers store identical series;
    plain dict operations are atomic enough under the interpreter lock.
    The counters take the lock explicitly: `get` counts one lookup, and
    eval_p counts its own lookups and folds them in once per call.

    An entry read from a cache file stays its payload text until a
    lookup first needs it, so a warm query decodes one series instead of
    the whole table; `load` still checks the shape of every line.
    """

    def __init__(self, path: Optional[str] = None):
        self._table: Dict[str, Union[GradedSeries, str]] = {}
        self._lock = threading.Lock()
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
        with self._lock:
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
        with self._lock:
            self.hits += hits
            self.misses += misses
            if depth > self.max_depth:
                self.max_depth = depth

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


def memo_stats(memo: MemoTable) -> MemoStats:
    return memo.stats()


def eval_p(pair: SeqPair, memo: Optional[MemoTable] = None) -> GradedSeries:
    """Evaluate the recursion with an explicit post-order work stack.

    A hit is a lookup that finds a stored value, a miss a value computed
    here; both, and the deepest stack, reach the memo's counters once.
    """
    if memo is None:
        memo = MemoTable()
    cached = memo.peek(pair)
    if cached is not None:
        memo.record(1, 0, 0)
        return cached
    hits = misses = 0
    depth = 1
    stack: List[Tuple[SeqPair, bool]] = [(pair, False)]
    while stack:
        if len(stack) > depth:
            depth = len(stack)
        current, expanded = stack.pop()
        if memo.peek(current) is not None:
            hits += not expanded  # a pair pushed twice, or stored by another thread
            continue
        tag = classify_rule(current)
        children = _children(current)
        if DEBUG_DESCENT:
            for child in children:
                assert pair_strictly_precedes(child, current), (current, child)
        if expanded:
            values = []
            for child in children:
                value = memo.peek(child)
                assert value is not None
                values.append(value)
            memo.put(current, _combine(current, tag, values))
            misses += 1
        else:
            stack.append((current, True))
            for child in children:
                if memo.peek(child) is None:
                    stack.append((child, False))
                else:
                    hits += 1
    memo.record(hits, misses, depth)
    result = memo.peek(pair)
    assert result is not None
    return result


def eval_p_strings(v: str, w: str, memo: Optional[MemoTable] = None) -> GradedSeries:
    return eval_p(pair_validate(v, w), memo)


def worker_count() -> int:
    raw = os.environ.get("TLH_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"TLH_THREADS must be a positive integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"TLH_THREADS must be a positive integer, got {raw!r}")
    return n


def eval_p_parallel(pair: SeqPair, memo: Optional[MemoTable] = None,
                    threads: Optional[int] = None) -> GradedSeries:
    """Evaluate with the immediate sub-pairs fanned out across threads.

    Values are deterministic and writes idempotent, so sharing one table
    between workers is safe; the final combine is sequential.
    """
    if memo is None:
        memo = MemoTable()
    threads = worker_count() if threads is None else threads
    children = _children(pair)
    if threads > 1 and len(children) > 1:
        # imported here: concurrent.futures brings in logging, which a
        # single-threaded run need not load
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(eval_p, child, memo) for child in children]
            for future in futures:
                future.result()
    return eval_p(pair, memo)
