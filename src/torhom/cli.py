"""Command-line front end.

Exit codes: 0 success, 1 check-suite failure, 2 usage or domain error.
Output on stdout is deterministic for fixed inputs and flags; timing and
memo counters go to the envelope's timing block (json) or to stderr
(human).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import Dict, List, Optional

from . import checks, fillings, links
from .recursion import MemoTable, eval_p
from .ring import GradedSeries, expand_series, render
from .sequences import WeightMismatch, inversions, pair_validate


def _series_payload(s: GradedSeries) -> Dict:
    return json.loads(render(s, "json"))


def _emit(args, envelope: Dict, human_lines: List[str], stats: Dict) -> None:
    if args.format == "json":
        envelope["timing"] = stats
        print(json.dumps(envelope, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)
        print(f"memo entries: {stats['entries']}", file=sys.stderr)
        print(f"elapsed: {stats['seconds']:.3f}s  hits={stats['hits']} "
              f"misses={stats['misses']} max_depth={stats['max_depth']}",
              file=sys.stderr)


def _memo(args) -> MemoTable:
    return MemoTable(path=getattr(args, "cache", None))


def _finish_memo(args, memo: MemoTable) -> None:
    if getattr(args, "cache", None):
        memo.save()


def _stats(memo: MemoTable, t0: float) -> Dict:
    s = memo.stats()
    return {"seconds": time.time() - t0, "entries": s.entries,
            "hits": s.hits, "misses": s.misses, "max_depth": s.max_depth}


def _result_lines(args, label: str, s: GradedSeries) -> List[str]:
    fmt = args.format
    lines = [f"{label} = {render(s, fmt)}"]
    if args.expand is not None:
        expanded = GradedSeries.from_poly(expand_series(s, args.expand))
        lines.append(f"expansion(q-degree <= {args.expand}) = {render(expanded, fmt)}")
    return lines


def _envelope(args, command: str, params: Dict, s: GradedSeries) -> Dict:
    env = {"command": command, "params": params, "result": _series_payload(s)}
    if args.expand is not None:
        env["expand_depth"] = args.expand
        env["expansion"] = _series_payload(
            GradedSeries.from_poly(expand_series(s, args.expand)))
    return env


def cmd_torus(args) -> int:
    try:
        spec = links.TorusLinkSpec(args.m, args.n)
    except links.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    memo = _memo(args)
    t0 = time.time()
    series = eval_p(pair_validate("0" * spec.m, "0" * spec.n), memo)
    label = f"T({spec.m},{spec.n})"
    if args.normalized:
        series = series.scale(links.normalization_shift(spec))
        label = f"normalized {label}"
    _finish_memo(args, memo)
    _emit(args,
          _envelope(args, "torus",
                    {"m": spec.m, "n": spec.n, "normalized": args.normalized},
                    series),
          _result_lines(args, label, series),
          _stats(memo, t0))
    return 0


def cmd_pair(args) -> int:
    try:
        pair = pair_validate(args.v, args.w)
    except (WeightMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    memo = _memo(args)
    t0 = time.time()
    series = eval_p(pair, memo)
    _finish_memo(args, memo)
    _emit(args,
          _envelope(args, "pair", {"v": pair.v, "w": pair.w}, series),
          _result_lines(args, f"p({pair.v or 'empty'},{pair.w or 'empty'})", series),
          _stats(memo, t0))
    return 0


def cmd_colored(args) -> int:
    memo = _memo(args)
    t0 = time.time()
    try:
        if args.order == "both":
            both = links.colored_torus_both(args.m, args.n, args.l, memo)
        else:
            both = {args.order: links.colored_torus_homology(
                args.m, args.n, args.l, args.order, memo)}
    except links.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _finish_memo(args, memo)
    orders = [o for o in ("theorem", "example") if o in both]
    primary = both[orders[0]]
    env = _envelope(args, "colored",
                    {"m": args.m, "n": args.n, "l": args.l, "order": args.order},
                    primary)
    lines = []
    for order in orders:
        lines.extend(_result_lines(args, f"colored({args.m},{args.n};l={args.l})[{order}]",
                                   both[order]))
        if order != orders[0]:
            env[f"result_{order}"] = _series_payload(both[order])
    if "match_up_to_monomial" in both:
        shift = both["match_up_to_monomial"]
        env["orders_match_up_to_monomial"] = list(shift) if shift is not None else None
        lines.append(f"orders match up to monomial: "
                     f"{'Q^%d A^%d T^%d' % shift if shift is not None else 'no'}")
    _emit(args, env, lines, _stats(memo, t0))
    return 0


def cmd_sigma(args) -> int:
    try:
        entries = tuple(int(x) for x in args.sigma.split(",")) if args.sigma else ()
        sig = fillings.SigmaSeq.of(args.r, entries)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    memo = _memo(args)
    t0 = time.time()
    pair = fillings.seq_pair_of_sigma(sig)
    if args.g:
        series = fillings.g_sigma(sig, memo)
        label = f"g({args.sigma or 'empty'})"
    else:
        series = fillings.f_sigma(sig, memo)
        label = f"f({args.sigma or 'empty'})"
    _finish_memo(args, memo)
    env = _envelope(args, "sigma",
                    {"r": args.r, "sigma": list(entries), "g": args.g}, series)
    env["v"] = pair.v
    env["w"] = pair.w
    lines = [f"v = {pair.v}", f"w = {pair.w}"]
    lines.extend(_result_lines(args, label, series))
    if args.stats:
        inv = inversions(entries)
        c = fillings.c_statistic(sig)
        reversed_entries = list(fillings.rev(sig).entries)
        env["stats"] = {"inv": inv, "c": c, "rev": reversed_entries}
        lines.append(f"inv = {inv}")
        lines.append(f"c = {c}")
        lines.append(f"rev = {','.join(map(str, reversed_entries))}")
    _emit(args, env, lines, _stats(memo, t0))
    return 0


# check flag -> the suite parameter it sets
CHECK_FLAGS = (("r", "r_max"), ("len", "length"), ("depth", "depth"), ("seed", "seed"))


def cmd_check(args) -> int:
    suite = checks.SUITES[args.suite]
    params = inspect.signature(suite).parameters
    kwargs = {}
    for flag, name in CHECK_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if name not in params:
            print(f"error: check {args.suite} does not take --{flag}", file=sys.stderr)
            return 2
        kwargs[name] = value
    results = suite(**kwargs)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torhom",
        description="Exact graded ranks of triply graded homology of positive "
                    "torus links, shuffled links, and colored torus knots.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_series_flags(p):
        p.add_argument("--expand", type=int, metavar="D", default=None,
                       help="also print the expansion truncated at q-degree D")
        p.add_argument("--format", choices=("human", "json", "latex"),
                       default="human")
        p.add_argument("--cache", metavar="FILE", default=None,
                       help="persist and reload the memo table")

    p = sub.add_parser("torus", help="graded rank for the torus link T(m,n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--normalized", action="store_true")
    add_series_flags(p)
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("pair", help="evaluate the recursion at a pair v, w")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--normalized", action="store_true", help=argparse.SUPPRESS)
    add_series_flags(p)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("colored", help="Sym^l-colored torus knot invariant")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--order", choices=("theorem", "example", "both"),
                   default="both")
    add_series_flags(p)
    p.set_defaults(func=cmd_colored)

    p = sub.add_parser("sigma", help="evaluate f (or g) at a filling sequence")
    p.add_argument("r", type=int)
    p.add_argument("sigma", help="comma-separated entries in [0, r]")
    p.add_argument("--g", action="store_true", help="evaluate g instead of f")
    p.add_argument("--stats", action="store_true",
                   help="print inv, c, and the reversed sequence")
    add_series_flags(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=sorted(checks.SUITES))
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--len", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
