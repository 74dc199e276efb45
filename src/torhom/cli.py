"""Command-line front end.

Exit codes: 0 success, 1 check-suite failure, 2 usage, domain or cache-file
error, or an input too large for memory.
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
from typing import Callable, Dict, List, Optional

from . import checks, fillings, links
from .recursion import MemoTable, eval_p
from .ring import GradedSeries, expand_series, render, series_payload
from .sequences import inversions, pair_validate


def _emit(args, envelope: Callable[[], Dict], human_lines: Callable[[], List[str]],
          stats: Dict) -> None:
    """Print the JSON envelope or the human lines; only the one printed is built."""
    if args.format == "json":
        env = envelope()
        env["timing"] = stats
        print(json.dumps(env, separators=(",", ":")))
    else:
        for line in human_lines():
            print(line)
        print(f"memo entries: {stats['entries']}", file=sys.stderr)
        print(f"elapsed: {stats['seconds']:.3f}s  hits={stats['hits']} "
              f"misses={stats['misses']} max_depth={stats['max_depth']}",
              file=sys.stderr)
        if "cache_load_s" in stats:
            print(f"cache: load {stats['cache_load_s']:.3f}s  "
                  f"save {stats['cache_save_s']:.3f}s", file=sys.stderr)


def _memo(args) -> MemoTable:
    """The memo table of a series command whose --expand and --cache ask for something."""
    if args.expand is not None and args.expand < 0:
        raise ValueError(f"--expand must be at least 0, got {args.expand}")
    if args.cache == "":
        raise ValueError("--cache needs a file name")
    return MemoTable(path=args.cache)


def _finish(args, memo: MemoTable, t0: float) -> Dict:
    """Save the memo table if --cache names a file; the run's timing block."""
    if args.cache:
        memo.save()
    s = memo.stats()
    cache = {"cache_load_s": memo.load_s, "cache_save_s": memo.save_s} if args.cache else {}
    return {"seconds": time.time() - t0, "entries": s.entries,
            "hits": s.hits, "misses": s.misses, "max_depth": s.max_depth, **cache}


def _expansion(args, s: GradedSeries) -> GradedSeries:
    return GradedSeries.from_poly(expand_series(s, args.expand))


def _result_lines(args, label: str, s: GradedSeries) -> List[str]:
    fmt = args.format
    lines = [f"{label} = {render(s, fmt)}"]
    if args.expand is not None:
        lines.append(f"expansion(q-degree <= {args.expand}) = "
                     f"{render(_expansion(args, s), fmt)}")
    return lines


def _envelope(args, command: str, params: Dict, s: GradedSeries) -> Dict:
    env = {"command": command, "params": params, "result": series_payload(s)}
    if args.expand is not None:
        env["expand_depth"] = args.expand
        env["expansion"] = series_payload(_expansion(args, s))
    return env


def cmd_torus(args) -> int:
    spec = links.TorusLinkSpec(args.m, args.n)
    memo = _memo(args)
    t0 = time.time()
    label = f"T({spec.m},{spec.n})"
    if args.normalized:
        series, label = links.normalized_homology(spec, memo), f"normalized {label}"
    else:
        series = links.torus_link_homology(spec, memo)
    _emit(args,
          lambda: _envelope(args, "torus",
                            {"m": spec.m, "n": spec.n, "normalized": args.normalized},
                            series),
          lambda: _result_lines(args, label, series),
          _finish(args, memo, t0))
    return 0


def cmd_pair(args) -> int:
    pair = pair_validate(args.v, args.w)
    memo = _memo(args)
    t0 = time.time()
    series = eval_p(pair, memo)
    _emit(args,
          lambda: _envelope(args, "pair", {"v": pair.v, "w": pair.w}, series),
          lambda: _result_lines(args, f"p({pair.v or 'empty'},{pair.w or 'empty'})", series),
          _finish(args, memo, t0))
    return 0


def cmd_colored(args) -> int:
    memo = _memo(args)
    t0 = time.time()
    if args.order == "both":
        both = links.colored_torus_both(args.m, args.n, args.l, memo)
    else:
        both = {args.order: links.colored_torus_homology(
            args.m, args.n, args.l, args.order, memo)}
    orders = [o for o in ("theorem", "example") if o in both]
    compared = "match_up_to_monomial" in both
    shift = both.get("match_up_to_monomial")

    def envelope() -> Dict:
        env = _envelope(args, "colored",
                        {"m": args.m, "n": args.n, "l": args.l, "order": args.order},
                        both[orders[0]])
        for order in orders[1:]:
            env[f"result_{order}"] = series_payload(both[order])
            if args.expand is not None:
                env[f"expansion_{order}"] = series_payload(_expansion(args, both[order]))
        if compared:
            env["orders_match_up_to_monomial"] = list(shift) if shift is not None else None
        return env

    def human_lines() -> List[str]:
        lines = []
        for order in orders:
            lines.extend(_result_lines(
                args, f"colored({args.m},{args.n};l={args.l})[{order}]", both[order]))
        if compared:
            lines.append(f"orders match up to monomial: "
                         f"{'Q^%d A^%d T^%d' % shift if shift is not None else 'no'}")
        return lines

    _emit(args, envelope, human_lines, _finish(args, memo, t0))
    return 0


def cmd_sigma(args) -> int:
    entries = tuple(int(x) for x in args.sigma.split(",")) if args.sigma else ()
    sig = fillings.SigmaSeq.of(args.r, entries)
    memo = _memo(args)
    t0 = time.time()
    pair = fillings.seq_pair_of_sigma(sig)
    if args.g:
        series = fillings.g_sigma(sig, memo)
        label = f"g({args.sigma or 'empty'})"
    else:
        series = fillings.f_sigma(sig, memo)
        label = f"f({args.sigma or 'empty'})"
    sigma_stats = None
    if args.stats:
        sigma_stats = {"inv": inversions(entries), "c": fillings.c_statistic(sig),
                 "rev": list(fillings.rev(sig).entries)}

    def envelope() -> Dict:
        env = _envelope(args, "sigma",
                        {"r": args.r, "sigma": list(entries), "g": args.g}, series)
        env["v"] = pair.v
        env["w"] = pair.w
        if sigma_stats is not None:
            env["stats"] = sigma_stats
        return env

    def human_lines() -> List[str]:
        lines = [f"v = {pair.v}", f"w = {pair.w}"]
        lines.extend(_result_lines(args, label, series))
        if sigma_stats is not None:
            lines.append(f"inv = {sigma_stats['inv']}")
            lines.append(f"c = {sigma_stats['c']}")
            lines.append(f"rev = {','.join(map(str, sigma_stats['rev']))}")
        return lines

    _emit(args, envelope, human_lines, _finish(args, memo, t0))
    return 0


# check flag -> the suite parameter it sets, and its least value (a suite checks nothing below)
CHECK_FLAGS = (("r", "r_max", 1), ("len", "length", 0), ("depth", "depth", 0),
               ("seed", "seed", None))


def cmd_check(args) -> int:
    suite = checks.SUITES[args.suite]
    params = inspect.signature(suite).parameters
    kwargs = {}
    for flag, name, least in CHECK_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if name not in params:
            raise ValueError(f"check {args.suite} does not take --{flag}")
        if least is not None and value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
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
    # bad input, a --cache path that cannot be used, or an input too large to build
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
