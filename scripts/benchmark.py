"""Wall time and peak RSS of a set of workloads, each in child processes.

Each workload runs REPEAT times, each time in a fresh child process, and
one line per workload prints its median wall time (around the query only,
from an empty memo) and median peak RSS.  Peak RSS is the child's own
`VmHWM` from /proc/self/status (Linux), which starts afresh at exec;
`ru_maxrss` would carry the parent's high-water mark over.  With --json
PATH the record, with nproc and the Python version, is also stored under
--label in PATH; other labels already in the file are kept, so one file
can hold the runs of two versions measured on the same machine.
Workloads are named T(m,n) for a torus link, P(v,w) for the recursion
at one pair and C(m,n,l) for the Sym^l-colored T(m,n), the query of
`torhom colored m n l`; the default set is WORKLOADS.  Each runs on the
memo table the command line uses, which keeps only the query results;
`entries` is what it holds at the end and `peak_entries` the most it
held at once.

S(suite) runs one check suite of `torhom check` with its defaults, on the
memo table the suite makes itself; `checks` counts its checks, and a
failed check fails the workload.

J(m,n) measures the `--cache` file of T(m,n) on the command line.  Each
repeat runs two children on one new file, each running `torhom torus m n
--format json --cache FILE` through `cli.main` with its stdout captured:
a cold one that computes T(m,n) and saves the file, and a warm one that
loads it and looks T(m,n) up.  `wall_s` is the warm child's whole call,
from parsing its argv to printing the JSON, and the warm result must be
the cold one's.  `save_s` is the cold child's `cache_save_s` and `load_s`
the warm child's `cache_load_s`, both read from their JSON `timing`
blocks.  `output_bytes` counts the JSON line up to its timing block, so
equal results print equal counts.

I(module) measures start-up: its `wall_s` runs from just before a fresh
interpreter is spawned to the end of `import module` in it, on the
monotonic clock both processes read, and its peak RSS is that child's.

Usage: python scripts/benchmark.py [--json BENCH.json [--label NAME]]
                                   [--workloads T(6,6) P(01,10) C(2,3,2) J(8,8)
                                                S(lemma53) I(torhom) ...]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Optional

from torhom import checks, cli
from torhom.links import colored_torus_homology
from torhom.recursion import MemoTable, eval_p
from torhom.sequences import pair_validate

WORKLOADS = ([f"T({n},{n})" for n in range(6, 15)] + ["T(7,11)"]
             + ["P(0001000000,0000001000)"]  # a shuffled pair: one 1 on each side
             + [f"C(2,3,{l})" for l in range(2, 5)] + ["J(8,8)", "J(11,11)"]
             + ["S(lemma53)", "S(symmetry)"] + ["I(torhom)", "I(torhom.cli)"])

REPEAT = 5

_NAME = re.compile(r"(T)\((\d+),(\d+)\)|(C)\((\d+),(\d+),(\d+)\)"
                   r"|J\((?P<jm>\d+),(?P<jn>\d+)\)"
                   r"|P\((?P<v>[01]*),(?P<w>[01]*)\)|S\((?P<suite>[\w-]+)\)"
                   r"|I\((torhom(?:\.\w+)?)\)")

# An I(module) child: the clock reading as the import ends, then its VmHWM in kB.
_IMPORT_CHILD = ("import time\nimport {}\nready = time.monotonic()\n"
                 "status = open('/proc/self/status').read()\n"
                 "print(ready, status.split('VmHWM:')[1].split()[0])\n")


def workload_name(name: str) -> str:
    match = _NAME.fullmatch(name)
    if not match:
        raise argparse.ArgumentTypeError(
            f"not a workload name T(m,n), P(v,w), C(m,n,l), J(m,n), S(suite) or "
            f"I(module): {name!r}")
    if match["suite"] and match["suite"] not in checks.SUITES:
        raise argparse.ArgumentTypeError(f"no check suite {match['suite']!r}")
    if match["v"] is not None:
        try:
            pair_validate(match["v"], match["w"])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name}: {exc}") from exc
    return name


def peak_rss_mb() -> float:
    """This process's peak RSS since its exec, in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def _command_line(m: str, n: str, cache: str) -> dict:
    """One J(m,n) child: the whole command-line call, its stdout captured."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["torus", m, n, "--format", "json", "--cache", cache])
    wall = time.perf_counter() - t0
    if code:
        raise RuntimeError(f"torhom torus {m} {n} exited {code}")
    text = out.getvalue()
    result = text.split(',"timing":')[0].encode()  # the line up to its timing block
    timing = json.loads(text)["timing"]
    return {"wall_s": wall, "output_bytes": len(result),
            "save_s": timing["cache_save_s"], "load_s": timing["cache_load_s"],
            "result_sha256": hashlib.sha256(result).hexdigest(),
            "cache_bytes": os.path.getsize(cache), "peak_rss_mb": peak_rss_mb()}


def run_one(name: str, cache: Optional[str] = None) -> dict:
    """Answer one workload in this process, from an empty memo; J(m,n)
    runs the command line on `cache`."""
    match = _NAME.fullmatch(name)
    if match["jm"]:
        return _command_line(match["jm"], match["jn"], cache)
    _, m, n, colored, cm, cn, l, _, _, v, w, suite, _ = match.groups()
    t0 = time.perf_counter()
    if suite:
        results = checks.SUITES[suite]()
        wall = time.perf_counter() - t0
        failed = [check for check, ok, _ in results if not ok]
        if failed:
            raise RuntimeError(f"{name}: failed checks {failed}")
        return {"wall_s": wall, "checks": len(results), "peak_rss_mb": peak_rss_mb()}
    memo = MemoTable(evict=True)  # as the command line makes it
    if colored:
        colored_torus_homology(int(cm), int(cn), int(l), "theorem", memo)
    elif v is not None:
        eval_p(pair_validate(v, w), memo)
    else:
        eval_p(pair_validate("0" * int(m), "0" * int(n)), memo)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "entries": len(memo), "peak_entries": memo.peak_entries,
            "peak_rss_mb": peak_rss_mb()}


def _child(name: str, cache: Optional[str] = None) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--one", name]
    if cache:
        argv += ["--cache", cache]
    return json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def _cache_sample(name: str) -> dict:
    """A warm child's record, with the file size and save time of the cold
    child before it."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "memo.tsv")
        cold = _child(name, cache)
        warm = _child(name, cache)
    if warm.get("result_sha256") != cold.get("result_sha256"):
        raise RuntimeError(f"{name}: the warm result differs from the cold one")
    return dict(warm, save_s=cold["save_s"], cache_bytes=cold["cache_bytes"])


def _import_sample(module: str) -> dict:
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", _IMPORT_CHILD.format(module)],
                         capture_output=True, text=True, check=True).stdout
    ready, hwm_kb = out.split()
    return {"wall_s": float(ready) - start, "peak_rss_mb": int(hwm_kb) / 1024}


def _sample(name: str) -> dict:
    if name[0] == "I":
        return _import_sample(name[2:-1])
    return _cache_sample(name) if name[0] == "J" else _child(name)


def measure(names, path: Optional[str], label: str) -> None:
    samples = {name: [] for name in names}
    for _ in range(REPEAT):  # interleaved, so a drift in host speed hits every workload
        for name in names:
            samples[name].append(_sample(name))
    results = {}
    for name, runs in samples.items():
        results[name] = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "wall_s_runs": [round(r["wall_s"], 4) for r in runs],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        line = (f"{name:13s} {results[name]['wall_s']:8.4f}s  "
                f"{results[name]['peak_rss_mb']:7.1f} MB")
        if "checks" in runs[0]:
            results[name]["checks"] = runs[0]["checks"]
            line += f"  {runs[0]['checks']} checks"
        if "entries" in runs[0]:
            results[name].update(entries=runs[0]["entries"],
                                 peak_entries=runs[0]["peak_entries"])
            line += f"  entries {runs[0]['entries']} (peak {runs[0]['peak_entries']})"
        if "output_bytes" in runs[0]:
            results[name].update(output_bytes=runs[0]["output_bytes"],
                                 cache_bytes=runs[0]["cache_bytes"])
            for key in ("save_s", "load_s"):
                results[name].update({key: statistics.median(r[key] for r in runs),
                                      f"{key}_runs": [round(r[key], 4) for r in runs]})
            line += (f"  {runs[0]['output_bytes']} B out  cache {runs[0]['cache_bytes']} B"
                     f"  save {results[name]['save_s']:.3f}s  load {results[name]['load_s']:.3f}s")
        print(line)
    if not path:
        return
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "repeat": REPEAT, "results": results}
    data = {"runs": {}}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data["runs"][label] = record
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", metavar="PATH", help="also record the workloads in PATH")
    parser.add_argument("--label", help="key of this run in the --json file (default: run)")
    parser.add_argument("--workloads", nargs="+", type=workload_name, default=WORKLOADS)
    parser.add_argument("--one", type=workload_name,
                        help="answer one workload here and print its record as JSON")
    parser.add_argument("--cache", metavar="FILE",
                        help="with --one J(m,n): the cache file to load and save")
    args = parser.parse_args()
    if (args.cache is None) != (args.one is None or args.one[0] != "J"):
        parser.error("--cache goes with --one J(m,n), and J(m,n) with --cache")
    if args.one and args.one[0] == "I":
        parser.error("--one takes T, P, C, J or S workloads; I(module) spawns its own "
                     "interpreter")
    if args.label is not None and args.json is None:
        parser.error("--label goes with --json")
    if args.one:
        print(json.dumps(run_one(args.one, args.cache)))
    else:
        measure(args.workloads, args.json, args.label or "run")


if __name__ == "__main__":
    main()
