"""Benchmark of torhom: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload torus-cold --seed 1 --seconds 35 --trace 0

Workloads (why each is here is recorded in BENCHMARK.json):

- torus-cold: ``torhom torus 9 9 --format json`` from an empty memo.
- identity-batch: sessions of small checked queries sharing one memo.
- cache-warm: ``torhom torus 8 8 --format json --cache FILE``, cold and warm.

Every unit of work runs in a fresh worker process (perfbench/worker.py)
that imports torhom from ``src/`` of the checkout, one process at a time.
Units are started until ``--seconds`` have passed.  Every answer is
checked: command-line results against the SHA-256 digests in
perfbench/expected.json (warm results must also equal the cold one), and
identity-batch queries against their identity or reference value.

End-to-end metrics, printed with ``--trace 0``:

- query_s.p50: median wall time of one query, timed around the call
  (cache-warm: the warm queries, load and save included).
- queries_per_s: those queries over the seconds spent answering them.
- first_query_s: mean time of the first query a unit answers on an empty
  memo with no cache file (torus-cold: every query; identity-batch: each
  session's opening T(6,8) check; cache-warm: the cold queries).
- peak_rss_mb: median over units of the worker's peak resident memory.
- setup_s: median over units and probes of interpreter start to
  ``import torhom`` done.

The times in them are scaled to a reference host speed.  A shared host's
speed swings by half, from one second to the next and for minutes at a
time, so the parent times a fixed kernel (perfbench/hostspeed.py)
between units, at least every CALIBRATE_EVERY_S, and divides every time
by the run's mean kernel time over hostspeed.REFERENCE_S.

query_s.tail (where at least ten samples lie beyond a percentile),
failed_frac, cache_file_mb and every time unscaled are printed as text
only.  So is, on identity-batch, each suite's share of the queries and
of their time.

``--trace 1`` measures
untraced for half of ``--seconds``, then runs one fixed traced unit
(torus-cold: one query; cache-warm: one cold and one warm query;
identity-batch: session 0), and prints the per-layer metrics, and on
identity-batch the memo lookups and hits of each suite; counts in
them repeat exactly for a given seed.  A trace target that torhom no
longer has fails the run.  Spans are written to
``.perfbench_run/`` in the checkout.  The last line of standard output is
one JSON object with keys correct, attempted, failed and metrics.

The program's own counters are not used: ``MemoTable.stats()`` counts
only the top-level lookup, and the CLI's ``timing.seconds`` starts after
``--cache`` has loaded.  Queries are timed from outside the call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
EXPECTED = HERE / "expected.json"

SETUP_PROBES = 5
CALIBRATE_EVERY_S = 2.0
RUN_LIMIT_S = 170  # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def spawn(job: Dict, timeout: float) -> Dict:
    """Run one worker process; return its result with setup_s added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("TLH_THREADS", None)  # the program's default of one thread
    env.pop("TLH_DEBUG_DESCENT", None)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=str(ROOT), env=env, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker timed out after {timeout:.0f} s: {job}")
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


# -- workloads ----------------------------------------------------------


class Workload:
    name = ""
    queries_per_unit = 1
    min_units = 1

    def __init__(self, seed: int, digests: Dict[str, str]):
        self.seed = seed
        self.digests = digests

    def job(self, unit: int) -> Dict:
        return {"workload": self.name, "seed": self.seed, "unit": unit}

    def trace_jobs(self) -> List[Dict]:
        return [self.job(0)]

    def timed(self, query: Dict) -> bool:
        """Whether a query's time counts toward query_s."""
        return True

    def check(self, query: Dict) -> bool:
        return bool(query.get("ok"))

    def digest_ok(self, query: Dict) -> bool:
        """A command-line answer: exit code 0 and the recorded result digest."""
        return query["code"] == 0 and query["digest"] == self.digests[query["key"]]

    def cleanup(self) -> None:
        pass


class TorusCold(Workload):
    name = "torus-cold"

    def check(self, query):
        return self.digest_ok(query)


class CacheWarm(Workload):
    name = "cache-warm"
    min_units = 2  # a cold query and a warm one

    def __init__(self, seed, digests):
        super().__init__(seed, digests)
        self.cache = WORK / f"cache-warm-{os.getpid()}.tsv"
        self.cold_digest: Optional[str] = None

    def job(self, unit):
        cold = unit % workloads.CACHE_CYCLE == 0
        if cold:
            self.cleanup()
        return dict(super().job(unit), cache=str(self.cache), cold=cold)

    def trace_jobs(self):
        return [self.job(0), self.job(1)]

    def timed(self, query):
        return not query["first"]

    def check(self, query):
        ok = self.digest_ok(query)
        if query["first"]:
            self.cold_digest = query["digest"]
        # a warm answer must equal the cold one byte for byte
        return ok and query["digest"] == self.cold_digest

    def cleanup(self):
        if self.cache.exists():
            self.cache.unlink()


class IdentityBatch(Workload):
    name = "identity-batch"
    queries_per_unit = workloads.SESSION_QUERIES


WORKLOADS = {w.name: w for w in (TorusCold, IdentityBatch, CacheWarm)}


class Runner:
    """Starts units one at a time and keeps what they report."""

    def __init__(self, workload: Workload, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.units: List[Dict] = []
        self.setup: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.calib: List[float] = []  # host-speed kernel times
        self.last_calib = float("-inf")

    def run(self, job: Dict) -> Optional[Dict]:
        try:
            result = spawn(job, self.deadline - time.monotonic())
        except WorkerError as exc:
            self.errors.append(str(exc))
            self.attempted += self.workload.queries_per_unit
            self.failed += self.workload.queries_per_unit
            return None
        self.setup.append(result["setup_s"])
        for query in result["queries"]:
            query["ok"] = self.workload.check(query)
            self.attempted += 1
            self.failed += not query["ok"]
        return result

    def calibrate(self) -> None:
        self.calib.extend(hostspeed.block())
        self.last_calib = time.monotonic()

    def loop(self, seconds: float) -> float:
        """Run units until `seconds` have passed, timing the host-speed
        kernel between them at least every CALIBRATE_EVERY_S and once at
        the end; return the time taken."""
        start = time.monotonic()
        unit = 0
        while unit < self.workload.min_units or time.monotonic() - start < seconds:
            if time.monotonic() >= self.deadline:
                break
            if time.monotonic() - self.last_calib >= CALIBRATE_EVERY_S:
                self.calibrate()
            result = self.run(self.workload.job(unit))
            if result is not None:
                self.units.append(result)
            unit += 1
        self.calibrate()
        return time.monotonic() - start


# -- metrics ------------------------------------------------------------


def tail(samples: List[float]):
    """The highest of p99.9/p99/p95/p90 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0):
        beyond = int(n * (100.0 - pct) / 100.0)
        if beyond >= 10:
            return pct, ordered[n - beyond - 1], n
    return None


def timed_samples(workload: Workload, units: List[Dict]) -> List[float]:
    return [q["s"] for u in units for q in u["queries"] if workload.timed(q)]


def host_factor(runner: Runner) -> float:
    """How much slower than the reference host this run's host was."""
    return statistics.mean(runner.calib) / hostspeed.REFERENCE_S


def end_to_end(runner: Runner, factor: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics, every time divided by `factor`."""
    units = runner.units
    timed = timed_samples(runner.workload, units)
    first = [q["s"] for u in units for q in u["queries"] if q["first"]]
    return {
        "query_s.p50": statistics.median(timed) / factor,
        "queries_per_s": len(timed) / sum(timed) * factor,
        "first_query_s": statistics.mean(first) / factor,
        "peak_rss_mb": statistics.median(u["rss_kb"] / 1024.0 for u in units),
        "setup_s": statistics.median(runner.setup) / factor,
    }


def suite_shares(runner: Runner) -> Dict[str, Dict[str, float]]:
    """identity-batch: each suite's share of the queries and of their time."""
    queries = [q for u in runner.units for q in u["queries"] if "suite" in q]
    total_s = sum(q["s"] for q in queries)
    out: Dict[str, Dict[str, float]] = {}
    for suite in workloads.SUITES + ("opener",):
        mine = [q["s"] for q in queries if q["suite"] == suite]
        if mine:
            out[suite] = {"queries": len(mine) / len(queries), "time": sum(mine) / total_s}
    return out


def merge_traces(traces: List[Dict]) -> Dict:
    spans: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    for tr in traces:
        for name, rec in tr["spans"].items():
            into = spans.setdefault(name, {})
            for key, value in rec.items():
                into[key] = into.get(key, 0) + value
        for name, value in tr["counts"].items():
            counts[name] = counts.get(name, 0) + value
    suite_memo: Dict[str, int] = {}
    for tr in traces:
        for name, value in tr["suite_memo"].items():
            suite_memo[name] = suite_memo.get(name, 0) + value
    memos = [tr["memo"] for tr in traces if tr["memo"]]
    return {"spans": spans, "counts": counts, "memo": memos[-1] if memos else {},
            "suite_memo": suite_memo,
            "gc_pause_s": sum(tr["gc_pause_s"] for tr in traces),
            "missing": sorted({m for tr in traces for m in tr["missing"]})}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(trace: Dict, overhead_frac: float) -> Dict[str, float]:
    spans, counts, memo = trace["spans"], trace["counts"], trace["memo"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def layer(prefix: str, key: str) -> float:
        return sum(rec[key] for name, rec in spans.items() if name.startswith(prefix + "."))

    divide = span("ring.divide", "calls")
    success = counts.get("ring.divide.success", 0)
    lookups = counts.get("recursion.memo.lookups", 0)
    hits = counts.get("recursion.memo.hits", 0)
    out = {
        "ring.mul.calls": span("ring.mul", "calls"),
        "ring.mul.self_s": span("ring.mul", "self_s"),
        "ring.mul.term_products": counts.get("ring.mul.term_products", 0),
        "ring.mul.by_one": counts.get("ring.mul.by_one", 0),
        "ring.add.calls": span("ring.add", "calls"),
        "ring.add.self_s": span("ring.add", "self_s"),
        "ring.scale.calls": span("ring.scale", "calls"),
        "ring.scale.self_s": span("ring.scale", "self_s"),
        "ring.series_add.calls": span("ring.series_add", "calls"),
        "ring.series_add.s": span("ring.series_add", "s"),
        "ring.divide.attempts": divide,
        "ring.divide.success": success,
        "ring.divide.failed": counts.get("ring.divide.failed", 0),
        "ring.divide.success_frac": _ratio(success, divide),
        "ring.divide.self_s": span("ring.divide", "self_s"),
        "ring.render.calls": span("ring.render", "calls"),
        "ring.render.s": span("ring.render", "s"),
        "ring.render.bytes": counts.get("ring.render.bytes", 0),
        "ring.self_s": layer("ring", "entry_own_s"),
        "ring.fill_ratio": _ratio(memo.get("terms", 0), memo.get("box_cells", 0)),
        "ring.fill_box_cells": memo.get("box_cells", 0),
        "ring.max_abs_coeff": memo.get("max_abs_coeff", 0),
        "recursion.eval_p.calls": span("recursion.eval_p", "calls"),
        "recursion.eval_p.self_s": span("recursion.eval_p", "entry_own_s"),
        "recursion.nodes": counts.get("recursion.nodes", 0),
    }
    for rule in ("rule2", "rule3_4", "rule5", "all_zeros", "base"):
        out[f"recursion.nodes.{rule}"] = counts.get(f"recursion.nodes.{rule}", 0)
    out.update({
        "recursion.memo.lookups": lookups,
        "recursion.memo.hits": hits,
        "recursion.memo.hit_ratio": _ratio(hits, lookups),
        "recursion.memo.entries": memo.get("entries", 0),
        "recursion.memo.terms": memo.get("terms", 0),
        "recursion.memo.bytes": memo.get("bytes", 0),
        "recursion.cache.save_s": span("recursion.cache.save", "s"),
        "recursion.cache.load_s": span("recursion.cache.load", "s"),
        "recursion.cache.bytes": counts.get("recursion.cache.bytes", 0),
        "sequences.pair_validate.calls": span("sequences.pair_validate", "calls"),
        "sequences.pair_validate.s": span("sequences.pair_validate", "s"),
        "sequences.seqpair.created": counts.get("sequences.seqpair.created", 0),
        "fillings.verify_lemma53.calls": span("fillings.verify_lemma53", "calls"),
        "fillings.self_s": layer("fillings", "entry_own_s"),
        "links.calls": layer("links", "calls"),
        "links.self_s": layer("links", "entry_own_s"),
        "cli.main.calls": span("cli.main", "calls"),
        "cli.main.self_s": span("cli.main", "entry_own_s"),
        "gc.pause_s": trace["gc_pause_s"],
        "gc.gen2.collections": counts.get("gc.gen2.collections", 0),
        "trace.spans": span("_spans", "calls"),
        "trace.overhead_frac": overhead_frac,
    })
    return out


# -- environment and output ---------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, or 'none' outside git; source_sha256 then
    identifies the code."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "torhom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> Dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "TLH_THREADS": "unset (program default 1)",
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


UNITS = {
    "query_s.p50": "s", "queries_per_s": "1/s", "first_query_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "cache_file_mb": "MB", "failed_frac": "frac",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "B_computed" if name == "recursion.memo.bytes" else "B"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="torhom benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torhom" / "__init__.py").is_file() or not EXPECTED.is_file():
        print(f"error: no torhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    digests = workloads.expected_digests(str(EXPECTED))
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(args)
    print("environment: " + json.dumps(env))

    wl = WORKLOADS[args.workload](args.seed, digests)
    runner = Runner(wl, deadline)
    try:
        runner.calibrate()
        for _ in range(SETUP_PROBES):
            runner.setup.append(spawn({"probe": True}, deadline - time.monotonic())["setup_s"])
    except WorkerError as exc:
        print(f"error: cannot start torhom: {exc}", file=sys.stderr)
        return 2

    try:
        loop_seconds = args.seconds / 2 if args.trace else args.seconds
        elapsed = runner.loop(loop_seconds)
        traced: List[Dict] = []
        if args.trace:
            for i, job in enumerate(wl.trace_jobs()):
                job.update(trace=True, spans=str(WORK / f"spans-{wl.name}-{i}.tsv"))
                result = runner.run(job)
                if result is not None:
                    traced.append(result)
    finally:
        wl.cleanup()

    for err in runner.errors:
        print(f"error: {err}", file=sys.stderr)
    if not runner.units:
        print("error: no unit of work completed", file=sys.stderr)
        return 1

    factor = host_factor(runner)
    e2e = end_to_end(runner, factor)
    timed = timed_samples(wl, runner.units)
    extras = {"failed_frac": runner.failed / max(runner.attempted, 1)}
    cache = [u["cache_bytes"] for u in runner.units if "cache_bytes" in u]
    if cache:
        extras["cache_file_mb"] = statistics.median(cache) / 2**20
    print(f"measured {len(runner.units)} units, {len(timed)} timed queries in {elapsed:.1f} s")
    print(f"host speed: mean kernel time {factor * hostspeed.REFERENCE_S:.4f} s over "
          f"{len(runner.calib)} kernels, reference {hostspeed.REFERENCE_S} s; "
          f"times below are divided by {factor:.4f}")
    for name, value in list(e2e.items()) + list(extras.items()):
        print(f"{name} = {value:.6g} {UNITS[name]}")
    shares = suite_shares(runner)
    if shares:
        print("share of queries and of query time per suite: " + json.dumps(shares))
    tail_stat = tail(timed)
    if tail_stat:
        pct, value, n = tail_stat
        print(f"query_s.tail = {value / factor:.6g} s (p{pct:g} of {n} samples)")
    else:
        print(f"query_s.tail: not reported, {len(timed)} samples are too few")
    unscaled = end_to_end(runner)
    print("unscaled: " + ", ".join(f"{name} = {value:.6g} {UNITS[name]}"
                                   for name, value in unscaled.items() if name != "peak_rss_mb"))

    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in e2e.items()}
    record = {"environment": env, "end_to_end": e2e, "unscaled": unscaled, "host_factor": factor,
              "kernel_s": runner.calib, "extras": extras, "errors": runner.errors,
              "units": [{"queries": len(u["queries"]), "first_s": u["queries"][0]["s"],
                         "query_s": sum(q["s"] for q in u["queries"]),
                         "rss_mb": u["rss_kb"] / 1024.0, "setup_s": u["setup_s"]}
                        for u in runner.units]}
    if shares:
        record["suite_shares"] = shares
    if args.trace:
        if not traced:
            print("error: the traced unit did not complete", file=sys.stderr)
            return 1
        keys = {q["key"] for u in traced for q in u["queries"]}
        base = [q["s"] for u in runner.units for q in u["queries"]
                if q["key"] in keys and wl.timed(q)]
        with_trace = [q["s"] for u in traced for q in u["queries"] if wl.timed(q)]
        overhead = statistics.median(with_trace) / statistics.median(base) - 1 if base else 0.0
        trace = merge_traces([u["trace"] for u in traced])
        if trace["missing"]:
            # the metrics read off a missing target would read 0, not fail
            for name in trace["missing"]:
                print(f"error: trace target not found: {name}", file=sys.stderr)
            return 1
        layers = per_layer(trace, overhead)
        if trace["suite_memo"]:
            record["suite_memo"] = trace["suite_memo"]
            print("memo lookups and hits per suite: " + json.dumps(trace["suite_memo"]))
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {per_layer_unit(name)}")
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layers.items()}
        record["per_layer"] = layers

    out_file = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
