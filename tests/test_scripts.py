"""Smoke test of the scripts under scripts/: each runs to completion on
tiny arguments, so a change to the API they import fails here."""

import json
import os
import subprocess
import sys

import pytest

import torhom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(torhom.__file__)))


@pytest.mark.parametrize("script, args, expected", [
    ("benchmark.py", ["--workloads", "T(4,4)"], "T(4,4)"),
])
def test_script_runs(script, args, expected):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


def test_benchmark_json(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"runs": {"before": {"results": {}}}}))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "benchmark.py"), "--json", str(path),
         "--label", "after", "--workloads", "T(2,3)", "C(1,1,2)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    runs = json.loads(path.read_text())["runs"]
    assert runs["before"] == {"results": {}}  # another label's run is kept
    record = runs["after"]
    assert record["nproc"] >= 1 and record["python"] and record["repeat"] >= 1
    assert set(record["results"]) == {"T(2,3)", "C(1,1,2)"}
    for result in record["results"].values():
        assert len(result["wall_s_runs"]) == record["repeat"]
        assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0
        assert 0 < result["entries"] < result["peak_entries"]


def test_benchmark_json_cache_workload(tmp_path):
    path = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "benchmark.py"), "--json", str(path),
         "--workloads", "J(2,3)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    record = json.loads(path.read_text())["runs"]["run"]
    result = record["results"]["J(2,3)"]
    # the cold child's save and the file it wrote, the warm child's load
    for key in ("save_s", "load_s"):
        assert result[key] > 0 and len(result[f"{key}_runs"]) == record["repeat"]
    assert result["cache_bytes"] > 0
    assert os.listdir(tmp_path) == ["bench.json"]  # the cache files are gone


def test_benchmark_json_command_line_workload(tmp_path):
    path = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "benchmark.py"), "--json", str(path),
         "--workloads", "J(2,3)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    record = json.loads(path.read_text())["runs"]["run"]
    result = record["results"]["J(2,3)"]
    # the warm child's whole call, and the JSON line it printed
    assert result["wall_s"] > 0 and len(result["wall_s_runs"]) == record["repeat"]
    assert "entries" not in result
    # the bytes before the timing block, whose digits vary from run to run
    line = subprocess.run(
        [sys.executable, "-m", "torhom.cli", "torus", "2", "3", "--format", "json"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC)).stdout
    assert result["output_bytes"] == len(line.split(',"timing":')[0].encode())
    assert os.listdir(tmp_path) == ["bench.json"]  # the cache files are gone


def test_benchmark_json_import_workload(tmp_path):
    path = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "benchmark.py"), "--json", str(path),
         "--workloads", "I(torhom)", "I(torhom.cli)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    record = json.loads(path.read_text())["runs"]["run"]
    for result in record["results"].values():
        # spawn to import done: more than nothing, less than a stuck child
        assert 0 < result["wall_s"] < 30 and len(result["wall_s_runs"]) == record["repeat"]
        assert 0 < result["peak_rss_mb"] < 100
        assert "entries" not in result


def test_benchmark_peak_rss_is_the_childs_own():
    # a parent holding about 150 MB runs the child; the child's own peak is
    # a few tens of MB, so a reading that carried the parent's over fails
    code = ("import subprocess, sys\n"
            "held = b'x' * (150 << 20)\n"
            "sys.stdout.write(subprocess.run(sys.argv[1:], capture_output=True, text=True,"
            " check=True).stdout)\n")
    done = subprocess.run(
        [sys.executable, "-c", code, sys.executable,
         os.path.join(ROOT, "scripts", "benchmark.py"), "--one", "T(2,3)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert 0 < json.loads(done.stdout)["peak_rss_mb"] < 100


def test_benchmark_hooks_resolve():
    # perfbench/ wraps torhom functions by name and draws its identity-batch
    # queries through torhom; a deletion that breaks either fails here rather
    # than in a traced benchmark run.  A child process keeps the wrappers out
    # of this one.
    code = ("import json, tracing, workloads\n"
            "tracer = tracing.Tracer()\n"
            "tracer.install()\n"
            "print(json.dumps([tracer.missing, len(workloads.session_queries(7, 0))]))\n")
    path = os.pathsep.join([SRC, os.path.join(ROOT, "perfbench")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], 500]


def test_identity_batch_queries_are_pinned():
    # identity-batch draws its pairs through checks._random_pair; a change to
    # that draw, or to the sessions built on it, changes what the benchmark
    # times.  perfbench/expected.json pins the answers, not the queries.
    code = ("import hashlib, json, workloads\n"
            "queries = workloads.session_queries(7, 0)\n"
            "print(len(queries), hashlib.sha256(json.dumps(queries).encode()).hexdigest())\n")
    path = os.pathsep.join([SRC, os.path.join(ROOT, "perfbench")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    count, digest = done.stdout.split()
    assert count == "500" and digest.startswith("9414049659e621b4")


def test_benchmark_json_pair_and_suite_workloads(tmp_path):
    path = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "benchmark.py"), "--json", str(path),
         "--workloads", "P(0100,0010)", "S(unknot-family)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    results = json.loads(path.read_text())["runs"]["run"]["results"]
    pair, suite = results["P(0100,0010)"], results["S(unknot-family)"]
    # the pair's evicting table ends with its root; the suite's table is its own
    assert pair["entries"] == 1 < pair["peak_entries"] and pair["wall_s"] > 0
    assert suite["checks"] >= 1 and suite["wall_s"] > 0 and "entries" not in suite


@pytest.mark.parametrize("name, message", [
    ("S(nope)", "no check suite 'nope'"),
    ("P(1,)", "weight mismatch"),
    ("P(012,1)", "not a workload name"),
    ("J(2)", "not a workload name"),
    ("K(2,3)", "not a workload name"),
])
def test_benchmark_rejects_a_bad_workload_name(name, message):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "benchmark.py"), "--workloads", name],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 2 and message in done.stderr, done.stderr
