"""Smoke test of the benchmark.

Every workload runs at tiny sizes, timed and traced, and passes its
checks; a deliberately wrong reference is caught; without the library's
sources the benchmark fails without printing a result.  Run with

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest-fine", "ingest-coarse", "match", "fuzz")


def smoke(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--smoke", "--seconds", "0.5", *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_and_passes_its_checks(trace):
    proc, res = smoke("--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer" if trace else "end_to_end"]:
        for w in WORKLOADS:
            assert res["metrics"]["%s.%s" % (w, metric["name"])]["unit"] == metric["unit"]
    assert proc.stdout.count("fail_ratio 0.0 ") == len(WORKLOADS)


def copy_benchmark(name, with_sources):
    """A copy of the benchmark under ``bench/out``, with or without ``src``."""
    root = HERE / "out" / name
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, root / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_sources:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_wrong_reference_is_caught():
    root = copy_benchmark("wrong", with_sources=True)
    refs = json.loads((root / "bench" / "references.json").read_text())
    refs["smoke"]["match"][0]["bottleneck"] += 1
    (root / "bench" / "references.json").write_text(json.dumps(refs))
    proc, res = smoke("--workload", "match", cwd=root, script=root / "bench" / "run.py")
    assert proc.returncode != 0
    assert not res["correct"] and res["failed"] > 0
    assert "fail_ratio 0.0 " not in proc.stdout


def test_fails_without_the_library_sources():
    root = copy_benchmark("bare", with_sources=False)
    proc, res = smoke("--workload", "fuzz", cwd=root, script=root / "bench" / "run.py")
    assert proc.returncode != 0
    assert res is None
