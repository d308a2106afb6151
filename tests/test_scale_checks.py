"""CI's scale checks (``tests/scale_checks.py``) at a tiny size, so a check
that breaks fails here before it reaches the full-size CI step, and the
names the CI workflow passes to the scale checks and to the benchmark."""

import json
import re
from pathlib import Path

import pytest

import scale_checks

TINY = {"bottleneck": 60, "wasserstein": 40, "ingest": 5, "ingest_f3": 5}
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(scale_checks.CHECKS))
def test_scale_check_at_a_tiny_size(name, capsys):
    scale_checks.CHECKS[name](TINY[name])
    assert capsys.readouterr().out  # each check prints its time and peak RSS


def test_workflow_names_the_scale_checks_and_workloads_that_exist():
    # a renamed check or workload would first fail on a CI runner: the
    # workflow's scale-check steps name each check once, and each benchmark
    # run names "all" or a workload of BENCHMARK.json
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    checks = [n for args in re.findall(r"tests/scale_checks\.py([ \w]*)$", text, re.M) for n in args.split()]
    assert sorted(checks) == sorted(scale_checks.CHECKS)
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    named = re.findall(r"bench/run\.py\b.*?--workload (\S+)", text)
    assert named and set(named) <= workloads | {"all"}
