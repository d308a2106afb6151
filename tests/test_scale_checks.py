"""CI's scale checks (``tests/scale_checks.py``) at a tiny size, so a check
that breaks fails here before it reaches the full-size CI step."""

import pytest

import scale_checks

TINY = {"bottleneck": 60, "wasserstein": 40, "ingest": 5, "ingest_f3": 5}


@pytest.mark.parametrize("name", sorted(scale_checks.CHECKS))
def test_scale_check_at_a_tiny_size(name, capsys):
    scale_checks.CHECKS[name](TINY[name])
    assert capsys.readouterr().out  # each check prints its time and peak RSS
