"""The paired benchmark runner's summary, on fixed numbers (no git, no benchmark run)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def test_summary_gives_base_quartiles_head_median_and_wins():
    base = [{"wall_s": x, "peak_rss_mb": 40.0} for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
    head = [{"wall_s": x, "peak_rss_mb": y}
            for x, y in zip((0.5, 2.0, 3.5, 3.0, 1.0), (40.0, 39.9, 40.0, 40.1, 39.0))]
    # wall_s: head lower in pairs 1, 4 and 5, tied in pair 2; peak_rss_mb:
    # lower in pairs 2 and 5, tied in 1 and 3
    assert ab_bench.summary(base, head) == [
        "wall_s: base 3 [2, 4], head 2, head lower in 3/5",
        "peak_rss_mb: base 40 [40, 40], head 40, head lower in 2/5",
    ]


def test_quartiles_of_one_run_and_of_an_even_count():
    assert ab_bench.quartiles([0.25]) == (0.25, 0.25, 0.25)
    assert ab_bench.quartiles([4.0, 1.0, 3.0, 2.0]) == pytest.approx((1.75, 2.5, 3.25))


def test_a_run_counts_only_when_correct_with_no_failed_op():
    assert ab_bench.ok({"correct": True, "failed": 0})
    assert not ab_bench.ok({"correct": False, "failed": 0})
    assert not ab_bench.ok({"correct": True, "failed": 1})
    assert not ab_bench.ok(None)
