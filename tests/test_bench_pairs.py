"""The pair statistics of scripts/bench_pairs.py."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarize_quartiles():
    s = bench_pairs.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)


def test_compare_counts_wins_in_the_better_direction():
    parent, change = [10.0, 10.0, 10.0, 12.0], [12.0, 10.0, 13.0, 11.0]
    up = bench_pairs.compare(parent, change, "higher", 0.2)
    assert (up["change_wins"], up["ties"]) == (2, 1)
    down = bench_pairs.compare(parent, change, "lower", 0.2)
    assert (down["change_wins"], down["ties"]) == (1, 1)
    # medians 10 -> 11.5: 15% worse when lower is better, inside a 20% bound
    assert down["relative_gain"] == pytest.approx(-0.15)
    assert not down["regression_beyond_bound"]
    assert bench_pairs.compare(parent, change, "lower", 0.1)["regression_beyond_bound"]
