"""Tests for the paired-run summary in tools/bench_pair.py."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pair)


def test_summary_counts_wins_pair_by_pair():
    runs = {"parent": [1.0, 1.1, 0.9, 1.0, 1.2], "change": [0.5, 1.2, 0.4, 0.5, 0.6]}
    lower = bench_pair.summarize(runs, "lower")
    assert (lower["change_wins"], lower["pairs"]) == (4, 5)
    assert lower["parent"]["median"] == 1.0
    assert (lower["parent"]["q1"], lower["parent"]["q3"]) == pytest.approx((1.0, 1.1))
    assert lower["median_gain"] == 0.5
    assert lower["gain_exceeds_parent_iqr"]
    higher = bench_pair.summarize(runs, "higher")
    assert higher["change_wins"] == 1
    assert not higher["gain_exceeds_parent_iqr"]


def test_ties_count_for_neither_side():
    runs = {"parent": [2.0, 2.0, 2.0], "change": [2.0, 2.0, 1.0]}
    assert bench_pair.summarize(runs, "lower")["change_wins"] == 1


def test_grid_is_the_product_of_its_axes():
    assert bench_pair._grid(["n=1,10", "q=2,3"]) == [
        {"n": 1, "q": 2}, {"n": 1, "q": 3}, {"n": 10, "q": 2}, {"n": 10, "q": 3}]


def test_build_specs_name_a_maker_and_a_grid_axis():
    assert bench_pair._builds(["iv=divgap.constants.k3_enclosure:max_places"]) == {
        "iv": ["divgap.constants.k3_enclosure", "max_places"]}
    # the maker's argument must be a grid axis; refused before any tree is read
    with pytest.raises(SystemExit):
        bench_pair.main([
            "sweep", "--parent", ".", "--change", ".", "--out", "unused.json",
            "--function", "divgap.intervals.render_digits", "--grid", "max_places=10",
            "--build", "iv=divgap.constants.k3_enclosure:n_terms"])


def test_committed_bench_files_hold_complete_correct_runs():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for path in files:
        for workload, section in json.loads(path.read_text())["pairs"].items():
            where = f"{path.name} {workload}"
            assert section["seconds"] == run_seconds, where
            for side in bench_pair.SIDES:
                runs = section["runs"][side]
                assert [r["seed"] for r in runs] == section["seeds"], where
                assert all(r["correct"] and r["failed"] == 0 for r in runs), where
