"""Tests for the paired runs and sweeps in tools/bench_pair.py."""

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


def test_setup_alternates_the_trees_and_summarizes_each_side(tmp_path, monkeypatch):
    order = []

    def spawn(tree):
        order.append(tree.name)
        return {"parent": 0.070, "change": 0.058}[tree.name]

    monkeypatch.setattr(bench_pair, "_setup_spawn", spawn)
    trees = {side: tmp_path / side for side in bench_pair.SIDES}
    section = bench_pair.cmd_setup(None, trees)
    assert section["spawns"] == bench_pair.SETUP_SPAWNS >= 60
    assert order[:4] == ["parent", "change", "change", "parent"]
    assert order.count("parent") == order.count("change") == bench_pair.SETUP_SPAWNS
    summary = section["setup_s"]
    assert summary["change_wins"] == summary["pairs"] == bench_pair.SETUP_SPAWNS
    assert summary["parent"]["median"] == 0.070 and summary["change"]["median"] == 0.058
    assert len(section["samples"]["change"]) == bench_pair.SETUP_SPAWNS


def test_setup_writes_its_own_section_and_keeps_the_others(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pair, "_setup_spawn", lambda tree: 0.06)
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"pairs": {"desk": {}}}))
    assert bench_pair.main(["setup", "--parent", str(ROOT), "--change", str(ROOT),
                            "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pairs"] == {"desk": {}}
    assert doc["setup"]["setup_s"]["pairs"] == bench_pair.SETUP_SPAWNS
    assert "machine" in doc


def test_one_setup_spawn_times_the_child_of_that_tree():
    assert 0 < bench_pair._setup_spawn(ROOT) < 30


def test_cli_sweep_times_run_per_command_line_with_its_output_captured(tmp_path, monkeypatch):
    # two rounds of three calls keep it quick; each child prints its JSON
    # on the stdout the command lines also write to, so the redirection is
    # what lets it parse
    monkeypatch.setattr(bench_pair, "SWEEP_ROUNDS", 2)
    monkeypatch.setattr(bench_pair, "CLI_CALLS", 3)
    out = tmp_path / "BENCH_x.json"
    assert bench_pair.main(["cli", "--parent", str(ROOT), "--change", str(ROOT),
                            "--argv", "lemma 1", "--argv", "delta 48 --above '1'",
                            "--argv", "delta x", "--out", str(out)]) == 0
    section = json.loads(out.read_text())["cli"]
    assert section["function"] == "divgap.cli.run"
    assert (section["rounds"], section["calls_per_round"]) == (2, 3)
    assert [p["args"] for p in section["points"]] == [
        {"argv": ["lemma", "1"]}, {"argv": ["delta", "48", "--above", "1"]},
        {"argv": ["delta", "x"]}]
    for point in section["points"]:
        for side in bench_pair.SIDES:
            assert 0 < point[side]["median_s"] < 1


PROBE = """
from pathlib import Path
from .tag import TAG

def mark(n):
    # each call appends its tree's tag to the log beside both trees
    with open(Path(__file__).parents[3] / "log", "a") as log:
        log.write(f"{TAG} {n}\\n")
"""


def test_sweep_loads_both_trees_in_one_child_and_alternates_their_calls(tmp_path, monkeypatch):
    # two trees whose divgap differ only in a tag: each call logs its tree,
    # so the log shows both loaded side by side and the order of the calls
    trees = {}
    for side in bench_pair.SIDES:
        package = tmp_path / side / "src" / "divgap"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "tag.py").write_text(f"TAG = {side!r}\n")
        (package / "probe.py").write_text(PROBE)
        trees[side] = tmp_path / side
    monkeypatch.setattr(bench_pair, "SWEEP_ROUNDS", 2)
    # with this tree's src/ on the child's path, an import of divgap by
    # name would reach it; the child is given neither
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    section = bench_pair._sweep(trees, "divgap.probe.mark", [{"n": 7}], 4, {})
    log = (tmp_path / "log").read_text().split("\n")[:-1]
    p, c = "parent 7", "change 7"
    # per child: one untimed call each, 4 timed calls each in ABBA order,
    # and one call each under tracemalloc; the second child starts with
    # the change
    first = [p, c, p, c, c, p, p, c, c, p, p, c]
    assert log == first + [{p: c, c: p}[line] for line in first]
    (point,) = section["points"]
    assert point["args"] == {"n": 7}
    for side in bench_pair.SIDES:
        assert 0 < point[side]["median_s"] < 1
        assert point[side]["tracemalloc_peak_mb"] >= 0


def test_sweep_refuses_a_function_outside_divgap():
    with pytest.raises(SystemExit):
        bench_pair.main(["sweep", "--parent", ".", "--change", ".", "--out", "unused.json",
                         "--function", "os.getcwd", "--grid", "n=1"])
