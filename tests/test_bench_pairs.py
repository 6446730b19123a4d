from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        pairs = [(1.0 + i / 10, 0.9 + i / 10) for i in range(9)] + [(1.0, 1.0)]
        s = summarize(pairs, "lower", 0.25)
        assert s["pairs"] == 10 and s["wins"] == 9 and s["ties"] == 1
        parent = sorted(p for p, _ in pairs)
        assert s["parent"]["median"] == pytest.approx((parent[4] + parent[5]) / 2)
        # inclusive quartiles of 10 values sit a quarter of the way between ranks
        assert s["parent"]["q1"] == pytest.approx(parent[2] + 0.25 * (parent[3] - parent[2]))
        assert s["parent"]["q3"] == pytest.approx(parent[6] + 0.75 * (parent[7] - parent[6]))
        assert s["parent"]["median"] == pytest.approx(1.35)
        assert s["change"]["median"] == pytest.approx(1.25)
        assert s["relative_change"] == pytest.approx((1.25 - 1.35) / 1.35)

    def test_higher_is_better_flips_the_win(self):
        pairs = [(10.0, 12.0), (10.0, 9.0), (10.0, 10.0)]
        assert summarize(pairs, "higher", 0.25)["wins"] == 1
        assert summarize(pairs, "lower", 0.25)["wins"] == 1
        assert summarize([(10.0, 12.0)] * 3, "higher", 0.25)["wins"] == 3
        assert summarize([(10.0, 12.0)] * 3, "lower", 0.25)["wins"] == 0

    def test_clear_gain_needs_nine_in_ten_and_a_gap_beyond_the_parent_spread(self):
        steady = [(2.0, 1.5)] * 10
        assert summarize(steady, "lower", 0.25)["clear_gain"]
        eight = [(2.0, 1.5)] * 8 + [(2.0, 2.5)] * 2
        assert summarize(eight, "lower", 0.25)["wins"] == 8
        assert not summarize(eight, "lower", 0.25)["clear_gain"]
        # wins every pair, but by less than the parent's interquartile range
        noisy = [(1.0 + i, 0.99 + i) for i in range(10)]
        assert summarize(noisy, "lower", 0.25)["wins"] == 10
        assert not summarize(noisy, "lower", 0.25)["clear_gain"]

    def test_one_pair(self):
        s = summarize([(3.0, 2.0)], "lower", 0.25)
        assert s["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
        assert s["wins"] == 1 and s["clear_gain"]

    @pytest.mark.parametrize("pairs, better", [([], "lower"), ([(1.0, 1.0)], "faster")])
    def test_bad_arguments(self, pairs, better):
        with pytest.raises(ValueError):
            summarize(pairs, better, 0.25)


class TestRegression:
    @staticmethod
    def regression(pairs, better, bound):
        return summarize(pairs, better, bound)["regression"]

    def test_worse_by_more_than_the_bound(self):
        pairs = [(1.0, 1.3)] * 10
        assert self.regression(pairs, "lower", 0.25) == "worse"
        assert self.regression(pairs, "lower", 0.35) == "within bound"
        # higher is better: the change's median falls from 10 to 7
        assert self.regression([(10.0, 7.0)] * 10, "higher", 0.25) == "worse"
        assert self.regression([(10.0, 13.0)] * 10, "higher", 0.25) == "within bound"

    def test_worse_wins_over_a_wide_parent_spread(self):
        pairs = [(1.0 + i / 5, 3.0) for i in range(10)]
        assert self.regression(pairs, "lower", 0.25) == "worse"

    def test_parent_spread_beyond_the_bound_is_unresolved(self):
        # Parent quartiles 1.45 and 2.35 around a median of 1.9: a spread of
        # 47% against a 25% bound, and the medians agree.
        parent = [1.0 + i / 5 for i in range(10)]
        pairs = list(zip(parent, parent))
        assert self.regression(pairs, "lower", 0.25) == "unresolved"
        assert self.regression(pairs, "lower", 0.5) == "within bound"

    def test_every_change_run_better_resolves_a_wide_spread(self):
        parent = [1.0 + i / 5 for i in range(10)]
        assert self.regression([(p, 0.9) for p in parent], "lower", 0.25) == "within bound"
        # one change run no better than the parent's best leaves it open
        change = [0.9] * 9 + [1.0]
        assert self.regression(list(zip(parent, change)), "lower", 0.25) == "unresolved"
        assert self.regression([(p, 3.0) for p in parent], "higher", 0.25) == "within bound"
        change = [3.0] * 9 + [parent[-1]]
        assert self.regression(list(zip(parent, change)), "higher", 0.25) == "unresolved"


def fake_checkouts(tmp_path: Path) -> dict[str, Path]:
    """Parent and change checkouts with a ``src`` dir; the change's
    BENCHMARK.json lists ``wall_s`` alone."""
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "src").mkdir(parents=True)
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    ))
    return trees


class TestMain:
    def test_summary_counts_pairs_with_equal_digests(self, tmp_path, monkeypatch, capsys):
        trees = fake_checkouts(tmp_path)
        calls = []
        built = []

        def build_inputs(tree, workload, seed):
            assert not calls, "inputs are built before the first pair"
            built.append((tree, workload, seed))

        def run_benchmark(tree, workload, seed, seconds):
            calls.append(tree)
            # The change's second run gives another digest.
            digest = "b" if tree == trees["change"] and calls.count(tree) == 2 else "a"
            return {"wall_s": 2.0 if tree == trees["parent"] else 1.0}, digest

        monkeypatch.setattr(bench_pairs, "build_inputs", build_inputs)
        monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
        argv = [str(trees["parent"]), str(trees["change"]), "--workload", "w",
                "--pairs", "3", "--seconds", "1"]
        assert bench_pairs.main(argv) == 0
        assert built == [(trees["parent"], "w", 1), (trees["change"], "w", 1)]
        lines = capsys.readouterr().out.splitlines()
        assert calls == [trees["parent"], trees["change"], trees["change"], trees["parent"],
                         trees["parent"], trees["change"]]
        assert ["DIFFER" in line for line in lines[:3]] == [False, True, False]
        assert lines[0] == "pair 1 (parent first): wall_s parent 2 change 1; digests equal"
        summary = json.loads(lines[-1])
        assert summary["digests_equal"] == 2
        assert summary["summary"]["wall_s"]["wins"] == 3
        assert summary["summary"]["wall_s"]["regression"] == "within bound"
        assert lines[-2].endswith("; regression: within bound")

    def test_each_workload_runs_its_pairs_in_turn(self, tmp_path, monkeypatch, capsys):
        trees = fake_checkouts(tmp_path)
        calls = []
        built = []

        def build_inputs(tree, workload, seed):
            assert not calls, "every workload's inputs are built before the first pair"
            built.append((tree.name, workload))

        def run_benchmark(tree, workload, seed, seconds):
            calls.append((tree.name, workload))
            # Workload y is slower in the change, and its digests differ.
            wall = {("parent", "x"): 2.0, ("change", "x"): 1.0,
                    ("parent", "y"): 1.0, ("change", "y"): 3.0}[tree.name, workload]
            return {"wall_s": wall}, tree.name if workload == "y" else "a"

        monkeypatch.setattr(bench_pairs, "build_inputs", build_inputs)
        monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
        argv = [str(trees["parent"]), str(trees["change"]), "--workload", "x",
                "--workload", "y", "--pairs", "2", "--seconds", "1"]
        assert bench_pairs.main(argv) == 0
        assert built == [("parent", "x"), ("parent", "y"), ("change", "x"), ("change", "y")]
        assert calls == [("parent", "x"), ("change", "x"), ("change", "x"), ("parent", "x"),
                         ("parent", "y"), ("change", "y"), ("change", "y"), ("parent", "y")]
        lines = capsys.readouterr().out.splitlines()
        # Per workload: two pair lines, one metric line and the summary.
        assert len(lines) == 8
        assert [line.split(" (")[0] for line in lines[:3] + lines[4:7]] == [
            "pair 1", "pair 2", "wall_s", "pair 1", "pair 2", "wall_s"]
        x, y = json.loads(lines[3]), json.loads(lines[7])
        assert (x["workload"], x["digests_equal"], x["summary"]["wall_s"]["wins"]) == ("x", 2, 2)
        assert (y["workload"], y["digests_equal"], y["summary"]["wall_s"]["wins"]) == ("y", 0, 0)
        assert x["summary"]["wall_s"]["regression"] == "within bound"
        assert y["summary"]["wall_s"]["regression"] == "worse"

    def test_each_pair_line_shows_every_metric(self, tmp_path, monkeypatch, capsys):
        trees = fake_checkouts(tmp_path)
        (trees["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "items_per_s", "better": "higher", "bound": 0.25},
        ]}))

        def run_benchmark(tree, workload, seed, seconds):
            if tree == trees["parent"]:
                return {"wall_s": 0.8283, "setup_s": 0.13412, "items_per_s": 7244.3}, "a"
            return {"wall_s": 0.8012, "setup_s": 0.06604, "items_per_s": 7490.0}, "a"

        monkeypatch.setattr(bench_pairs, "build_inputs", lambda tree, workload, seed: None)
        monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
        argv = [str(trees["parent"]), str(trees["change"]), "--workload", "w",
                "--pairs", "2", "--seconds", "1"]
        assert bench_pairs.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        values = ("wall_s parent 0.8283 change 0.8012; setup_s parent 0.1341 change 0.06604; "
                  "items_per_s parent 7244 change 7490; digests equal")
        assert lines[:2] == [f"pair 1 (parent first): {values}", f"pair 2 (change first): {values}"]
        assert [line.split(" (")[0] for line in lines[2:5]] == ["wall_s", "setup_s", "items_per_s"]
        assert json.loads(lines[-1])["summary"]["setup_s"]["wins"] == 2


class TestBuildInputs:
    def test_builds_through_the_checkouts_own_workloads_and_cache(self, tmp_path):
        # A stand-in checkout: its workloads module records the call in the
        # cache directory it is given, and imports a module from its src.
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "marker.py").write_text("NAME = 'from src'\n")
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "workloads.py").write_text(
            "import json\n"
            "import marker\n"
            "WORKLOADS = {'w': 'the w workload'}\n"
            "def inputs(workload, seed, cache):\n"
            "    cache.mkdir(parents=True)\n"
            "    (cache / 'built.json').write_text(json.dumps([workload, seed, marker.NAME]))\n"
        )
        bench_pairs.build_inputs(tmp_path, "w", 41)
        built = json.loads((tmp_path / ".perfbench" / "inputs" / "built.json").read_text())
        assert built == ["the w workload", 41, "from src"]

    def test_a_failed_build_ends_the_script(self, tmp_path):
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "workloads.py").write_text("WORKLOADS = {}\n")
        with pytest.raises(SystemExit, match="building the inputs failed"):
            bench_pairs.build_inputs(tmp_path, "w", 1)
