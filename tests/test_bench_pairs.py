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
        s = summarize(pairs, "lower")
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
        assert summarize(pairs, "higher")["wins"] == 1
        assert summarize(pairs, "lower")["wins"] == 1
        assert summarize([(10.0, 12.0)] * 3, "higher")["wins"] == 3
        assert summarize([(10.0, 12.0)] * 3, "lower")["wins"] == 0

    def test_clear_gain_needs_nine_in_ten_and_a_gap_beyond_the_parent_spread(self):
        steady = [(2.0, 1.5)] * 10
        assert summarize(steady, "lower")["clear_gain"]
        eight = [(2.0, 1.5)] * 8 + [(2.0, 2.5)] * 2
        assert summarize(eight, "lower")["wins"] == 8
        assert not summarize(eight, "lower")["clear_gain"]
        # wins every pair, but by less than the parent's interquartile range
        noisy = [(1.0 + i, 0.99 + i) for i in range(10)]
        assert summarize(noisy, "lower")["wins"] == 10
        assert not summarize(noisy, "lower")["clear_gain"]

    def test_one_pair(self):
        s = summarize([(3.0, 2.0)], "lower")
        assert s["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
        assert s["wins"] == 1 and s["clear_gain"]

    @pytest.mark.parametrize("pairs, better", [([], "lower"), ([(1.0, 1.0)], "faster")])
    def test_bad_arguments(self, pairs, better):
        with pytest.raises(ValueError):
            summarize(pairs, better)


class TestMain:
    def test_summary_counts_pairs_with_equal_digests(self, tmp_path, monkeypatch, capsys):
        trees = {side: tmp_path / side for side in ("parent", "change")}
        for tree in trees.values():
            (tree / "src").mkdir(parents=True)
        (trees["change"] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "better": "lower"}]}
        ))
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
        summary = json.loads(lines[-1])
        assert summary["digests_equal"] == 2
        assert summary["summary"]["wall_s"]["wins"] == 3


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
