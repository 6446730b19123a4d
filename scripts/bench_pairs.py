#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and compare them.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...] \
        --pairs N --seconds S [--seed K]

Both checkouts are byte-compiled first (``python3 -m compileall src``),
and each builds the workload's inputs for the seed into its own
``.perfbench/inputs`` cache, in a process of its own with that checkout's
``src`` and ``perfbench`` on ``sys.path``.  A run that generates its inputs
can read ``run.py``'s own peak as the chain's ``peak_rss_mb``, since a child
process starts from the peak of the process that spawned it; with the
inputs built beforehand, every pair reads a cached set.  Pair i then runs
``perfbench/run.py --trace 0`` once in each checkout, the
parent first in even pairs and the change first in odd ones, so a drift in
machine speed falls on both sides alike.  Each checkout runs its own
``perfbench`` copy.  For each pair the script prints both sides' values of
every end-to-end metric that ``BENCHMARK.json`` lists and whether the two
artifact digests agree; then, for each of those metrics, each side's median
and quartiles and the number of pairs the change wins, whether it is a clear gain, and whether it regressed
beyond the metric's ``bound`` (``regression``).  The last line is the
summary as one JSON object, with the number of pairs whose digests agree as
``digests_equal``.  Given ``--workload`` more than once, the script builds
every workload's inputs first, then runs each workload's pairs and prints
its lines in turn, in the order given.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _spread(values: list[float]) -> dict:
    """Median and quartiles; with one value, all three are that value."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Compare one metric over ``(parent, change)`` pairs, where ``better``
    is ``"lower"`` or ``"higher"``.  A pair the change wins reads strictly
    better; a tie counts for neither side.  ``clear_gain`` holds when the
    change wins at least nine pairs in ten and its median is better than the
    parent's by more than the distance between the parent's quartiles.
    ``regression`` takes ``bound`` as a fraction of the parent's median: it is
    ``"worse"`` when the change's median is worse than the parent's by more
    than the bound; ``"unresolved"`` when the parent's quartile spread exceeds
    the bound, unless every change run is better than every parent run; else
    ``"within bound"``."""
    if not pairs:
        raise ValueError("no pairs to summarize")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (parent - change) > 0 for parent, change in pairs)
    losses = sum(sign * (change - parent) > 0 for parent, change in pairs)
    parent = _spread([p for p, _ in pairs])
    change = _spread([c for _, c in pairs])
    gain = sign * (parent["median"] - change["median"])
    allowed = bound * parent["median"]
    if -gain > allowed:
        regression = "worse"
    elif (parent["q3"] - parent["q1"] > allowed
          and max(sign * c for _, c in pairs) >= min(sign * p for p, _ in pairs)):
        regression = "unresolved"
    else:
        regression = "within bound"
    return {
        "pairs": len(pairs),
        "wins": wins,
        "ties": len(pairs) - wins - losses,
        "parent": parent,
        "change": change,
        "relative_change": (change["median"] - parent["median"]) / parent["median"],
        "clear_gain": 10 * wins >= 9 * len(pairs) and gain > parent["q3"] - parent["q1"],
        "regression": regression,
    }


# Builds (workload, seed)'s inputs through perfbench's own cache, as run.py does.
_BUILD_INPUTS = """
import sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads
workloads.inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(".perfbench", "inputs"))
"""


def build_inputs(tree: Path, workload: str, seed: int) -> None:
    """Build the inputs ``perfbench/run.py`` reads in ``tree`` for (workload,
    seed), in a process of its own, so that no timed run generates them."""
    proc = subprocess.run([sys.executable, "-c", _BUILD_INPUTS, workload, str(seed)], cwd=tree)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {tree}: building the inputs failed (exit {proc.returncode})")


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str | None]:
    """One untraced perfbench run in ``tree``: its end-to-end metric values
    and its artifact digest.  A run that is not ``correct`` ends the script."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        sys.exit(f"bench_pairs: {tree}: run failed (exit {proc.returncode})\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    return {name: entry["value"] for name, entry in result["metrics"].items()}, digest


def run_pairs(args, workload: str, metrics: list[dict]) -> None:
    """Run ``args.pairs`` alternating pairs of ``workload`` and print each
    pair, each metric's verdict and the summary line."""
    runs: list[tuple[dict, dict]] = []
    digests_equal = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_benchmark(getattr(args, side), workload, args.seed, args.seconds)
               for side in order}
        (parent, parent_digest), (change, change_digest) = got["parent"], got["change"]
        runs.append((parent, change))
        digests_equal += parent_digest == change_digest
        same = "equal" if parent_digest == change_digest else "DIFFER"
        values = "; ".join(f"{m['name']} parent {parent[m['name']]:.4g} "
                           f"change {change[m['name']]:.4g}" for m in metrics)
        print(f"pair {i + 1} ({order[0]} first): {values}; digests {same}", flush=True)

    summary = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        s = summary[name] = summarize([(p[name], c[name]) for p, c in runs], better,
                                      metric["bound"])
        print(f"{name} ({better} is better): parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}] -> change "
              f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}] "
              f"({s['relative_change']:+.1%}); change better in {s['wins']}/{s['pairs']} "
              f"pairs, {s['ties']} ties; clear gain: {'yes' if s['clear_gain'] else 'no'}; "
              f"regression: {s['regression']}")
    print(json.dumps({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                      "digests_equal": digests_equal, "summary": summary}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to pair; give it again for more, run in turn")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    for tree in (args.parent, args.change):
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
        for workload in args.workload:
            build_inputs(tree, workload, args.seed)
    for workload in args.workload:
        run_pairs(args, workload, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
