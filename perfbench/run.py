#!/usr/bin/env python3
"""signsynth pipeline benchmark.

Usage, from the root of a signsynth checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (cached under ``.perfbench/``),
then runs the workload's whole CLI stage chain, each time in a fresh child
interpreter, until S seconds have passed.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
chains and reports the per-layer metrics.  Afterwards, untimed, it checks
the outputs and prints their sha256 digest.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import CPU, END, ID, NAME, START, self_times, tail_percentile

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
MIN_CHAINS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

STAGES = (
    "gen", "filter", "merge", "postprocess", "ingest", "stitch", "sample",
    "tokenize_train", "tokenize_encode", "eval", "stats",
)

PER_LAYER = (
    # io: raw landmark parse, confidence fill, keypoint gather
    ("io.read_raw_landmark_file.s", "s"),
    ("io.raw_frames", "count"),
    ("io.raw_bytes", "bytes"),
    ("keypoints.interpolate_low_confidence.s", "s"),
    ("keypoints.flatten_video.s", "s"),
    ("keypoints.keypoints_filled", "count"),
    ("keypoints.unresolved", "count"),
    ("keypoints.frames_touched", "count"),
    ("cli.ingest.parallelism", "ratio"),
    # stitch
    ("stitch.stitch_sentence.s", "s"),
    ("stitch.stitch_sentence.cpu_s", "s"),
    ("stitch.stitch_sentence.wait_s", "s"),
    ("stitch.stitch_sentence.p50_ms", "ms"),
    ("stitch.stitch_sentence.p99_ms", "ms"),
    ("stitch.stitch_dataset.self_s", "s"),
    ("stitch.sentences", "count"),
    ("stitch.skipped", "count"),
    ("stitch.frames_out", "count"),
    ("stitch.resample.calls", "count"),
    ("stitch.resample.reuse", "ratio"),
    ("cli.stitch.parallelism", "ratio"),
    ("io.write_pose_file.s", "s"),
    ("io.pose_files", "count"),
    ("io.pose_bytes", "bytes"),
    # bpe
    ("bpe.bpe_train.s", "s"),
    ("bpe.merges", "count"),
    ("bpe.word_types", "count"),
    ("bpe.ms_per_merge", "ms"),
    ("bpe.encode.s", "s"),
    ("bpe.encode.calls", "count"),
    ("bpe.encode.words", "count"),
    ("bpe.encode.distinct_word_ratio", "ratio"),
    # corpus
    ("corpus.filter_corpus.s", "s"),
    ("corpus.kept_ratio", "ratio"),
    ("corpus.merge_short.s", "s"),
    ("corpus.replace_rare_and_names.s", "s"),
    # metrics, curriculum
    ("metrics.eval_pairs.s", "s"),
    ("metrics.pairs", "count"),
    ("curriculum.write_schedule_csv.s", "s"),
    ("curriculum.steps", "count"),
    # templates
    ("templates.expand.s", "s"),
    ("templates.sentences", "count"),
    ("templates.sample_yield", "ratio"),
    # io manifests
    ("io.read_manifest.s", "s"),
    ("io.write_manifest.s", "s"),
    ("io.manifest_records", "count"),
    ("io.load_sign_lexicon.s", "s"),
    # cli stages
    *(
        (f"cli.{stage}.{kind}", unit)
        for stage in STAGES
        for kind, unit in (("s", "s"), ("self_s", "s"), ("maxrss_mb", "MB"))
    ),
    ("cli.ops", "count"),
    ("cli.ops_failed", "count"),
    ("cli.cpu_s", "s"),
    # whole traced chain
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("share.ingest", "ratio"),
    ("share.stitch", "ratio"),
    ("share.bpe", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced chain, from its spans and counters."""
    spans = result["spans"]
    counters = defaultdict(float, result["counters"])
    selfs = self_times(spans)
    total, self_s, cpu = defaultdict(float), defaultdict(float), defaultdict(float)
    durations = defaultdict(list)
    for s in spans:
        d = s[END] - s[START]
        total[s[NAME]] += d
        self_s[s[NAME]] += selfs[s[ID]]
        cpu[s[NAME]] += s[CPU]
        durations[s[NAME]].append(d)
    wall = result["end"] - result["start"]
    stages = {st["name"]: st for st in result["stages"]}

    m: dict[str, float] = {}
    for name in (
        "io.read_raw_landmark_file", "keypoints.interpolate_low_confidence",
        "keypoints.flatten_video", "stitch.stitch_sentence", "io.write_pose_file",
        "bpe.bpe_train", "bpe.encode", "corpus.filter_corpus", "corpus.merge_short",
        "corpus.replace_rare_and_names", "metrics.eval_pairs",
        "curriculum.write_schedule_csv", "templates.expand", "io.read_manifest",
        "io.write_manifest", "io.load_sign_lexicon",
    ):
        m[f"{name}.s"] = total[name]
    for name in (
        "io.raw_frames", "io.raw_bytes", "keypoints.keypoints_filled",
        "keypoints.unresolved", "keypoints.frames_touched", "stitch.sentences",
        "stitch.skipped", "stitch.frames_out", "stitch.resample.calls",
        "io.pose_files", "io.pose_bytes", "bpe.merges", "bpe.word_types",
        "bpe.encode.calls", "bpe.encode.words", "metrics.pairs", "curriculum.steps",
        "templates.sentences", "io.manifest_records",
    ):
        m[name] = counters[name]

    sentence = "stitch.stitch_sentence"
    m[f"{sentence}.cpu_s"] = cpu[sentence]
    m[f"{sentence}.wait_s"] = total[sentence] - cpu[sentence]
    latencies = durations[sentence]
    m[f"{sentence}.p50_ms"] = statistics.median(latencies) * 1e3 if latencies else 0.0
    # p99 needs at least ten samples beyond it; otherwise it is withheld as 0.
    tail = tail_percentile(len(latencies))
    m[f"{sentence}.p99_ms"] = (
        statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1e3
        if tail is not None and tail >= 99 else 0.0
    )
    m["stitch.stitch_dataset.self_s"] = self_s["stitch.stitch_dataset"]
    m["stitch.resample.reuse"] = _ratio(
        counters["stitch.resample.distinct"], counters["stitch.resample.calls"]
    )
    m["bpe.ms_per_merge"] = _ratio(total["bpe.bpe_train"] * 1e3, counters["bpe.merges"])
    m["bpe.encode.distinct_word_ratio"] = _ratio(
        counters["bpe.encode.distinct_words"], counters["bpe.encode.words"]
    )
    m["corpus.kept_ratio"] = _ratio(counters["corpus.filter_kept"], counters["corpus.filter_in"])
    m["templates.sample_yield"] = _ratio(
        counters["templates.sentences"], counters["templates.enumerated"]
    )

    for stage in STAGES:
        st = stages.get(stage)
        m[f"cli.{stage}.s"] = total[f"cli.{stage}"]
        m[f"cli.{stage}.self_s"] = self_s[f"cli.{stage}"]
        m[f"cli.{stage}.maxrss_mb"] = st["maxrss_mb"] if st else 0.0
    for stage in ("ingest", "stitch"):
        st = stages.get(stage)
        m[f"cli.{stage}.parallelism"] = _ratio(st["cpu_s"], st["s"]) if st else 0.0
    m["cli.ops"] = len(result["stages"])
    m["cli.ops_failed"] = sum(st["code"] != 0 for st in result["stages"])
    m["cli.cpu_s"] = sum(st["cpu_s"] for st in result["stages"])

    m["trace.wall_s"] = wall
    m["trace.spans"] = len(spans)
    m["share.ingest"] = _ratio(total["cli.ingest"], wall)
    m["share.stitch"] = _ratio(total["cli.stitch"], wall)
    m["share.bpe"] = _ratio(total["bpe.bpe_train"] + total["bpe.encode"], wall)
    return m


class Bench:
    """Runs stage chains in child processes and counts operations."""

    def __init__(self, root: Path, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems[:5])

    def chain(self, ws: Path, stages: list, trace: bool) -> dict | None:
        """Run stages in a fresh child with cwd ``ws``; None if any failed."""
        spec = self.run_dir / "spec.json"
        result_path = self.run_dir / "result.json"
        result_path.unlink(missing_ok=True)
        spec.write_text(json.dumps(
            {"stages": stages, "trace": trace, "result": str(result_path)}
        ))
        # Flush the previous chain's writes so they do not compete with this one.
        os.sync()
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec)],
                cwd=ws, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S,
            )
            stderr = proc.stderr
        except subprocess.TimeoutExpired as exc:
            proc, stderr = None, (exc.stderr or b"") + b"\nchild timed out"
        result = None
        if proc is not None and proc.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
            result["setup_s"] = result["ready"] - spawn
            result["wall_s"] = result["end"] - result["start"]
        codes = {st["name"]: st["code"] for st in (result or {}).get("stages", [])}
        for name, _argv in stages:
            code = codes.get(name)
            bad = [] if code == 0 else [f"exit {code}" if code is not None else "not run"]
            self.record(f"stage {name}", bad)
        if result is None or any(codes.get(n) != 0 for n, _ in stages):
            err = stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            self.problems.extend(f"child: {line}" for line in err)
            return None
        return result


def _fresh(ws: Path) -> Path:
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    return ws


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.6g} over 1 chain"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g} over {len(values)} chains"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "signsynth" / "cli.py").is_file():
        print(f"perfbench: no signsynth source under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    state = root / ".perfbench"

    t0 = time.perf_counter()
    inp, meta = workloads.inputs(wl, args.seed, state / "inputs")
    inputs_s = time.perf_counter() - t0
    stages = wl.chain(inp, args.seed)

    run_dir = state / "runs" / f"{wl.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    bench = Bench(root, run_dir)
    ws = run_dir / "ws"
    plain, traced, digests = [], [], []
    try:
        start = time.perf_counter()
        while True:
            trace = bool(args.trace) and len(traced) < len(plain)
            result = bench.chain(_fresh(ws), stages, trace)
            if result is None:
                break
            (traced if trace else plain).append(result)
            digests.append(workloads.digest(ws))
            # Traced runs need one chain of each kind; untraced ones a median.
            enough = bool(traced) if args.trace else len(plain) >= MIN_CHAINS
            if enough and time.perf_counter() - start >= args.seconds:
                break

        if digests:
            # Traced chains count too: tracing must not change any output.
            bench.record("digest stable across chains",
                         [] if len(set(digests)) == 1 else [f"digests differ: {digests}"])
            for check in wl.checks:
                try:
                    bench.record(check.__name__, check(ws, inp, meta))
                except Exception as exc:  # a crashed check is a failed operation
                    bench.record(check.__name__, [f"{type(exc).__name__}: {exc}"])
            if wl.serial_stitch is not None:
                serial_ws = _fresh(run_dir / "serial")
                for name in wl.serial_stitch_inputs:
                    src = ws / name
                    if src.is_dir():
                        shutil.copytree(src, serial_ws / name)
                    else:
                        shutil.copy(src, serial_ws / name)
                got = bench.chain(serial_ws, [wl.serial_stitch(inp, args.seed)], False)
                names = wl.serial_stitch_outputs
                one = workloads.digest(serial_ws, names) if got else "missing"
                two = workloads.digest(ws, names)
                bench.record("stitch --jobs 1 digest equals --jobs 2",
                             [] if one == two else [f"--jobs 1 {one} != --jobs 2 {two}"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = [r["wall_s"] for r in plain]
    print(f"workload {wl.name}  seed {args.seed}  item: {wl.item}  items {meta['items']}")
    print(f"inputs_s {inputs_s:.6g} s (input generation or cache load, not a metric)")
    if digests:
        print(f"digest {digests[0]}")
    for problem in bench.problems:
        print(f"FAIL {problem}")
    failed_fraction = _ratio(bench.failed, bench.attempted)
    print(f"failed_fraction {failed_fraction:.6g} ratio "
          f"({bench.failed} of {bench.attempted} operations)")

    metrics: dict[str, dict] = {}
    if walls:
        print(f"wall_s {_summary(walls)}: {' '.join(f'{w:.4g}' for w in walls)}")
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "items_per_s": meta["items"] / wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in plain),
        }
        if args.trace and traced:
            per_chain = [layer_metrics(r) for r in traced]
            layer = {name: statistics.median(m[name] for m in per_chain)
                     for name, _ in PER_LAYER if name != "trace.overhead_s"}
            layer["trace.overhead_s"] = layer["trace.wall_s"] - wall
            print(f"traced chains: {len(traced)}; trace.wall_s "
                  f"{_summary([m['trace.wall_s'] for m in per_chain])}")
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        elif not args.trace:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
