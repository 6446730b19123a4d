"""One stage chain in a fresh interpreter: ``python3 child.py SPEC.json``.

SPEC holds the stages as ``[name, argv]`` pairs, whether to trace, and the
path of the JSON result to write.  The child imports ``signsynth.cli``, notes
the time (set-up ends there), runs every stage through ``cli.cli(argv)`` in
order and stops at the first non-zero exit.  With tracing on it first wraps
the layer functions listed in ``install_layers``; spans and counters go into
the result for the parent to reduce.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install_layers(tracer) -> None:
    """Wrap the public layer functions the per-layer metrics are read from."""
    from signsynth import bpe, corpus, curriculum, io, keypoints, metrics, stitch, templates

    count = tracer.count

    def raw_read(args, kwargs, frames):
        count("io.raw_frames", len(frames))
        count("io.raw_bytes", os.path.getsize(args[0]))

    def interpolated(args, kwargs, result):
        report = result[1]
        count("keypoints.keypoints_filled", report.keypoints_filled)
        count("keypoints.unresolved", report.unresolved)
        count("keypoints.frames_touched", report.frames_touched)

    def pose_written(args, kwargs, result):
        count("io.pose_files")
        count("io.pose_bytes", os.path.getsize(args[0]))

    def manifest_read(args, kwargs, records):
        count("io.manifest_records", len(records))

    def manifest_written(args, kwargs, result):
        count("io.manifest_records", len(args[1]))

    def sentence_stitched(args, kwargs, result):
        count("stitch.frames_out", len(result.sequence))

    def dataset_stitched(args, kwargs, result):
        count("stitch.sentences", len(result.records))
        count("stitch.skipped", result.skipped)

    def resampled(args, kwargs, result):
        seq, stride = args[0], args[1]
        count("stitch.resample.calls")
        tracer.distinct("stitch.resample.distinct", [(id(seq), stride)])

    def trained(args, kwargs, model):
        specials = set(args[2] if len(args) > 2 else kwargs.get("specials", bpe.DEFAULT_SPECIALS))
        types = {tok for sentence in args[0] for tok in sentence if tok and tok not in specials}
        count("bpe.merges", len(model.merges))
        count("bpe.word_types", len(types))

    def encoded(args, kwargs, ids):
        words = args[1].split()
        count("bpe.encode.calls")
        count("bpe.encode.words", len(words))
        tracer.distinct("bpe.encode.distinct_words", words)

    def filtered(args, kwargs, kept):
        count("corpus.filter_in", len(args[0]))
        count("corpus.filter_kept", kept)

    def evaluated(args, kwargs, report):
        count("metrics.pairs", len(args[0]))

    def scheduled(args, kwargs, result):
        count("curriculum.steps", args[1])

    def expanded(args, kwargs, n):
        count("templates.sentences", n)
        count("templates.enumerated", n)

    def sampled(args, kwargs, n):
        count("templates.sentences", n)
        count("templates.enumerated", templates.count_expansions(args[0], args[1]))

    wrap = tracer.wrap
    wrap(io, "read_raw_landmark_file", "io.read_raw_landmark_file", raw_read)
    wrap(keypoints, "interpolate_low_confidence", "keypoints.interpolate_low_confidence", interpolated)
    wrap(keypoints, "flatten_video", "keypoints.flatten_video")
    wrap(io, "write_pose_file", "io.write_pose_file", pose_written)
    wrap(io, "read_manifest", "io.read_manifest", manifest_read)
    wrap(io, "write_manifest", "io.write_manifest", manifest_written)
    wrap(io, "load_sign_lexicon", "io.load_sign_lexicon")
    wrap(stitch, "stitch_sentence", "stitch.stitch_sentence", sentence_stitched)
    wrap(stitch, "stitch_dataset", "stitch.stitch_dataset", dataset_stitched)
    wrap(stitch, "resample", None, resampled)
    wrap(bpe, "bpe_train", "bpe.bpe_train", trained)
    wrap(bpe, "encode", "bpe.encode", encoded)
    wrap(corpus, "filter_corpus", "corpus.filter_corpus", filtered)
    wrap(corpus, "merge_short", "corpus.merge_short")
    wrap(corpus, "replace_rare_and_names", "corpus.replace_rare_and_names")
    wrap(metrics, "eval_pairs", "metrics.eval_pairs", evaluated)
    wrap(curriculum, "write_schedule_csv", "curriculum.write_schedule_csv", scheduled)
    wrap(templates, "expand_all", "templates.expand", expanded)
    wrap(templates, "sample_expansions", "templates.expand", sampled)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from signsynth import cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        install_layers(tracer)

    stages = []
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    for name, argv in spec["stages"]:
        t0, cpu0 = time.perf_counter(), time.process_time()
        if tracer is None:
            code = cli.cli(argv)
        else:
            with tracer.span(f"cli.{name}"):
                code = cli.cli(argv)
        stages.append(
            {
                "name": name,
                "code": code,
                "s": time.perf_counter() - t0,
                "cpu_s": time.process_time() - cpu0,
                "maxrss_mb": _maxrss_mb(),
            }
        )
        if code != 0:
            break
    end = time.clock_gettime(time.CLOCK_MONOTONIC)

    result = {"ready": ready, "start": start, "end": end, "stages": stages,
              "maxrss_mb": _maxrss_mb()}
    if tracer is not None:
        tracer.restore()
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
