"""Command-line interface chaining all pipeline stages.

Subcommands: gen, filter, merge, postprocess, ingest, stitch, sample,
tokenize train, tokenize encode, eval, stats.  The global flags --seed,
--config and --jobs come before the subcommand; every other flag belongs to
one subcommand, and argparse rejects it elsewhere.  Exit codes: 0 success,
1 usage error, 2 data error.
With a fixed --seed, every subcommand produces byte-identical artifacts
across runs and across --jobs.  --jobs N splits the raw files of ingest and
the stitchable sentences of stitch into contiguous chunks, one forked
process each, at most one per CPU; the other subcommands run in one process.
Only ingest and stitch handle pose arrays, and only they import numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from pathlib import Path
from typing import Optional, Sequence

from . import bpe, corpus, curriculum, io, metrics, parallel, stitch, templates
from .records import WORD_ORDERS


class UsageError(Exception):
    """Bad invocation detected after parsing; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# A setting a --config file may give: the command and flag that also set it,
# the type its value is read as, and its default (None: it is required).
Setting = namedtuple("Setting", "command flag type default")

# Each setting is declared here once; a default that a library dataclass holds
# is read from it.  cli() resolves each setting whose flag the parsed command
# declares onto args: explicit flag > config file > default.
SETTINGS: dict[str, Setting] = {
    "min_rate": Setting("filter", "--min-rate", float, 0.9),
    "max_len": Setting("merge", "--max-len", int, corpus.MergePolicy.max_len),
    "fraction": Setting("merge", "--fraction", float, corpus.MergePolicy.fraction),
    "group": Setting("merge", "--group", int, corpus.MergePolicy.group),
    "min_freq": Setting("postprocess", "--min-freq", int, 3),
    "threshold": Setting("ingest", "--threshold", float, 0.8),
    "crossfade_frames":
        Setting("stitch", "--crossfade", int, stitch.StitchConfig.crossfade_frames),
    "target_mean_frames": Setting("stitch", "--target-mean", float, None),
    "max_real_fraction":
        Setting("sample", "--max-real", float, curriculum.AnnealSchedule.max_real_fraction),
    "ramp_steps": Setting("sample", "--ramp", int, curriculum.AnnealSchedule.ramp_steps),
    "vocab_size": Setting("tokenize train", "--vocab-size", int, 15_000),
}


def _config_line(line: str) -> tuple[str, str] | None:
    line = line.split("#", 1)[0].strip()
    if not line:
        return None
    if "=" not in line:
        raise ValueError("expected 'key = value'")
    key, value = (part.strip() for part in line.split("=", 1))
    if key not in SETTINGS:
        raise ValueError(f"unknown setting {key!r}")
    SETTINGS[key].type(value)  # a bad value is an error here, where it has a line
    return key, value


def load_config(path) -> dict[str, str]:
    """Flat 'key = value' lines naming SETTINGS; '#' starts a comment.  A key
    given twice is a DataError citing the line of the repeat."""
    config: dict[str, str] = {}
    for lineno, (key, value) in io.read_lines(path, _config_line):
        if key in config:
            raise io.DataError(f"{path}:{lineno}: setting {key!r} given twice")
        config[key] = value
    return config


def _count(minimum: int):
    """argparse type: an int no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value: 'x'" names the type
    return parse


def _strides(text: str) -> tuple[int, ...]:
    """argparse type for --jitter: comma-separated strides; empty keeps the default."""
    return tuple(map(int, text.split(","))) if text else stitch.StitchConfig.jitter_strides


_strides.__name__ = "comma-separated int"  # names the type in "invalid ... value: '1,x'"


def _cmd_gen(args) -> int:
    pack = templates.load_templates(args.templates)
    lex = templates.load_slot_lexicon(args.lexicon)
    for template in pack:
        for slot in template.slots:
            if slot.category not in lex.entries:
                raise io.DataError(
                    f"{args.templates}: template {template.id!r}: "
                    f"unknown slot category {slot.category!r}"
                )
    records = []
    for template in pack:
        if args.sample is not None:
            stream = templates.sample_expansions(template, lex, args.sample, args.seed)
        else:
            stream = templates.expand_all(template, lex, limit=args.limit)
        records.extend(stream)
    io.write_manifest(args.out, records)
    if args.stats:
        io.write_stats(args.stats, io.compute_stats(records))
    print(f"gen: {len(records)} sentences from {len(pack)} templates -> {args.out}")
    return 0


def _cmd_filter(args) -> int:
    corpus.check_min_rate(args.min_rate)
    vocab = io.read_word_list(args.vocab)
    sentences = (io.read_text_corpus if args.text else io.read_manifest)(args.input)
    kept = list(corpus.filter_corpus(sentences, vocab, args.min_rate))
    io.write_manifest(args.out, kept)
    print(f"filter: kept {len(kept)}/{len(sentences)} sentences (match rate > {args.min_rate})")
    return 0


def _cmd_merge(args) -> int:
    policy = corpus.MergePolicy(max_len=args.max_len, fraction=args.fraction, group=args.group)
    sentences = io.read_manifest(args.input)
    merged = corpus.merge_short(sentences, policy, seed=args.seed)
    io.write_manifest(args.out, merged)
    stats = corpus.length_stats(merged)
    print(
        f"merge: {len(sentences)} -> {len(merged)} sentences, "
        f"mean length {stats.mean:.2f}"
    )
    return 0


def _cmd_postprocess(args) -> int:
    corpus.check_min_freq(args.min_freq)
    sentences = io.read_manifest(args.input)
    names = io.read_word_list(args.names) if args.names else set()
    extra = []
    for path in args.count_extra or []:
        extra.extend(io.read_manifest(path))
    out = corpus.replace_rare_and_names(sentences, names, args.min_freq, extra_counts=extra)
    io.write_manifest(args.out, out)
    n_person = sum(tok == corpus.PERSON_TOKEN for r in out for tok in r.text)
    n_unknown = sum(tok == corpus.UNKNOWN_TOKEN for r in out for tok in r.text)
    print(f"postprocess: {n_person} person tokens, {n_unknown} unknown tokens")
    return 0


def _cmd_ingest(args) -> int:
    from . import keypoints  # with numpy, which only ingest and stitch load

    keypoints.check_threshold(args.threshold)
    raw_dir = Path(args.raw_dir)
    paths = io.files_by_word(raw_dir, ".jsonl")
    if not paths:
        raise io.DataError(f"{raw_dir}: no .jsonl raw landmark files")

    def ingest_one(path: Path) -> tuple[int, int]:
        seq, report = keypoints.process_word_video(
            io.read_raw_landmark_file(path), args.threshold, source_id=path.stem
        )
        write_pose(path.stem, seq)
        return report.keypoints_filled, report.unresolved

    with io.pose_set(args.out_dir) as write_pose:
        counts = parallel.map_chunks(ingest_one, list(paths.values()), args.jobs)
    filled, unresolved = (sum(column) for column in zip(*counts))
    print(
        f"ingest: {len(paths)} words -> {args.out_dir} "
        f"(filled {filled} keypoints, {unresolved} unresolved)"
    )
    return 0


def _cmd_stitch(args) -> int:
    cfg = stitch.StitchConfig(args.word_order, jitter_strides=args.jitter,
                              crossfade_frames=args.crossfade_frames, seed=args.seed)
    stitch.check_mean_frames(args.target_mean_frames)
    records = io.read_manifest(args.manifest)
    lex = io.load_sign_lexicon(args.lexicon_dir)

    with io.pose_set(args.out_dir) as write_pose:
        try:
            result = stitch.stitch_dataset(records, lex, cfg, args.target_mean_frames, write_pose,
                                           skip_oov=args.skip_oov, jobs=args.jobs)
        except stitch.NothingToStitch:
            raise io.DataError(
                f"{args.manifest}, {args.lexicon_dir}: no stitchable records"
            ) from None
    io.write_manifest(args.out_manifest, result.records)
    mean_frames = sum(r.n_frames for r in result.records) / len(result.records)
    print(
        f"stitch: {len(result.records)} sentences (skipped {result.skipped}), "
        f"base stride {result.base_stride}, mean frames {mean_frames:.1f}"
    )
    return 0


def _cmd_sample(args) -> int:
    sched = curriculum.AnnealSchedule(args.max_real_fraction, args.ramp_steps)
    curriculum.write_schedule_csv(
        args.out, args.total_steps, sched, args.seed, args.real_size, args.synth_size
    )
    print(f"sample: {args.total_steps} steps -> {args.out}")
    return 0


def _cmd_tokenize_train(args) -> int:
    bpe.check_vocab_size(args.vocab_size)
    paths = [args.input, *(args.extra or [])]
    texts = [r.text for path in paths for r in io.read_manifest(path)]
    # encode splits a sentence's text on whitespace, so train on those words
    words = ([word for token in text for word in token.split()] for text in texts)
    try:
        model = bpe.bpe_train(words, args.vocab_size)
    except bpe.EmptyCorpus:
        raise io.DataError(f"{', '.join(paths)}: no words to train on") from None
    bpe.save_model(args.model, model)
    print(f"tokenize train: vocab {len(model.vocab)}, {len(model.merges)} merges")
    return 0


def _cmd_tokenize_encode(args) -> int:
    model = bpe.load_model(args.model)
    records = io.read_manifest(args.input)
    with io.atomic_open(args.out) as fh:
        for record in records:
            ids = bpe.encode(model, " ".join(record.text))
            fh.write(io.encode_token_ids(record.id, ids) + "\n")
    print(f"tokenize encode: {len(records)} sentences -> {args.out}")
    return 0


def _eval_pair(obj: dict, strings: dict[str, str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The metric tokens of one pair; each token is the equal string that
    ``strings`` already holds, or is added to it."""
    candidate, reference = obj["candidate"], obj["reference"]
    if not isinstance(candidate, str) or not isinstance(reference, str):
        raise ValueError("candidate and reference must be strings")
    share = strings.setdefault
    cand, ref = metrics.tokenize_for_metrics(candidate), metrics.tokenize_for_metrics(reference)
    return tuple(map(share, cand, cand)), tuple(map(share, ref, ref))


def _cmd_eval(args) -> int:
    strings: dict[str, str] = {}  # one string per distinct token of the input
    pairs = [pair for _, pair in io.read_jsonl(args.input, lambda obj: _eval_pair(obj, strings))]
    if not pairs:
        raise io.DataError(f"{args.input}: no candidate-reference pairs")
    report = metrics.eval_pairs(pairs, smooth=args.smooth)
    for n in sorted(report.bleu):
        print(f"BLEU-{n}: {report.bleu[n]:.2f}")
    for name, triple in (("ROUGE-1", report.rouge1), ("ROUGE-2", report.rouge2),
                         ("ROUGE-L", report.rougeL)):
        print(f"{name}: P={triple[0]:.4f} R={triple[1]:.4f} F1={triple[2]:.4f}")
    print(f"pairs: {report.n_pairs}  profile: {report.profile}")
    if args.out:
        io.write_stats(args.out, report.as_dict())
    return 0


def _cmd_stats(args) -> int:
    records = io.read_manifest(args.manifest)
    stats = io.compute_stats(records)
    io.write_stats(args.out, stats)
    if args.hist_csv:
        prefix = Path(args.hist_csv)
        for name, hist in (("lengths", "length_histogram"), ("frames", "frame_histogram")):
            io.write_histogram_csv(
                prefix.with_name(f"{prefix.name}_{name}.csv"), stats[hist]["bins"]
            )
    print(json.dumps(stats, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="signsynth", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="global seed")
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file")
    parser.add_argument("--jobs", type=_count(1), default=1,
                        help="processes for ingest and stitch, at most one per CPU; the other "
                             "subcommands run in one")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="expand templates into a sentence manifest")
    p.add_argument("--templates", required=True)
    p.add_argument("--lexicon", required=True)
    count = p.add_mutually_exclusive_group()
    count.add_argument("--limit", type=_count(0), default=None,
                       help="cap expansions per template")
    count.add_argument("--sample", type=_count(0), default=None,
                       help="sample this many sentences per template instead of enumerating")
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("filter", help="keep corpus sentences matching the vocabulary")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--vocab", required=True, help="word list, one per line")
    p.add_argument("--text", action="store_true", help="input is plain text, not JSONL")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("merge", help="merge short sentences to match length distribution")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("postprocess", help="replace names and rare words")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--names", default=None, help="gazetteer, one name per line")
    p.add_argument("--count-extra", nargs="*", default=None,
                   help="additional manifests included in the frequency pass")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_postprocess)

    p = sub.add_parser("ingest", help="raw landmark files -> word pose files")
    p.add_argument("--raw-dir", dest="raw_dir", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stitch", help="sentences + sign lexicon -> pose dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--lexicon-dir", dest="lexicon_dir", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--out-manifest", dest="out_manifest", required=True)
    p.add_argument("--word-order", choices=WORD_ORDERS, default=stitch.StitchConfig.word_order)
    p.add_argument("--jitter", type=_strides, default=stitch.StitchConfig.jitter_strides,
                   help="comma-separated strides, e.g. 1,2,3")
    p.add_argument("--skip-oov", action="store_true",
                   help="stitch a sentence without its out-of-lexicon tokens; by "
                        "default such a sentence is skipped and counted")
    p.set_defaults(func=_cmd_stitch)

    p = sub.add_parser("sample", help="export curriculum mixture schedule CSV")
    p.add_argument("--total-steps", dest="total_steps", type=_count(0), required=True)
    p.add_argument("--real-size", dest="real_size", type=_count(1), required=True)
    p.add_argument("--synth-size", dest="synth_size", type=_count(1), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    tokenize = sub.add_parser("tokenize", help="train or apply the BPE tokenizer")
    actions = tokenize.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = actions.add_parser("train", help="train a BPE model on manifests")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--extra", nargs="*", default=None,
                   help="extra manifests for training (e.g. the real train split)")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_tokenize_train)

    p = actions.add_parser("encode", help="encode a manifest into token ids")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tokenize_encode)

    p = sub.add_parser("eval", help="BLEU/ROUGE over candidate-reference pairs")
    p.add_argument("--in", dest="input", required=True,
                   help='JSONL of {"id", "candidate", "reference"}')
    p.add_argument("--smooth", action="store_true", help="exp smoothing for zero counts")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="manifest statistics and histogram CSVs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hist-csv", dest="hist_csv", default=None,
                   help="prefix for *_lengths.csv / *_frames.csv")
    p.set_defaults(func=_cmd_stats)

    leaves = {**sub.choices, **{f"tokenize {name}": p for name, p in actions.choices.items()}}
    for name, s in SETTINGS.items():
        leaves[s.command].add_argument(s.flag, dest=name, type=s.type)
    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config) if args.config else {}
        for name, s in SETTINGS.items():  # flag > config > default
            if name in vars(args) and getattr(args, name) is None:
                if name not in config and s.default is None:
                    raise UsageError(f"{s.flag} is required (or {name} in --config)")
                setattr(args, name, s.type(config[name]) if name in config else s.default)
        with io.outputs():  # one commit for all of the command's outputs
            return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"signsynth: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:  # io.DataError is a ValueError
        print(f"signsynth: data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
