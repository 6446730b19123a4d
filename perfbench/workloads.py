"""Seeded inputs, stage chains and output checks for the three workloads.

Why these three (also recorded in BENCHMARK.json):

* ``lexicon-build`` is raw-landmark ingest: JSONL parse, confidence fill and
  keypoint gather dominate, followed by a small SWO stitch that takes only
  the stride path.
* ``dataset-synth`` is the template-to-pose-dataset path: sampled
  generation, RWO stitch with stride jitter and one ``.psp`` write per
  sentence dominate; ingest and BPE are small.
* ``corpus-tokenize`` is the text path with no poses and no threads: BPE
  train and encode dominate, on Zipf-distributed text so an encode cache
  would see real reuse.

Inputs are built only with the public writers (``io.write_raw_landmark_file``
and plain text) plus the packaged toy data.  Sizes are fixed per workload;
the seed changes the content, so every seed does the same amount of work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from signsynth import bpe, corpus, io
from signsynth.pose import GROUP_OFFSETS, HAND_LANDMARKS, TOTAL_LANDMARKS, RawLandmarkFrame
from signsynth.templates import load_slot_lexicon

PACKAGE_DATA = Path(io.__file__).resolve().parent / "data"
TOY_TEMPLATES = PACKAGE_DATA / "toy_templates.tsv"
TOY_SLOT_LEXICON = PACKAGE_DATA / "toy_slot_lexicon.jsonl"
TOY_NAMES = PACKAGE_DATA / "toy_names.txt"
# Template literals that need a clip as well as the slot-lexicon words.
TOY_LITERALS = ("and", "see", "that", "should", "can")

TARGET_MEAN_FRAMES = 40
FILTER_MIN_RATE = 0.9

# lexicon-build.  --jobs 1: on a 2-vCPU VM, two GIL-bound ingest threads made
# the chain's wall time vary by over 10% from run to run, against about 4%
# for one thread.  dataset-synth keeps the thread pool.
LB_JOBS = 1
LB_WORDS = 25
LB_FRAMES = (30, 90)
LB_MISSING_HAND_EVERY = 8  # every 8th clip loses one hand for its whole length
LB_GEN_LIMIT = 10

# dataset-synth.  --jobs 2 is nproc on a 2-core box, so the cost of the
# GIL-bound thread pool shows.
DS_JOBS = 2
DS_FRAMES = (12, 36)
DS_SAMPLE = 300  # sentences per template; the toy pack has 12 templates
DS_CORPUS_LINES = 300
DS_VOCAB_SIZE = 160

# corpus-tokenize
CT_LINES = 6_000
CT_WORD_TYPES = 2_000
CT_NAMES = 40
CT_PAIRS = 2_000
CT_MERGES = 250
CT_STEPS = 60_000


# --- input generation ------------------------------------------------------------


def _fixed_lengths(n: int, lo: int, hi: int) -> list[int]:
    """n clip lengths spread evenly over [lo, hi], in an order that does not
    depend on the workload seed.  A seeded order would move the mean sentence
    length across a stride rounding boundary for some seeds, and with it the
    frames stitched and the peak RSS."""
    lengths = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    random.Random(0).shuffle(lengths)
    return lengths


def _raw_clip(rng: np.random.Generator, n_frames: int, missing_hand: str | None):
    """Random-walk landmarks; 5% of points are low-confidence, and a missing
    hand has zero confidence throughout, so it stays unresolved."""
    steps = rng.normal(0.0, 0.01, (n_frames, TOTAL_LANDMARKS, 2))
    pos = np.clip(rng.random((TOTAL_LANDMARKS, 2)) + np.cumsum(steps, axis=0), 0.0, 1.0)
    low = rng.random((n_frames, TOTAL_LANDMARKS)) < 0.05
    conf = np.where(
        low,
        rng.uniform(0.0, 0.5, low.shape),
        rng.uniform(0.85, 1.0, low.shape),
    )
    if missing_hand is not None:
        start = GROUP_OFFSETS[missing_hand]
        conf[:, start : start + HAND_LANDMARKS] = 0.0
    stacked = np.concatenate([pos, conf[:, :, None]], axis=2)
    return [RawLandmarkFrame.from_stacked(frame) for frame in stacked]


def _write_raw_words(raw_dir: Path, words, lengths, seed: int, missing_every: int = 0) -> dict:
    raw_dir.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    frames = {}
    for i, (word, n) in enumerate(zip(words, lengths)):
        hand = None
        if missing_every and i % missing_every == missing_every - 1:
            hand = ("left_hand", "right_hand")[i // missing_every % 2]
        io.write_raw_landmark_file(raw_dir / f"{word}.jsonl", _raw_clip(rng, n, hand))
        frames[word] = n
    return frames


def _toy_words() -> list[str]:
    return sorted(load_slot_lexicon(TOY_SLOT_LEXICON).words() | set(TOY_LITERALS))


def _pseudo_words(rng: random.Random, n: int, taken=()) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    out: set[str] = set()
    taken = set(taken)
    while len(out) < n:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(3, 10)))
        if word not in taken:
            out.add(word)
    return sorted(out)


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def make_lexicon_build(seed: int, dest: Path) -> dict:
    rng = random.Random(seed)
    toy = _toy_words()
    # Toy words first, so the words the stitch uses get fixed clip lengths.
    words = toy + _pseudo_words(rng, LB_WORDS - len(toy), taken=toy)
    lengths = _fixed_lengths(len(words), *LB_FRAMES)
    frames = _write_raw_words(dest / "raw", words, lengths, seed, LB_MISSING_HAND_EVERY)
    return {"clip_frames": frames, "items": sum(frames.values())}


def _toy_corpus(rng: random.Random, words: list[str], n_lines: int) -> list[str]:
    lines = [" ".join(rng.choices(words, k=rng.randint(2, 7))) for _ in range(n_lines)]
    # One line in ten carries an out-of-vocabulary token, so filter drops some.
    return [f"{line} noise{i}" if i % 10 == 9 else line for i, line in enumerate(lines)]


def make_dataset_synth(seed: int, dest: Path) -> dict:
    rng = random.Random(seed)
    words = _toy_words()
    lengths = _fixed_lengths(len(words), *DS_FRAMES)
    frames = _write_raw_words(dest / "raw", words, lengths, seed)
    _write_lines(dest / "vocab.txt", words)
    _write_lines(dest / "names.txt", TOY_NAMES.read_text(encoding="utf-8").split())
    _write_lines(dest / "corpus.txt", _toy_corpus(rng, words, DS_CORPUS_LINES))
    n_templates = sum(1 for line in TOY_TEMPLATES.read_text().splitlines()
                      if line and not line.startswith("#"))
    return {"clip_frames": frames, "items": n_templates * DS_SAMPLE}


def make_corpus_tokenize(seed: int, dest: Path) -> dict:
    rng = random.Random(seed)
    types = _pseudo_words(rng, CT_WORD_TYPES)
    rng.shuffle(types)  # Zipf rank order
    names = [n.capitalize() for n in _pseudo_words(rng, CT_NAMES, taken=types)]
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(types))))
    lines = []
    for i in range(CT_LINES):
        tokens = rng.choices(types, cum_weights=cum_weights, k=rng.randint(2, 16))
        if i % 10 == 9:
            tokens.insert(rng.randrange(len(tokens) + 1), f"oov{i}")
        if i % 25 == 0:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(names))
        lines.append(" ".join(tokens))
    _write_lines(dest / "corpus.txt", lines)
    _write_lines(dest / "vocab.txt", types + [n.lower() for n in names])
    _write_lines(dest / "names.txt", names)
    with open(dest / "pairs.jsonl", "w", encoding="utf-8") as fh:
        for i in range(CT_PAIRS):
            reference = lines[rng.randrange(len(lines))].split()
            candidate = [
                rng.choice(types) if rng.random() < 0.3 else tok for tok in reference
            ]
            fh.write(json.dumps({"id": f"p{i}", "candidate": " ".join(candidate),
                                 "reference": " ".join(reference)}) + "\n")
    return {"items": CT_LINES, "pairs": CT_PAIRS}


# --- stage chains ----------------------------------------------------------------


def _stage(name: str, seed: int, *argv: str, jobs: int = 1) -> list:
    return [name, ["--seed", str(seed), "--jobs", str(jobs), *argv]]


def stitch_stage_dataset_synth(inp: Path, seed: int, jobs: int) -> list:
    return _stage("stitch", seed, "stitch", "--manifest", "sentences.jsonl",
                  "--lexicon-dir", "lexicon", "--out-dir", "poses",
                  "--out-manifest", "stitched.jsonl",
                  "--target-mean", str(TARGET_MEAN_FRAMES),
                  "--word-order", "rwo", "--jitter", "1,2,3", jobs=jobs)


def chain_lexicon_build(inp: Path, seed: int) -> list:
    return [
        _stage("ingest", seed, "ingest", "--raw-dir", str(inp / "raw"),
               "--out-dir", "lexicon", jobs=LB_JOBS),
        _stage("gen", seed, "gen", "--templates", str(TOY_TEMPLATES),
               "--lexicon", str(TOY_SLOT_LEXICON), "--limit", str(LB_GEN_LIMIT),
               "--out", "sentences.jsonl"),
        _stage("stitch", seed, "stitch", "--manifest", "sentences.jsonl",
               "--lexicon-dir", "lexicon", "--out-dir", "poses",
               "--out-manifest", "stitched.jsonl",
               "--target-mean", str(TARGET_MEAN_FRAMES), jobs=LB_JOBS),
    ]


def chain_dataset_synth(inp: Path, seed: int) -> list:
    return [
        _stage("ingest", seed, "ingest", "--raw-dir", str(inp / "raw"),
               "--out-dir", "lexicon", jobs=DS_JOBS),
        _stage("gen", seed, "gen", "--templates", str(TOY_TEMPLATES),
               "--lexicon", str(TOY_SLOT_LEXICON), "--sample", str(DS_SAMPLE),
               "--out", "sentences.jsonl", "--stats", "sentences_stats.json"),
        _stage("filter", seed, "filter", "--in", str(inp / "corpus.txt"), "--text",
               "--vocab", str(inp / "vocab.txt"), "--min-rate", str(FILTER_MIN_RATE),
               "--out", "corpus_matched.jsonl"),
        _stage("merge", seed, "merge", "--in", "corpus_matched.jsonl",
               "--out", "corpus_merged.jsonl"),
        _stage("postprocess", seed, "postprocess", "--in", "corpus_merged.jsonl",
               "--names", str(inp / "names.txt"), "--count-extra", "sentences.jsonl",
               "--out", "corpus_final.jsonl"),
        stitch_stage_dataset_synth(inp, seed, DS_JOBS),
        _stage("tokenize_train", seed, "tokenize", "train", "--in", "stitched.jsonl",
               "--extra", "corpus_final.jsonl", "--vocab-size", str(DS_VOCAB_SIZE),
               "--model", "bpe.json"),
        _stage("tokenize_encode", seed, "tokenize", "encode", "--in", "stitched.jsonl",
               "--model", "bpe.json", "--out", "encoded.jsonl"),
        _stage("stats", seed, "stats", "--manifest", "stitched.jsonl",
               "--out", "dataset_stats.json", "--hist-csv", "hist"),
    ]


def chain_corpus_tokenize(inp: Path, seed: int) -> list:
    # Budget: 6 specials + 52 alphabet symbols (a-z, plain and end-marked)
    # + CT_MERGES merges.
    vocab_size = 6 + 52 + CT_MERGES
    return [
        _stage("filter", seed, "filter", "--in", str(inp / "corpus.txt"), "--text",
               "--vocab", str(inp / "vocab.txt"), "--min-rate", str(FILTER_MIN_RATE),
               "--out", "corpus_matched.jsonl"),
        _stage("merge", seed, "merge", "--in", "corpus_matched.jsonl",
               "--out", "corpus_merged.jsonl"),
        _stage("postprocess", seed, "postprocess", "--in", "corpus_merged.jsonl",
               "--names", str(inp / "names.txt"), "--out", "corpus_final.jsonl"),
        _stage("tokenize_train", seed, "tokenize", "train", "--in", "corpus_final.jsonl",
               "--vocab-size", str(vocab_size), "--model", "bpe.json"),
        _stage("tokenize_encode", seed, "tokenize", "encode", "--in", "corpus_final.jsonl",
               "--model", "bpe.json", "--out", "encoded.jsonl"),
        _stage("eval", seed, "eval", "--in", str(inp / "pairs.jsonl"), "--out", "eval.json"),
        _stage("sample", seed, "sample", "--total-steps", str(CT_STEPS),
               "--real-size", "5000", "--synth-size", str(CT_LINES),
               "--out", "schedule.csv"),
        _stage("stats", seed, "stats", "--manifest", "corpus_final.jsonl",
               "--out", "corpus_stats.json", "--hist-csv", "hist"),
    ]


# --- output checks ---------------------------------------------------------------
#
# Each check returns a list of problems; an empty list is a pass.  ``ws`` is
# the chain's working directory, ``inp`` its inputs and ``meta`` what the
# generator recorded about them.


def check_clip_frames(ws: Path, inp: Path, meta: dict) -> list[str]:
    problems = []
    for word, n in sorted(meta["clip_frames"].items()):
        got = len(io.read_pose_file(ws / "lexicon" / f"{word}{io.POSE_FILE_SUFFIX}"))
        if got != n:
            problems.append(f"ingested clip {word}: {got} frames, raw had {n}")
    return problems


def check_stitched(ws: Path, inp: Path, meta: dict) -> list[str]:
    problems = []
    records = io.read_manifest(ws / "stitched.jsonl")
    if not records:
        problems.append("stitched manifest is empty")
    for record in records:
        got = len(io.read_pose_file(ws / record.pose_path))
        if got != record.n_frames:
            problems.append(f"{record.id}: pose file has {got} frames, manifest {record.n_frames}")
    return problems


def check_filter(ws: Path, inp: Path, meta: dict) -> list[str]:
    vocab = set((inp / "vocab.txt").read_text(encoding="utf-8").split())
    records = io.read_manifest(ws / "corpus_matched.jsonl")
    problems = [] if records else ["filter kept nothing"]
    for record in records:
        if not corpus.match_rate(record.text, vocab) > FILTER_MIN_RATE:
            problems.append(f"{record.id}: match rate not above {FILTER_MIN_RATE}")
    return problems


def _round_trip(model_path: Path, manifest: Path, sample: int = 500) -> list[str]:
    model = bpe.load_model(model_path)
    records = io.read_manifest(manifest)
    problems = []
    for record in records[:: max(1, len(records) // sample)]:
        text = " ".join(record.text)
        back = bpe.decode(model, bpe.encode(model, text))
        if back != text:
            problems.append(f"{record.id}: decode(encode(x)) = {back!r}, x = {text!r}")
    return problems


def check_round_trip_stitched(ws: Path, inp: Path, meta: dict) -> list[str]:
    return _round_trip(ws / "bpe.json", ws / "stitched.jsonl")


def check_round_trip_corpus(ws: Path, inp: Path, meta: dict) -> list[str]:
    return _round_trip(ws / "bpe.json", ws / "corpus_final.jsonl")


def check_eval(ws: Path, inp: Path, meta: dict) -> list[str]:
    report = json.loads((ws / "eval.json").read_text(encoding="utf-8"))
    problems = []
    bleu = report["bleu"]
    if len(bleu) != 4 or not all(0.0 <= v <= 100.0 for v in bleu.values()):
        problems.append(f"BLEU out of range: {bleu}")
    for name in ("rouge1", "rouge2", "rougeL"):
        if not all(0.0 <= v <= 1.0 for v in report[name].values()):
            problems.append(f"{name} out of range: {report[name]}")
    if report["n_pairs"] != meta["pairs"]:
        problems.append(f"eval scored {report['n_pairs']} pairs of {meta['pairs']}")
    return problems


# --- digests ---------------------------------------------------------------------


def digest(root: Path, names=None) -> str:
    """sha256 over every file under root (or under the named entries of
    root), keyed by relative path, in sorted order."""
    h = hashlib.sha256()
    tops = [root / n for n in names] if names else [root]
    files = []
    for top in tops:
        if top.is_file():
            files.append(top)
        else:
            files.extend(p for p in top.rglob("*") if p.is_file())
    for path in sorted(files):
        rel = path.relative_to(root).as_posix().encode("utf-8")
        data = path.read_bytes()
        h.update(b"%d:%s:%d:" % (len(rel), rel, len(data)))
        h.update(data)
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what items_per_s counts
    make: Callable[[int, Path], dict]
    chain: Callable[[Path, int], list]
    checks: tuple
    # Stitch stage re-run at --jobs 1 for the determinism check, the inputs
    # it reads from a finished chain, and the outputs compared by digest.
    serial_stitch: Optional[Callable[[Path, int], list]] = None
    serial_stitch_inputs: tuple = ()
    serial_stitch_outputs: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lexicon-build", "raw frame", make_lexicon_build, chain_lexicon_build,
                 (check_clip_frames, check_stitched)),
        Workload("dataset-synth", "stitched sentence", make_dataset_synth,
                 chain_dataset_synth,
                 (check_clip_frames, check_stitched, check_filter,
                  check_round_trip_stitched),
                 serial_stitch=lambda inp, seed: stitch_stage_dataset_synth(inp, seed, 1),
                 serial_stitch_inputs=("sentences.jsonl", "lexicon"),
                 serial_stitch_outputs=("stitched.jsonl", "poses")),
        Workload("corpus-tokenize", "corpus line", make_corpus_tokenize,
                 chain_corpus_tokenize,
                 (check_filter, check_round_trip_corpus, check_eval)),
    )
}


KEEP_INPUTS = 6  # input sets kept in the cache, most recently used first


def inputs(workload: Workload, seed: int, cache: Path) -> tuple[Path, dict]:
    """Inputs for (workload, seed), generated once and then reused.  Only the
    KEEP_INPUTS most recently used sets stay cached; raw landmark inputs are
    tens of MB each."""
    # The key includes this file's digest, so editing a generator or a size
    # never reuses inputs built by the old code.
    fingerprint = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    dest = cache / f"{workload.name}-{seed}-{fingerprint}"
    meta_path = dest / "meta.json"
    if not meta_path.exists():
        tmp = cache / f".{workload.name}-{seed}.{os.getpid()}.tmp"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        meta = workload.make(seed, tmp)
        (tmp / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        if dest.exists():
            shutil.rmtree(dest)
        os.replace(tmp, dest)
    os.utime(dest)
    by_use = sorted(cache.glob("*-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in by_use[KEEP_INPUTS:]:
        shutil.rmtree(old, ignore_errors=True)
    return dest, json.loads(meta_path.read_text(encoding="utf-8"))
