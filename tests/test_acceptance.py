"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
explicit pass lines).  Each test prints "ACCEPTANCE PASS: <criterion>" on
success; a pytest failure marks the criterion red.
"""

from __future__ import annotations

import json
import math
import random
import time
from bisect import bisect_left
from importlib import resources

import numpy as np
import pytest

from signsynth.bpe import END_OF_WORD, bpe_train, decode, encode
from signsynth.cli import cli
from signsynth.corpus import MergePolicy, filter_corpus, length_stats, merge_short
from signsynth.curriculum import REAL, AnnealSchedule, draw, real_fraction
from signsynth.io import (
    compute_stats,
    read_manifest,
    write_manifest,
    write_pose_file,
)
from signsynth.keypoints import flatten_video, interpolate_low_confidence
from signsynth.metrics import eval_pairs, rouge_l
from signsynth.pose import (
    EXCLUDED_BODY,
    FRAME_DIM,
    PoseSequence,
    RawLandmarkFrame,
    SELECTED_BODY_INDICES,
    SELECTED_FACE_INDICES,
)
from signsynth.records import SentenceRecord
from signsynth.stitch import SignLexicon, StitchConfig, compute_sampling_rate, stitch_sentence
from signsynth.templates import (
    PHENOMENA,
    count_expansions,
    expand_all,
    load_slot_lexicon,
    load_templates,
    parse_template,
)

from . import oracles
from .conftest import random_raw_frame
from .test_templates import AGREEMENT_LEX, oracle_lexicon, to_oracle_form


def _pass(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_keypoint_selection():
    """1,000 random frames: 152 values each, exact retained sets, exclusion
    blindness; all within 5 seconds."""
    start = time.monotonic()
    assert set(SELECTED_BODY_INDICES) == {0, 2, 5, 7, 8, 11, 12, 13, 14, 15, 16}
    assert len(SELECTED_FACE_INDICES) == 23

    rng = np.random.default_rng(1234)
    excluded = sorted(EXCLUDED_BODY)
    for i in range(1000):
        frame = random_raw_frame(rng)
        out = flatten_video(frame.stacked()[None]).frames[0]
        assert out.shape == (152,)
        # Perturb one excluded body landmark; output must not move.
        stacked = np.array(frame.stacked())
        g = excluded[i % len(excluded)]
        stacked[g, 0:2] = rng.random(2)
        assert np.array_equal(out, flatten_video(stacked[None]).frames[0])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"keypoint selection took {elapsed:.2f}s"
    _pass("keypoint selection")


def _oracle_fill(stacked: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """Independent nearest-confident-donor fill.

    Donor choice is a per-position bisect over each landmark's confident
    frame list (ties to the earlier frame); completely separate from the
    implementation's accumulate-based scan.
    """
    n_frames, n_landmarks, _ = stacked.shape
    conf = stacked[:, :, 2]
    expected = stacked.copy()
    unresolved = 0
    ok_lists = [np.flatnonzero(conf[:, k] >= threshold).tolist() for k in range(n_landmarks)]
    for t, k in np.argwhere(conf < threshold).tolist():
        ok = ok_lists[k]
        if not ok:
            unresolved += 1
            continue
        pos = bisect_left(ok, t)
        best = None
        for cand in (ok[pos - 1] if pos > 0 else None, ok[pos] if pos < len(ok) else None):
            if cand is None:
                continue
            if (
                best is None
                or abs(cand - t) < abs(best - t)
                or (abs(cand - t) == abs(best - t) and cand < best)
            ):
                best = cand
        expected[t, k, 0:2] = stacked[best, k, 0:2]
    return expected, unresolved


def test_interpolation_oracle_agreement():
    """500 random sequences (len <= 50, uniform confidences, threshold 0.8):
    exact agreement with the brute-force oracle, plus idempotence."""
    rng = np.random.default_rng(777)
    threshold = 0.8
    checked_idempotence = False
    for _ in range(500):
        n = int(rng.integers(1, 51))
        stacked = rng.random((n, 543, 3)).astype(np.float32)
        frames = [RawLandmarkFrame.from_stacked(stacked[t]) for t in range(n)]
        out, report = interpolate_low_confidence(frames, threshold)
        got = np.stack([f.stacked() for f in out])
        expected, unresolved = _oracle_fill(stacked, threshold)
        assert np.array_equal(got[:, :, 0:2], expected[:, :, 0:2])
        assert report.unresolved == unresolved
        if not checked_idempotence and report.unresolved == 0:
            twice, _ = interpolate_low_confidence(out, threshold)
            assert all(
                np.array_equal(a.stacked(), b.stacked()) for a, b in zip(out, twice)
            )
            checked_idempotence = True
    # Idempotence must also hold on a sequence built to fully resolve.
    base = rng.random((4, 543, 3)).astype(np.float32)
    base[:, :, 2] = 1.0
    base[2, :, 2] = 0.1
    frames = [RawLandmarkFrame.from_stacked(base[t]) for t in range(4)]
    once, report = interpolate_low_confidence(frames, threshold)
    assert report.unresolved == 0
    twice, _ = interpolate_low_confidence(once, threshold)
    assert all(np.array_equal(a.stacked(), b.stacked()) for a, b in zip(once, twice))
    _pass("interpolation")


def test_template_engine():
    """Toy pack covers the 12 phenomena; expansion equals the nested-loop
    oracle exactly; the worked agreement example yields 4 sentences."""
    data = resources.files("signsynth.data")
    with resources.as_file(data / "toy_templates.tsv") as tpath:
        pack = load_templates(tpath)
    with resources.as_file(data / "toy_slot_lexicon.jsonl") as lpath:
        lex = load_slot_lexicon(lpath)
    assert {t.phenomenon for t in pack} == set(PHENOMENA)
    for template in pack:
        got = [r.text for r in expand_all(template, lex)]
        want = oracles.enumerate_sentences(to_oracle_form(template), oracle_lexicon(lex))
        assert got == want, f"template {template.id} diverges from oracle"
        assert count_expansions(template, lex) == len(want)

    agreement = parse_template("Subj[num=N] V[num=N]", template_id="agr")
    assert count_expansions(agreement, AGREEMENT_LEX) == 4
    _pass("template engine")


def test_corpus_pipeline():
    """Strict >0.9 filtering equals the oracle; merging conserves tokens,
    reduces candidates by floor(0.9k) grouping, and lands the mean within
    +/-10% of the configured target."""
    vocab = {f"w{i}" for i in range(30)}
    rng = random.Random(4)
    records = []
    for i in range(300):
        tokens = [f"w{rng.randrange(40)}" for _ in range(rng.randint(1, 14))]
        records.append(SentenceRecord(id=f"c{i}", text=tuple(tokens)))
    kept = list(filter_corpus(records, vocab, 0.9))
    want = [r.id for r in records if oracles.match_rate_loop(r.text, vocab) > 0.9]
    assert [r.id for r in kept] == want
    boundary = SentenceRecord(id="x", text=tuple(f"w{i}" for i in range(9)) + ("zzz",))
    assert list(filter_corpus([boundary], vocab, 0.9)) == []  # exactly 0.9 excluded

    # Toy corpus shaped like the post-merge length figures: many short
    # sentences plus some long ones.
    short = [SentenceRecord(id=f"s{i}", text=("a",) * 4) for i in range(100)]
    long = [SentenceRecord(id=f"l{i}", text=("b",) * 12) for i in range(10)]
    policy = MergePolicy(max_len=8, fraction=0.9, group=3)
    merged = merge_short(short + long, policy, seed=13)
    n_candidates = len(short)
    n_selected = int(policy.fraction * n_candidates)  # 90
    expected_count = (
        len(short) - n_selected + n_selected // policy.group
        + n_selected % policy.group + len(long)
    )
    assert len(merged) == expected_count
    assert oracles.token_multiset(r.text for r in merged) == oracles.token_multiset(
        r.text for r in short + long
    )
    target_mean = 10.4  # (30*12 + 10*4 + 10*12) / 50
    assert abs(length_stats(merged).mean - target_mean) <= 0.10 * target_mean
    _pass("corpus pipeline")


def _toy_sign_lexicon(words, rng, lo=8, hi=30):
    return SignLexicon(
        clips={
            w: PoseSequence(
                frames=rng.random((int(rng.integers(lo, hi + 1)), FRAME_DIM)), source_id=w
            )
            for w in words
        }
    )


def test_stitcher(tmp_path):
    """Bit-exact clip reproduction under SWO/stride-1/crossfade-0, seeded RWO
    permutations stable across --jobs 1 vs 8, exact length arithmetic, and
    framerate matching within +/-15% at a 3x mean ratio."""
    rng = np.random.default_rng(2024)
    words = [f"word{i}" for i in range(8)]
    lex = _toy_sign_lexicon(words, rng)

    # SWO, crossfade 0, stride 1: lexicon clips bit-identical inside bounds.
    cfg = StitchConfig(word_order="swo", crossfade_frames=0, base_stride=1)
    result = stitch_sentence(words[:4], lex, cfg, sentence_id="s")
    for word, start, end in result.boundaries:
        assert np.array_equal(result.sequence.frames[start:end], lex.clip(word).frames)
    expected_total = sum(len(lex.clip(w)) for w in words[:4])
    assert len(result.sequence) == expected_total

    # Total-length formula with crossfade and stride.
    cfg2 = StitchConfig(crossfade_frames=3, base_stride=2)
    result2 = stitch_sentence(words[:5], lex, cfg2, sentence_id="s2")
    expected2 = sum(-(-len(lex.clip(w)) // 2) for w in words[:5]) + 3 * 4
    assert len(result2.sequence) == expected2

    # RWO determinism across --jobs via the CLI: byte-identical artifacts.
    lex_dir = tmp_path / "lexdir"
    lex_dir.mkdir()
    for w in words:
        write_pose_file(lex_dir / f"{w}.psp", lex.clip(w))
    manifest = tmp_path / "m.jsonl"
    sentences = [
        SentenceRecord(id=f"s{i}", text=tuple(rng.permutation(words)[:4]))
        for i in range(10)
    ]
    write_manifest(manifest, sentences)
    outputs = {}
    for jobs in ("1", "8"):
        out_dir = tmp_path / f"j{jobs}"
        out_manifest = tmp_path / f"j{jobs}.jsonl"
        code = cli([
            "--seed", "21", "--jobs", jobs,
            "stitch", "--manifest", str(manifest), "--lexicon-dir", str(lex_dir),
            "--out-dir", str(out_dir), "--out-manifest", str(out_manifest),
            "--target-mean", "60", "--word-order", "rwo", "--crossfade", "0",
        ])
        assert code == 0
        outputs[jobs] = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.psp"))}
    assert outputs["1"] == outputs["8"]
    # Each stitched output is a permutation: frame count equals the word sum.
    stitched = read_manifest(tmp_path / "j1.jsonl")
    for record, original in zip(stitched, sentences):
        assert record.n_frames == sum(len(lex.clip(w)) for w in original.text)

    # Framerate matching: synthetic mean 3x target.
    big = SignLexicon(
        clips={w: PoseSequence(frames=rng.random((60, FRAME_DIM))) for w in words}
    )
    sentence_words = words[:3]  # pre-stitch 180 frames
    assert compute_sampling_rate(180.0, 60.0) == 3
    cfg3 = StitchConfig(crossfade_frames=2, base_stride=3)
    result3 = stitch_sentence(sentence_words, big, cfg3, sentence_id="fr")
    assert abs(len(result3.sequence) - 60.0) <= 0.15 * 60.0
    _pass("stitcher")


def test_curriculum():
    """Exact ramp endpoints, binomial concentration at 10^5 draws, and
    replay determinism from arbitrary steps."""
    sched = AnnealSchedule()
    assert real_fraction(0, sched) == 0.0
    assert real_fraction(60_000, sched) == 0.85

    n = 100_000
    p = 0.85
    hits = sum(draw(60_000, sched, seed, 50, 50).source == REAL for seed in range(n))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma

    reference = [draw(s, sched, 99, 31, 77) for s in range(2000)]
    for resume_at in (0, 1, 123, 1999):
        resumed = [draw(s, sched, 99, 31, 77) for s in range(resume_at, 2000)]
        assert resumed == reference[resume_at:]
    _pass("curriculum")


def test_tokenizer():
    """Round-trip identity on 10^4 random corpus sentences, oracle-checked
    first merge, atomic specials."""
    model = bpe_train([["aaab", "aaab"], ["aaab", "aaab"]], vocab_size=64)
    words = {("a", "a", "a", "b" + END_OF_WORD): 4}
    pair, _ = oracles.most_frequent_pair(words)
    assert model.merges[0] == pair == ("a", "a")

    rng = random.Random(31)
    vocab = [
        "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 9))) for _ in range(150)
    ]
    train_sentences = [
        [rng.choice(vocab) for _ in range(rng.randint(1, 10))] for _ in range(400)
    ]
    model = bpe_train(train_sentences, vocab_size=200)
    for _ in range(10_000):
        sentence = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12)))
        assert decode(model, encode(model, sentence)) == sentence

    ids = encode(model, "<PERSON> aaab <UNKNOWN>")
    assert ids[0] == model.vocab["<PERSON>"]
    assert ids[-1] == model.vocab["<UNKNOWN>"]
    assert decode(model, ids) == "<PERSON> aaab <UNKNOWN>"
    _pass("tokenizer")


def test_metrics():
    """BLEU-4 = 100 on identical corpora, p1 = 2/7 clipping, LCS recall 3/4,
    permutation invariance; all against pre-built brute-force oracles."""
    corpus = [["the", "cat", "sat", "on", "the", "mat"], ["a", "dog", "ran", "far", "away"]]
    scores = eval_pairs(list(zip(corpus, corpus))).bleu
    assert scores[4] == pytest.approx(100.0)

    candidate = ["the"] * 7
    reference = ["the", "cat", "is", "on", "the", "mat"]
    matches, total = oracles.clipped_precision_counts([candidate], [reference], 1)
    assert (matches, total) == (2, 7)
    assert eval_pairs([(candidate, reference)]).bleu[1] == pytest.approx(200 / 7)

    p, r, f = rouge_l(["a", "b", "c", "d"], ["a", "c", "d", "b"])
    assert r == pytest.approx(3 / 4)

    rng = random.Random(8)
    pairs = [
        (
            [rng.choice("abcde") for _ in range(rng.randint(1, 10))],
            [rng.choice("abcde") for _ in range(rng.randint(1, 10))],
        )
        for _ in range(20)
    ]
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    direct = eval_pairs(pairs).bleu
    permuted = eval_pairs(shuffled).bleu
    for n in range(1, 5):
        assert direct[n] == pytest.approx(permuted[n])
        assert direct[n] == pytest.approx(
            oracles.bleu_corpus_reference([c for c, _ in pairs], [r for _, r in pairs])[n]
        )
    _pass("metrics")


def test_end_to_end_smoke(tmp_path):
    """gen -> stitch -> sample -> tokenize -> eval on a 20-word toy lexicon
    in under 60 seconds, with stats exactly recomputable from rows."""
    start = time.monotonic()
    data = resources.files("signsynth.data")
    with resources.as_file(data / "toy_slot_lexicon.jsonl") as lpath:
        slot_lex = load_slot_lexicon(lpath)
    words = sorted(slot_lex.words() | {"and", "see", "that", "should", "can"})
    assert len(words) == 20

    rng = np.random.default_rng(5)
    lex_dir = tmp_path / "lexicon"
    lex_dir.mkdir()
    for w in words:
        n = int(rng.integers(6, 16))
        write_pose_file(
            lex_dir / f"{w}.psp",
            PoseSequence(frames=rng.random((n, FRAME_DIM)), source_id=w),
        )

    manifest = tmp_path / "sentences.jsonl"
    with resources.as_file(data / "toy_templates.tsv") as tpath:
        assert cli([
            "--seed", "3",
            "gen", "--templates", str(tpath), "--lexicon", str(lpath),
            "--limit", "20", "--out", str(manifest),
        ]) == 0

    stitched_manifest = tmp_path / "stitched.jsonl"
    assert cli([
        "--seed", "3",
        "stitch", "--manifest", str(manifest), "--lexicon-dir", str(lex_dir),
        "--out-dir", str(tmp_path / "poses"), "--out-manifest", str(stitched_manifest),
        "--target-mean", "40",
    ]) == 0

    assert cli([
        "--seed", "3",
        "sample", "--total-steps", "500", "--real-size", "100",
        "--synth-size", "240", "--out", str(tmp_path / "schedule.csv"),
    ]) == 0

    model_path = tmp_path / "bpe.json"
    assert cli([
        "tokenize", "train", "--in", str(stitched_manifest),
        "--model", str(model_path), "--vocab-size", "120",
    ]) == 0

    pairs_path = tmp_path / "pairs.jsonl"
    records = read_manifest(stitched_manifest)
    with open(pairs_path, "w") as fh:
        for record in records[:50]:
            text = " ".join(record.text)
            fh.write(json.dumps({"id": record.id, "candidate": text, "reference": text}) + "\n")
    assert cli(["eval", "--in", str(pairs_path), "--out", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["bleu"]["4"] == pytest.approx(100.0)

    stats_path = tmp_path / "stats.json"
    assert cli(["stats", "--manifest", str(stitched_manifest), "--out", str(stats_path)]) == 0
    stats = json.loads(stats_path.read_text())
    assert stats == compute_stats(records)  # exactly recomputable from rows

    assert all(r.pose_path is not None and r.n_frames > 0 for r in records)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"end-to-end smoke took {elapsed:.1f}s"
    _pass("end-to-end smoke")
