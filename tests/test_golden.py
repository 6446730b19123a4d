"""Golden digests of a seeded gen -> stitch run and a seeded ingest run.

GOLDEN_SHA256 was recorded before the streaming stitch rewrite, so a pass
proves the stitched pose files and manifest are byte-identical to the
per-boundary, thread-pool implementation they replaced.  Paths are relative
to the test's working directory, so manifest ``pose_path`` values carry no
machine-specific prefix.

INGEST_SHA256 was recorded on the per-frame ``RawLandmarkFrame`` ingest, before
ingest became one ``(T, 543, 3)`` array from parse to ``.psp``.

CHAIN_SHA256 covers the rest of the chain (gen --stats, filter, merge,
postprocess, sample, tokenize, eval, stats --hist-csv).  It was recorded
before the file writers were rewritten to stream through ``atomic_open`` and
before the CLI took its defaults and word lists from the library.
"""

from __future__ import annotations

import hashlib
import json
import random
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from signsynth.cli import cli
from signsynth.io import write_pose_file, write_raw_landmark_file
from signsynth.pose import (
    FRAME_DIM,
    GROUP_OFFSETS,
    HAND_LANDMARKS,
    TOTAL_LANDMARKS,
    PoseSequence,
    RawLandmarkFrame,
)
from signsynth.templates import load_slot_lexicon

GOLDEN_SHA256 = "2ecc8bb42b3c6e13e8de3028b7ce1f32685277574e4af8df642356f7a88d724a"
INGEST_SHA256 = "0c0527c5ec674b43bf6c2e73c22c720dc2575831c997ba0aa742a1d7ff8f45ec"
CHAIN_SHA256 = "f02eb45a5ff2c038766e7fccfa1f9505b4f54b7c9293636b21b8187c17fd12da"


def _tree_digest(out_dir: Path, manifest: Path | None = None) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    if manifest is not None:
        h.update(b"manifest\0" + manifest.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("jobs", ["1", "8"])
def test_rwo_jitter_stitch_digest(tmp_path, monkeypatch, jobs):
    monkeypatch.chdir(tmp_path)
    data = resources.files("signsynth.data")
    with resources.as_file(data / "toy_slot_lexicon.jsonl") as lpath, \
            resources.as_file(data / "toy_templates.tsv") as tpath:
        words = sorted(load_slot_lexicon(lpath).words() | {"and", "see", "that", "should", "can"})
        assert cli([
            "--seed", "17",
            "gen", "--templates", str(tpath), "--lexicon", str(lpath),
            "--sample", "6", "--out", "sentences.jsonl",
        ]) == 0

    rng = np.random.default_rng(2024)
    Path("lexicon").mkdir()
    for word in words:
        n = int(rng.integers(1, 20))
        write_pose_file(
            Path("lexicon") / f"{word}.psp",
            PoseSequence(frames=rng.random((n, FRAME_DIM)), source_id=word),
        )

    assert cli([
        "--seed", "17", "--jobs", jobs,
        "stitch", "--manifest", "sentences.jsonl", "--lexicon-dir", "lexicon",
        "--out-dir", "poses", "--out-manifest", "stitched.jsonl",
        "--target-mean", "18", "--word-order", "rwo", "--jitter", "1,2,3",
    ]) == 0
    assert _tree_digest(Path("poses"), Path("stitched.jsonl")) == GOLDEN_SHA256


def test_ingest_digest(tmp_path):
    # Random walks with about 20% low-confidence points, so the fill runs;
    # the last clip's right hand is at confidence 0 throughout, so those
    # points have no donor and stay unresolved.
    rng = np.random.default_rng(4242)
    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    n_clips = 6
    for i in range(n_clips):
        n = int(rng.integers(1, 15))
        pos = np.clip(
            rng.random((TOTAL_LANDMARKS, 2))
            + np.cumsum(rng.normal(0.0, 0.02, (n, TOTAL_LANDMARKS, 2)), axis=0),
            0.0,
            1.0,
        )
        low = rng.random((n, TOTAL_LANDMARKS)) < 0.2
        conf = np.where(low, rng.random((n, TOTAL_LANDMARKS)), 1.0)
        if i == n_clips - 1:
            start = GROUP_OFFSETS["right_hand"]
            conf[:, start : start + HAND_LANDMARKS] = 0.0
        stacked = np.concatenate([pos, conf[:, :, None]], axis=2)
        write_raw_landmark_file(
            raw_dir / f"word{i}.jsonl", [RawLandmarkFrame.from_stacked(f) for f in stacked]
        )

    out_dir = tmp_path / "lexicon"
    assert cli(["ingest", "--raw-dir", str(raw_dir), "--out-dir", str(out_dir)]) == 0
    assert len(list(out_dir.iterdir())) == n_clips
    assert _tree_digest(out_dir) == INGEST_SHA256


def test_chain_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = resources.files("signsynth.data")
    with resources.as_file(data / "toy_slot_lexicon.jsonl") as lpath, \
            resources.as_file(data / "toy_templates.tsv") as tpath:
        words = sorted(load_slot_lexicon(lpath).words())
        assert cli([
            "--seed", "23",
            "gen", "--templates", str(tpath), "--lexicon", str(lpath),
            "--sample", "5", "--out", "templates.jsonl", "--stats", "template_stats.json",
        ]) == 0

    # Mixed-case, padded word lists with blank lines: the readers case-fold
    # and skip blanks.  The corpus mixes vocabulary, names and unknown words.
    rng = random.Random(23)
    names = ["Alice", "bob", "CAROL", "Dmitri"]
    Path("vocab.txt").write_text(
        "".join(f"  {w.upper() if i % 3 == 0 else w}\n\n" for i, w in enumerate(words)),
        encoding="utf-8",
    )
    Path("names.txt").write_text("\n".join(names) + "\n\n", encoding="utf-8")
    lines = []
    for _ in range(300):
        n = rng.randint(1, 12)
        tokens = [rng.choice(words) for _ in range(n)]
        for i in range(n):
            roll = rng.random()
            if roll < 0.05:
                tokens[i] = rng.choice(names)
            elif roll < 0.1:
                tokens[i] = f"Oov{rng.randrange(150)}"
            elif roll < 0.2:
                tokens[i] = tokens[i].capitalize()
        lines.append(" ".join(tokens))
    Path("corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # merge and sample run on their defaults, so the defaults are pinned too.
    for argv in (
        ["filter", "--in", "corpus.txt", "--text", "--vocab", "vocab.txt",
         "--min-rate", "0.8", "--out", "matched.jsonl"],
        ["--seed", "23", "merge", "--in", "matched.jsonl", "--out", "merged.jsonl"],
        ["postprocess", "--in", "merged.jsonl", "--names", "names.txt", "--min-freq", "2",
         "--count-extra", "templates.jsonl", "--out", "final.jsonl"],
        ["--seed", "23", "sample", "--total-steps", "400", "--real-size", "50",
         "--synth-size", "900", "--out", "schedule.csv"],
        ["tokenize", "train", "--in", "final.jsonl", "--extra", "templates.jsonl",
         "--vocab-size", "120", "--model", "bpe.json"],
        ["tokenize", "encode", "--in", "templates.jsonl", "--model", "bpe.json",
         "--out", "encoded.jsonl"],
    ):
        assert cli(argv) == 0, argv

    merged = {json.loads(line)["id"]: json.loads(line)["text"]
              for line in Path("merged.jsonl").read_text(encoding="utf-8").splitlines()}
    with open("pairs.jsonl", "w", encoding="utf-8") as fh:
        for line in Path("final.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            fh.write(json.dumps({"candidate": " ".join(row["text"]),
                                 "reference": " ".join(merged[row["id"]])}) + "\n")
    assert cli(["eval", "--in", "pairs.jsonl", "--smooth", "--out", "eval.json"]) == 0
    assert cli(["stats", "--manifest", "final.jsonl", "--out", "stats.json",
                "--hist-csv", "hist"]) == 0

    assert len(list(tmp_path.iterdir())) == 16
    assert _tree_digest(tmp_path) == CHAIN_SHA256
