"""Golden digest of a seeded gen -> stitch run.

The constant below was recorded before the streaming stitch rewrite, so a
pass proves the stitched pose files and manifest are byte-identical to the
per-boundary, thread-pool implementation they replaced.  Paths are relative
to the test's working directory, so manifest ``pose_path`` values carry no
machine-specific prefix.
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from signsynth.cli import cli
from signsynth.io import write_pose_file
from signsynth.pose import FRAME_DIM, PoseSequence
from signsynth.templates import load_slot_lexicon

GOLDEN_SHA256 = "2ecc8bb42b3c6e13e8de3028b7ce1f32685277574e4af8df642356f7a88d724a"


def _tree_digest(out_dir: Path, manifest: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
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
