from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from signsynth import io
from signsynth.cli import cli, load_config
from signsynth.io import (
    read_manifest,
    read_pose_file,
    write_manifest,
    write_pose_file,
    write_raw_landmark_file,
)
from signsynth.pose import FRAME_DIM, PoseSequence, SentenceRecord
from signsynth.templates import PHENOMENA

from .conftest import random_raw_frame

TOY_WORDS = [
    "this", "that", "these", "those", "boy", "girl", "coat", "children", "people",
    "will", "can", "should", "wear", "clean", "see", "hide", "himself", "themselves",
    "who", "and",
]


def data_path(name: str) -> str:
    return str(resources.files("signsynth.data") / name)


def build_lexicon_dir(tmp_path: Path, words=TOY_WORDS, min_len=8, max_len=30) -> Path:
    lex_dir = tmp_path / "lexicon"
    lex_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(99)
    for word in words:
        n = int(rng.integers(min_len, max_len + 1))
        seq = PoseSequence(frames=rng.random((n, FRAME_DIM)), source_id=word)
        write_pose_file(lex_dir / f"{word}.psp", seq)
    return lex_dir


class TestGen:
    def test_covers_all_12_phenomena(self, tmp_path):
        out = tmp_path / "manifest.jsonl"
        stats_path = tmp_path / "stats.json"
        code = cli([
            "gen",
            "--templates", data_path("toy_templates.tsv"),
            "--lexicon", data_path("toy_slot_lexicon.jsonl"),
            "--limit", "30",
            "--out", str(out),
            "--stats", str(stats_path),
        ])
        assert code == 0
        records = read_manifest(out)
        assert {r.phenomenon for r in records} == set(PHENOMENA)
        stats = json.loads(stats_path.read_text())
        assert stats["n_sentences"] == len(records)

    def test_sample_mode_deterministic(self, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert cli([
                "--seed", "7",
                "gen",
                "--templates", data_path("toy_templates.tsv"),
                "--lexicon", data_path("toy_slot_lexicon.jsonl"),
                "--sample", "5",
                "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCorpusCommands:
    def test_filter_strict_threshold(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        # First sentence: 9/10 match (rate 0.9, excluded); second 10/10.
        corpus.write_text(
            "boy girl coat wear clean see hide who can zzz\n"
            "boy girl coat wear clean see hide who can will\n"
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(TOY_WORDS) + "\n")
        out = tmp_path / "kept.jsonl"
        code = cli([
            "filter", "--in", str(corpus), "--vocab", str(vocab),
            "--min-rate", "0.9", "--text", "--out", str(out),
        ])
        assert code == 0
        records = read_manifest(out)
        assert len(records) == 1
        assert records[0].phenomenon == "corpus"

    def test_merge(self, tmp_path):
        manifest = tmp_path / "in.jsonl"
        write_manifest(
            manifest,
            [SentenceRecord(id=f"s{i}", text=("a", "b")) for i in range(10)],
        )
        out = tmp_path / "merged.jsonl"
        code = cli([
            "--seed", "3",
            "merge", "--in", str(manifest), "--max-len", "8",
            "--fraction", "0.9", "--group", "3", "--out", str(out),
        ])
        assert code == 0
        records = read_manifest(out)
        assert sum(1 for r in records if len(r.text) == 6) == 3
        assert sum(1 for r in records if len(r.text) == 2) == 1

    def test_postprocess(self, tmp_path):
        manifest = tmp_path / "in.jsonl"
        write_manifest(
            manifest,
            [
                SentenceRecord(id="a", text=("john", "can", "see")),
                SentenceRecord(id="b", text=("rare", "can", "see")),
                SentenceRecord(id="c", text=("can", "see")),
            ],
        )
        names = tmp_path / "names.txt"
        names.write_text("john\n")
        out = tmp_path / "post.jsonl"
        code = cli([
            "postprocess", "--in", str(manifest), "--names", str(names),
            "--min-freq", "2", "--out", str(out),
        ])
        assert code == 0
        records = {r.id: r for r in read_manifest(out)}
        assert records["a"].text == ("<PERSON>", "can", "see")
        assert records["b"].text == ("<UNKNOWN>", "can", "see")


class TestIngestAndStitch:
    def test_ingest_then_stitch(self, tmp_path, rng):
        raw_dir = tmp_path / "raw"
        raw_dir.mkdir()
        for word in ("hello", "world"):
            frames = [random_raw_frame(rng) for _ in range(12)]
            write_raw_landmark_file(raw_dir / f"{word}.jsonl", frames)
        pose_dir = tmp_path / "poses"
        assert cli([
            "ingest", "--raw-dir", str(raw_dir), "--out-dir", str(pose_dir),
            "--threshold", "0.8",
        ]) == 0
        assert sorted(p.name for p in pose_dir.glob("*.psp")) == [
            "hello.psp", "world.psp",
        ]

        manifest = tmp_path / "sentences.jsonl"
        write_manifest(
            manifest,
            [SentenceRecord(id="s0", text=("hello", "world"))],
        )
        out_dir = tmp_path / "stitched"
        out_manifest = tmp_path / "stitched.jsonl"
        assert cli([
            "stitch", "--manifest", str(manifest), "--lexicon-dir", str(pose_dir),
            "--out-dir", str(out_dir), "--out-manifest", str(out_manifest),
            "--target-mean", "24",
        ]) == 0
        records = read_manifest(out_manifest)
        assert records[0].n_frames == 12 + 12 + 2  # crossfade default 2
        assert Path(records[0].pose_path).exists()

    def test_jobs_byte_identical(self, tmp_path):
        lex_dir = build_lexicon_dir(tmp_path)
        manifest = tmp_path / "sentences.jsonl"
        write_manifest(
            manifest,
            [
                SentenceRecord(id=f"s{i}", text=("boy", "can", "see", "coat"))
                for i in range(12)
            ],
        )
        artifacts = {}
        for jobs in ("1", "8"):
            out_dir = tmp_path / f"out{jobs}"
            out_manifest = tmp_path / f"out{jobs}.jsonl"
            assert cli([
                "--seed", "11", "--jobs", jobs,
                "stitch", "--manifest", str(manifest), "--lexicon-dir", str(lex_dir),
                "--out-dir", str(out_dir), "--out-manifest", str(out_manifest),
                "--target-mean", "40", "--word-order", "rwo",
            ]) == 0
            blobs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.psp"))}
            # Manifest rows reference different directories; compare rows
            # with the pose_path directory stripped.
            rows = [
                json.loads(line) for line in out_manifest.read_text().splitlines()
            ]
            for row in rows:
                row["pose_path"] = Path(row["pose_path"]).name
            artifacts[jobs] = (blobs, rows)
        assert artifacts["1"] == artifacts["8"]


class TestStitchOutputDir:
    def stitch(self, tmp_path, records, *extra):
        lex_dir = build_lexicon_dir(tmp_path)
        manifest = tmp_path / "sentences.jsonl"
        write_manifest(manifest, records)
        return cli([
            *extra, "stitch", "--manifest", str(manifest), "--lexicon-dir", str(lex_dir),
            "--out-dir", str(tmp_path / "out"), "--out-manifest", str(tmp_path / "out.jsonl"),
            "--target-mean", "40",
        ])

    def assert_nothing_written(self, tmp_path):
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "out.jsonl").exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_overlong_id_writes_nothing(self, tmp_path):
        records = [
            SentenceRecord(id="ok1", text=("boy", "can", "see")),
            SentenceRecord(id="x" * 300, text=("girl", "can", "see")),
        ]
        assert self.stitch(tmp_path, records) == 2
        self.assert_nothing_written(tmp_path)

    def test_parent_relative_id_writes_nothing(self, tmp_path, capsys):
        records = [SentenceRecord(id="../escaped", text=("boy", "can", "see"))]
        assert self.stitch(tmp_path, records) == 2
        assert "../escaped" in capsys.readouterr().err
        assert not (tmp_path / "escaped.psp").exists()
        self.assert_nothing_written(tmp_path)

    def test_failure_part_way_writes_nothing(self, tmp_path, monkeypatch):
        real_encode = io.encode_pose
        calls = []

        records = [SentenceRecord(id=f"s{i}", text=("boy", "can", "see")) for i in range(6)]

        def failing_encode(seq):
            if seq.source_id in {r.id for r in records}:  # not a lexicon clip
                calls.append(seq.source_id)
                if len(calls) == 3:
                    raise OSError("disk full")
            return real_encode(seq)

        monkeypatch.setattr(io, "encode_pose", failing_encode)
        assert self.stitch(tmp_path, records) == 2
        assert len(calls) == 3
        self.assert_nothing_written(tmp_path)

    def test_existing_dir_keeps_unrelated_files(self, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("keep me\n")
        (out_dir / "s0.psp").write_bytes(b"stale")
        records = [SentenceRecord(id=f"s{i}", text=("boy", "can", "see")) for i in range(3)]
        assert self.stitch(tmp_path, records, "--seed", "4") == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "notes.txt", "s0.psp", "s1.psp", "s2.psp",
        ]
        assert (out_dir / "notes.txt").read_text() == "keep me\n"
        rows = read_manifest(tmp_path / "out.jsonl")
        for row in rows:
            assert Path(row.pose_path) == out_dir / f"{row.id}.psp"
            assert read_pose_file(row.pose_path).frames.shape[0] == row.n_frames
        assert not list(tmp_path.glob("*.tmp"))


class TestSampleTokenizeEval:
    def test_sample_csv(self, tmp_path):
        out = tmp_path / "schedule.csv"
        assert cli([
            "--seed", "5",
            "sample", "--total-steps", "100", "--real-size", "50",
            "--synth-size", "200", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,real_fraction,source"
        assert len(lines) == 101
        assert lines[1].startswith("0,0.000000,synthetic")

    def test_tokenize_train_and_encode(self, tmp_path):
        manifest = tmp_path / "in.jsonl"
        write_manifest(
            manifest,
            [
                SentenceRecord(id="a", text=("the", "cat", "sat")),
                SentenceRecord(id="b", text=("the", "cat", "ran")),
            ],
        )
        model_path = tmp_path / "model.json"
        assert cli([
            "tokenize", "train", "--in", str(manifest),
            "--model", str(model_path), "--vocab-size", "60",
        ]) == 0
        ids_path = tmp_path / "ids.jsonl"
        assert cli([
            "tokenize", "encode", "--in", str(manifest),
            "--model", str(model_path), "--out", str(ids_path),
        ]) == 0
        rows = [json.loads(line) for line in ids_path.read_text().splitlines()]
        assert [r["id"] for r in rows] == ["a", "b"]
        assert all(isinstance(i, int) for r in rows for i in r["ids"])

    def test_eval_identical_is_100(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        with open(pairs, "w") as fh:
            for i, text in enumerate(["the cat sat on the mat", "a big dog ran fast"]):
                fh.write(json.dumps({"id": str(i), "candidate": text, "reference": text}) + "\n")
        report_path = tmp_path / "report.json"
        assert cli(["eval", "--in", str(pairs), "--out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "BLEU-4: 100.00" in out
        report = json.loads(report_path.read_text())
        assert report["bleu"]["4"] == pytest.approx(100.0)


class TestStatsAndErrors:
    def test_stats_three_rows(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        write_manifest(
            manifest,
            [SentenceRecord(id=f"r{i}", text=("w",) * (i + 1)) for i in range(3)],
        )
        out = tmp_path / "stats.json"
        assert cli([
            "stats", "--manifest", str(manifest), "--out", str(out),
            "--hist-csv", str(tmp_path / "hist"),
        ]) == 0
        stats = json.loads(out.read_text())
        assert stats["n_sentences"] == 3
        assert (tmp_path / "hist_lengths.csv").exists()

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_args_exits_1(self):
        assert cli([]) == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert cli(["stats", "--manifest", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "s.json")]) == 2

    def test_corrupt_manifest_exits_2(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("{bad json\n")
        assert cli(["stats", "--manifest", str(manifest),
                    "--out", str(tmp_path / "s.json")]) == 2

    def test_eval_mismatched_pair_exits_2(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "0", "candidate": "only one side"}) + "\n")
        assert cli(["eval", "--in", str(pairs)]) == 2

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_freq = 5  # like the hyperparameter table\n")
        assert load_config(cfg) == {"min_freq": "5"}
