from __future__ import annotations

import inspect
import itertools
import json
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from signsynth import bpe, cli as cli_module, corpus, curriculum, io, keypoints, stitch
from signsynth.cli import cli, load_config
from signsynth.io import (
    read_manifest,
    read_pose_file,
    write_manifest,
    write_pose_file,
    write_raw_landmark_file,
)
from signsynth.pose import (
    FRAME_DIM,
    LANDMARK_GROUPS,
    PoseFrame,
    PoseSequence,
    RawLandmarkFrame,
    SentenceRecord,
)
from signsynth.templates import PHENOMENA

from .conftest import random_raw_frame
from .test_bpe import OTHER_SPECIALS, model_with_specials

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

    def test_ingest_builds_no_frame_objects(self, tmp_path, rng, monkeypatch):
        # Ingest carries each clip as one (T, 543, 3) array from parse to .psp.
        raw_dir = tmp_path / "raw"
        raw_dir.mkdir()
        write_raw_landmark_file(raw_dir / "w.jsonl", [random_raw_frame(rng) for _ in range(5)])

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built on the ingest path")

        monkeypatch.setattr(RawLandmarkFrame, "__post_init__", refuse)
        monkeypatch.setattr(PoseFrame, "__post_init__", refuse)
        assert cli(["ingest", "--raw-dir", str(raw_dir), "--out-dir", str(tmp_path / "lex")]) == 0
        assert len(read_pose_file(tmp_path / "lex" / "w.psp")) == 5

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

    def test_summary_line(self, tmp_path, capsys):
        # One sentence has a word missing from the lexicon and is skipped; the
        # mean is over the stitched sentences only.
        records = [
            SentenceRecord(id="s0", text=("boy", "can", "see", "coat")),
            SentenceRecord(id="s1", text=("girl", "will", "zebra")),
            SentenceRecord(id="s2", text=("people", "should", "wear", "that", "coat")),
            SentenceRecord(id="s3", text=("children", "hide")),
        ]
        assert self.stitch(tmp_path, records, "--seed", "3") == 0
        assert capsys.readouterr().out == (
            "stitch: 3 sentences (skipped 1), base stride 2, mean frames 47.3\n"
        )

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

    @pytest.mark.parametrize("flag, config", [
        ("nan", None), ("inf", None), (None, "inf"), (None, "nan"),
    ])
    def test_non_finite_target_mean_exits_2(self, tmp_path, capsys, flag, config):
        lex_dir = build_lexicon_dir(tmp_path)
        manifest = tmp_path / "sentences.jsonl"
        write_manifest(manifest, [SentenceRecord(id="s", text=("boy", "can", "see"))])
        argv = []
        if config is not None:
            (tmp_path / "run.cfg").write_text(f"target_mean_frames = {config}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        argv += [
            "stitch", "--manifest", str(manifest), "--lexicon-dir", str(lex_dir),
            "--out-dir", str(tmp_path / "out"), "--out-manifest", str(tmp_path / "out.jsonl"),
        ]
        if flag is not None:
            argv += ["--target-mean", flag]
        assert cli(argv) == 2
        assert capsys.readouterr().err == (
            "signsynth: data error: mean frame counts must be finite and positive\n"
        )
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


class TestIngestOutputDir:
    """ingest publishes its pose files as a set, like stitch."""

    def write_raw(self, raw_dir, rng, n=4, bad=None) -> Path:
        raw_dir.mkdir()
        for i, word in enumerate("abcd"[:n]):
            write_raw_landmark_file(
                raw_dir / f"{word}.jsonl", [random_raw_frame(rng) for _ in range(3)]
            )
            if i == bad:
                with open(raw_dir / f"{word}.jsonl", "a") as fh:
                    fh.write("{oops\n")
        return raw_dir

    def ingest(self, raw_dir, out_dir) -> int:
        return cli(["ingest", "--raw-dir", str(raw_dir), "--out-dir", str(out_dir)])

    def test_bad_third_file_writes_nothing(self, tmp_path, rng, capsys):
        raw_dir = self.write_raw(tmp_path / "raw", rng, bad=2)
        assert self.ingest(raw_dir, tmp_path / "lex") == 2
        assert "c.jsonl:4: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "lex").exists()
        assert not list(tmp_path.rglob("*.psp"))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_empty_raw_dir_creates_no_out_dir(self, tmp_path):
        (tmp_path / "raw").mkdir()
        assert self.ingest(tmp_path / "raw", tmp_path / "lex") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw"]

    def test_existing_dir_keeps_unrelated_files(self, tmp_path, rng):
        out_dir = tmp_path / "lex"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("keep me\n")
        (out_dir / "a.psp").write_bytes(b"stale")
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

        # A failed run leaves the dir as it was; a good one moves its files in.
        assert self.ingest(self.write_raw(tmp_path / "bad", rng, bad=2), out_dir) == 2
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
        assert self.ingest(self.write_raw(tmp_path / "good", rng, n=2), out_dir) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["a.psp", "b.psp", "notes.txt"]
        assert (out_dir / "notes.txt").read_text() == "keep me\n"
        assert len(read_pose_file(out_dir / "a.psp")) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad", "good", "lex"]

    def test_failed_run_removes_parents_it_created(self, tmp_path, rng, capsys):
        raw_dir = self.write_raw(tmp_path / "raw", rng, n=1, bad=0)
        assert self.ingest(raw_dir, tmp_path / "missing" / "deeper" / "lex") == 2
        assert "a.jsonl:4: invalid JSON" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw"]

    def test_case_folded_stem_collision_writes_nothing(self, tmp_path, rng, capsys):
        raw_dir = tmp_path / "raw"
        raw_dir.mkdir()
        for word in ("Boy", "boy", "girl"):
            write_raw_landmark_file(
                raw_dir / f"{word}.jsonl", [random_raw_frame(rng) for _ in range(3)]
            )
        assert self.ingest(raw_dir, tmp_path / "lex") == 2
        err = capsys.readouterr().err
        assert f"{raw_dir / 'Boy.jsonl'} and {raw_dir / 'boy.jsonl'} are both the word 'boy'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw"]


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

    def test_eval_without_pairs_names_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n \n")
        assert cli(["eval", "--in", str(pairs)]) == 2
        assert capsys.readouterr().err == (
            f"signsynth: data error: {pairs}: no candidate-reference pairs\n"
        )

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_tokenize_train_without_records_names_inputs(self, tmp_path, capsys, extra):
        paths = [tmp_path / f"m{i}.jsonl" for i in range(1 + extra)]
        for path in paths:
            write_manifest(path, [])
        model = tmp_path / "model.json"
        argv = ["tokenize", "train", "--in", str(paths[0]), "--model", str(model),
                "--vocab-size", "60"]
        assert cli(argv + (["--extra", *map(str, paths[1:])] if extra else [])) == 2
        named = ", ".join(map(str, paths))
        assert capsys.readouterr().err == f"signsynth: data error: {named}: no records to train on\n"
        assert not model.exists()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_freq = 5  # like the hyperparameter table\n")
        assert load_config(cfg) == {"min_freq": "5"}


class TestMalformedJsonLines:
    """Every JSON-lines input goes through one reader, so a bad line is a
    data error (exit 2) that cites ``path:line``, never a traceback."""

    def argv(self, command, path: Path, tmp_path: Path) -> list[str]:
        return {
            "stats": ["stats", "--manifest", str(path), "--out", str(tmp_path / "s.json")],
            "eval": ["eval", "--in", str(path)],
            "ingest": ["ingest", "--raw-dir", str(path.parent), "--out-dir", str(tmp_path / "lex")],
            "gen": ["gen", "--templates", data_path("toy_templates.tsv"), "--lexicon", str(path),
                    "--out", str(tmp_path / "m.jsonl")],
        }[command]

    def run(self, tmp_path, capsys, command, lines, newline="\n") -> str:
        path = tmp_path / "in" / "word.jsonl"
        path.parent.mkdir()
        path.write_bytes(b"".join(
            (line if isinstance(line, bytes) else line.encode()) + newline.encode()
            for line in lines
        ))
        assert cli(self.argv(command, path, tmp_path)) == 2
        return capsys.readouterr().err.replace(str(path), "PATH")

    @pytest.mark.parametrize("command", ["stats", "eval", "ingest", "gen"])
    def test_non_object_line_exits_2(self, tmp_path, capsys, command):
        err = self.run(tmp_path, capsys, command, ["[1]"])
        assert "PATH:1: expected a JSON object, got list" in err

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("command", ["stats", "eval", "ingest", "gen"])
    def test_invalid_utf8_cites_line(self, tmp_path, capsys, command, newline):
        err = self.run(tmp_path, capsys, command, ["", " ", b"\xff\xfe"], newline)
        assert "PATH:3: invalid UTF-8" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"word": "girl"}, "missing key 'category'"),
            ({"category": "N", "word": 3}, "category, word and pose_source must be strings"),
            ({"category": "N", "word": "girl", "features": ["num"]},
             "features must be an object"),
        ],
    )
    def test_slot_lexicon_bad_line_cites_line(self, tmp_path, capsys, row, message):
        lines = [json.dumps({"category": "N", "word": "boy"}), json.dumps(row)]
        err = self.run(tmp_path, capsys, "gen", lines)
        assert f"PATH:2: {message}" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"id": 5, "text": ["a"]}, "id must be a string"),
            ({"id": "r", "text": "hello world"}, "text must be a list of strings"),
            ({"id": "r", "text": ["a", 3]}, "text must be a list of strings"),
            ({"id": "r", "text": ["a"], "phenomenon": 3}, "phenomenon must be a string"),
            ({"id": "r", "text": ["a"], "n_frames": "9"}, "n_frames must be an integer"),
            ({"id": "r", "text": ["a"], "pose_path": 5, "n_frames": 9},
             "pose_path must be a string"),
        ],
    )
    def test_manifest_field_types(self, tmp_path, capsys, row, message):
        err = self.run(tmp_path, capsys, "stats", [json.dumps(row)])
        assert "PATH:1:" in err
        assert message in err

    @pytest.mark.parametrize(
        "pair", [{"candidate": 3, "reference": "a b"}, {"candidate": "a b", "reference": ["a"]}]
    )
    def test_eval_non_string_side_cites_line(self, tmp_path, capsys, pair):
        lines = [json.dumps({"candidate": "a b", "reference": "a b"}), json.dumps(pair)]
        err = self.run(tmp_path, capsys, "eval", lines)
        assert "PATH:2: candidate and reference must be strings" in err


class TestHostileJsonLines:
    """Lines that the stdlib JSON parser reads in its own way keep the exit
    code and message they had before JSON lines were parsed with orjson."""

    def ingest_second_line(self, tmp_path, capsys, rng, line: str) -> tuple[int, str]:
        raw_dir = tmp_path / "raw"
        raw_dir.mkdir()
        path = raw_dir / "word.jsonl"
        write_raw_landmark_file(path, [random_raw_frame(rng)])
        with open(path, "a") as fh:
            fh.write(line + "\n")
        code = cli(["ingest", "--raw-dir", str(raw_dir), "--out-dir", str(tmp_path / "lex")])
        assert not (tmp_path / "lex").exists()
        return code, capsys.readouterr().err.replace(str(path), "PATH")

    def frame_obj(self, rng) -> dict:
        frame = random_raw_frame(rng)
        return {name: getattr(frame, name).tolist() for name in LANDMARK_GROUPS}

    def test_bare_nan_coordinate(self, tmp_path, capsys, rng):
        obj = self.frame_obj(rng)
        obj["body"][0][0] = float("nan")
        line = json.dumps(obj)
        assert "[NaN, " in line
        code, err = self.ingest_second_line(tmp_path, capsys, rng, line)
        assert code == 2
        assert "PATH:2: body: contains non-finite values" in err

    def test_30_digit_integer_coordinate(self, tmp_path, capsys, rng):
        # An integer is judged by its value, as the same number written as a
        # float: beyond float32 it is non-finite, else it is a coordinate.
        cases = [
            ("123456789012345678901234567890", True),
            (str(10**29), True),
            ("1e29", True),
            (str(2**64), True),
            (str(-(2**63) - 1), True),
            (str(10**39), False),
            ("1e39", False),
            (str(10**400), False),
            (str(-(10**400)), False),
            ("1e400", False),
        ]
        for i, (number, accepted) in enumerate(cases):
            obj = self.frame_obj(rng)
            obj["body"][0][0] = "NUMBER"
            raw_dir = tmp_path / f"raw{i}"
            raw_dir.mkdir()
            path = raw_dir / "word.jsonl"
            path.write_text(json.dumps(obj).replace('"NUMBER"', number) + "\n")
            out_dir = tmp_path / f"lex{i}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy overflow warning either
                code = cli(["ingest", "--raw-dir", str(raw_dir), "--out-dir", str(out_dir)])
            err = capsys.readouterr().err.replace(str(path), "PATH")
            if accepted:
                assert (code, err) == (0, ""), number
                body_x = read_pose_file(out_dir / "word.psp").frames[0, 0]
                assert body_x == np.float32(float(number)), number
            else:
                assert code == 2, number
                assert err == "signsynth: data error: PATH:1: body: contains non-finite values\n"
                assert not out_dir.exists(), number

    def test_json_true_coordinate(self, tmp_path, capsys, rng):
        obj = self.frame_obj(rng)
        obj["body"][0][0] = True
        code, err = self.ingest_second_line(tmp_path, capsys, rng, json.dumps(obj))
        assert code == 2
        assert "PATH:2: body: expected 33 points of 3 numbers [x, y, c]" in err

    def test_extra_key_nested_5000_deep(self, tmp_path, capsys, rng):
        line = json.dumps(self.frame_obj(rng))[:-1] + ', "extra": ' + "[" * 5000 + "]" * 5000 + "}"
        code, err = self.ingest_second_line(tmp_path, capsys, rng, line)
        assert code == 2
        assert "PATH:2: invalid JSON: maximum recursion depth exceeded" in err

    def test_stats_on_n_frames_2_pow_70(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "r", "text": ["a"], "n_frames": 2**70}) + "\n")
        out = tmp_path / "stats.json"
        assert cli(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert stats["frame_histogram"]["bins"] == {str(2**70): 1}
        assert stats["frame_histogram"]["total"] == 1


class TestLineInputs:
    """The text inputs go through the same line reader as JSON lines, so a
    bad line is a data error (exit 2) that cites ``path:line``."""

    def argv(self, kind: str, path: Path, tmp_path: Path) -> list[str]:
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("boy can see\n")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("boy\n")
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, [SentenceRecord(id="a", text=("boy", "can", "see"))])
        out = str(tmp_path / "out.jsonl")
        return {
            "corpus": ["filter", "--in", str(path), "--text", "--vocab", str(vocab), "--out", out],
            "vocab": ["filter", "--in", str(corpus), "--text", "--vocab", str(path), "--out", out],
            "names": ["postprocess", "--in", str(manifest), "--names", str(path), "--out", out],
            "templates": ["gen", "--templates", str(path),
                          "--lexicon", data_path("toy_slot_lexicon.jsonl"), "--out", out],
            "config": ["--config", str(path), "stats", "--manifest", str(manifest), "--out", out],
        }[kind]

    FIRST_LINE = {
        "corpus": b"boy can see",
        "vocab": b"boy",
        "names": b"john",
        "templates": b"t1\tcustom\tSubj[] V[]",
        "config": b"min_freq = 3",
    }

    def run(self, tmp_path, capsys, kind: str, second: bytes, code: int = 2) -> str:
        path = tmp_path / "input.txt"
        path.write_bytes(self.FIRST_LINE[kind] + b"\n" + second + b"\n")
        assert cli(self.argv(kind, path, tmp_path)) == code
        assert not (tmp_path / "out.jsonl").exists()
        return capsys.readouterr().err.replace(str(path), "PATH")

    @pytest.mark.parametrize("kind", ["corpus", "vocab", "names", "templates", "config"])
    def test_invalid_utf8_cites_line(self, tmp_path, capsys, kind):
        err = self.run(tmp_path, capsys, kind, b"ok \xff\xfe")
        assert "PATH:2: invalid UTF-8" in err

    def test_malformed_template_cites_line(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "templates", b"t2\tcustom\tSubj[ V[]")
        assert "PATH:2: malformed slot 'Subj['" in err

    def test_unknown_config_setting_cites_line(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "config", b"vocab_sise = 20")
        assert "PATH:2: unknown setting 'vocab_sise'" in err

    def test_repeated_config_setting_cites_line(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "config", b"min_freq = 4")
        assert "PATH:2: setting 'min_freq' given twice" in err

    def test_bad_config_value_cites_line(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "config", b"vocab_size = many")
        assert "PATH:2: invalid literal for int()" in err


class TestConfigSettings:
    """Precedence of each setting: explicit flag > config file > default."""

    def postprocess_unknowns(self, tmp_path, config: str | None, *flags: str) -> int:
        manifest = tmp_path / "m.jsonl"
        # Frequencies: a 3, b 2, c 1.
        write_manifest(manifest, [
            SentenceRecord(id="r1", text=("a", "a", "b")),
            SentenceRecord(id="r2", text=("a", "b", "c")),
        ])
        argv = []
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "post.jsonl"
        assert cli([*argv, "postprocess", "--in", str(manifest), *flags, "--out", str(out)]) == 0
        return sum(tok == "<UNKNOWN>" for r in read_manifest(out) for tok in r.text)

    @pytest.mark.parametrize(
        "config, flags, unknowns",
        [
            (None, (), 3),                          # default min_freq 3: b and c
            ("min_freq = 2\n", (), 1),              # config: c only
            ("min_freq = 2\n", ("--min-freq", "4"), 6),  # flag: a, b and c
        ],
    )
    def test_min_freq(self, tmp_path, config, flags, unknowns):
        assert self.postprocess_unknowns(tmp_path, config, *flags) == unknowns

    def train_merges(self, tmp_path, config: str | None, *flags: str) -> tuple[int, int]:
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, [
            SentenceRecord(id="a", text=("the", "cat", "sat")),
            SentenceRecord(id="b", text=("the", "cat", "ran")),
        ])
        argv = []
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = ["--config", str(tmp_path / "run.cfg")]
        model_path = tmp_path / "model.json"
        assert cli([
            *argv, "tokenize", "train", "--in", str(manifest), "--model", str(model_path), *flags,
        ]) == 0
        model = bpe.load_model(model_path)
        return len(model.vocab) - len(model.merges), len(model.merges)

    def test_vocab_size(self, tmp_path):
        base, default_merges = self.train_merges(tmp_path, None)
        assert default_merges > 2  # the 15,000 default leaves every merge in
        assert self.train_merges(tmp_path, f"vocab_size = {base + 1}\n") == (base, 1)
        assert self.train_merges(
            tmp_path, f"vocab_size = {base + 1}\n", "--vocab-size", str(base + 2)
        ) == (base, 2)


    # Every config setting: its subcommand, its flag, its default (None: the
    # setting is required), a config value and a flag value, and the library
    # call it reaches: (module, function, parameter, attribute of that
    # argument or None).
    SETTING_CASES = {
        "min_rate": ("filter", "--min-rate", 0.9, "0.5", "0.25",
                     (corpus, "filter_corpus", "min_rate", None)),
        "max_len": ("merge", "--max-len", 8, "5", "6",
                    (corpus, "merge_short", "policy", "max_len")),
        "fraction": ("merge", "--fraction", 0.9, "0.5", "0.25",
                     (corpus, "merge_short", "policy", "fraction")),
        "group": ("merge", "--group", 3, "4", "5",
                  (corpus, "merge_short", "policy", "group")),
        "min_freq": ("postprocess", "--min-freq", 3, "4", "5",
                     (corpus, "replace_rare_and_names", "min_freq", None)),
        "threshold": ("ingest", "--threshold", 0.8, "0.5", "0.25",
                      (keypoints, "process_word_video", "threshold", None)),
        "crossfade_frames": ("stitch", "--crossfade", 2, "4", "5",
                             (stitch, "stitch_dataset", "cfg", "crossfade_frames")),
        "target_mean_frames": ("stitch", "--target-mean", None, "30", "40",
                               (stitch, "stitch_dataset", "target_mean_frames", None)),
        "max_real_fraction": ("sample", "--max-real", 0.85, "0.5", "0.25",
                              (curriculum, "write_schedule_csv", "sched", "max_real_fraction")),
        "ramp_steps": ("sample", "--ramp", 60_000, "4", "5",
                       (curriculum, "write_schedule_csv", "sched", "ramp_steps")),
        "vocab_size": ("tokenize", "--vocab-size", 15_000, "40", "50",
                       (bpe, "bpe_train", "vocab_size", None)),
    }

    class Reached(Exception):
        """Raised by a patched library call, carrying the value it was given."""

    def command_argv(self, tmp_path, command: str) -> list[str]:
        """A runnable invocation of ``command`` up to its library call."""
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, [SentenceRecord(id="r", text=("boy", "can", "see"))])
        out = str(tmp_path / "out")
        if command == "filter":
            vocab = tmp_path / "vocab.txt"
            vocab.write_text("boy\n")
            return ["filter", "--in", str(manifest), "--vocab", str(vocab), "--out", out]
        if command in ("merge", "postprocess"):
            return [command, "--in", str(manifest), "--out", out]
        if command == "ingest":
            raw_dir = tmp_path / "raw"
            raw_dir.mkdir()
            rng = np.random.default_rng(0)
            write_raw_landmark_file(raw_dir / "boy.jsonl", [random_raw_frame(rng)])
            return ["ingest", "--raw-dir", str(raw_dir), "--out-dir", out]
        if command == "stitch":
            return ["stitch", "--manifest", str(manifest),
                    "--lexicon-dir", str(build_lexicon_dir(tmp_path, words=("boy", "see"))),
                    "--out-dir", out, "--out-manifest", str(tmp_path / "out.jsonl")]
        if command == "sample":
            return ["sample", "--total-steps", "1", "--real-size", "1", "--synth-size", "1",
                    "--out", out]
        assert command == "tokenize"
        return ["tokenize", "train", "--in", str(manifest), "--model", out]

    def test_cases_cover_every_setting(self):
        assert set(self.SETTING_CASES) == set(cli_module.SETTINGS)

    @pytest.mark.parametrize("source", ["default", "config", "flag"])
    @pytest.mark.parametrize("name", sorted(SETTING_CASES))
    def test_precedence_reaches_library(self, tmp_path, monkeypatch, name, source):
        command, flag, default, config_value, flag_value, target = self.SETTING_CASES[name]
        module, function, parameter, attribute = target
        signature = inspect.signature(getattr(module, function))

        def spy(*args, **kwargs):
            value = signature.bind(*args, **kwargs).arguments[parameter]
            raise self.Reached(value if attribute is None else getattr(value, attribute))

        monkeypatch.setattr(module, function, spy)
        argv = self.command_argv(tmp_path, command)
        if source != "default":
            (tmp_path / "run.cfg").write_text(f"{name} = {config_value}\n")
            argv = ["--config", str(tmp_path / "run.cfg"), *argv]
        if source == "flag":
            argv += [flag, flag_value]
        if name != "target_mean_frames" and command == "stitch":
            argv += ["--target-mean", "30"]
        kind = float if default is None else type(default)
        expected = {"default": default, "config": kind(config_value),
                    "flag": kind(flag_value)}[source]
        if expected is None:  # a required setting left unset is a usage error
            assert cli(argv) == 1
            return
        with pytest.raises(self.Reached) as reached:
            cli(argv)
        (value,) = reached.value.args
        assert value == expected and type(value) is kind

    @pytest.mark.parametrize("bad_input", ["manifest", "lexicon_dir"])
    def test_required_setting_is_checked_before_inputs(self, tmp_path, capsys, bad_input):
        argv = self.command_argv(tmp_path, "stitch")
        if bad_input == "manifest":
            (tmp_path / "m.jsonl").write_text('{"id": 5}\n')  # missing key 'text'
        else:
            (tmp_path / "empty").mkdir()  # no .psp files found
            argv[argv.index("--lexicon-dir") + 1] = str(tmp_path / "empty")
        assert cli(argv) == 1
        err = capsys.readouterr().err
        assert "--target-mean is required (or target_mean_frames in --config)" in err

    @pytest.mark.parametrize("command", [
        "gen", "filter", "merge", "postprocess", "ingest", "stitch", "sample", "tokenize",
        "eval", "stats",
    ])
    def test_help_lists_setting_flags(self, capsys, command):
        assert cli([command, "--help"]) == 0
        out = capsys.readouterr().out
        for setting_command, flag, *_ in self.SETTING_CASES.values():
            if setting_command == command:
                assert f"{flag} " in out

    def test_readme_table_matches_settings(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
        rows = [
            tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
            for line in section.splitlines()
            if line.startswith("| `")
        ]
        assert rows == [
            (name, s.command, s.flag, "required" if s.default is None else str(s.default))
            for name, s in cli_module.SETTINGS.items()
        ]


class TestSmallerFixes:
    def test_gen_limit_and_sample_are_exclusive(self, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        assert cli([
            "gen", "--templates", data_path("toy_templates.tsv"),
            "--lexicon", data_path("toy_slot_lexicon.jsonl"),
            "--limit", "1", "--sample", "3", "--out", str(out),
        ]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_unknown_slot_category_names_template(self, tmp_path, capsys):
        templates = tmp_path / "templates.tsv"
        templates.write_text("t1\tcustom\tFoo[] V[]\n")
        lexicon = tmp_path / "slots.jsonl"
        lexicon.write_text(json.dumps({"category": "V", "word": "see"}) + "\n")
        out = tmp_path / "m.jsonl"
        assert cli([
            "gen", "--templates", str(templates), "--lexicon", str(lexicon), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"signsynth: data error: {templates}: template 't1': unknown slot category 'Foo'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--limit", "-3"],
        ["gen", "--sample", "-3"],
        ["sample", "--real-size", "5", "--synth-size", "5", "--total-steps", "-5"],
        ["sample", "--total-steps", "0", "--synth-size", "5", "--real-size", "0"],
        ["sample", "--total-steps", "0", "--real-size", "5", "--synth-size", "-1"],
    ], ids=" ".join)
    def test_negative_counts_are_usage_errors(self, tmp_path, capsys, argv):
        # The last flag of each argv holds the bad count.
        inputs = []
        if argv[0] == "gen":
            inputs = ["--templates", data_path("toy_templates.tsv"),
                      "--lexicon", data_path("toy_slot_lexicon.jsonl")]
        out = tmp_path / "out"
        assert cli([*argv, *inputs, "--out", str(out)]) == 1
        assert f"argument {argv[-2]}: must be at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_is_usage_error(self, tmp_path, capsys, jobs):
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, [SentenceRecord(id="s1", text=("a",))])
        out = tmp_path / "stats.json"
        assert cli(["--jobs", jobs, "stats", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("max_len", ["0", "-5"])
    def test_merge_rejects_max_len_below_1(self, tmp_path, capsys, max_len):
        manifest = tmp_path / "in.jsonl"
        write_manifest(manifest, [SentenceRecord(id=f"s{i}", text=("a",)) for i in range(3)])
        out = tmp_path / "merged.jsonl"
        assert cli(["merge", "--in", str(manifest), f"--max-len={max_len}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"signsynth: data error: max_len must be >= 1, got {max_len}\n"
        )
        assert not out.exists()

    def test_merged_id_that_repeats_an_id_names_the_output(self, tmp_path, capsys):
        manifest = tmp_path / "in.jsonl"
        ids = ("a", "b", "c", "a+b+c")
        write_manifest(manifest, [SentenceRecord(id=i, text=("x",)) for i in ids])
        out = tmp_path / "merged.jsonl"
        assert cli(["merge", "--in", str(manifest), "--fraction", "1.0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"signsynth: data error: {out}: duplicate record id 'a+b+c'\n"
        )
        assert not out.exists()

    def test_stats_rejects_n_frames_below_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(
            json.dumps({"id": f"r{n}", "text": ["a"], "n_frames": n}) + "\n" for n in (-5, 0)
        ))
        out = tmp_path / "stats.json"
        assert cli(["stats", "--manifest", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err.replace(str(manifest), "PATH")
        assert "PATH:1: record 'r-5': n_frames must be at least 1" in err
        assert not out.exists()

    def test_malformed_jitter_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli([
            "stitch", "--manifest", str(tmp_path / "m.jsonl"), "--lexicon-dir", str(tmp_path),
            "--out-dir", str(out_dir), "--out-manifest", str(tmp_path / "out.jsonl"),
            "--target-mean", "30", "--jitter", "1,x",
        ]) == 1
        err = capsys.readouterr().err
        assert "argument --jitter: invalid comma-separated int value: '1,x'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("header", [
        b"[1]",
        b"",
        b"not json",
        json.dumps({"version": "psp-v1", "n_frames": True, "dims": FRAME_DIM}).encode(),
        json.dumps({"version": "psp-v1", "n_frames": 1, "dims": float(FRAME_DIM)}).encode(),
        json.dumps({"version": "psp-v1", "n_frames": 1, "dims": FRAME_DIM,
                    "source_id": {"a": 1}}).encode(),
    ], ids=["list", "blank", "not-json", "n_frames-true", "dims-float", "source_id-object"])
    def test_malformed_pose_header_names_file(self, tmp_path, capsys, header):
        lex_dir = build_lexicon_dir(tmp_path, words=("boy",))
        bad = lex_dir / "see.psp"
        bad.write_bytes(header + b"\n" + bytes(FRAME_DIM * 4))
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, [SentenceRecord(id="s", text=("boy", "see"))])
        assert cli([
            "stitch", "--manifest", str(manifest), "--lexicon-dir", str(lex_dir),
            "--out-dir", str(tmp_path / "out"), "--out-manifest", str(tmp_path / "out.jsonl"),
            "--target-mean", "30",
        ]) == 2
        assert capsys.readouterr().err.startswith(f"signsynth: data error: {bad}: ")

    @pytest.mark.parametrize("model", [
        b"[1]",
        b"",
        b"not json",
        b"\xff",
        b'{"version": "bpe-v1"}',
        b'{"version": "bpe-v1", "merges": [[1, 2]], "vocab": {}, "specials": []}',
        b'{"version": "bpe-v1", "merges": [["a"]], "vocab": {}, "specials": []}',
        b'{"version": "bpe-v1", "merges": {}, "vocab": {}, "specials": []}',
        b'{"version": "bpe-v1", "merges": [], "vocab": [], "specials": []}',
        b'{"version": "bpe-v1", "merges": [], "vocab": {"a": "0"}, "specials": []}',
        b'{"version": "bpe-v1", "merges": [], "vocab": {"a": true}, "specials": []}',
        b'{"version": "bpe-v1", "merges": [], "vocab": {"a": 0}, "specials": [0]}',
        b'{"version": "bpe-v1", "merges": [], "vocab": {"a": 0}, "specials": "a"}',
        b'{"version": "bpe-v1", "merges": [], "vocab": {"<pad>": 0, "h": 1},'
        b' "specials": ["<pad>"]}',
        *map(model_with_specials, OTHER_SPECIALS.values()),
    ], ids=[
        "list", "empty", "not-json", "bad-utf8", "no-merges", "int-merge", "short-merge",
        "merges-object", "vocab-list", "vocab-str-id", "vocab-bool-id", "int-special",
        "specials-string", "no-unk", *(f"specials-{name}" for name in OTHER_SPECIALS),
    ])
    def test_bad_bpe_model_names_file(self, tmp_path, capsys, model):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(model)
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, [SentenceRecord(id="s", text=("a",))])
        out = tmp_path / "ids.jsonl"
        assert cli([
            "tokenize", "encode", "--in", str(manifest), "--model", str(model_path),
            "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err.startswith(f"signsynth: data error: {model_path}: ")
        assert not out.exists()


def workspace_tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, hidden ones too, with a file's bytes (None
    for a directory)."""
    return {
        str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
        for p in sorted(root.rglob("*"))
    }


class TestOneCommitPerCommand:
    """A command that fails publishes none of its outputs, even when the
    failure comes after its other outputs are complete."""

    def test_stitch_out_manifest_dir_publishes_no_pose_file(self, tmp_path, capsys):
        lex_dir = build_lexicon_dir(tmp_path, words=("boy", "can", "see"))
        manifest = tmp_path / "sentences.jsonl"
        write_manifest(manifest, [
            SentenceRecord(id=f"s{i}", text=("boy", "can", "see")) for i in range(4)
        ])
        (tmp_path / "stitched.jsonl").mkdir()
        before = workspace_tree(tmp_path)
        assert cli([
            "stitch", "--manifest", str(manifest), "--lexicon-dir", str(lex_dir),
            "--out-dir", str(tmp_path / "poses"),
            "--out-manifest", str(tmp_path / "stitched.jsonl"), "--target-mean", "40",
        ]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert workspace_tree(tmp_path) == before

    def test_gen_stats_dir_publishes_no_manifest(self, tmp_path, capsys):
        (tmp_path / "stats").mkdir()
        before = workspace_tree(tmp_path)
        assert cli([
            "gen", "--templates", data_path("toy_templates.tsv"),
            "--lexicon", data_path("toy_slot_lexicon.jsonl"), "--limit", "2",
            "--out", str(tmp_path / "m.jsonl"), "--stats", str(tmp_path / "stats"),
        ]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert workspace_tree(tmp_path) == before

    def test_stats_hist_csv_in_missing_dir_publishes_no_stats(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, [SentenceRecord(id="r", text=("a", "b"))])
        before = workspace_tree(tmp_path)
        assert cli([
            "stats", "--manifest", str(manifest), "--out", str(tmp_path / "stats.json"),
            "--hist-csv", str(tmp_path / "missing" / "hist"),
        ]) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert workspace_tree(tmp_path) == before


# The run_pipeline.sh chain on a small workspace, plus the ingest that builds
# its lexicon.  Paths are relative to the workspace.
_SWEEP_CHAIN = {
    "gen": [
        "--seed", "7", "gen", "--templates", data_path("toy_templates.tsv"),
        "--lexicon", data_path("toy_slot_lexicon.jsonl"), "--limit", "1",
        "--out", "template_sentences.jsonl", "--stats", "template_stats.json",
    ],
    "filter": [
        "filter", "--in", "corpus.txt", "--text", "--vocab", "vocab.txt", "--min-rate", "0.5",
        "--out", "corpus_matched.jsonl",
    ],
    "merge": [
        "--seed", "7", "merge", "--in", "corpus_matched.jsonl", "--max-len", "8",
        "--fraction", "0.9", "--group", "3", "--out", "corpus_merged.jsonl",
    ],
    "postprocess": [
        "postprocess", "--in", "corpus_merged.jsonl", "--names", "names.txt", "--min-freq", "2",
        "--count-extra", "template_sentences.jsonl", "--out", "corpus_final.jsonl",
    ],
    "ingest": ["ingest", "--raw-dir", "raw", "--out-dir", "lexicon"],
    "stitch": [
        "--seed", "7", "--skip-oov", "stitch", "--manifest", "template_sentences.jsonl",
        "--lexicon-dir", "lexicon", "--out-dir", "poses", "--out-manifest", "stitched.jsonl",
        "--target-mean", "6", "--jitter", "1,2",
    ],
    "sample": [
        "--seed", "7", "sample", "--total-steps", "50", "--real-size", "10",
        "--synth-size", "20", "--out", "schedule.csv",
    ],
    "tokenize train": [
        "tokenize", "train", "--in", "stitched.jsonl", "--extra", "corpus_final.jsonl",
        "--vocab-size", "60", "--model", "bpe.json",
    ],
    "tokenize encode": [
        "tokenize", "encode", "--in", "stitched.jsonl", "--model", "bpe.json",
        "--out", "encoded.jsonl",
    ],
    "eval": ["eval", "--in", "pairs.jsonl", "--out", "eval_report.json"],
    "stats": [
        "stats", "--manifest", "stitched.jsonl", "--out", "dataset_stats.json",
        "--hist-csv", "hist",
    ],
}


class TestFaultSweep:
    """For each command of the chain and every k up to the count in a clean
    run, a fault at the k-th pose encode, or at the k-th exclusive create of
    a staged file, exits 2 and leaves the workspace tree as it was."""

    def build_workspace(self, root: Path, rng) -> None:
        (root / "raw").mkdir()
        for word in ("this", "boy", "can", "see"):
            write_raw_landmark_file(root / "raw" / f"{word}.jsonl", [random_raw_frame(rng)] * 2)
        (root / "vocab.txt").write_text("this\nboy\ncan\nsee\nthat\n")
        (root / "names.txt").write_text("Alice\n")
        words = ["this", "boy", "can", "see", "that", "Alice", "zebra"]
        (root / "corpus.txt").write_text("".join(
            " ".join(words[(i + j) % len(words)] for j in range(1 + i % 4)) + "\n"
            for i in range(12)
        ))
        (root / "pairs.jsonl").write_text("".join(
            json.dumps({"candidate": c, "reference": "this boy can see"}) + "\n"
            for c in ("this boy can see", "that boy can see")
        ))

    @staticmethod
    def inject(monkeypatch, kind: str, k: int) -> list:
        """Make the k-th call of the kind raise; return the calls seen."""
        calls = []
        real = io.encode_pose if kind == "encode" else open

        def faulty(*args, **kwargs):
            if kind == "encode" or args[1].startswith("x"):  # open's mode
                calls.append(args[0])
                if len(calls) == k:
                    raise OSError(f"injected fault at {kind} call {k}")
            return real(*args, **kwargs)

        # A module global named "open" shadows the builtin inside signsynth.io.
        monkeypatch.setattr(io, "encode_pose" if kind == "encode" else "open", faulty,
                            raising=False)
        return calls

    def test_every_fault_leaves_the_workspace_unchanged(self, tmp_path, rng, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.build_workspace(tmp_path, rng)
        faults = {}
        for command, argv in _SWEEP_CHAIN.items():
            for kind in ("encode", "open"):
                for k in itertools.count(1):
                    before = workspace_tree(tmp_path)
                    with monkeypatch.context() as m:
                        calls = self.inject(m, kind, k)
                        code = cli(argv)
                    if len(calls) < k:  # the fault was not reached: a clean run
                        assert code == 0, argv
                        break
                    assert code == 2, (argv, kind, k)
                    assert workspace_tree(tmp_path) == before, (argv, kind, k)
                faults[command, kind] = k - 1
        assert faults["ingest", "encode"] == faults["ingest", "open"] == 4
        assert faults["stitch", "encode"] > 0
        assert faults["stitch", "open"] == faults["stitch", "encode"] + 1
        assert faults["gen", "open"] == 2 and faults["stats", "open"] == 3
        assert all(n == 0 for (command, kind), n in faults.items()
                   if kind == "encode" and command not in ("ingest", "stitch"))
        assert all(n > 0 for (command, kind), n in faults.items() if kind == "open")
