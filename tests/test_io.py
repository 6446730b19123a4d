from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsynth import bpe, cli, curriculum, templates
from signsynth.io import (
    DataError,
    atomic_open,
    check_file_stem,
    compute_stats,
    load_sign_lexicon,
    read_manifest,
    read_pose_file,
    read_raw_landmark_file,
    read_text_corpus,
    staged_dir,
    write_manifest,
    write_pose_file,
    write_raw_landmark_file,
)
from signsynth.pose import FRAME_DIM, PoseSequence, SentenceRecord

from .conftest import random_raw_frame


def random_sequence(rng, n=None, source_id="seq"):
    n = n or int(rng.integers(1, 40))
    return PoseSequence(frames=rng.random((n, FRAME_DIM)), source_id=source_id)


class TestPoseFile:
    def test_round_trip(self, rng, tmp_path):
        seq = random_sequence(rng, source_id="word-7")
        path = tmp_path / "word.psp"
        write_pose_file(path, seq)
        again = read_pose_file(path)
        assert np.array_equal(again.frames, seq.frames)
        assert again.source_id == "word-7"

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed, n):
        import tempfile, os

        seq = PoseSequence(frames=np.random.default_rng(seed).random((n, FRAME_DIM)))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.psp")
            write_pose_file(path, seq)
            assert np.array_equal(read_pose_file(path).frames, seq.frames)

    def test_truncated_payload_errors(self, rng, tmp_path):
        path = tmp_path / "word.psp"
        write_pose_file(path, random_sequence(rng))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(DataError, match="payload"):
            read_pose_file(path)

    def test_malformed_header_errors(self, tmp_path):
        path = tmp_path / "bad.psp"
        path.write_bytes(b"not json\n" + b"\x00" * 8)
        with pytest.raises(DataError, match="header"):
            read_pose_file(path)

    def test_wrong_version_errors(self, tmp_path):
        path = tmp_path / "bad.psp"
        header = {"version": "psp-v0", "n_frames": 1, "dims": FRAME_DIM, "source_id": ""}
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * FRAME_DIM * 4)
        with pytest.raises(DataError, match="version"):
            read_pose_file(path)

    def test_nan_payload_errors(self, tmp_path):
        header = {"version": "psp-v1", "n_frames": 1, "dims": FRAME_DIM, "source_id": ""}
        payload = np.full((1, FRAME_DIM), np.nan, dtype="<f4").tobytes()
        path = tmp_path / "nan.psp"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(DataError, match="non-finite"):
            read_pose_file(path)

    def test_lexicon_dir_loading(self, rng, tmp_path):
        for word in ("Alpha", "beta"):
            write_pose_file(
                tmp_path / f"{word}.psp", random_sequence(rng, source_id=word)
            )
        lex = load_sign_lexicon(tmp_path)
        assert lex.words() == {"alpha", "beta"}

    def test_empty_lexicon_dir_errors(self, tmp_path):
        with pytest.raises(DataError, match="no .psp"):
            load_sign_lexicon(tmp_path)


class TestRawLandmarkFile:
    def test_round_trip(self, rng, tmp_path):
        frames = [random_raw_frame(rng) for _ in range(3)]
        path = tmp_path / "word.jsonl"
        write_raw_landmark_file(path, frames)
        again = read_raw_landmark_file(path)
        assert len(again) == 3
        for a, b in zip(frames, again):
            assert np.array_equal(a.stacked(), b.stacked())

    def test_wrong_body_count_cites_line(self, rng, tmp_path):
        frames = [random_raw_frame(rng), random_raw_frame(rng)]
        path = tmp_path / "word.jsonl"
        write_raw_landmark_file(path, frames)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["body"] = obj["body"][:32]
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":2"):
            read_raw_landmark_file(path)

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(DataError, match=":1"):
            read_raw_landmark_file(path)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, seed, n):
        import tempfile, os

        rng = np.random.default_rng(seed)
        frames = [random_raw_frame(rng) for _ in range(n)]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "w.jsonl")
            write_raw_landmark_file(path, frames)
            again = read_raw_landmark_file(path)
            assert all(
                np.array_equal(a.stacked(), b.stacked()) for a, b in zip(frames, again)
            )


class TestManifest:
    def records(self):
        return [
            SentenceRecord(id="a", text=("hello", "world"), phenomenon="corpus"),
            SentenceRecord(
                id="b", text=("hi",), word_order="rwo", pose_path="b.psp", n_frames=9
            ),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        write_manifest(path, self.records())
        assert read_manifest(path) == self.records()

    def test_duplicate_ids_rejected_on_write(self, tmp_path):
        records = [SentenceRecord(id="x", text=("a",))] * 2
        with pytest.raises(DataError, match="duplicate"):
            write_manifest(tmp_path / "m.jsonl", records)

    def test_duplicate_ids_rejected_on_read(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = json.dumps({"id": "x", "text": ["a"]})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(DataError, match="duplicate"):
            read_manifest(path)

    def test_bad_row_cites_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "x", "text": ["a"]}) + "\n{oops\n")
        with pytest.raises(DataError, match=":2"):
            read_manifest(path)

    def test_text_corpus_reader(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("the cat sat\n\nthe dog ran\n")
        records = read_text_corpus(path)
        assert [r.text for r in records] == [("the", "cat", "sat"), ("the", "dog", "ran")]
        assert len({r.id for r in records}) == 2

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["a", "b", "<PERSON>"]), min_size=1, max_size=5),
                st.one_of(st.none(), st.integers(1, 50)),
            ),
            min_size=0,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, rows):
        import tempfile, os

        records = [
            SentenceRecord(
                id=f"r{i}",
                text=tuple(tokens),
                phenomenon="corpus",
                pose_path=f"p{i}.psp" if n is not None else None,
                n_frames=n,
            )
            for i, (tokens, n) in enumerate(rows)
        ]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.jsonl")
            write_manifest(path, records)
            assert read_manifest(path) == records


class TestStats:
    def test_recomputable_from_rows(self, tmp_path):
        records = [
            SentenceRecord(id="a", text=("x", "y"), n_frames=10),
            SentenceRecord(id="b", text=("x", "y", "z"), n_frames=20),
            SentenceRecord(id="c", text=("X",)),
        ]
        stats = compute_stats(records)
        assert stats["n_sentences"] == 3
        assert stats["vocab_size"] == 3  # x, y, z case-folded
        assert stats["length_histogram"]["bins"] == {"1": 1, "2": 1, "3": 1}
        assert stats["frame_histogram"]["bins"] == {"10": 1, "20": 1}
        assert stats["frame_histogram"]["mean"] == pytest.approx(15.0)


def _write_model(path):
    bpe.save_model(path, bpe.bpe_train([["ab", "ab", "ba"]], vocab_size=20))


def _write_encoded(path):
    manifest = path.parent / "in.jsonl"
    model = path.parent / "model.json"
    write_manifest(manifest, [SentenceRecord(id="a", text=("ab", "ba"))])
    _write_model(model)
    code = cli.cli(["tokenize", "encode", "--in", str(manifest), "--model", str(model),
                    "--out", str(path)])
    if code != 0:
        raise OSError(f"tokenize encode exited {code}")


def _write_schedule(path):
    curriculum.write_schedule_csv(path, 50, curriculum.AnnealSchedule(), 3, 10, 20)


def _write_templates(path):
    templates.save_templates(path, [templates.parse_template("Subj[] V[]", template_id="t1")])


def _write_slot_lexicon(path):
    entry = templates.LexiconEntry(word="cat", features=(("num", "SG"),), pose_source="cat")
    templates.save_slot_lexicon(path, templates.SlotLexicon(entries={"Subj": (entry,)}))


def _write_manifest(path):
    write_manifest(path, [SentenceRecord(id="a", text=("x",))])


_WRITERS = [
    _write_model, _write_encoded, _write_schedule, _write_templates,
    _write_slot_lexicon, _write_manifest,
]


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", _WRITERS, ids=lambda w: w.__name__)
    def test_failed_replace_keeps_previous_file(self, writer, tmp_path, monkeypatch):
        out = tmp_path / "out" / "artifact"
        out.parent.mkdir()
        writer(out)
        assert out.stat().st_size > 0
        previous = b"previous contents\n"
        out.write_bytes(previous)

        real_replace = os.replace

        def failing_replace(src, dst):
            if os.fspath(dst) == os.fspath(out):
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            writer(out)
        assert out.read_bytes() == previous
        assert not list(tmp_path.rglob("*.tmp"))

    def test_error_mid_stream_leaves_target_untouched(self, tmp_path):
        out = tmp_path / "big.txt"
        out.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(out) as fh:
                fh.write("partial\n" * 1000)
                raise RuntimeError("producer failed")
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_streams_text_and_binary(self, tmp_path):
        with atomic_open(tmp_path / "t.csv", newline="") as fh:
            fh.write("a,b\r\n")
        with atomic_open(tmp_path / "b.bin", "wb") as fh:
            fh.write(b"\x00\xff")
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n"
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"

    def test_permissions_match_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        with atomic_open(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        assert (tmp_path / "atomic.txt").stat().st_mode == plain.stat().st_mode


class TestStagedDir:
    def test_publishes_new_dir_on_success(self, tmp_path):
        out = tmp_path / "deep" / "out"
        with staged_dir(out) as stage:
            assert stage.parent == out.parent and not any(stage.iterdir())
            (stage / "a.psp").write_bytes(b"a")
            assert not out.exists()
        assert [p.name for p in out.iterdir()] == ["a.psp"]
        assert sorted(p.name for p in out.parent.iterdir()) == ["out"]

    def test_replaces_empty_dir_with_plain_permissions(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        out = tmp_path / "out"
        out.mkdir()
        with staged_dir(out) as stage:
            (stage / "a.psp").write_bytes(b"a")
        assert [p.name for p in out.iterdir()] == ["a.psp"]
        assert out.stat().st_mode == plain.stat().st_mode

    def test_moves_into_non_empty_dir(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("k")
        (out / "a.psp").write_bytes(b"old")
        with staged_dir(out) as stage:
            (stage / "a.psp").write_bytes(b"new")
            (stage / "b.psp").write_bytes(b"b")
        assert sorted(p.name for p in out.iterdir()) == ["a.psp", "b.psp", "keep.txt"]
        assert (out / "a.psp").read_bytes() == b"new"
        assert (out / "keep.txt").read_text() == "k"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_symlinked_empty_dir_stays_a_symlink(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        out = tmp_path / "out"
        out.symlink_to(target)
        with staged_dir(out) as stage:
            (stage / "a.psp").write_bytes(b"a")
        assert out.is_symlink()
        assert [p.name for p in target.iterdir()] == ["a.psp"]

    def test_error_removes_stage_and_leaves_out_dir(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("k")
        with pytest.raises(RuntimeError):
            with staged_dir(out) as stage:
                (stage / "a.psp").write_bytes(b"a")
                raise RuntimeError("stitch failed")
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


class TestCheckFileStem:
    @pytest.mark.parametrize(
        "name", ["", ".", "..", "../x", "a/b", "a\\b", "a\0b", "x" * 201, "\u00e9" * 100 + "a"]
    )
    def test_rejects(self, name):
        with pytest.raises(DataError, match="cannot be used as a file name"):
            check_file_stem(name)

    @pytest.mark.parametrize("name", ["s0", "t01-s000001", "...", ".hidden", "x" * 200, "\u00e9" * 100])
    def test_accepts(self, name):
        check_file_stem(name)
