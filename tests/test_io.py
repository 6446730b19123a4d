from __future__ import annotations

import copy
import dataclasses
import decimal
import json
import math
import os
import pickle
import random
import re
import struct
import tempfile
import tracemalloc
import types

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signsynth import bpe, cli, curriculum, io, metrics, templates
from signsynth.io import (
    DataError,
    atomic_open,
    check_file_stem,
    compute_stats,
    encode_record,
    encode_token_ids,
    load_sign_lexicon,
    outputs,
    pose_set,
    read_jsonl,
    read_lines,
    read_manifest,
    read_pose_file,
    read_raw_landmark_file,
    read_text_corpus,
    read_word_list,
    record_from_json,
    write_manifest,
    write_pose_file,
    write_raw_landmark_file,
)
from signsynth.pose import FRAME_DIM, LANDMARK_GROUPS, PoseSequence, RawLandmarkFrame, SentenceRecord

from . import oracles
from .conftest import random_raw_frame
from .oracles import ReferenceDataError, read_jsonl_reference


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

    @pytest.mark.parametrize("field, value, message", [
        ("dims", float(FRAME_DIM), "dims"),
        ("dims", str(FRAME_DIM), "dims"),
        ("source_id", {"a": 1}, "source_id"),
        ("source_id", 7, "source_id"),
        ("source_id", None, "source_id"),
    ])
    def test_header_field_types_checked(self, tmp_path, field, value, message):
        header = {"version": "psp-v1", "n_frames": 1, "dims": FRAME_DIM, "source_id": ""}
        header[field] = value
        path = tmp_path / "bad.psp"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * FRAME_DIM * 4)
        with pytest.raises(DataError, match=message) as exc:
            read_pose_file(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_absent_source_id_reads_empty(self, tmp_path):
        header = {"version": "psp-v1", "n_frames": 1, "dims": FRAME_DIM}
        path = tmp_path / "x.psp"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * FRAME_DIM * 4)
        assert read_pose_file(path).source_id == ""

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
        assert set(lex.clips) == {"alpha", "beta"}

    def test_empty_lexicon_dir_errors(self, tmp_path):
        with pytest.raises(DataError, match="no .psp"):
            load_sign_lexicon(tmp_path)

    def test_case_folded_stem_collision_errors(self, rng, tmp_path):
        for word in ("Boy", "boy", "girl"):
            write_pose_file(tmp_path / f"{word}.psp", random_sequence(rng, source_id=word))
        with pytest.raises(DataError) as exc:
            load_sign_lexicon(tmp_path)
        assert "Boy.psp" in str(exc.value) and "boy.psp" in str(exc.value)


class TestRawLandmarkFile:
    def test_round_trip(self, rng, tmp_path):
        frames = [random_raw_frame(rng) for _ in range(3)]
        path = tmp_path / "word.jsonl"
        write_raw_landmark_file(path, frames)
        again = read_raw_landmark_file(path)
        assert again.shape == (3, 543, 3)
        assert again.dtype == np.float32
        assert np.array_equal(again, np.stack([f.stacked() for f in frames]))

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

    @pytest.mark.parametrize(
        "group, point, message",
        [
            ("face", [float("nan"), 0.5, 0.9], "face: contains non-finite"),
            ("left_hand", [0.5, 0.5, 1.5], "left_hand: confidence outside"),
            ("body", [0.5, 0.5], "body: expected 33 points of 3 numbers"),
            ("right_hand", [0.5, "0.5", 0.9], "right_hand: expected 21 points of 3 numbers"),
        ],
    )
    def test_bad_point_cites_line(self, rng, tmp_path, group, point, message):
        path = tmp_path / "word.jsonl"
        write_raw_landmark_file(path, [random_raw_frame(rng) for _ in range(3)])
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj[group][4] = point
        lines[2] = json.dumps(obj)  # a NaN is written as the bare literal NaN
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f":3: {message}"):
            read_raw_landmark_file(path)

    def test_non_object_line_cites_line(self, rng, tmp_path):
        path = tmp_path / "word.jsonl"
        write_raw_landmark_file(path, [random_raw_frame(rng)])
        path.write_text(path.read_text() + "\n[1]\n")
        with pytest.raises(DataError, match=":3: expected a JSON object, got list"):
            read_raw_landmark_file(path)

    def test_integer_reads_as_the_same_number_written_as_a_float(self, rng, tmp_path):
        obj = {name: getattr(random_raw_frame(rng), name).tolist() for name in LANDMARK_GROUPS}
        obj["body"] = "MARK"
        line = json.dumps(obj)
        value = 2**60 + 2**36 + 1
        ints = tmp_path / "ints.jsonl"
        ints.write_text(line.replace('"MARK"', json.dumps([[value, 0, 1]] * 33)) + "\n")
        floats = tmp_path / "floats.jsonl"
        floats.write_text(
            line.replace('"MARK"', json.dumps([[1152921573326323713.0, 0.0, 1.0]] * 33)) + "\n"
        )
        clip = read_raw_landmark_file(ints)
        assert clip.tobytes() == read_raw_landmark_file(floats).tobytes()
        assert clip[0, 0, 0] == np.float32(float(value))

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
            assert np.array_equal(again, np.stack([f.stacked() for f in frames]))


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

    def test_deeply_nested_line_cites_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        path.write_text(json.dumps({"id": "x", "text": ["a"]}) + "\n" + deep + "\n")
        with pytest.raises(DataError, match=":2: invalid JSON"):
            read_manifest(path)

    def test_crlf_lines_keep_numbers(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(path, self.records())
        crlf = path.read_bytes().replace(b"\n", b"\r\n")
        path.write_bytes(crlf)
        assert read_manifest(path) == self.records()
        path.write_bytes(crlf + b"\r\n{oops\r\n")
        with pytest.raises(DataError, match=":4: invalid JSON"):
            read_manifest(path)

    def test_word_list_reader(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("  Boy\n\nGIRL \r\nboy\n")
        assert read_word_list(path) == {"boy", "girl"}

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


def _zipf_sentences(n: int, seed: int = 3) -> list[list[str]]:
    """``n`` sentences of 3-12 tokens drawn with Zipf weights over 2,000 types."""
    rng = random.Random(seed)
    types = [f"tok{i:04d}" for i in range(2000)]
    weights = [1 / rank for rank in range(1, 2001)]
    return [rng.choices(types, weights, k=rng.randint(3, 12)) for _ in range(n)]


def _held_bytes(read, path) -> tuple[list, int]:
    """What ``read(path)`` returns, and the bytes it still holds, by ``tracemalloc``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = read(path)
        return records, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


class TestLoadedRecords:
    """What a loaded record holds: one string per distinct token across a
    read, and no ``__dict__``."""

    N = 5000
    BUDGET = 480  # bytes held per record; one fresh string per token is about 880

    def test_manifest_bytes_per_record(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(path, [
            SentenceRecord(f"s{i:06d}", tuple(text), "corpus", "swo", f"/poses/s{i:06d}.psp", 40 + i % 90)
            for i, text in enumerate(_zipf_sentences(self.N))
        ])
        records, held = _held_bytes(read_manifest, path)
        assert len(records) == self.N
        assert held / self.N < self.BUDGET

    def test_text_corpus_bytes_per_record(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("".join(" ".join(text) + "\n" for text in _zipf_sentences(self.N)))
        records, held = _held_bytes(read_text_corpus, path)
        assert len(records) == self.N
        assert held / self.N < self.BUDGET

    def test_manifest_shares_equal_strings(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "text": ["hello", "world"], "phenomenon": "corpus", "word_order": "rwo"}\n'
            '{"id": "b", "text": ["world", "hello"], "phenomenon": "corpus", "word_order": "rwo"}\n'
        )
        a, b = read_manifest(path)
        assert a.text == b.text[::-1] and a.text[0] is b.text[1] and a.text[1] is b.text[0]
        assert a.phenomenon is b.phenomenon and a.word_order is b.word_order

    def test_text_corpus_shares_equal_tokens(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("the cats sat\nthe dogs sat\n")
        a, b = read_text_corpus(path)
        assert a.text[0] is b.text[0] and a.text[2] is b.text[2]

    def test_eval_shares_equal_tokens(self, tmp_path, monkeypatch):
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            '{"candidate": "the cats sat", "reference": "The cats ran"}\n'
            '{"candidate": "cats ran", "reference": "the dogs sat"}\n'
        )
        seen = []
        eval_pairs = metrics.eval_pairs

        def spy(pairs, smooth=False):
            seen.extend(pairs)
            return eval_pairs(pairs, smooth)

        monkeypatch.setattr(metrics, "eval_pairs", spy)
        assert cli.cli(["eval", "--in", str(path)]) == 0
        (cand1, ref1), (cand2, ref2) = seen
        assert cand1[0] is ref1[0] is ref2[0]  # "the", also lowercased from "The"
        assert cand1[1] is ref1[1] is cand2[0] and ref1[2] is cand2[1] and cand1[2] is ref2[2]

    def test_slotted_record_pickles_copies_and_replaces(self):
        record = SentenceRecord("r1", ["a", "b"], "corpus", "rwo", "r1.psp", 12)
        assert not hasattr(record, "__dict__")
        for again in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert again == record and type(again.text) is tuple
        moved = dataclasses.replace(record, pose_path="x.psp", n_frames=3)
        assert moved.text is record.text and moved.n_frames == 3
        with pytest.raises(ValueError, match="n_frames must be at least 1"):
            dataclasses.replace(record, n_frames=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.text = ("c",)


# Any code point: control characters, quotes and backslashes, astral
# characters and lone surrogates, each drawn often enough to show up.
_ANY_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
    | st.characters(max_codepoint=0x1F)
    | st.characters(min_codepoint=0x10000)
    | st.sampled_from('"\\/\x7f\u2028'),
    max_size=8,
)
_RECORDS = st.builds(
    lambda record_id, text, phenomenon, word_order, pose_path, n_frames: SentenceRecord(
        record_id, tuple(text), phenomenon, word_order,
        None if n_frames is None else pose_path, n_frames,
    ),
    _ANY_TEXT,
    st.lists(_ANY_TEXT, min_size=1, max_size=5),
    _ANY_TEXT,
    st.sampled_from(["swo", "rwo"]),
    _ANY_TEXT,
    st.none() | st.integers(1, 2**70),
)
# JSON values of every type, so that each field is sometimes of the wrong one.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False) | _ANY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_ANY_TEXT, inner, max_size=3),
    max_leaves=6,
)
_FIELDS = {
    "id": _ANY_TEXT,
    "text": st.lists(_ANY_TEXT | st.sampled_from(["", "a"]), max_size=4),
    "phenomenon": _ANY_TEXT,
    "word_order": st.sampled_from(["swo", "rwo", "SWO"]),
    "pose_path": st.none() | _ANY_TEXT,
    "n_frames": st.none() | st.integers(-2, 2**70),
}


@st.composite
def _manifest_objects(draw, every_key: bool = False) -> dict:
    """A manifest object whose keys may be missing (unless ``every_key``) and
    whose values are mostly of the right type, sometimes of any JSON type."""
    obj = {}
    for key, right in _FIELDS.items():
        kind = draw(st.integers(int(every_key), 19))
        if kind > 0:  # else the key is missing
            obj[key] = draw(_JSON_VALUES if kind < 4 else right)
    return obj


_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _no_surrogate_pair(record) -> bool:
    """A high surrogate followed by a low one is written as the two escapes
    of a surrogate pair, which every JSON reader reads back as one character."""
    fields = [record.id, *record.text, record.phenomenon, record.pose_path or ""]
    return not any(_SURROGATE_PAIR.search(field) for field in fields)


def _decoded(decode, obj):
    try:
        record = decode(obj)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    assert type(record.text) is tuple
    return record


class TestManifestCodec:
    """The fixed-key encoder, the decoder and the record's own field checks
    against the ``json.dumps`` / ``isinstance`` references in
    ``tests/oracles.py``."""

    @given(_RECORDS)
    @settings(max_examples=150, deadline=None)
    def test_encode_record_equals_json_dumps(self, record):
        assert encode_record(record) == json.dumps(oracles.record_to_json(record))

    @given(_ANY_TEXT, st.lists(st.integers(0, 2**70), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_encode_token_ids_equals_json_dumps(self, record_id, ids):
        assert encode_token_ids(record_id, ids) == json.dumps({"id": record_id, "ids": ids})

    @given(_manifest_objects())
    @settings(max_examples=300, deadline=None)
    def test_record_from_json_equals_reference(self, obj):
        want = _decoded(lambda o: oracles.record_from_json(o, SentenceRecord), obj)
        assert _decoded(lambda o: record_from_json(o, {}), obj) == want

    @given(_manifest_objects(every_key=True))
    @settings(max_examples=300, deadline=None)
    def test_constructor_builds_only_writable_records(self, fields):
        want = _decoded(lambda o: oracles.record_from_json(o, SentenceRecord), fields)
        record = _decoded(lambda o: SentenceRecord(**o), fields)
        assert record == want
        if isinstance(record, SentenceRecord):
            assert encode_record(record) == json.dumps(oracles.record_to_json(record))

    @given(st.lists(_RECORDS.filter(_no_surrogate_pair), max_size=4, unique_by=lambda r: r.id))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_unicode(self, records):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.jsonl")
            write_manifest(path, records)
            with open(path, "rb") as fh:
                assert fh.read().isascii()
            assert read_manifest(path) == records


class TestPoseHeaderCodec:
    @given(_ANY_TEXT, st.integers(1, 3))
    @example('"quoted" \\ back', 1)
    @example("caf\u00e9 \u624b\u8a71", 2)
    @example("\x00\x1f\x7f", 1)
    @example("\ud800", 1)
    @example("\U0001f44b", 1)
    @settings(max_examples=200, deadline=None)
    def test_encode_pose_equals_json_dumps(self, source_id, n):
        frames = np.arange(n * FRAME_DIM, dtype=np.float32).reshape(n, FRAME_DIM) / 7
        seq = PoseSequence(frames=frames, source_id=source_id)
        assert io.encode_pose(seq) == oracles.encode_pose_reference(seq)


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
        with atomic_open(tmp_path / "t.csv") as fh:
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


    @pytest.mark.parametrize("name", ["a" * 250, "\u00e9" * 125], ids=["ascii", "two-byte"])
    def test_longest_names_can_be_written(self, tmp_path, name):
        # A 250-byte name is legal; its stage name must be too.
        out = tmp_path / name
        with atomic_open(out) as fh:
            (stage,) = tmp_path.iterdir()
            assert len(stage.name.encode("utf-8")) <= 255  # strict: whole characters
            fh.write("x")
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert out.read_text() == "x"


class TestPoseSetPublish:
    """Where ``pose_set`` publishes its files, and what an error leaves."""

    def test_publishes_new_dir_on_success(self, rng, tmp_path):
        out = tmp_path / "deep" / "out"
        with pose_set(out) as write:
            (stage,) = out.parent.iterdir()
            assert stage.name.startswith(".out.") and not any(stage.iterdir())
            write("a", random_sequence(rng))
            assert not out.exists()
        assert [p.name for p in out.iterdir()] == ["a.psp"]
        assert sorted(p.name for p in out.parent.iterdir()) == ["out"]

    def test_replaces_empty_dir_with_plain_permissions(self, rng, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        out = tmp_path / "out"
        out.mkdir()
        with pose_set(out) as write:
            write("a", random_sequence(rng))
        assert [p.name for p in out.iterdir()] == ["a.psp"]
        assert out.stat().st_mode == plain.stat().st_mode

    def test_moves_into_non_empty_dir(self, rng, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("k")
        (out / "a.psp").write_bytes(b"old")
        seq = random_sequence(rng)
        with pose_set(out) as write:
            write("a", seq)
            write("b", random_sequence(rng))
        assert sorted(p.name for p in out.iterdir()) == ["a.psp", "b.psp", "keep.txt"]
        assert read_pose_file(out / "a.psp").frames.tobytes() == seq.frames.tobytes()
        assert (out / "keep.txt").read_text() == "k"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_symlinked_empty_dir_stays_a_symlink(self, rng, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        out = tmp_path / "out"
        out.symlink_to(target)
        with pose_set(out) as write:
            write("a", random_sequence(rng))
        assert out.is_symlink()
        assert [p.name for p in target.iterdir()] == ["a.psp"]

    def test_error_removes_stage_and_leaves_out_dir(self, rng, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("k")
        with pytest.raises(RuntimeError):
            with pose_set(out) as write:
                write("a", random_sequence(rng))
                raise RuntimeError("stitch failed")
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    @pytest.mark.parametrize("name", ["a" * 250, "\u00e9" * 125], ids=["ascii", "two-byte"])
    def test_longest_names_can_be_written(self, rng, tmp_path, name):
        out = tmp_path / name
        with pose_set(out) as write:
            (stage,) = tmp_path.iterdir()
            assert len(stage.name.encode("utf-8")) <= 255  # strict: whole characters
            write("a", random_sequence(rng))
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert [p.name for p in out.iterdir()] == ["a.psp"]

    def test_error_removes_the_empty_parents_it_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "out"
        with pytest.raises(RuntimeError):
            with pose_set(out):
                raise RuntimeError("ingest failed")
        assert not list(tmp_path.iterdir())
        with pytest.raises(RuntimeError):
            with pose_set(out):
                (tmp_path / "a" / "keep.txt").write_text("k")
                raise RuntimeError("ingest failed")
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["keep.txt"]


class TestOutputs:
    """One commit for every output staged inside an ``outputs()`` block."""

    def test_later_failing_stage_removes_earlier_pose_set(self, rng, tmp_path):
        out = tmp_path / "deep" / "poses"
        with pytest.raises(FileNotFoundError):
            with outputs():
                with pose_set(out) as write:
                    write("a", random_sequence(rng))
                write_manifest(tmp_path / "missing" / "m.jsonl", [])
        assert not list(tmp_path.iterdir())

    def test_publishes_pose_sets_first_when_the_block_ends(self, rng, tmp_path, monkeypatch):
        renamed = []
        real_replace = os.replace

        def recording_replace(src, dst):
            renamed.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        with outputs():
            write_manifest(tmp_path / "m.jsonl", [])
            with pose_set(tmp_path / "poses") as write:
                write("a", random_sequence(rng))
            assert all(p.name.startswith(".") for p in tmp_path.iterdir())
        assert renamed == ["poses", "m.jsonl"]

    def test_file_onto_a_dir_publishes_nothing(self, rng, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(IsADirectoryError):
            with outputs():
                with pose_set(tmp_path / "poses") as write:
                    write("a", random_sequence(rng))
                write_manifest(tmp_path / "taken", [])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert not any((tmp_path / "taken").iterdir())

    def test_pose_set_onto_a_file_publishes_nothing(self, rng, tmp_path):
        (tmp_path / "taken").write_text("x")
        with pytest.raises(NotADirectoryError):
            with outputs():
                write_manifest(tmp_path / "m.jsonl", [])
                with pose_set(tmp_path / "taken") as write:
                    write("a", random_sequence(rng))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert (tmp_path / "taken").read_text() == "x"


class TestPoseSet:
    def test_publishes_set_under_returned_paths(self, rng, tmp_path):
        out = tmp_path / "out"
        seqs = {"a": random_sequence(rng), "b": random_sequence(rng)}
        with pose_set(out) as write:
            paths = {stem: write(stem, seq) for stem, seq in seqs.items()}
            assert not out.exists()
        assert paths == {stem: str(out / f"{stem}.psp") for stem in seqs}
        for stem, seq in seqs.items():
            assert read_pose_file(paths[stem]).frames.tobytes() == seq.frames.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_error_publishes_nothing(self, rng, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(RuntimeError):
            with pose_set(out) as write:
                write("a", random_sequence(rng))
                raise RuntimeError("ingest failed")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("stem", ["../x", "x" * 300])
    def test_unsafe_stem_writes_nothing(self, rng, tmp_path, stem):
        out = tmp_path / "out"
        with pytest.raises(DataError, match="cannot be used as a file name"):
            with pose_set(out) as write:
                write("a", random_sequence(rng))
                write(stem, random_sequence(rng))
        assert not list(tmp_path.iterdir())


class TestReadLines:
    def test_line_ends_and_skipped_lines(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"a\r\n\nb\rc\r\r\nd")
        rows = list(read_lines(path, lambda line: line or None))
        assert rows == [(1, "a"), (3, "b\rc\r"), (4, "d")]

    def test_lone_cr_does_not_end_a_corpus_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"the cat\rsat\r\nthe dog\n")
        records = read_text_corpus(path)
        assert [r.text for r in records] == [("the", "cat", "sat"), ("the", "dog")]
        assert [r.id for r in records] == ["line000001", "line000002"]

    @pytest.mark.parametrize(
        "error, message",
        [(KeyError("k"), "missing key 'k'"), (TypeError("bad type"), "bad type"),
         (ValueError("bad value"), "bad value")],
    )
    def test_parse_error_cites_line(self, tmp_path, error, message):
        path = tmp_path / "x.txt"
        path.write_text("ok\nbad\n")

        def parse(line):
            if line == "bad":
                raise error
            return line

        with pytest.raises(DataError) as exc:
            list(read_lines(path, parse))
        assert str(exc.value) == f"{path}:2: {message}"

    def test_invalid_utf8_cites_line(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"ok\n\xffok\n")
        with pytest.raises(DataError, match=":2: invalid UTF-8: .* position 0"):
            list(read_lines(path, str))

    def test_data_error_is_a_value_error(self):
        assert issubclass(DataError, ValueError)


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


# --- read_jsonl against the stdlib-only reference -------------------------------

_INT_EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, -(2**64)]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(float),
    st.integers(-(2**80), 2**80),
    st.sampled_from(_INT_EDGES),
    st.text(max_size=6),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_OBJECT_LINES = st.builds(
    lambda obj, ascii: json.dumps(obj, ensure_ascii=ascii).encode("utf-8"),
    st.dictionaries(st.text(max_size=4), _VALUES, max_size=5),
    st.booleans(),
)
_NUMBER_LINES = st.from_regex(
    rb"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
).map(lambda token: b'{"n": [' + token + b"]}")


def _nested(depth: int, bracket: str) -> bytes:
    if bracket == "[":
        return b'{"a": ' + b"[" * depth + b"]" * depth + b"}"
    return b'{"a": ' * depth + b"1" + b"}" * depth


# Lines that orjson rejects, reads differently, or reads as a non-object.
# Nesting depths stay clear of the interpreter's recursion limit, where the
# stdlib's own result depends on the depth of the calling stack.
_HOSTILE_LINES = st.sampled_from([
    b"", b"   ", b"\x0b", b'\x0b{"a": 1}\x0b', b'\t{"a": 1} ', b'{"a": 1}\xc2\xa0',
    b'{"a": NaN}', b'{"a": [Infinity, -Infinity]}', b'{"a": 1e400}',
    b'{"a": "\\ud800"}', b'{"a": "x\\udc00"}',
    b"\xff", b'{"a": "\xc3("}', b'{"a": "\xed\xa0\x80"}', b'\xef\xbb\xbf{"a": 1}',
    b"[1]", b'"s"', b"3", b"null", b"123456789012345678901234567890",
    b'{"n": 123456789012345678901234567890}', b'{"n": [-9223372036854775809]}',
    b'{"n":18446744073709551616}', b'{"a": 1} x', b'{"a": 01}', b"{", b'{"a": "\x01"}',
]) | st.builds(_nested, st.sampled_from([700, 766, 767, 768, 5000]), st.sampled_from("[{"))


def _tokens(value) -> list:
    """``value`` flattened in pre-order, with each float as its bits and each
    scalar tagged with its type, so that equal token lists agree bit for bit
    and type for type.  Iterative, since values nest up to 768 deep."""
    tokens, stack = [], [value]
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            tokens.append(("dict", tuple(v)))
            stack.extend(reversed(list(v.values())))
        elif isinstance(v, list):
            tokens.append(("list", len(v)))
            stack.extend(reversed(v))
        elif isinstance(v, float):
            tokens.append(("float", struct.pack("<d", v)))
        else:
            tokens.append((type(v).__name__, v))
    return tokens


def _outcome(reader, path, error):
    rows = []
    try:
        for lineno, value in reader(path, lambda obj: obj):
            rows.append((lineno, _tokens(value)))
    except error as exc:
        return rows, str(exc)
    return rows, None


class TestReadJsonl:
    @given(
        st.lists(_OBJECT_LINES | _NUMBER_LINES | _HOSTILE_LINES, min_size=1, max_size=6),
        st.sampled_from([b"\n", b"\r\n"]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib_reference(self, lines, newline, last_newline):
        data = newline.join(lines) + (newline if last_newline else b"")
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.jsonl")
            with open(path, "wb") as fh:
                fh.write(data)
            got = _outcome(read_jsonl, path, DataError)
            assert got == _outcome(read_jsonl_reference, path, ReferenceDataError)

    def test_raw_frames_skip_the_stdlib_parser(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "w.jsonl"
        frames = [random_raw_frame(rng) for _ in range(3)]
        write_raw_landmark_file(path, frames)

        def refuse(line):
            raise AssertionError("json.loads called on a raw frame line")

        monkeypatch.setattr(json, "loads", refuse)
        again = read_raw_landmark_file(path)
        assert again.tobytes() == np.stack([f.stacked() for f in frames]).astype(np.float32).tobytes()


# --- the one-pass decode of canonical raw frames ---------------------------------

_EXACT = decimal.Context(prec=1000)  # enough for every midpoint between doubles


def _halfway_token(base: float, steps: int, digits: int | None, sign: str) -> str:
    """The midpoint between the double ``steps`` doubles from ``base`` (up
    when positive) and the next double up, in exponent form with ``digits``
    digits after the point (exactly when None)."""
    d = base
    for _ in range(abs(steps)):
        d = math.nextafter(d, math.copysign(math.inf, steps))
    mid = _EXACT.add(decimal.Decimal(d), _EXACT.divide(decimal.Decimal(math.ulp(d)), 2))
    return sign + (format(mid, "e") if digits is None else format(mid, f".{digits}e"))


_DBL_MAX = 1.7976931348623157e308
_SIGN = st.sampled_from(["", "-"])
_EXPONENT = st.builds(
    lambda e, sign, zeros, value: f"{e}{sign}{'0' * zeros}{value}",
    st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 3), st.integers(0, 400),
)
_INTEGER_PART = st.just("0") | st.builds(
    str.__add__, st.sampled_from("123456789"), st.text("0123456789", max_size=38)
)
_DECIMAL_TOKENS = st.builds(
    lambda sign, integer, fraction, exponent: f"{sign}{integer}.{fraction[:40 - len(integer)]}{exponent}",
    _SIGN, _INTEGER_PART, st.text("0123456789", min_size=1, max_size=39), st.just("") | _EXPONENT,
)
_HALFWAY_TOKENS = st.builds(
    lambda base_steps, digits, sign: _halfway_token(*base_steps, digits, sign),
    st.one_of(  # the smallest subnormals, either side of the smallest normal, the largest doubles
        st.tuples(st.just(0.0), st.integers(0, 24)),
        st.tuples(st.just(2.0**-1022), st.integers(-24, 24)),
        st.tuples(st.just(_DBL_MAX), st.integers(-24, 0)),
    ),
    st.none() | st.integers(1, 40),
    _SIGN,
)


# Replacements for one value token of a canonical frame line.
_VALUE_MUTATIONS = [
    "1", "0", "12345678901234567890", "true", "null", '"0.5"', "NaN", "1.0e400", "1.0e39", "1e-05",
]
_CONFIDENCE_MUTATIONS = ["-0.0", "1.0000001", "-0.5"]
_OTHER_MUTATIONS = [
    "none", "point2", "point4", "moved_value", "nested_point", "nested_value",
    "extra_key", "missing_key", "duplicate_key", "escaped_key", "invalid_utf8",
]
_MUTATIONS = _VALUE_MUTATIONS + _CONFIDENCE_MUTATIONS + _OTHER_MUTATIONS


class TestRawFrameFastPath:
    """``io._plain_frame`` decodes a canonical frame line in one pass; every
    other line takes the ``read_jsonl`` path and ``io._raw_frame``."""

    @given(_DECIMAL_TOKENS | _HALFWAY_TOKENS)
    @settings(max_examples=500, deadline=None)
    def test_orjson_reads_a_dotted_number_as_json_does(self, token):
        # The premise that lets a canonical line skip the orjson guard.
        assert "." in token
        try:
            got = orjson.loads(token)
        except orjson.JSONDecodeError:  # beyond DBL_MAX; the line falls back to json
            return
        assert type(got) is float and got.hex() == json.loads(token).hex()

    def test_halfway_tokens_are_exact_midpoints(self):
        # Written exactly, a midpoint rounds to the neighbour with an even mantissa.
        assert json.loads(_halfway_token(0.0, 0, None, "")) == 0.0
        assert json.loads(_halfway_token(2.0**-1022, 0, None, "")) == 2.0**-1022
        assert json.loads(_halfway_token(_DBL_MAX, 0, None, "")) == math.inf

    @staticmethod
    def edge_frames(rng) -> list[RawLandmarkFrame]:
        frames = []
        for _ in range(3):
            stacked = random_raw_frame(rng).stacked().astype(np.float64)
            stacked[:40, :2] = rng.choice([0.0, 1.0, -0.25, -3.5, -0.0], size=(40, 2))
            stacked[40:60, 2] = rng.choice([0.0, 1.0], size=20)
            left = slice(33 + 468, 33 + 468 + 21)
            stacked[left, 2] = 0.0  # a hand with no confidence at all
            frames.append(RawLandmarkFrame.from_stacked(stacked))
        return frames

    def test_canonical_frames_never_reach_the_slow_path(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "w.jsonl"
        frames = self.edge_frames(rng)
        write_raw_landmark_file(path, frames)

        def refuse(*args):
            raise AssertionError("a canonical frame took the slow path")

        monkeypatch.setattr(io, "_raw_frame", refuse)
        monkeypatch.setattr(io, "landmark_group", refuse)
        again = read_raw_landmark_file(path)
        assert again.shape == (3, 543, 3)
        assert again.tobytes() == np.stack([f.stacked() for f in frames]).tobytes()

    def test_a_number_without_a_dot_reads_through_the_fallback(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "w.jsonl"
        frames = self.edge_frames(rng)
        objs = [{name: getattr(f, name).tolist() for name in LANDMARK_GROUPS} for f in frames]
        objs[1]["face"][7][1] = "MARK"
        path.write_text("".join(json.dumps(o).replace('"MARK"', "1e-05") + "\n" for o in objs))
        calls = []
        slow = io._raw_frame
        monkeypatch.setattr(io, "_raw_frame", lambda obj: calls.append(1) or slow(obj))
        expected = np.stack([f.stacked() for f in frames])
        expected[1, 33 + 7, 1] = np.float32(1e-05)
        assert read_raw_landmark_file(path).tobytes() == expected.tobytes()
        assert len(calls) == 1

    def test_layout_variants_read_the_same(self, rng, tmp_path):
        frames = [random_raw_frame(rng) for _ in range(3)]
        objs = [{name: getattr(f, name).tolist() for name in LANDMARK_GROUPS} for f in frames]
        names = list(LANDMARK_GROUPS)
        shuffled = [{n: o[n] for n in rng.permutation(names)} for o in objs]
        default = [json.dumps(o) for o in objs]
        layouts = {
            "default": "\n".join(default) + "\n",
            "compact": "".join(json.dumps(o, separators=(",", ":")) + "\n" for o in objs),
            "shuffled": "".join(json.dumps(o) + "\n" for o in shuffled),
            "crlf": "\r\n".join(default) + "\r\n",
            "blank": default[0] + "\n\n" + "\n".join(default[1:]) + "\n",
        }
        assert len(set(layouts.values())) == len(layouts)
        read = {}
        for name, text in layouts.items():
            path = tmp_path / f"{name}.jsonl"
            path.write_bytes(text.encode("ascii"))
            clip = read_raw_landmark_file(path)
            read[name] = (clip.shape, clip.tobytes())
        assert set(read.values()) == {((3, 543, 3), np.stack([f.stacked() for f in frames]).tobytes())}

    def test_deep_nesting_never_reaches_orjson(self, rng, tmp_path, monkeypatch):
        # Quotes and dots as in a canonical line, but one value nested 5000 deep.
        obj = {name: getattr(random_raw_frame(rng), name).tolist() for name in LANDMARK_GROUPS}
        obj["face"][3][0] = "MARK"
        path = tmp_path / "w.jsonl"
        path.write_text(json.dumps(obj).replace('"MARK"', "[" * 5000 + "0.5" + "]" * 5000) + "\n")

        def loads(line):
            assert line.count("[") + line.count("{") < 768, "orjson.loads on a deeply nested line"
            return orjson.loads(line)

        monkeypatch.setattr(io, "orjson", types.SimpleNamespace(
            loads=loads, JSONDecodeError=orjson.JSONDecodeError,
        ))
        with pytest.raises(DataError, match=":1: invalid JSON"):
            read_raw_landmark_file(path)

    @pytest.mark.parametrize("mutation", _MUTATIONS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_the_json_only_reader(self, mutation, data):
        clip = data.draw(_mutated_clips(mutation))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "w.jsonl")
            with open(path, "wb") as fh:
                fh.write(clip)
            assert _clip_outcome(read_raw_landmark_file, path, DataError) == _clip_outcome(
                lambda p: np.stack([f for _, f in read_jsonl_reference(p, io._raw_frame)]),
                path,
                ReferenceDataError,
            )


def _clip_outcome(reader, path, error):
    try:
        clip = reader(path)
    except error as exc:
        return None, str(exc)
    return (clip.dtype, clip.shape, clip.tobytes()), None


@st.composite
def _mutated_clips(draw, mutation: str) -> bytes:
    """1-3 canonical frame lines, one of them changed by ``mutation`` in one
    token, point or key."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objs = [
        {name: getattr(random_raw_frame(rng), name).tolist() for name in LANDMARK_GROUPS}
        for _ in range(draw(st.integers(1, 3)))
    ]
    i = draw(st.integers(0, len(objs) - 1))
    group = draw(st.sampled_from(list(LANDMARK_GROUPS)))
    points = objs[i][group]
    p = draw(st.integers(0, len(points) - 1))
    token = None
    if mutation in _VALUE_MUTATIONS:
        token, points[p][draw(st.integers(0, 2))] = mutation, "MARK"
    elif mutation in _CONFIDENCE_MUTATIONS:
        token, points[p][2] = mutation, "MARK"
    elif mutation in ("point2", "point4"):
        del points[p][2:]
        points[p] += [0.5, 0.5][: int(mutation[-1]) - 2]
    elif mutation == "moved_value":  # a point of 2 and one of 4: still 1629 values
        points[(p + 1) % len(points)].append(points[p].pop())
    elif mutation == "nested_point":
        points[p] = [points[p]]
    elif mutation == "nested_value":
        points[p][1] = [points[p][1]]
    elif mutation == "extra_key":
        objs[i]["extra"] = draw(st.sampled_from([0.5, [], "x", None]))
    elif mutation == "missing_key":
        del objs[i][group]
    lines = [json.dumps(o) for o in objs]
    if token is not None:
        lines[i] = lines[i].replace('"MARK"', token)
    elif mutation == "duplicate_key":  # json keeps the last value of a key
        again = getattr(random_raw_frame(rng), group).tolist()
        lines[i] = lines[i][:-1] + f', "{group}": {json.dumps(again)}}}'
    elif mutation == "escaped_key":
        lines[i] = lines[i].replace(f'"{group}"', f'"{group[:-1]}\\u{ord(group[-1]):04x}"')
    raw = [line.encode("ascii") for line in lines]
    if mutation == "invalid_utf8":
        at = draw(st.integers(0, len(raw[i])))
        raw[i] = raw[i][:at] + b"\xff" + raw[i][at:]
    return b"\n".join(raw) + b"\n"
