from __future__ import annotations

import inspect

import numpy as np
import pytest

from signsynth import keypoints
from signsynth.keypoints import flatten_video, process_word_video
from signsynth.pose import (
    BODY_LANDMARKS,
    EXCLUDED_BODY,
    FRAME_DIM,
    GROUP_OFFSETS,
    HAND_LANDMARKS,
    PoseSequence,
    RawLandmarkFrame,
    SELECTED_BODY,
    SELECTED_BODY_INDICES,
    SELECTED_FACE,
    SELECTED_FACE_INDICES,
    SELECTED_KEYPOINTS,
    SELECTED_LANDMARKS,
    landmark_group,
)
from signsynth.records import SentenceRecord

from .conftest import random_raw_frame


class TestDefaultSelection:
    def test_body_retained_set(self):
        # Oracle: brute-force set difference of {0..32} and the exclusion list.
        expected = sorted(set(range(BODY_LANDMARKS)) - set(EXCLUDED_BODY))
        assert list(SELECTED_BODY_INDICES) == expected
        assert list(SELECTED_BODY_INDICES) == [0, 2, 5, 7, 8, 11, 12, 13, 14, 15, 16]

    def test_face_count(self):
        assert len(SELECTED_FACE_INDICES) == SELECTED_FACE == 23

    def test_total_keypoints(self):
        assert SELECTED_BODY + SELECTED_FACE + 21 + 21 == SELECTED_KEYPOINTS == 76
        assert FRAME_DIM == 152

    def test_deterministic(self):
        # The gather uses the one array built at import.
        assert keypoints.SELECTED_LANDMARKS is SELECTED_LANDMARKS

    def test_no_overlap_with_exclusions(self):
        assert set(SELECTED_BODY_INDICES) & set(EXCLUDED_BODY) == set()
        assert set(SELECTED_LANDMARKS.tolist()) & set(EXCLUDED_BODY) == set()

    def test_face_indices_sorted_and_in_range(self):
        assert list(SELECTED_FACE_INDICES) == sorted(SELECTED_FACE_INDICES)
        assert all(0 <= i < 468 for i in SELECTED_FACE_INDICES)


class TestRawLandmarkFrame:
    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="body"):
            RawLandmarkFrame(
                body=rng.random((32, 3)),
                face=rng.random((468, 3)),
                left_hand=rng.random((21, 3)),
                right_hand=rng.random((21, 3)),
            )

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("column", [0, 2])
    def test_bool_among_numbers_is_a_shape_error(self, rng, value, column):
        # numpy reads a bool among floats or ints as 1 or 0; it is no number
        # here, as an all-bool group is not.
        message = r"body: expected 33 points of 3 numbers \[x, y, c\]"
        for points in (rng.random((33, 3)).tolist(), [[0, 1, 1] for _ in range(33)]):
            points[5][column] = value
            with pytest.raises(ValueError, match=message):
                landmark_group(points, 33, "body")
        with pytest.raises(ValueError, match=message):
            landmark_group([[value] * 3 for _ in range(33)], 33, "body")

    @pytest.mark.parametrize("value", [2**60 + 2**36 + 1, -(2**60 + 2**36 + 1)])
    def test_integer_reads_as_the_same_number_written_as_a_float(self, value):
        # Straight to float32, this int64 rounds up where its float64 rounds down.
        ints = landmark_group([[value, 0, 1]] * 33, 33, "body")
        floats = landmark_group([[float(value), 0.0, 1.0]] * 33, 33, "body")
        assert ints.tobytes() == floats.tobytes()
        assert ints[0, 0] == np.float32(float(value))

    def test_confidence_range_validation(self, rng):
        bad = rng.random((33, 3))
        bad[0, 2] = 1.5
        with pytest.raises(ValueError, match="confidence"):
            RawLandmarkFrame(
                body=bad,
                face=rng.random((468, 3)),
                left_hand=rng.random((21, 3)),
                right_hand=rng.random((21, 3)),
            )

    def test_immutable(self, rng):
        frame = random_raw_frame(rng)
        with pytest.raises(ValueError):
            frame.body[0, 0] = 0.5

    def test_stacked_round_trip(self, rng):
        frame = random_raw_frame(rng)
        again = RawLandmarkFrame.from_stacked(frame.stacked())
        assert np.array_equal(frame.stacked(), again.stacked())
        assert frame.stacked().shape == (543, 3)


class TestPoseTypes:
    def test_pose_sequence_non_empty(self):
        with pytest.raises(ValueError):
            PoseSequence(frames=np.zeros((0, FRAME_DIM)))

    def test_pose_sequence_length(self, rng):
        seq = PoseSequence(frames=rng.random((4, FRAME_DIM)), source_id="w")
        assert len(seq) == 4

    def test_pose_sequence_rejects_wrong_width_and_nan(self, rng):
        # The row checks that a single frame, a row of a one-frame clip, gets.
        with pytest.raises(ValueError, match="expected"):
            PoseSequence(frames=rng.random((1, FRAME_DIM - 1)))
        values = rng.random((1, FRAME_DIM))
        values[0, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            PoseSequence(frames=values)


class TestSentenceRecord:
    def test_requires_text(self):
        with pytest.raises(ValueError):
            SentenceRecord(id="x", text=())

    def test_pose_path_requires_frames(self):
        with pytest.raises(ValueError):
            SentenceRecord(id="x", text=("hi",), pose_path="x.psp")
        record = SentenceRecord(id="x", text=("hi",), pose_path="x.psp", n_frames=3)
        assert record.n_frames == 3

    # Each record here could not be written to a manifest and read back; the
    # messages are those of ``tests/oracles.py::record_from_json``.
    @pytest.mark.parametrize("args, kwargs, message", [
        (("a", ("x",)), {"pose_path": "p.psp", "n_frames": True},
         "record 'a': n_frames must be an integer"),
        ((5, ("x",)), {}, "id must be a string, got 5"),
        (("a", "xy"), {}, "record 'a': text must be a list of strings"),
        (("a", ("x", 1)), {}, "record 'a': text must be a list of strings"),
        (("a", ("x",)), {"phenomenon": None}, "record 'a': phenomenon must be a string"),
        (("a", ("x",)), {"pose_path": 1, "n_frames": 2}, "record 'a': pose_path must be a string"),
        (("a", ("x",)), {"n_frames": 2.0}, "record 'a': n_frames must be an integer"),
    ], ids=["n_frames_bool", "id_int", "text_str", "text_item_int", "phenomenon_none",
            "pose_path_int", "n_frames_float"])
    def test_rejects_fields_a_manifest_cannot_carry(self, args, kwargs, message):
        with pytest.raises(ValueError) as excinfo:
            SentenceRecord(*args, **kwargs)
        assert str(excinfo.value) == message


class TestKeypointSelection:
    @pytest.mark.parametrize("kwargs", [
        {"body_indices": tuple(range(11))},
        {"face_indices": SELECTED_FACE_INDICES},
    ], ids=["body", "face"])
    def test_takes_no_arguments(self, rng, kwargs):
        # A pose file does not record its selection, so none can be chosen.
        stacked = random_raw_frame(rng).stacked()[None]
        calls = [(flatten_video, (stacked,)), (process_word_video, (stacked, 0.8))]
        for fn, args in calls:
            assert "sel" not in inspect.signature(fn).parameters
            with pytest.raises(TypeError):
                fn(*args, **kwargs)

    def test_global_indices_cover_76(self):
        assert len(SELECTED_LANDMARKS) == 76
        assert len(set(SELECTED_LANDMARKS.tolist())) == 76

    def test_global_indices_one_read_only_array(self):
        assert not SELECTED_LANDMARKS.flags.writeable
        with pytest.raises(ValueError):
            SELECTED_LANDMARKS[0] = 1
        # Body, face, left hand, right hand, each shifted to its group's
        # offset in the stacked 543-landmark array.
        expected = np.concatenate([
            np.asarray(SELECTED_BODY_INDICES) + GROUP_OFFSETS["body"],
            np.asarray(SELECTED_FACE_INDICES) + GROUP_OFFSETS["face"],
            np.arange(HAND_LANDMARKS) + GROUP_OFFSETS["left_hand"],
            np.arange(HAND_LANDMARKS) + GROUP_OFFSETS["right_hand"],
        ])
        assert SELECTED_LANDMARKS.dtype == expected.dtype
        assert np.array_equal(SELECTED_LANDMARKS, expected)
