from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsynth.pose import (
    BODY_LANDMARKS,
    EXCLUDED_BODY,
    FRAME_DIM,
    GROUP_OFFSETS,
    HAND_LANDMARKS,
    KeypointSelection,
    PoseFrame,
    PoseSequence,
    RawLandmarkFrame,
    SELECTED_FACE_INDICES,
    SentenceRecord,
    default_selection,
    landmark_group,
)

from .conftest import random_raw_frame


class TestDefaultSelection:
    def test_body_retained_set(self):
        # Oracle: brute-force set difference of {0..32} and the exclusion list.
        expected = sorted(set(range(BODY_LANDMARKS)) - set(EXCLUDED_BODY))
        sel = default_selection()
        assert list(sel.body_indices) == expected
        assert list(sel.body_indices) == [0, 2, 5, 7, 8, 11, 12, 13, 14, 15, 16]

    def test_face_count(self):
        assert len(default_selection().face_indices) == 23

    def test_total_keypoints(self):
        sel = default_selection()
        assert len(sel.body_indices) + len(sel.face_indices) + 21 + 21 == 76
        assert FRAME_DIM == 152

    def test_deterministic(self):
        assert default_selection() == default_selection()

    def test_no_overlap_with_exclusions(self):
        assert set(default_selection().body_indices) & set(EXCLUDED_BODY) == set()

    def test_face_indices_sorted_and_in_range(self):
        sel = default_selection()
        assert list(sel.face_indices) == sorted(SELECTED_FACE_INDICES)
        assert all(0 <= i < 468 for i in sel.face_indices)


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
    def test_pose_frame_length(self, rng):
        frame = PoseFrame(rng.random(FRAME_DIM))
        assert len(frame) == FRAME_DIM

    def test_pose_frame_rejects_wrong_length(self, rng):
        with pytest.raises(ValueError):
            PoseFrame(rng.random(151))

    def test_pose_frame_rejects_nan(self, rng):
        values = rng.random(FRAME_DIM)
        values[7] = np.nan
        with pytest.raises(ValueError):
            PoseFrame(values)

    def test_pose_sequence_non_empty(self):
        with pytest.raises(ValueError):
            PoseSequence(frames=np.zeros((0, FRAME_DIM)))

    def test_pose_sequence_length(self, rng):
        seq = PoseSequence(frames=rng.random((4, FRAME_DIM)), source_id="w")
        assert len(seq) == 4


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
    def test_takes_no_arguments(self, kwargs):
        # A pose file does not record its selection, so none can be chosen.
        with pytest.raises(TypeError):
            KeypointSelection(**kwargs)
        with pytest.raises(TypeError):
            KeypointSelection(*kwargs.values())

    def test_global_indices_cover_76(self):
        gi = default_selection().global_indices()
        assert len(gi) == 76
        assert len(set(gi.tolist())) == 76

    def test_global_indices_one_read_only_array(self):
        sel = KeypointSelection()
        gi = sel.global_indices()
        assert gi is sel.global_indices() is default_selection().global_indices()
        assert not gi.flags.writeable
        with pytest.raises(ValueError):
            gi[0] = 1
        # Body, face, left hand, right hand, each shifted to its group's
        # offset in the stacked 543-landmark array.
        expected = np.concatenate([
            np.asarray(sel.body_indices) + GROUP_OFFSETS["body"],
            np.asarray(sel.face_indices) + GROUP_OFFSETS["face"],
            np.arange(HAND_LANDMARKS) + GROUP_OFFSETS["left_hand"],
            np.arange(HAND_LANDMARKS) + GROUP_OFFSETS["right_hand"],
        ])
        assert gi.dtype == expected.dtype
        assert np.array_equal(gi, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pose_frame_always_finite_and_152(self, seed):
        # Pipeline-wide invariant: any constructible PoseFrame has exactly
        # 152 finite values.
        values = np.random.default_rng(seed).standard_normal(FRAME_DIM)
        frame = PoseFrame(values)
        assert frame.values.shape == (FRAME_DIM,)
        assert np.isfinite(frame.values).all()
