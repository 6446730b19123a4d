from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsynth.keypoints import (
    InterpolationReport,
    flatten_video,
    interpolate_low_confidence,
    process_word_video,
)
from signsynth.pose import (
    EXCLUDED_BODY,
    FRAME_DIM,
    RawLandmarkFrame,
    SELECTED_BODY_INDICES,
    SELECTED_FACE_INDICES,
    SELECTED_LANDMARKS,
)

from . import oracles
from .conftest import indexed_raw_frame, random_raw_frame


def frame_with_conf(rng, conf_by_landmark: dict[int, float]) -> RawLandmarkFrame:
    """Fully-confident random frame with specific landmark confidences overridden."""
    stacked = np.array(random_raw_frame(rng, confidence=1.0).stacked())
    for g, c in conf_by_landmark.items():
        stacked[g, 2] = c
    return RawLandmarkFrame.from_stacked(stacked)


def stack(frames) -> np.ndarray:
    return np.stack([f.stacked() for f in frames])


def oracle_fill(stacked: np.ndarray, threshold: float):
    """``oracles.nearest_donor_fill`` of a (T, 543, 3) array, with the number
    of frames whose values it changed."""
    raw = [[tuple(pt) for pt in frame] for frame in stacked.tolist()]
    expected, n_filled, unresolved = oracles.nearest_donor_fill(raw, threshold)
    touched = sum(want != got for want, got in zip(expected, raw))
    return expected, InterpolationReport(touched, n_filled, unresolved)


class TestInterpolate:
    def test_all_confident_is_identity(self, rng):
        frames = [random_raw_frame(rng, confidence=1.0) for _ in range(5)]
        out, report = interpolate_low_confidence(frames, 0.8)
        assert report == InterpolationReport(0, 0, 0)
        for a, b in zip(frames, out):
            assert np.array_equal(a.stacked(), b.stacked())

    def test_tie_breaks_to_earlier_frame(self, rng):
        # Landmark 100: confidences (0.9, 0.1, 0.9); both donors are one
        # frame away, so the earlier frame (0) must win.
        frames = [
            frame_with_conf(rng, {100: 0.9}),
            frame_with_conf(rng, {100: 0.1}),
            frame_with_conf(rng, {100: 0.9}),
        ]
        out, report = interpolate_low_confidence(frames, 0.8)
        assert np.array_equal(out[1].stacked()[100, :2], frames[0].stacked()[100, :2])
        assert report.keypoints_filled >= 1

    def test_single_frame_unresolved(self, rng):
        frames = [frame_with_conf(rng, {42: 0.5})]
        out, report = interpolate_low_confidence(frames, 0.8)
        assert np.array_equal(out[0].stacked()[42], frames[0].stacked()[42])
        assert report.unresolved >= 1

    def test_empty_input_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            interpolate_low_confidence([], 0.8)

    def test_threshold_validated(self, rng):
        with pytest.raises(ValueError, match="threshold"):
            interpolate_low_confidence([random_raw_frame(rng)], 1.5)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            frames = [random_raw_frame(rng) for _ in range(n)]
            out, report = interpolate_low_confidence(frames, 0.8)
            raw = [[tuple(pt) for pt in f.stacked().tolist()] for f in frames]
            expected, filled, unresolved = oracles.nearest_donor_fill(raw, 0.8)
            assert report.keypoints_filled == filled
            assert report.unresolved == unresolved
            for t in range(n):
                got = out[t].stacked()
                want = np.array(expected[t], dtype=np.float32)
                assert np.array_equal(got, want), f"frame {t} differs"

    def test_idempotent_when_resolved(self, rng):
        frames = [random_raw_frame(rng) for _ in range(6)]
        once, report = interpolate_low_confidence(frames, 0.8)
        if report.unresolved == 0:
            twice, _ = interpolate_low_confidence(once, 0.8)
            for a, b in zip(once, twice):
                assert np.array_equal(a.stacked(), b.stacked())

    def test_report_counts(self, rng):
        # Two low-confidence landmarks in one frame: one fillable, one not.
        frames = [
            frame_with_conf(rng, {5: 0.2, 7: 0.1}),
            frame_with_conf(rng, {5: 0.9, 7: 0.1}),
        ]
        _, report = interpolate_low_confidence(frames, 0.8)
        assert report.keypoints_filled == 1
        assert report.unresolved == 2  # landmark 7 in both frames
        assert report.frames_touched == 1


class TestSelectAndFlatten:
    """A frame's 152-value row is the first row of its one-frame clip's
    ``flatten_video``."""

    def test_output_length(self, rng):
        out = flatten_video(random_raw_frame(rng).stacked()[None]).frames[0]
        assert out.shape == (FRAME_DIM,) and out.dtype == np.float32
        assert not out.flags.writeable

    def test_index_map_oracle(self):
        # Landmark g carries (g/1000, g/1000): the flattened vector must be
        # exactly the oracle's explicit index lookup, starting at body 0.
        frame = indexed_raw_frame()
        got = flatten_video(frame.stacked()[None]).frames[0]
        want = oracles.selection_index_map(
            frame.stacked().tolist(), SELECTED_BODY_INDICES, SELECTED_FACE_INDICES
        )
        assert np.array_equal(got, np.array(want, dtype=np.float32))
        assert got.dtype == np.float32 and not got.flags.writeable
        assert got[0] == np.float32(SELECTED_BODY_INDICES[0] / 1000.0)
        assert got[0] == np.float32(0.0)  # body index 0 is retained and first

    def test_excluded_landmark_is_ignored(self, rng):
        base = random_raw_frame(rng).stacked()
        modified = np.array(base)
        modified[26, 0:2] = 0.123  # body 26 (right knee) is excluded
        assert np.array_equal(flatten_video(base[None]).frames,
                              flatten_video(modified[None]).frames)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_never_contains_excluded_values(self, seed):
        # Stamp excluded landmarks with a sentinel absent elsewhere.
        rng = np.random.default_rng(seed)
        stacked = rng.uniform(0.0, 0.5, (543, 3))
        sentinel = 0.987654
        for g in EXCLUDED_BODY:
            stacked[g, 0:2] = sentinel
        frame = RawLandmarkFrame.from_stacked(stacked)
        out = flatten_video(frame.stacked()[None]).frames[0]
        assert not np.any(np.isclose(out, sentinel))


class TestArrayCore:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([0.0, 0.5, 0.8, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_fill_matches_bruteforce_oracle(self, seed, n, threshold):
        rng = np.random.default_rng(seed)
        stacked = rng.random((n, 543, 3)).astype(np.float32)
        # Whole landmark columns with no confident frame, so some stay unresolved.
        stacked[:, rng.integers(0, 543, 5), 2] = 0.0
        before = stacked.copy()
        out, report = interpolate_low_confidence(
            [RawLandmarkFrame.from_stacked(frame) for frame in stacked], threshold
        )
        expected, want_report = oracle_fill(stacked, threshold)
        assert np.array_equal(stack(out), np.array(expected, dtype=np.float32))
        assert report == want_report
        assert np.array_equal(stacked, before)  # the input is not modified

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_flatten_rows_match_per_frame_and_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        stacked = rng.random((n, 543, 3)).astype(np.float32)
        seq = flatten_video(stacked, source_id="w")
        assert seq.frames.shape == (n, FRAME_DIM)
        assert seq.source_id == "w"
        for t in range(n):
            want = oracles.selection_index_map(
                stacked[t].tolist(), SELECTED_BODY_INDICES, SELECTED_FACE_INDICES
            )
            assert np.array_equal(seq.frames[t], np.array(want, dtype=np.float32))


class TestProcessWordVideo:
    def test_preserves_frame_count(self, rng):
        frames = [random_raw_frame(rng) for _ in range(10)]
        seq, _ = process_word_video(stack(frames), 0.8, source_id="w1")
        assert len(seq) == 10
        assert seq.source_id == "w1"

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([0.0, 0.5, 0.8, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_equals_composition(self, seed, n, threshold):
        # Filling only the kept keypoints gives the frames and the report of
        # the oracles' fill of all 543 landmarks and then their selection.
        rng = np.random.default_rng(seed)
        stacked = rng.random((n, 543, 3)).astype(np.float32)
        # Donorless columns, some of them among the kept keypoints.
        donorless = np.concatenate([rng.integers(0, 543, 4), rng.choice(SELECTED_LANDMARKS, 4)])
        stacked[:, donorless, 2] = 0.0
        before = stacked.copy()
        seq, report = process_word_video(stacked, threshold)
        expected, want_report = oracle_fill(stacked, threshold)
        want = [oracles.selection_index_map(frame, SELECTED_BODY_INDICES, SELECTED_FACE_INDICES)
                for frame in expected]
        assert np.array_equal(seq.frames, np.array(want, dtype=np.float32))
        assert report == want_report
        assert np.array_equal(stacked, before)  # the input is not modified

    def test_all_confident_equals_flatten(self, rng):
        stacked = stack([random_raw_frame(rng, confidence=1.0) for _ in range(4)])
        seq, report = process_word_video(stacked, 0.8)
        assert np.array_equal(seq.frames, flatten_video(stacked).frames)
        assert report == InterpolationReport(0, 0, 0)

    def test_low_confidence_hand_landmark(self, rng):
        # One shaky left-hand landmark: processing must equal processing the
        # donor-patched sequence.
        hand_g = 501 + 4  # left hand landmark 4 in global indexing
        frames = [
            frame_with_conf(rng, {hand_g: 0.9}),
            frame_with_conf(rng, {hand_g: 0.3}),
            frame_with_conf(rng, {hand_g: 0.9}),
        ]
        seq, _ = process_word_video(stack(frames), 0.8)
        patched, _ = interpolate_low_confidence(frames, 0.8)
        assert np.array_equal(seq.frames, flatten_video(stack(patched)).frames)
        # The patched value actually comes from frame 0 (earlier-donor tie).
        assert np.array_equal(
            patched[1].stacked()[hand_g, :2], frames[0].stacked()[hand_g, :2]
        )

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            process_word_video([], 0.8)
