"""Raw landmark streams -> clean 152-dim pose sequences.

Three stages: fill low-confidence landmarks from the nearest confident frame,
select the 76 retained keypoints, and flatten to the canonical 152-vector.
Each clip is one (T, 543, 3) array.  ``flatten_video`` is the one keypoint
gather; ``process_word_video`` (ingest) fills the 76 kept keypoints and
returns its ``flatten_video``; ``interpolate_low_confidence`` fills all 543
landmarks of a list of frames.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pose import FRAME_DIM, SELECTED_LANDMARKS, TOTAL_LANDMARKS, PoseSequence, RawLandmarkFrame


@dataclass(frozen=True)
class InterpolationReport:
    """What the confidence fill touched, counted over the input's 543 landmarks
    (not only the kept ones): a low-confidence landmark is filled when its
    column has a confident frame and unresolved when it has none."""

    frames_touched: int = 0
    keypoints_filled: int = 0
    unresolved: int = 0


def check_threshold(threshold: float) -> None:
    """The confidence fill's rule for its threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def _fill(stacked, threshold: float, columns) -> tuple[np.ndarray, InterpolationReport]:
    """A copy of a (T, 543, 3) clip with its low-confidence landmark ``columns`` filled.

    A sub-threshold landmark at frame t takes its (x, y) from the same
    landmark at the nearest frame with confidence >= ``threshold``;
    equidistant donors resolve to the earlier frame.  A landmark with no
    donor anywhere keeps its values and is counted as unresolved.
    Confidences are never rewritten, so the fill is idempotent.
    """
    check_threshold(threshold)
    if len(stacked) == 0:
        raise ValueError("empty input")

    n_frames = len(stacked)
    conf_ok = stacked[:, :, 2] >= threshold  # (T, 543)
    fill_at = ~conf_ok & conf_ok.any(axis=0)  # low confidence, with a donor in its column
    report = InterpolationReport(int(fill_at.any(axis=1).sum()), int(fill_at.sum()),
                                 int((~conf_ok).sum() - fill_at.sum()))

    ok = conf_ok[:, columns]
    t_index = np.arange(n_frames)[:, None]
    # Nearest confident frame at or before and at or after t, per column.  A
    # missing one sits n_frames off the clip, so any real donor is nearer.
    prev_ok = np.maximum.accumulate(np.where(ok, t_index, -n_frames), axis=0)
    next_ok = np.minimum.accumulate(np.where(ok, t_index, 2 * n_frames - 1)[::-1], axis=0)[::-1]
    # Tie -> earlier frame, i.e. the previous donor.
    donor = np.where(t_index - prev_ok <= next_ok - t_index, prev_ok, next_ok)

    t_fill, k_fill = np.nonzero(fill_at[:, columns])
    g_fill = columns[k_fill]
    filled = stacked.copy()
    filled[t_fill, g_fill, 0:2] = stacked[donor[t_fill, k_fill], g_fill, 0:2]
    return filled, report


def interpolate_low_confidence(
    frames: Sequence[RawLandmarkFrame], threshold: float
) -> tuple[list[RawLandmarkFrame], InterpolationReport]:
    """Fill all 543 landmarks of a list of frames; the report counts them all."""
    filled, report = _fill(np.array([f.stacked() for f in frames]), threshold,
                           np.arange(TOTAL_LANDMARKS))
    return [RawLandmarkFrame.from_stacked(frame) for frame in filled], report


def flatten_video(stacked: np.ndarray, source_id: str = "") -> PoseSequence:
    """Select and flatten every frame of a (T, 543, 3) clip in one gather."""
    rows = stacked[:, SELECTED_LANDMARKS, 0:2].reshape(len(stacked), FRAME_DIM)
    return PoseSequence(frames=rows, source_id=source_id)


def process_word_video(
    stacked: np.ndarray, threshold: float, source_id: str = ""
) -> tuple[PoseSequence, InterpolationReport]:
    """Fill the kept keypoints of a (T, 543, 3) clip, then ``flatten_video`` it.

    The report counts all 543 landmarks; frame count is preserved."""
    filled, report = _fill(stacked, threshold, SELECTED_LANDMARKS)
    return flatten_video(filled, source_id), report
