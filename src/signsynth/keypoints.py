"""Raw landmark streams -> clean 152-dim pose sequences.

Three stages: fill low-confidence landmarks from the nearest confident frame,
select the 76 retained keypoints, and flatten to the canonical 152-vector.
The core takes one (T, 543, 3) array per clip: ``fill_low_confidence``, then
``flatten_video`` (one gather); ``process_word_video`` chains the two.  The
frame-list form (``interpolate_low_confidence``, ``select_and_flatten``)
calls those same two functions on stacked frames.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pose import FRAME_DIM, KeypointSelection, PoseFrame, PoseSequence, RawLandmarkFrame


@dataclass(frozen=True)
class InterpolationReport:
    """Counts of what the confidence fill touched."""

    frames_touched: int = 0
    keypoints_filled: int = 0
    unresolved: int = 0


def fill_low_confidence(
    stacked: np.ndarray, threshold: float
) -> tuple[np.ndarray, InterpolationReport]:
    """Replace sub-threshold landmarks with the nearest confident frame's.

    ``stacked`` is a (T, 543, 3) array of (x, y, confidence).  For each
    landmark position with confidence below ``threshold`` at frame t, its
    (x, y) is copied from the same landmark at the nearest frame with
    confidence >= threshold; equidistant left/right donors resolve to the
    earlier frame.  Positions with no donor anywhere keep their original
    values and are counted as unresolved.  Confidences are never rewritten,
    so the operation is idempotent.  The input is not modified.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if len(stacked) == 0:
        raise ValueError("empty input")

    n_frames = stacked.shape[0]
    conf_ok = stacked[:, :, 2] >= threshold  # (T, 543)
    needs_fill = ~conf_ok

    if not needs_fill.any():
        return stacked, InterpolationReport()

    t_index = np.arange(n_frames)[:, None]
    # Most recent confident frame at or before t (-1 when none) and the next
    # confident frame at or after t (n_frames when none), per landmark column.
    prev_ok = np.maximum.accumulate(np.where(conf_ok, t_index, -1), axis=0)
    next_ok = np.flip(
        np.minimum.accumulate(np.flip(np.where(conf_ok, t_index, n_frames), axis=0), axis=0),
        axis=0,
    )

    dist_prev = np.where(prev_ok >= 0, t_index - prev_ok, np.iinfo(np.int64).max)
    dist_next = np.where(next_ok < n_frames, next_ok - t_index, np.iinfo(np.int64).max)
    # Tie -> earlier frame, i.e. the previous donor.
    use_prev = dist_prev <= dist_next
    donor = np.where(use_prev, prev_ok, next_ok)
    has_donor = (dist_prev != np.iinfo(np.int64).max) | (dist_next != np.iinfo(np.int64).max)

    fill_at = needs_fill & has_donor
    filled = stacked.copy()
    t_fill, k_fill = np.nonzero(fill_at)
    filled[t_fill, k_fill, 0:2] = stacked[donor[t_fill, k_fill], k_fill, 0:2]

    report = InterpolationReport(
        frames_touched=int(fill_at.any(axis=1).sum()),
        keypoints_filled=int(fill_at.sum()),
        unresolved=int((needs_fill & ~has_donor).sum()),
    )
    return filled, report


def interpolate_low_confidence(
    frames: Sequence[RawLandmarkFrame], threshold: float
) -> tuple[list[RawLandmarkFrame], InterpolationReport]:
    """``fill_low_confidence`` over a list of frames."""
    filled, report = fill_low_confidence(np.array([f.stacked() for f in frames]), threshold)
    return [RawLandmarkFrame.from_stacked(frame) for frame in filled], report


def select_and_flatten(frame: RawLandmarkFrame, sel: KeypointSelection) -> PoseFrame:
    """``flatten_video`` of a one-frame clip: the canonical 152-vector."""
    return PoseFrame(flatten_video(frame.stacked()[None], sel).frames[0])


def flatten_video(stacked: np.ndarray, sel: KeypointSelection, source_id: str = "") -> PoseSequence:
    """Select and flatten every frame of a (T, 543, 3) clip in one gather."""
    rows = stacked[:, sel.global_indices(), 0:2].reshape(len(stacked), FRAME_DIM)
    return PoseSequence(frames=rows, source_id=source_id)


def process_word_video(
    stacked: np.ndarray,
    sel: KeypointSelection,
    threshold: float,
    source_id: str = "",
) -> tuple[PoseSequence, InterpolationReport]:
    """Fill then select+flatten a (T, 543, 3) clip; frame count is preserved."""
    filled, report = fill_low_confidence(stacked, threshold)
    return flatten_video(filled, sel, source_id=source_id), report
