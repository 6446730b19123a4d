"""Raw landmark streams -> clean 152-dim pose sequences.

Three stages: fill low-confidence landmarks from the nearest confident frame,
select the 76 retained keypoints, and flatten to the canonical 152-vector.
The core takes one (T, 543, 3) array per clip: ``fill_low_confidence`` fills
all 543 landmarks, ``flatten_video`` selects in one gather, and
``process_word_video`` (ingest) selects the 76 kept keypoints and fills only
those.  The frame-list form (``interpolate_low_confidence``,
``select_and_flatten``) stacks its frames.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pose import (FRAME_DIM, TOTAL_LANDMARKS, KeypointSelection, PoseFrame, PoseSequence,
                   RawLandmarkFrame)

_ALL_LANDMARKS = np.arange(TOTAL_LANDMARKS)


@dataclass(frozen=True)
class InterpolationReport:
    """What the confidence fill touched, counted over the input's 543 landmarks
    (not only the kept ones): a low-confidence landmark is filled when its
    column has a confident frame and unresolved when it has none."""

    frames_touched: int = 0
    keypoints_filled: int = 0
    unresolved: int = 0


def _fill(stacked, threshold: float, columns) -> tuple[np.ndarray, InterpolationReport]:
    """The filled landmark ``columns`` of a (T, 543, 3) clip, as a new (T, K, 3) array."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
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

    filled = stacked[:, columns]
    t_fill, k_fill = np.nonzero(fill_at[:, columns])
    filled[t_fill, k_fill, 0:2] = filled[donor[t_fill, k_fill], k_fill, 0:2]
    return filled, report


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
    return _fill(stacked, threshold, _ALL_LANDMARKS)


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
    """Select the kept keypoints of a (T, 543, 3) clip, fill only those, flatten.

    Equals ``flatten_video(fill_low_confidence(...)[0], sel)``, with that
    fill's report over all 543 landmarks; frame count is preserved."""
    filled, report = _fill(stacked, threshold, sel.global_indices())
    return PoseSequence(frames=filled[:, :, 0:2].reshape(len(filled), FRAME_DIM),
                        source_id=source_id), report
