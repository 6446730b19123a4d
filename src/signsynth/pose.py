"""Pose-domain types: raw landmark frames and pose sequences.

A raw extractor frame carries 543 landmarks (33 body, 468 face, 21 per hand),
each an (x, y, confidence) triple with normalized coordinates.  The pipeline
reduces every frame to 76 selected keypoints flattened into a 152-value
vector with the canonical layout::

    [body (11 kp), face (23 kp), left hand (21 kp), right hand (21 kp)]

with each keypoint contributing adjacent (x, y) values and indices ascending
within each group.  The selection is a constant (``SELECTED_BODY_INDICES``,
``SELECTED_FACE_INDICES``, and their positions in a stacked frame,
``SELECTED_LANDMARKS``): a pose file does not record which keypoints fill
its 152 values.  All types are immutable values (backing arrays are
read-only copies), which forked ``--jobs`` workers share copy-on-write, and
each checks its fields when it is built.  The manifest's sentence record
lives in ``records``, which needs no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

BODY_LANDMARKS = 33
FACE_LANDMARKS = 468
HAND_LANDMARKS = 21
TOTAL_LANDMARKS = BODY_LANDMARKS + FACE_LANDMARKS + 2 * HAND_LANDMARKS  # 543

# Landmark group sizes and global index offsets, in the canonical body ->
# face -> left -> right ordering used whenever frames are stacked into a
# single (543, 3) array.
LANDMARK_GROUPS = {
    "body": BODY_LANDMARKS,
    "face": FACE_LANDMARKS,
    "left_hand": HAND_LANDMARKS,
    "right_hand": HAND_LANDMARKS,
}
GROUP_OFFSETS = {
    "body": 0,
    "face": BODY_LANDMARKS,
    "left_hand": BODY_LANDMARKS + FACE_LANDMARKS,
    "right_hand": BODY_LANDMARKS + FACE_LANDMARKS + HAND_LANDMARKS,
}

# Body landmarks dropped from the 33-point set: legs, feet, hips, inner/outer
# eyes, mouth corners, and the redundant hand stubs on the body skeleton.
EXCLUDED_BODY = frozenset(
    {26, 28, 30, 32, 25, 27, 29, 31, 1, 3, 4, 6, 9, 10, 17, 18, 19, 20, 21, 22, 23, 24}
)

SELECTED_BODY_INDICES = tuple(i for i in range(BODY_LANDMARKS) if i not in EXCLUDED_BODY)

# Face mesh points kept: mouth corners, outer lips, eyebrows, eye contours,
# and the nose top.
SELECTED_FACE_INDICES = (
    0, 9, 17, 33, 61, 70, 105, 107, 133, 153, 158, 161, 163,
    263, 291, 300, 334, 336, 362, 380, 385, 388, 390,
)

SELECTED_BODY = len(SELECTED_BODY_INDICES)  # 11
SELECTED_FACE = len(SELECTED_FACE_INDICES)  # 23
SELECTED_KEYPOINTS = SELECTED_BODY + SELECTED_FACE + 2 * HAND_LANDMARKS  # 76
FRAME_DIM = 2 * SELECTED_KEYPOINTS  # 152

# Positions of the selected keypoints in a stacked (543, 3) frame, in the
# canonical [body, face, left hand, right hand] order; one read-only array.
SELECTED_LANDMARKS = np.concatenate([
    np.add(SELECTED_BODY_INDICES, GROUP_OFFSETS["body"]),
    np.add(SELECTED_FACE_INDICES, GROUP_OFFSETS["face"]),
    np.arange(GROUP_OFFSETS["left_hand"], TOTAL_LANDMARKS),  # both hands, every point
])
SELECTED_LANDMARKS.setflags(write=False)


def _number(value) -> Optional[float]:
    """A float, or an int as the float it rounds to (±inf beyond float64);
    None for anything else."""
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return np.inf if value > 0 else -np.inf
    return value if type(value) is float else None


def _holds_bool(values, arr: np.ndarray) -> bool:
    """Whether ``values``, read as the (N, 3) number array ``arr``, holds a
    bool, which numpy reads as 1 or 0 among other numbers.  Only the places
    where ``arr`` is exactly 0 or 1 are looked at."""
    hits = np.flatnonzero((arr == 0) | (arr == 1)).tolist()
    return any(type(values[i // 3][i % 3]) is bool for i in hits)


def landmark_group(values, size: int, name: str) -> np.ndarray:
    """``size`` points of 3 finite numbers (x, y, confidence), confidences in
    [0, 1], as a read-only (size, 3) float32 array; else ValueError.  An
    integer is judged by its value, as the same number written as a float; a
    bool is not a number."""
    try:
        arr = np.array(values)
    except ValueError:  # ragged nesting
        arr = np.array(None)
    if arr.dtype == object:  # holds an int wider than 64 bits, or not numbers
        arr = np.array([_number(v) for v in arr.flat]).reshape(arr.shape)
    if arr.shape != (size, 3) or arr.dtype.kind not in "iuf" or _holds_bool(values, arr):
        raise ValueError(f"{name}: expected {size} points of 3 numbers [x, y, c]")
    # Through float64, so an integer rounds as the same number written as a float.
    with np.errstate(over="ignore"):  # beyond float32 becomes inf, rejected below
        arr = arr.astype(np.float64, copy=False).astype(np.float32)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: contains non-finite values")
    if arr[:, 2].min() < 0.0 or arr[:, 2].max() > 1.0:
        raise ValueError(f"{name}: confidence outside [0, 1]")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RawLandmarkFrame:
    """One video frame of raw extractor landmarks.

    Each group is an (N, 3) array of (x, y, confidence); coordinates are
    normalized image coordinates and confidences lie in [0, 1].
    """

    body: np.ndarray
    face: np.ndarray
    left_hand: np.ndarray
    right_hand: np.ndarray

    def __post_init__(self) -> None:
        for name, size in LANDMARK_GROUPS.items():
            object.__setattr__(self, name, landmark_group(getattr(self, name), size, name))

    def stacked(self) -> np.ndarray:
        """All 543 landmarks as one (543, 3) array in canonical group order."""
        return np.concatenate([getattr(self, name) for name in LANDMARK_GROUPS], axis=0)

    @classmethod
    def from_stacked(cls, stacked: np.ndarray) -> "RawLandmarkFrame":
        return cls(
            **{
                name: stacked[GROUP_OFFSETS[name] : GROUP_OFFSETS[name] + size]
                for name, size in LANDMARK_GROUPS.items()
            }
        )


@dataclass(frozen=True)
class PoseSequence:
    """Ordered pose frames for one word clip or one stitched sentence.

    ``frames`` is a read-only (T, 152) float32 array; row t is frame t.
    """

    frames: np.ndarray
    source_id: str = ""

    def __post_init__(self) -> None:
        arr = np.array(self.frames, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[1] != FRAME_DIM:
            raise ValueError(f"frames: expected (T, {FRAME_DIM}), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("frames: sequence must be non-empty")
        if not np.isfinite(arr).all():
            raise ValueError("frames: contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    def __len__(self) -> int:
        return self.frames.shape[0]
