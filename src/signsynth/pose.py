"""Core pose-domain types shared by all pipeline stages.

A raw extractor frame carries 543 landmarks (33 body, 468 face, 21 per hand),
each an (x, y, confidence) triple with normalized coordinates.  The pipeline
reduces every frame to 76 selected keypoints flattened into a 152-value
vector with the canonical layout::

    [body (11 kp), face (23 kp), left hand (21 kp), right hand (21 kp)]

with each keypoint contributing adjacent (x, y) values and indices ascending
within each group.  All types are immutable values (backing arrays are
read-only copies), so they are safe to share across threads, and each checks
its fields when it is built: a ``SentenceRecord`` holds only what a manifest
line can carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

BODY_LANDMARKS = 33
FACE_LANDMARKS = 468
HAND_LANDMARKS = 21
TOTAL_LANDMARKS = BODY_LANDMARKS + FACE_LANDMARKS + 2 * HAND_LANDMARKS  # 543

SELECTED_BODY = 11
SELECTED_FACE = 23
SELECTED_KEYPOINTS = SELECTED_BODY + SELECTED_FACE + 2 * HAND_LANDMARKS  # 76
FRAME_DIM = 2 * SELECTED_KEYPOINTS  # 152

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

# Face mesh points kept: mouth corners, outer lips, eyebrows, eye contours,
# and the nose top.
SELECTED_FACE_INDICES = (
    0, 9, 17, 33, 61, 70, 105, 107, 133, 153, 158, 161, 163,
    263, 291, 300, 334, 336, 362, 380, 385, 388, 390,
)


def _frozen_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float32)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: contains non-finite values")
    arr.setflags(write=False)
    return arr


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
    with np.errstate(over="ignore"):  # beyond float32 becomes inf, rejected below
        arr = arr.astype(np.float32)
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
class PoseFrame:
    """A selected, flattened 152-value pose vector."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, (FRAME_DIM,), "values"))

    def __len__(self) -> int:
        return FRAME_DIM


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

    def __iter__(self) -> Iterator[PoseFrame]:
        return (PoseFrame(row) for row in self.frames)

    def frame(self, i: int) -> PoseFrame:
        return PoseFrame(self.frames[i])


WORD_ORDERS = ("swo", "rwo")


def _all_str(items) -> bool:
    try:
        "".join(items)  # one C-level pass; a TypeError unless every item is a str
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class SentenceRecord:
    """One manifest row: sentence text plus provenance and pose reference.
    Every field is checked here (``text`` a list or tuple of str, kept as a
    tuple; ``n_frames`` an int, not a bool), so any record can be written."""

    id: str
    text: tuple[str, ...]
    phenomenon: str = "custom"
    word_order: str = "swo"
    pose_path: Optional[str] = None
    n_frames: Optional[int] = None

    def __post_init__(self) -> None:
        record_id, text, n_frames = self.id, self.text, self.n_frames
        if not isinstance(record_id, str):
            raise ValueError(f"id must be a string, got {record_id!r}")
        if not isinstance(text, (list, tuple)) or not _all_str(text):
            raise ValueError(f"record {record_id!r}: text must be a list of strings")
        if not isinstance(self.phenomenon, str):
            raise ValueError(f"record {record_id!r}: phenomenon must be a string")
        if self.pose_path is not None and not isinstance(self.pose_path, str):
            raise ValueError(f"record {record_id!r}: pose_path must be a string")
        if n_frames is not None and (isinstance(n_frames, bool) or not isinstance(n_frames, int)):
            raise ValueError(f"record {record_id!r}: n_frames must be an integer")
        if not text:
            raise ValueError(f"record {record_id!r}: text must be non-empty")
        if self.word_order not in WORD_ORDERS:
            raise ValueError(f"record {record_id!r}: word_order must be one of {WORD_ORDERS}")
        if n_frames is not None and n_frames < 1:
            raise ValueError(f"record {record_id!r}: n_frames must be at least 1")
        if self.pose_path is not None and n_frames is None:
            raise ValueError(f"record {record_id!r}: pose_path set but n_frames missing")
        object.__setattr__(self, "text", tuple(text))


def _validated_indices(indices, size: int, bound: int, name: str) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if len(idx) != size:
        raise ValueError(f"{name}: expected {size} indices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"{name}: indices must be distinct")
    if list(idx) != sorted(idx):
        raise ValueError(f"{name}: indices must be sorted ascending")
    if idx and (idx[0] < 0 or idx[-1] >= bound):
        raise ValueError(f"{name}: indices must lie in [0, {bound})")
    return idx


@dataclass(frozen=True)
class KeypointSelection:
    """Which body and face landmarks survive selection (hands always do)."""

    body_indices: tuple[int, ...] = field(default_factory=tuple)
    face_indices: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "body_indices",
            _validated_indices(self.body_indices, SELECTED_BODY, BODY_LANDMARKS, "body_indices"),
        )
        object.__setattr__(
            self,
            "face_indices",
            _validated_indices(self.face_indices, SELECTED_FACE, FACE_LANDMARKS, "face_indices"),
        )

    def global_indices(self) -> np.ndarray:
        """Selected landmark positions into the stacked 543-landmark array."""
        body = np.asarray(self.body_indices) + GROUP_OFFSETS["body"]
        face = np.asarray(self.face_indices) + GROUP_OFFSETS["face"]
        left = np.arange(HAND_LANDMARKS) + GROUP_OFFSETS["left_hand"]
        right = np.arange(HAND_LANDMARKS) + GROUP_OFFSETS["right_hand"]
        return np.concatenate([body, face, left, right])


def default_selection() -> KeypointSelection:
    """The standard 76-keypoint selection: 11 body + 23 face + both hands."""
    body = tuple(i for i in range(BODY_LANDMARKS) if i not in EXCLUDED_BODY)
    return KeypointSelection(body_indices=body, face_indices=SELECTED_FACE_INDICES)
