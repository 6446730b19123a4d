"""The sentence record: one manifest row, with its field checks.

It holds no arrays, so the commands that only handle text load no numpy;
``ingest`` and ``stitch`` load it through ``pose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

WORD_ORDERS = ("swo", "rwo")


def _all_str(items) -> bool:
    try:
        "".join(items)  # one C-level pass; a TypeError unless every item is a str
    except TypeError:
        return False
    return True


@dataclass(frozen=True, slots=True)
class SentenceRecord:
    """One manifest row: sentence text plus provenance and pose reference.
    Every field is checked here (``text`` a list or tuple of str, kept as a
    tuple; ``n_frames`` an int, not a bool), so any record can be written.
    Slotted, with no ``__dict__``: a loaded manifest holds one per line."""

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
