"""File formats: binary pose files, raw landmark JSONL, dataset manifests.

Pose payloads are binary (stitched datasets scale to millions of sequences);
manifests and stats stay as human-auditable JSON.  Every writer is atomic
(temp file in the target directory, then rename), and every read/write pair
round-trips exactly.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .corpus import LengthHistogram
from .pose import (
    BODY_LANDMARKS,
    FACE_LANDMARKS,
    FRAME_DIM,
    HAND_LANDMARKS,
    PoseSequence,
    RawLandmarkFrame,
    SentenceRecord,
)
from .stitch import SignLexicon

POSE_FILE_VERSION = "psp-v1"
POSE_FILE_SUFFIX = ".psp"


class DataError(Exception):
    """Malformed or inconsistent data in a file; maps to CLI exit code 2."""


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None) -> Iterator[IO]:
    """Stream a file into place: writes go to a temp file in the target
    directory, which replaces ``path`` only if the block exits cleanly and is
    removed otherwise.  ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``."""
    path = Path(path)
    # Exclusive create under a random name, as mkstemp does, but with mode
    # 0o666 so the umask sets the permissions, as for a plain open().
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, data: bytes) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(data)


# --- pose files ---------------------------------------------------------------


def write_pose_file(path, seq: PoseSequence) -> None:
    """Header line (JSON) followed by n_frames x 152 little-endian float32."""
    header = {
        "version": POSE_FILE_VERSION,
        "n_frames": len(seq),
        "dims": FRAME_DIM,
        "source_id": seq.source_id,
    }
    payload = np.ascontiguousarray(seq.frames, dtype="<f4").tobytes()
    _atomic_write(Path(path), json.dumps(header).encode("utf-8") + b"\n" + payload)


def read_pose_file(path) -> PoseSequence:
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: malformed header: {exc}") from None
    if header.get("version") != POSE_FILE_VERSION:
        raise DataError(f"{path}: unsupported version {header.get('version')!r}")
    if header.get("dims") != FRAME_DIM:
        raise DataError(f"{path}: dims must be {FRAME_DIM}, got {header.get('dims')}")
    n_frames = header.get("n_frames")
    if not isinstance(n_frames, int) or n_frames < 1:
        raise DataError(f"{path}: invalid n_frames {n_frames!r}")
    expected = n_frames * FRAME_DIM * 4
    if len(payload) != expected:
        raise DataError(
            f"{path}: payload is {len(payload)} bytes at offset {len(header_line)}, "
            f"expected {expected}"
        )
    frames = np.frombuffer(payload, dtype="<f4").reshape(n_frames, FRAME_DIM)
    if not np.isfinite(frames).all():
        bad = int(np.flatnonzero(~np.isfinite(frames))[0])
        raise DataError(f"{path}: non-finite value at flat offset {bad}")
    return PoseSequence(frames=frames, source_id=str(header.get("source_id", "")))


def load_sign_lexicon(directory) -> SignLexicon:
    """Read every .psp file in a directory; the word is the file stem."""
    directory = Path(directory)
    clips = {}
    for path in sorted(directory.glob(f"*{POSE_FILE_SUFFIX}")):
        clips[path.stem.lower()] = read_pose_file(path)
    if not clips:
        raise DataError(f"{directory}: no {POSE_FILE_SUFFIX} files found")
    return SignLexicon(clips=clips)


# --- raw landmark files ---------------------------------------------------------


_GROUP_SIZES = {
    "body": BODY_LANDMARKS,
    "face": FACE_LANDMARKS,
    "left_hand": HAND_LANDMARKS,
    "right_hand": HAND_LANDMARKS,
}


def read_raw_landmark_file(path) -> list[RawLandmarkFrame]:
    """JSON lines, one frame per line with body/face/left_hand/right_hand arrays."""
    path = Path(path)
    frames = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            groups = {}
            for name, size in _GROUP_SIZES.items():
                value = obj.get(name)
                if not isinstance(value, list) or len(value) != size:
                    raise DataError(
                        f"{path}:{lineno}: {name} must be a list of {size} [x, y, c] points"
                    )
                groups[name] = value
            try:
                frames.append(RawLandmarkFrame(**groups))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if not frames:
        raise DataError(f"{path}: no frames")
    return frames


def write_raw_landmark_file(path, frames: Sequence[RawLandmarkFrame]) -> None:
    lines = []
    for frame in frames:
        lines.append(
            json.dumps(
                {
                    "body": frame.body.tolist(),
                    "face": frame.face.tolist(),
                    "left_hand": frame.left_hand.tolist(),
                    "right_hand": frame.right_hand.tolist(),
                }
            )
        )
    _atomic_write(Path(path), ("\n".join(lines) + "\n").encode("utf-8"))


# --- manifests -----------------------------------------------------------------


def record_to_json(record: SentenceRecord) -> dict:
    obj: dict = {
        "id": record.id,
        "text": list(record.text),
        "phenomenon": record.phenomenon,
        "word_order": record.word_order,
    }
    if record.pose_path is not None:
        obj["pose_path"] = record.pose_path
        obj["n_frames"] = record.n_frames
    elif record.n_frames is not None:
        obj["n_frames"] = record.n_frames
    return obj


def record_from_json(obj: dict) -> SentenceRecord:
    return SentenceRecord(
        id=obj["id"],
        text=tuple(obj["text"]),
        phenomenon=obj.get("phenomenon", "custom"),
        word_order=obj.get("word_order", "swo"),
        pose_path=obj.get("pose_path"),
        n_frames=obj.get("n_frames"),
    )


def write_manifest(path, records: Iterable[SentenceRecord]) -> None:
    lines = []
    seen: set[str] = set()
    for record in records:
        if record.id in seen:
            raise DataError(f"duplicate record id {record.id!r}")
        seen.add(record.id)
        lines.append(json.dumps(record_to_json(record)))
    _atomic_write(Path(path), ("\n".join(lines) + "\n" if lines else "").encode("utf-8"))


def read_manifest(path) -> list[SentenceRecord]:
    path = Path(path)
    records = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                record = record_from_json(obj)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if record.id in seen:
                raise DataError(f"{path}:{lineno}: duplicate record id {record.id!r}")
            seen.add(record.id)
            records.append(record)
    return records


def read_text_corpus(path, id_prefix: str = "line") -> list[SentenceRecord]:
    """Plain text, one whitespace-tokenized sentence per line; blank lines skipped."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if tokens:
                records.append(SentenceRecord(id=f"{id_prefix}{lineno:06d}", text=tuple(tokens)))
    return records


def _histogram_json(hist: LengthHistogram) -> dict:
    return {
        "bins": {str(k): v for k, v in sorted(hist.bins.items())},
        "mean": hist.mean,
        "total": hist.total,
    }


def compute_stats(records: Sequence[SentenceRecord]) -> dict:
    """Manifest statistics: sentence count, length/frame histograms, vocab size."""
    length_hist = LengthHistogram.from_lengths(len(r.text) for r in records)
    frame_hist = LengthHistogram.from_lengths(
        r.n_frames for r in records if r.n_frames is not None
    )
    vocab = {tok.lower() for r in records for tok in r.text}
    return {
        "n_sentences": len(records),
        "length_histogram": _histogram_json(length_hist),
        "frame_histogram": _histogram_json(frame_hist),
        "vocab_size": len(vocab),
    }


def write_stats(path, stats: dict) -> None:
    _atomic_write(Path(path), (json.dumps(stats, indent=2) + "\n").encode("utf-8"))


def write_histogram_csv(path, hist: LengthHistogram) -> None:
    lines = ["length,count"]
    lines.extend(f"{k},{v}" for k, v in sorted(hist.bins.items()))
    _atomic_write(Path(path), ("\n".join(lines) + "\n").encode("utf-8"))
