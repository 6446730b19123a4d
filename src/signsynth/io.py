"""File formats: binary pose files, raw landmark JSONL, dataset manifests.

Pose payloads are binary (stitched datasets scale to millions of sequences);
manifests and stats stay as human-auditable JSON.  A single file streams
through ``atomic_open`` (temp file in the target directory, then rename); a
set of pose files is written through ``pose_set`` and published as one
directory.  Every read/write pair round-trips exactly.

Every line-based input is read by ``read_lines``: one strict UTF-8 decode
per line, ``\\n`` line ends, and errors that cite ``path:line``.  JSON lines
are parsed with ``orjson``.  A line that orjson would read differently from
the stdlib ``json`` module (an integer beyond 64 bits, deep nesting), that it
rejects, or that is not an object is read by ``json`` instead, so the
accepted inputs, the values and the error messages are those of ``json``.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
import orjson

from .corpus import LengthHistogram
from .pose import (
    FRAME_DIM,
    LANDMARK_GROUPS,
    PoseSequence,
    RawLandmarkFrame,
    SentenceRecord,
    landmark_group,
)
from .stitch import SignLexicon

POSE_FILE_VERSION = "psp-v1"
POSE_FILE_SUFFIX = ".psp"
MAX_FILE_STEM_BYTES = 200

T = TypeVar("T")


class DataError(ValueError):
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


@contextmanager
def staged_dir(out_dir) -> Iterator[Path]:
    """Yield an empty sibling temp dir whose files are published to
    ``out_dir`` only if the block exits cleanly.

    The stage is renamed onto ``out_dir`` when that is absent or an empty
    directory; otherwise (a non-empty directory, or a symlink to one) each
    staged file is moved in with ``os.replace``, overwriting files of the same
    name and keeping the rest.  If the block raises, the stage is removed,
    ``out_dir`` is not touched, and the missing parents of ``out_dir`` that
    were created for the stage are removed while they are empty.
    """
    out_dir = Path(out_dir)
    made = [p for p in out_dir.parents if not p.exists()]  # innermost first
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    stage = out_dir.parent / f".{out_dir.name}.{secrets.token_hex(8)}.tmp"
    stage.mkdir()  # mode 0o777 under the umask, as a plain mkdir
    try:
        yield stage
        if out_dir.is_dir() and (out_dir.is_symlink() or any(out_dir.iterdir())):
            for path in stage.iterdir():
                os.replace(path, out_dir / path.name)
            stage.rmdir()
        else:
            os.replace(stage, out_dir)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        for parent in made:
            try:
                parent.rmdir()
            except OSError:  # no longer empty, or already gone
                break
        raise


# Lines that orjson.loads reads differently from json.loads show up in one
# bytes.translate of the line: digits become "0"; ",", ":", "-" and
# whitespace, which with "[" are the bytes a number's digits can follow,
# become ","; and "{" becomes "[", so that one count sees every opening
# bracket.
_ORJSON_GUARD = bytes.maketrans(b"0123456789{:-\t\n\v\f\r ", b"0000000000[,,,,,,,,")
# orjson reads an integer beyond 64 bits as a float; json reads it exactly.
# Every such integer is a token of 19 or more digits.
_LONG_INT = (b"," + b"0" * 19, b"[" + b"0" * 19)
# orjson has no nesting limit; json raises RecursionError near the
# interpreter's recursion limit (1000 by default).  Fewer opening brackets
# than this keep a line well below that.
_ORJSON_MAX_BRACKETS = 768


def _orjson_object(line: str) -> dict | None:
    """``orjson.loads(line)`` when that is an object that json would read the
    same; otherwise None."""
    guard = line.encode("utf-8").translate(_ORJSON_GUARD)
    if guard.count(b"[") >= _ORJSON_MAX_BRACKETS or any(run in guard for run in _LONG_INT):
        return None
    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError:
        return None
    return obj if type(obj) is dict else None


def _json_object(line: str) -> dict | None:
    """The stdlib reading of one line: its JSON object, or None if blank."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def read_lines(path, parse: Callable[[str], T | None]) -> Iterator[tuple[int, T]]:
    """Yield ``(lineno, parse(line))`` for each line of a UTF-8 text file,
    skipping lines for which ``parse`` returns None.  A line ends at ``\\n``
    and loses one trailing ``\\r``.  Invalid UTF-8, or a KeyError, TypeError
    or ValueError from ``parse``, raises DataError citing ``path:lineno``."""
    with open(path, "rb") as fh:  # decoded per line, so a bad byte has a line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid UTF-8: {exc}") from None
            try:
                value = parse(line.removesuffix("\n").removesuffix("\r"))
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if value is not None:
                yield lineno, value


def read_jsonl(path, parse: Callable[[dict], T | None]) -> Iterator[tuple[int, T]]:
    """``read_lines`` over JSON lines: ``parse`` gets each non-blank line's
    JSON object.  Invalid JSON or a non-object line is a DataError too.
    Lines are parsed as ``json.loads`` parses them (see the module notes)."""

    def json_line(line: str) -> T | None:
        obj = _orjson_object(line)
        if obj is None:
            obj = _json_object(line)
        return None if obj is None else parse(obj)

    return read_lines(path, json_line)


def check_file_stem(name: str) -> None:
    """Reject a record id that cannot name a file inside one directory: empty,
    ``.`` or ``..``, containing ``/``, ``\\`` or NUL, or longer than
    MAX_FILE_STEM_BYTES in UTF-8."""
    if (
        name in ("", ".", "..")
        or any(c in name for c in "/\\\0")
        or len(name.encode("utf-8", "surrogatepass")) > MAX_FILE_STEM_BYTES
    ):
        raise DataError(f"record id {name!r} cannot be used as a file name")


# --- pose files ---------------------------------------------------------------


def encode_pose(seq: PoseSequence) -> bytes:
    """Header line (JSON) followed by n_frames x 152 little-endian float32."""
    header = {
        "version": POSE_FILE_VERSION,
        "n_frames": len(seq),
        "dims": FRAME_DIM,
        "source_id": seq.source_id,
    }
    payload = np.ascontiguousarray(seq.frames, dtype="<f4").tobytes()
    return json.dumps(header).encode("utf-8") + b"\n" + payload


def write_pose_file(path, seq: PoseSequence) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(encode_pose(seq))


@contextmanager
def pose_set(out_dir) -> Iterator[Callable[[str, PoseSequence], str]]:
    """Yield ``write(stem, seq)``, which creates ``<stem>.psp`` in a
    ``staged_dir`` stage and returns its published path in ``out_dir``.  The
    block's files reach ``out_dir`` as a set: all of them, or on error none.
    A stem that ``check_file_stem`` rejects is a DataError before any file
    is opened."""
    out_dir = Path(out_dir)
    with staged_dir(out_dir) as stage:

        def write(stem: str, seq: PoseSequence) -> str:
            check_file_stem(stem)
            # Fresh names in a private stage: a plain exclusive create is
            # enough, since the stage is published as a whole.
            name = f"{stem}{POSE_FILE_SUFFIX}"
            with open(stage / name, "xb") as fh:
                fh.write(encode_pose(seq))
            return str(out_dir / name)

        yield write


def read_pose_file(path) -> PoseSequence:
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = _json_object(header_line.decode("utf-8"))
        if header is None:
            raise ValueError("blank line")
    except ValueError as exc:  # also UnicodeDecodeError
        raise DataError(f"{path}: malformed header: {exc}") from None
    if header.get("version") != POSE_FILE_VERSION:
        raise DataError(f"{path}: unsupported version {header.get('version')!r}")
    dims = header.get("dims")
    if type(dims) is not int or dims != FRAME_DIM:  # not 152.0, not true
        raise DataError(f"{path}: dims must be {FRAME_DIM}, got {dims!r}")
    n_frames = header.get("n_frames")
    if type(n_frames) is not int or n_frames < 1:  # JSON true is not a count
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
    source_id = header.get("source_id", "")
    if not isinstance(source_id, str):
        raise DataError(f"{path}: source_id must be a string, got {source_id!r}")
    return PoseSequence(frames=frames, source_id=source_id)


def files_by_word(directory, suffix: str) -> dict[str, Path]:
    """Map the case-folded stem of each ``*suffix`` file in a directory to its
    path, in sorted path order; two files that fold to the same word are a
    DataError naming both."""
    paths: dict[str, Path] = {}
    for path in sorted(Path(directory).glob(f"*{suffix}")):
        first = paths.setdefault(path.stem.lower(), path)
        if first != path:
            raise DataError(f"{first} and {path} are both the word {path.stem.lower()!r}")
    return paths


def load_sign_lexicon(directory) -> SignLexicon:
    """Read every .psp file in a directory; the word is the case-folded file
    stem (see ``files_by_word``)."""
    directory = Path(directory)
    paths = files_by_word(directory, POSE_FILE_SUFFIX)
    if not paths:
        raise DataError(f"{directory}: no {POSE_FILE_SUFFIX} files found")
    return SignLexicon(clips={word: read_pose_file(path) for word, path in paths.items()})


# --- raw landmark files ---------------------------------------------------------


def _raw_frame(obj: dict) -> np.ndarray:
    return np.concatenate(
        [landmark_group(obj[name], size, name) for name, size in LANDMARK_GROUPS.items()]
    )


def read_raw_landmark_file(path) -> np.ndarray:
    """JSON lines, one frame per line with body/face/left_hand/right_hand
    lists of [x, y, confidence] points.  Returns the clip as one (T, 543, 3)
    float32 array in canonical group order."""
    frames = [frame for _, frame in read_jsonl(path, _raw_frame)]
    if not frames:
        raise DataError(f"{path}: no frames")
    return np.stack(frames)


def write_raw_landmark_file(path, frames: Sequence[RawLandmarkFrame]) -> None:
    with atomic_open(path) as fh:
        for frame in frames:
            fh.write(json.dumps({name: getattr(frame, name).tolist() for name in LANDMARK_GROUPS}))
            fh.write("\n")


# --- manifests -----------------------------------------------------------------


def record_to_json(record: SentenceRecord) -> dict:
    obj: dict = {
        "id": record.id,
        "text": list(record.text),
        "phenomenon": record.phenomenon,
        "word_order": record.word_order,
    }
    if record.pose_path is not None:  # and so n_frames too
        obj["pose_path"] = record.pose_path
    if record.n_frames is not None:
        obj["n_frames"] = record.n_frames
    return obj


def record_from_json(obj: dict) -> SentenceRecord:
    record_id, text = obj["id"], obj["text"]
    pose_path, n_frames = obj.get("pose_path"), obj.get("n_frames")
    phenomenon = obj.get("phenomenon", "custom")
    if not isinstance(record_id, str):
        raise ValueError(f"id must be a string, got {record_id!r}")
    if not isinstance(text, list) or not all(isinstance(tok, str) for tok in text):
        raise ValueError(f"record {record_id!r}: text must be a list of strings")
    if not isinstance(phenomenon, str):
        raise ValueError(f"record {record_id!r}: phenomenon must be a string")
    if pose_path is not None and not isinstance(pose_path, str):
        raise ValueError(f"record {record_id!r}: pose_path must be a string")
    if n_frames is not None and (isinstance(n_frames, bool) or not isinstance(n_frames, int)):
        raise ValueError(f"record {record_id!r}: n_frames must be an integer")
    return SentenceRecord(
        id=record_id,
        text=tuple(text),
        phenomenon=phenomenon,
        word_order=obj.get("word_order", "swo"),
        pose_path=pose_path,
        n_frames=n_frames,
    )


def write_manifest(path, records: Iterable[SentenceRecord]) -> None:
    seen: set[str] = set()
    with atomic_open(path) as fh:
        for record in records:
            if record.id in seen:
                raise DataError(f"duplicate record id {record.id!r}")
            seen.add(record.id)
            fh.write(json.dumps(record_to_json(record)) + "\n")


def read_manifest(path) -> list[SentenceRecord]:
    records = []
    seen: set[str] = set()
    for lineno, record in read_jsonl(path, record_from_json):
        if record.id in seen:
            raise DataError(f"{path}:{lineno}: duplicate record id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def read_text_corpus(path, id_prefix: str = "line") -> list[SentenceRecord]:
    """Plain text, one whitespace-tokenized sentence per line; blank lines skipped."""
    return [
        SentenceRecord(id=f"{id_prefix}{lineno:06d}", text=tuple(tokens))
        for lineno, tokens in read_lines(path, lambda line: line.split() or None)
    ]


def read_word_list(path) -> set[str]:
    """One word per line, stripped and case-folded; blank lines skipped."""
    return {word for _, word in read_lines(path, lambda line: line.strip().lower() or None)}


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
    with atomic_open(path) as fh:
        fh.write(json.dumps(stats, indent=2) + "\n")


def write_histogram_csv(path, hist: LengthHistogram) -> None:
    with atomic_open(path) as fh:
        fh.write("length,count\n")
        for k, v in sorted(hist.bins.items()):
            fh.write(f"{k},{v}\n")
