"""File formats: binary pose files, raw landmark JSONL, dataset manifests.

Pose payloads are binary (stitched datasets scale to millions of sequences);
manifests and stats stay as human-auditable JSON.  ``atomic_open`` (a file)
and ``pose_set`` (a directory of pose files) only stage their output, and
``outputs()`` publishes a command's outputs as one commit.  Every read/write
pair round-trips exactly, but for a string built in code that holds a high
surrogate followed by a low one: it is written as the two escapes of a
surrogate pair, which every JSON reader reads back as one character.

Every line-based input is read by ``read_lines``: one strict UTF-8 decode
per line, ``\\n`` line ends, and errors that cite ``path:line``.  JSON lines
are parsed by the stdlib ``json`` module alone (``_json_object``).
``read_raw_landmark_file`` decodes a plain frame line in one pass with
``orjson`` (``_plain_frame``): its only strings are the four group keys, it
holds no ``true``, ``false`` or ``null``, and it holds the four groups at
their sizes of 3-number points, every value below 2**63 in magnitude as
float32, with confidences in [0, 1].  orjson reads every number token of
such a line as ``json`` does, integers and exponent forms included; only an
integer outside the 64-bit range, which it reads as a float, is that large.
Every other line takes the ``read_jsonl`` path, which alone gives its
values and every error.

A manifest line is written by ``encode_record`` from fixed keys, in the
order ``id, text, phenomenon, word_order[, pose_path][, n_frames]``, with
``", "`` and ``": "`` as separators and every non-ASCII character as a
``\\u`` escape: the bytes ``json.dumps`` gives for that object.
``record_from_json`` only maps a line's keys to ``SentenceRecord``, whose
field checks are the manifest's record rules, so any record can be written
to a manifest.  Each manifest or text corpus read keeps one dict of the
strings it has met, so its records share one string per distinct token:
a Zipfian corpus repeats a few thousand types across all its sentences.

numpy, orjson and the pose types are imported by the functions that read or
write pose and landmark files, so the text commands never load them.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .corpus import LengthHistogram, length_stats
from .records import SentenceRecord, _all_str

if TYPE_CHECKING:
    import numpy as np

    from .pose import PoseSequence, RawLandmarkFrame
    from .stitch import SignLexicon

POSE_FILE_VERSION = "psp-v1"
POSE_FILE_SUFFIX = ".psp"
MAX_FILE_STEM_BYTES = 200

T = TypeVar("T")


class DataError(ValueError):
    """Malformed or inconsistent data in a file; maps to CLI exit code 2."""


# A stage is a temp file, or a temp dir holding a pose set, beside its target;
# ``made`` lists the missing parents created for it.
_Stage = namedtuple("_Stage", "tmp target pose_set made")
# The stages of the outermost ``outputs()`` block running in this context.
_COMMIT: ContextVar[list | None] = ContextVar("signsynth_outputs", default=None)
# A stage is named ".<name>.<16 hex>.tmp"; the longest <name> that keeps it
# within the 255 bytes a file name may have.
_STAGE_NAME_BYTES = 255 - len("..0123456789abcdef.tmp")


@contextmanager
def outputs() -> Iterator[None]:
    """Publish what ``atomic_open`` and ``pose_set`` stage in the block as one
    commit; if it raises, remove the stages and the parents made for them.
    A nested block joins the enclosing one.  Every target is checked before
    the first rename: no two stages may name one path once resolved, a file
    must not replace a directory or a pose file of the same commit, a pose
    set must go to a directory or a free name.  Pose sets go first, so a
    manifest never names missing poses: renamed onto an absent or empty
    directory, else moved in file by file.
    Only the renames are a window: a crash among them leaves the commit
    partly published."""
    if _COMMIT.get() is not None:  # the enclosing block owns the commit
        yield
        return
    stages: list[_Stage] = []
    token = _COMMIT.set(stages)
    try:
        yield
        _publish(stages)
    except BaseException:
        for tmp, _, pose_set, made in reversed(stages):
            if pose_set:
                shutil.rmtree(tmp, ignore_errors=True)
            else:
                tmp.unlink(missing_ok=True)
            for parent in made:  # innermost first
                try:
                    parent.rmdir()
                except OSError:  # no longer empty, or already gone
                    break
        raise
    finally:
        _COMMIT.reset(token)


def _publish(stages: list[_Stage]) -> None:
    pose_sets = {stage.target.resolve(): stage.tmp for stage in stages if stage.pose_set}
    seen = set()
    for _, target, pose_set, _ in stages:  # every target, before the first rename
        # One lookup per file: does a pose set of this commit hold its name?
        staged = None if pose_set else pose_sets.get(target.parent.resolve())
        if (real := target.resolve()) in seen or (staged and (staged / target.name).exists()):
            raise DataError(f"{target}: one path given for two outputs")
        seen.add(real)
        if (os.path.lexists(target) and not target.is_dir()) if pose_set else target.is_dir():
            code = errno.ENOTDIR if pose_set else errno.EISDIR
            raise OSError(code, os.strerror(code), str(target))
    for tmp, target, pose_set, _ in sorted(stages, key=lambda stage: not stage.pose_set):
        if pose_set and target.is_dir() and (target.is_symlink() or any(target.iterdir())):
            for path in tmp.iterdir():  # replacing files of the same name
                os.replace(path, target / path.name)
            tmp.rmdir()
        else:
            os.replace(tmp, target)


def _stage(target: Path, pose_set: bool = False) -> Path:
    """A fresh temp name beside ``target``, registered with the active commit.
    The copy of the target's name it holds is cut, on a character boundary,
    so the stage name stays within NAME_MAX; the random hex keeps it unique.
    It comes from os.urandom: ``secrets`` imports ``hmac``, and with it
    OpenSSL's libcrypto."""
    made = [p for p in target.parents if not p.exists()] if pose_set else []
    name = os.fsencode(target.name)[:_STAGE_NAME_BYTES].decode("utf-8", "ignore")
    tmp = target.parent / f".{name}.{os.urandom(8).hex()}.tmp"
    _COMMIT.get().append(_Stage(tmp, target, pose_set, made))
    return tmp


@contextmanager
def atomic_open(path, mode: str = "w") -> Iterator[IO]:
    """Stream ``path`` via a temp file staged beside it; ``mode`` is ``"w"``
    (UTF-8, line ends written as given on every platform) or ``"wb"``."""
    with outputs():
        tmp = _stage(Path(path))
        text_args = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
        # "x": an exclusive create, under the umask as for a plain open()
        with open(tmp, mode.replace("w", "x"), **text_args) as fh:
            yield fh


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


def _json_line(line: str, parse: Callable[[dict], T | None]) -> T | None:
    obj = _json_object(line)
    return None if obj is None else parse(obj)


def read_jsonl(path, parse: Callable[[dict], T | None]) -> Iterator[tuple[int, T]]:
    """``read_lines`` over JSON lines: ``parse`` gets each non-blank line's
    JSON object, as ``json.loads`` reads it.  Invalid JSON or a non-object
    line is a DataError too."""
    return read_lines(path, lambda line: _json_line(line, parse))


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


# json.dumps's own string encoder: the quoted string, with every non-ASCII
# character, control character and lone surrogate as a \u escape.
_json_str = json.encoder.encode_basestring_ascii


# --- pose files ---------------------------------------------------------------


def encode_pose(seq: PoseSequence) -> bytes:
    """Header line (JSON) followed by n_frames x 152 little-endian float32.
    The header is built from fixed keys: the bytes ``json.dumps`` gives for
    ``{"version", "n_frames", "dims", "source_id"}``."""
    import numpy as np

    from .pose import FRAME_DIM

    header = (
        f'{{"version": "{POSE_FILE_VERSION}", "n_frames": {len(seq)}, '
        f'"dims": {FRAME_DIM}, "source_id": {_json_str(seq.source_id)}}}\n'
    )
    return header.encode("ascii") + np.ascontiguousarray(seq.frames, dtype="<f4").tobytes()


def write_pose_file(path, seq: PoseSequence) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(encode_pose(seq))


@contextmanager
def pose_set(out_dir) -> Iterator[Callable[[str, PoseSequence], str]]:
    """Yield ``write(stem, seq)``, which stages ``<stem>.psp`` beside ``out_dir``
    for the ``outputs()`` commit and returns its published path.  A stem that
    ``check_file_stem`` rejects is a DataError before any file is opened.

    ``write`` may be called from processes forked inside the block.  Each
    forked process writes into its own directory in the stage, since creates
    from two processes into one directory are slower than from one; when the
    block ends, the files are renamed into the stage.  A stem written twice
    is a FileExistsError, in one process or across two."""
    out_dir = Path(out_dir)
    with outputs():
        stage = _stage(out_dir, pose_set=True)
        stage.mkdir(parents=True)  # mode 0o777 under the umask, as a plain mkdir
        dirs = {os.getpid(): stage}  # a forked process adds its own to its copy

        def write(stem: str, seq: PoseSequence) -> str:
            check_file_stem(stem)
            name = f"{stem}{POSE_FILE_SUFFIX}"
            pid = os.getpid()
            if pid not in dirs:  # named without the pose suffix, so no stem can take it
                dirs[pid] = stage / f".{pid}.worker"
                dirs[pid].mkdir(exist_ok=True)  # a reused pid: an earlier worker's
            with open(dirs[pid] / name, "xb") as fh:
                fh.write(encode_pose(seq))
            return str(out_dir / name)

        yield write
        for worker in sorted(e.path for e in os.scandir(stage) if e.is_dir(follow_symlinks=False)):
            for name in sorted(os.listdir(worker)):
                target = stage / name
                if os.path.lexists(target):  # os.rename would replace it
                    raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(target))
                os.rename(os.path.join(worker, name), target)
            os.rmdir(worker)


def read_pose_file(path) -> PoseSequence:
    import numpy as np

    from .pose import FRAME_DIM, PoseSequence

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
    from .stitch import SignLexicon

    directory = Path(directory)
    paths = files_by_word(directory, POSE_FILE_SUFFIX)
    if not paths:
        raise DataError(f"{directory}: no {POSE_FILE_SUFFIX} files found")
    return SignLexicon(clips={word: read_pose_file(path) for word, path in paths.items()})


# --- raw landmark files ---------------------------------------------------------


def _raw_frame(obj: dict) -> np.ndarray:
    import numpy as np

    from .pose import LANDMARK_GROUPS, landmark_group

    return np.concatenate(
        [landmark_group(obj[name], size, name) for name, size in LANDMARK_GROUPS.items()]
    )


# A frame line holds 8 '"' and 4 + 543 '['; of its bytes, only the 'y' of
# "body", the 't' of each hand key, '{' and '}' are at or above 's'.
_FRAME_QUOTES, _FRAME_HIGH_BYTES = 8, 5
# Below this magnitude orjson reads every number token as json does.
_FRAME_MAX_ABS = 2.0**63


# Why a line that _plain_frame accepts reads exactly as json and
# landmark_group read it:
# - its 8 quotes are the four group keys, so no value is a string and no key
#   is repeated or extra; so too a point of 3 items is a list;
# - its 5 bytes at or above 's' are those of the keys and the outer braces,
#   so no value is an object, true, false or null, which each hold such a
#   byte; a list value makes np.fromiter raise, and the line falls back;
# - so every value is a number.  orjson reads a token below 2**63 in
#   magnitude as json does (tests/test_io.py checks this); any other token
#   reads as at least 2**63 in float32 either way, as does a value beyond
#   float32, which becomes inf, and the frame is refused.  orjson never
#   returns NaN;
# - its 547 '[' are the 4 groups and the 543 points, so orjson, which has no
#   nesting limit, never meets the deep nesting at which json raises.
def _plain_frame(line: str) -> np.ndarray | None:
    """The (543, 3) float32 frame of a plain frame line, decoded in one pass;
    else None, and the line takes ``_json_line`` and ``_raw_frame``, which
    alone give the values of other lines and every error."""
    import numpy as np
    import orjson

    from .pose import LANDMARK_GROUPS, TOTAL_LANDMARKS

    codes = np.frombuffer(line.encode(), np.uint8)  # in UTF-8 an ASCII byte is a character
    if (
        np.count_nonzero(codes == ord('"')) != _FRAME_QUOTES
        or np.count_nonzero(codes == ord("[")) != 4 + TOTAL_LANDMARKS
        or np.count_nonzero(codes >= ord("s")) != _FRAME_HIGH_BYTES
    ):
        return None
    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError:
        return None
    if type(obj) is not dict or obj.keys() != LANDMARK_GROUPS.keys():
        return None
    points: list = []
    for name, size in LANDMARK_GROUPS.items():
        group = obj[name]
        if type(group) is not list or len(group) != size:
            return None
        points += group
    try:
        if set(map(len, points)) != {3}:
            return None
        values = np.fromiter(chain.from_iterable(points), np.float64, 3 * TOTAL_LANDMARKS)
    except (TypeError, ValueError):  # a point or value that is not a list or number
        return None
    with np.errstate(over="ignore"):  # beyond float32 becomes inf, refused below
        frame = values.astype(np.float32).reshape(TOTAL_LANDMARKS, 3)
    confidence = frame[:, 2]
    if not np.abs(frame).max() < _FRAME_MAX_ABS or confidence.min() < 0.0 or confidence.max() > 1.0:
        return None
    return frame


def _raw_line(line: str) -> np.ndarray | None:
    frame = _plain_frame(line)
    return _json_line(line, _raw_frame) if frame is None else frame


def read_raw_landmark_file(path) -> np.ndarray:
    """JSON lines, one frame per line with body/face/left_hand/right_hand
    lists of [x, y, confidence] points.  Returns the clip as one (T, 543, 3)
    float32 array in canonical group order.  A plain frame line is decoded in
    one pass (``_plain_frame``); any other reads as ``read_jsonl`` reads it."""
    import numpy as np

    frames = [frame for _, frame in read_lines(path, _raw_line)]
    if not frames:
        raise DataError(f"{path}: no frames")
    return np.stack(frames)


def write_raw_landmark_file(path, frames: Sequence[RawLandmarkFrame]) -> None:
    from .pose import LANDMARK_GROUPS

    with atomic_open(path) as fh:
        for frame in frames:
            fh.write(json.dumps({name: getattr(frame, name).tolist() for name in LANDMARK_GROUPS}))
            fh.write("\n")


# --- manifests -----------------------------------------------------------------


def encode_record(record: SentenceRecord) -> str:
    """One manifest line, without its newline, built from fixed keys: the
    bytes ``json.dumps`` gives for the record's object, whose keys are
    ``id, text, phenomenon, word_order[, pose_path][, n_frames]``."""
    line = (
        f'{{"id": {_json_str(record.id)}, "text": [{", ".join(map(_json_str, record.text))}], '
        f'"phenomenon": {_json_str(record.phenomenon)}, '
        f'"word_order": {_json_str(record.word_order)}'
    )
    if record.pose_path is not None:  # and so n_frames too
        line += f', "pose_path": {_json_str(record.pose_path)}'
    if record.n_frames is not None:
        line += f', "n_frames": {int.__repr__(record.n_frames)}'
    return line + "}"


def encode_token_ids(record_id: str, ids: Sequence[int]) -> str:
    """One ``tokenize encode`` row, ``{"id": ..., "ids": [...]}``, as ``json.dumps`` writes it."""
    return f'{{"id": {_json_str(record_id)}, "ids": [{", ".join(map(int.__repr__, ids))}]}}'


def record_from_json(obj: dict, strings: dict[str, str]) -> SentenceRecord:
    """The record one manifest line holds; ``SentenceRecord`` checks its fields.
    Each token, ``phenomenon`` and ``word_order`` that is a string is replaced
    by the equal string that ``strings`` already holds, or added to it, so the
    records read through one dict share one string per distinct value.  Any
    other value goes to ``SentenceRecord`` unchanged."""
    share = strings.setdefault
    record_id, text = obj["id"], obj["text"]  # "id" first: its KeyError is the one reported
    if type(text) is list and _all_str(text):
        text = tuple(map(share, text, text))
    phenomenon, word_order = obj.get("phenomenon", "custom"), obj.get("word_order", "swo")
    return SentenceRecord(  # positional, in field order: faster than keywords
        record_id,
        text,
        share(phenomenon, phenomenon) if type(phenomenon) is str else phenomenon,
        share(word_order, word_order) if type(word_order) is str else word_order,
        obj.get("pose_path"),
        obj.get("n_frames"),
    )


def write_manifest(path, records: Iterable[SentenceRecord]) -> None:
    """One ``encode_record`` line per record; a repeated id is a DataError naming ``path``."""
    seen: set[str] = set()
    with atomic_open(path) as fh:
        for record in records:
            if record.id in seen:
                raise DataError(f"{path}: duplicate record id {record.id!r}")
            seen.add(record.id)
            fh.write(encode_record(record) + "\n")


def read_manifest(path) -> list[SentenceRecord]:
    """The records of a manifest, in line order; its records share one string
    per distinct token, phenomenon and word order (see ``record_from_json``)."""
    records = []
    seen: set[str] = set()
    strings: dict[str, str] = {}
    for lineno, record in read_jsonl(path, lambda obj: record_from_json(obj, strings)):
        if record.id in seen:
            raise DataError(f"{path}:{lineno}: duplicate record id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def read_text_corpus(path) -> list[SentenceRecord]:
    """Plain text, one whitespace-tokenized sentence per line; blank lines
    skipped.  The record of line 7 has the id ``line000007``.  The records
    share one string per distinct token."""
    share = {}.setdefault

    def tokens(line: str) -> tuple[str, ...] | None:
        words = line.split()
        return tuple(map(share, words, words)) or None

    return [
        SentenceRecord(id=f"line{lineno:06d}", text=text)
        for lineno, text in read_lines(path, tokens)
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
    frame_hist = LengthHistogram.from_lengths(
        r.n_frames for r in records if r.n_frames is not None
    )
    vocab = {tok.lower() for r in records for tok in r.text}
    return {
        "n_sentences": len(records),
        "length_histogram": _histogram_json(length_stats(records)),
        "frame_histogram": _histogram_json(frame_hist),
        "vocab_size": len(vocab),
    }


def write_stats(path, stats: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(stats, indent=2) + "\n")


def write_histogram_csv(path, bins: Mapping[str, int]) -> None:
    """``bins`` of a ``compute_stats`` histogram, whose keys are in length order."""
    with atomic_open(path) as fh:
        fh.write("length,count\n")
        for k, v in bins.items():
            fh.write(f"{k},{v}\n")
