"""Sentence-level pose synthesis from word-level clips.

A sentence is stitched by resampling each word clip with the effective
stride, concatenating the clips (in sentence order, or a seeded permutation
for random word order), and inserting linearly interpolated crossfade frames
at every word boundary.  The base stride comes from framerate matching: the
ratio of the mean synthetic sentence frame count to the target dataset's
mean, optionally jittered per sentence by a small multiplier.

Per-sentence randomness (permutation, jitter) is seeded from
(config seed, sentence id), so any sentence can be replayed in isolation.
Datasets are stitched one sentence at a time, each handed to the writer as
soon as it is made, so no pose frames are held beyond the sentence being
written.  The records are held: the input records, the pre-pass's
``(record, words)`` pairs and the output records, about 0.7 KB of memory per
record.  With ``jobs`` above 1, forked workers stitch contiguous runs of
sentences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .parallel import map_chunks
from .pose import FRAME_DIM, WORD_ORDERS, PoseSequence, SentenceRecord
from .seeds import derive_seed


@dataclass(frozen=True)
class SignLexicon:
    """word (case-folded) -> processed word-level pose clip."""

    clips: Mapping[str, PoseSequence] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clips", {w.lower(): seq for w, seq in self.clips.items()})

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.clips

    def clip(self, word: str) -> PoseSequence:
        try:
            return self.clips[word.lower()]
        except KeyError:
            raise KeyError(f"word not in sign lexicon: {word!r}") from None


@dataclass(frozen=True)
class StitchConfig:
    word_order: str = "swo"  # "swo" keeps sentence order, "rwo" permutes
    base_stride: int = 1
    jitter_strides: tuple[int, ...] = (1,)  # (1, 2, 3) enables speed jitter
    crossfade_frames: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.word_order not in WORD_ORDERS:
            raise ValueError(f"word_order must be one of {WORD_ORDERS}, got {self.word_order!r}")
        if self.base_stride < 1:
            raise ValueError(f"base_stride must be >= 1, got {self.base_stride}")
        jitter = tuple(sorted(set(int(j) for j in self.jitter_strides)))
        if not jitter or not set(jitter) <= {1, 2, 3}:
            raise ValueError("jitter_strides must be a non-empty subset of {1, 2, 3}")
        object.__setattr__(self, "jitter_strides", jitter)
        if self.crossfade_frames < 0:
            raise ValueError(f"crossfade_frames must be >= 0, got {self.crossfade_frames}")


@dataclass(frozen=True)
class StitchResult:
    sequence: PoseSequence
    boundaries: tuple[tuple[str, int, int], ...]  # (word, start, end), end exclusive
    applied_stride: int


def compute_sampling_rate(mean_synth_frames: float, mean_target_frames: float) -> int:
    """Stride that matches the synthetic mean frame count to the target's.

    round-half-to-even on the ratio, floored at 1; both means must be finite
    and positive.
    """
    if not (0 < mean_synth_frames < np.inf and 0 < mean_target_frames < np.inf):
        raise ValueError("mean frame counts must be finite and positive")
    return max(1, round(mean_synth_frames / mean_target_frames))


def resample(seq: PoseSequence, stride: int) -> PoseSequence:
    """Keep frames at indices 0, stride, 2*stride, ...; stride 1 is identity."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if stride == 1:
        return seq
    return PoseSequence(frames=seq.frames[::stride], source_id=seq.source_id)


def _crossfade(last: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """n interpolated frames strictly between boundary frames ``last`` and
    ``first``, broadcast over leading axes: (..., D) endpoints give
    (..., n, D) frames.

    Frame j sits at fraction j/(n+1); values are clipped onto the segment so
    every coordinate is an exact convex combination of its endpoints.
    """
    fractions = (np.arange(1, n + 1, dtype=np.float64) / (n + 1))[:, None]
    a = last.astype(np.float64)[..., None, :]
    b = first.astype(np.float64)[..., None, :]
    frames = (1.0 - fractions) * a + fractions * b
    frames = np.clip(frames, np.minimum(a, b), np.maximum(a, b))
    return frames.astype(np.float32)


def stitch_sentence(
    words: Sequence[str], lex: SignLexicon, cfg: StitchConfig, sentence_id: str = ""
) -> StitchResult:
    """Stitch one sentence into a pose sequence with word boundaries.

    Every word is stitched: each clip is looked up once, in sentence order,
    so the first word missing from the lexicon raises its KeyError.  Which
    words of a record to stitch is decided by ``stitch_dataset``.
    """
    if not words:
        raise ValueError("empty word list")
    found = [(word, lex.clip(word).frames) for word in words]

    rng = random.Random(derive_seed(cfg.seed, sentence_id))
    stride = cfg.base_stride * rng.choice(cfg.jitter_strides)
    if cfg.word_order == "rwo":
        rng.shuffle(found)  # Fisher-Yates

    clips = [frames[::stride] for _, frames in found]  # views, no copies
    n_fade = cfg.crossfade_frames if len(clips) > 1 else 0
    if n_fade:
        fades = _crossfade(
            np.stack([clip[-1] for clip in clips[:-1]]),
            np.stack([clip[0] for clip in clips[1:]]),
            n_fade,
        )
    frames = np.empty(
        (sum(map(len, clips)) + n_fade * (len(clips) - 1), FRAME_DIM), dtype=np.float32
    )
    boundaries: list[tuple[str, int, int]] = []
    cursor = 0
    for i, ((word, _), clip) in enumerate(zip(found, clips)):
        if i > 0 and n_fade:
            frames[cursor : cursor + n_fade] = fades[i - 1]
            cursor += n_fade
        frames[cursor : cursor + len(clip)] = clip
        boundaries.append((word, cursor, cursor + len(clip)))
        cursor += len(clip)

    sequence = PoseSequence(frames=frames, source_id=sentence_id)
    return StitchResult(
        sequence=sequence, boundaries=tuple(boundaries), applied_stride=stride
    )


@dataclass(frozen=True)
class StitchDatasetResult:
    records: tuple[SentenceRecord, ...]
    base_stride: int
    skipped: int


def stitch_dataset(
    records: Sequence[SentenceRecord],
    lex: SignLexicon,
    cfg: StitchConfig,
    target_mean_frames: float,
    write_pose: Callable[[str, PoseSequence], str],
    skip_oov: bool = False,
    jobs: int = 1,
) -> StitchDatasetResult:
    """Stitch every record, frame-rate matched against the target mean.

    A pre-pass decides once which words of each record are stitched: a
    record with a word missing from the lexicon is skipped and counted,
    unless ``skip_oov`` is set, in which case it is stitched from its other
    words; a record with no lexicon word is always skipped.  The base stride
    is computed from the pre-pass's mean sentence frame count (sum of its
    word-clip lengths) against target_mean_frames, overriding
    cfg.base_stride.  Each sequence is passed to ``write_pose(record.id,
    sequence)`` (an ``io.pose_set`` writer) as soon as it is made, then
    dropped; ``write_pose`` persists it and returns its path.  Output records
    carry that path and n_frames, in input order.  The stitchable records
    are split over up to ``jobs`` processes (``parallel.map_chunks``) after
    the base stride is fixed, so every sequence is the same at any ``jobs``;
    ``write_pose`` then runs in the worker that made the sequence.
    """
    pre_lengths = []
    stitchable: list[tuple[SentenceRecord, list[str]]] = []
    skipped = 0
    for record in records:
        words = [w for w in record.text if w in lex]
        if not words or (len(words) < len(record.text) and not skip_oov):
            skipped += 1
            continue
        pre_lengths.append(sum(len(lex.clip(w)) for w in words))
        stitchable.append((record, words))
    if not stitchable:
        raise ValueError("no stitchable records")

    pre_mean = sum(pre_lengths) / len(pre_lengths)
    base_stride = compute_sampling_rate(pre_mean, target_mean_frames)
    run_cfg = replace(cfg, base_stride=base_stride)

    def stitch_one(unit: tuple[SentenceRecord, list[str]]) -> tuple[str, int]:
        record, words = unit
        sequence = stitch_sentence(words, lex, run_cfg, sentence_id=record.id).sequence
        return write_pose(record.id, sequence), len(sequence)

    out_records = tuple(
        replace(record, word_order=run_cfg.word_order, pose_path=pose_path, n_frames=n_frames)
        for (record, _), (pose_path, n_frames) in zip(
            stitchable, map_chunks(stitch_one, stitchable, jobs)
        )
    )
    return StitchDatasetResult(records=out_records, base_stride=base_stride, skipped=skipped)
