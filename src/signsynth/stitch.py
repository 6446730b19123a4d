"""Sentence-level pose synthesis from word-level clips.

A sentence is stitched by resampling each word clip with the effective
stride, concatenating the clips (in sentence order, or a seeded permutation
for random word order), and inserting linearly interpolated crossfade frames
at every word boundary.  The base stride comes from framerate matching: the
ratio of the mean synthetic sentence frame count to the target dataset's
mean, optionally jittered per sentence by a small multiplier.

Per-sentence randomness (permutation, jitter) is seeded from
(config seed, sentence id), so any sentence can be replayed in isolation.
Datasets are stitched one sentence at a time and handed to the writer as
soon as they are made, so memory does not grow with the number of sentences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .corpus import LengthHistogram
from .pose import FRAME_DIM, PoseSequence, SentenceRecord
from .seeds import derive_seed


@dataclass(frozen=True)
class SignLexicon:
    """word (case-folded) -> processed word-level pose clip."""

    clips: Mapping[str, PoseSequence] = field(default_factory=dict)
    # (word, stride) -> resampled frames, filled on first use; at most three
    # strides occur per clip in one stitch run.
    _resampled: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clips", {w.lower(): seq for w, seq in self.clips.items()})
        object.__setattr__(self, "_resampled", {})

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.clips

    def __len__(self) -> int:
        return len(self.clips)

    def clip(self, word: str) -> PoseSequence:
        try:
            return self.clips[word.lower()]
        except KeyError:
            raise KeyError(f"word not in sign lexicon: {word!r}") from None

    def resampled(self, word: str, stride: int) -> np.ndarray:
        """Frames of ``resample(self.clip(word), stride)``, computed once."""
        key = (word.lower(), stride)
        frames = self._resampled.get(key)
        if frames is None:
            frames = self._resampled[key] = resample(self.clip(word), stride).frames
        return frames

    def words(self) -> set[str]:
        return set(self.clips)


@dataclass(frozen=True)
class StitchConfig:
    word_order: str = "swo"  # "swo" keeps sentence order, "rwo" permutes
    base_stride: int = 1
    jitter_strides: tuple[int, ...] = (1,)  # (1, 2, 3) enables speed jitter
    crossfade_frames: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.word_order not in ("swo", "rwo"):
            raise ValueError(f"word_order must be 'swo' or 'rwo', got {self.word_order!r}")
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

    round-half-to-even on the ratio, floored at 1.
    """
    if mean_synth_frames <= 0 or mean_target_frames <= 0:
        raise ValueError("mean frame counts must be positive")
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
    words: Sequence[str],
    lex: SignLexicon,
    cfg: StitchConfig,
    sentence_id: str = "",
    skip_oov: bool = False,
) -> StitchResult:
    """Stitch one sentence into a pose sequence with word boundaries.

    Raises KeyError naming the first unresolvable token unless skip_oov is
    set, in which case out-of-vocabulary tokens are dropped before ordering.
    """
    if not words:
        raise ValueError("empty word list")
    resolved = []
    for word in words:
        if word in lex:
            resolved.append(word)
        elif not skip_oov:
            raise KeyError(f"word not in sign lexicon: {word!r}")
    if not resolved:
        raise ValueError(f"sentence {sentence_id!r}: no stitchable words")

    rng = random.Random(derive_seed(cfg.seed, sentence_id))
    stride = cfg.base_stride * rng.choice(cfg.jitter_strides)
    order = list(resolved)
    if cfg.word_order == "rwo":
        rng.shuffle(order)  # Fisher-Yates

    clips = [lex.resampled(word, stride) for word in order]
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
    for i, (word, clip) in enumerate(zip(order, clips)):
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
    frame_histogram: LengthHistogram
    base_stride: int
    skipped: int


def stitch_dataset(
    records: Sequence[SentenceRecord],
    lex: SignLexicon,
    cfg: StitchConfig,
    target_mean_frames: float,
    write_pose: Optional[Callable[[SentenceRecord, PoseSequence], str]] = None,
    skip_oov: bool = False,
) -> StitchDatasetResult:
    """Stitch every record, frame-rate matched against the target mean.

    The base stride is computed once from the pre-stitch mean sentence frame
    count (sum of resolvable word-clip lengths) against target_mean_frames,
    overriding cfg.base_stride.  Records with no stitchable words are skipped
    and counted.  Records are stitched in input order and each sequence is
    passed to ``write_pose`` as soon as it is made, then dropped; only the
    output records are kept.  ``write_pose`` persists a sequence and returns
    its path; output records then carry pose_path and n_frames.
    """
    pre_lengths = []
    stitchable: list[SentenceRecord] = []
    skipped = 0
    for record in records:
        lengths = [len(lex.clip(w)) for w in record.text if w in lex]
        oov = len(lengths) < len(record.text)
        if not lengths or (oov and not skip_oov):
            skipped += 1
            continue
        pre_lengths.append(sum(lengths))
        stitchable.append(record)
    if not stitchable:
        raise ValueError("no stitchable records")

    pre_mean = sum(pre_lengths) / len(pre_lengths)
    base_stride = compute_sampling_rate(pre_mean, target_mean_frames)
    run_cfg = replace(cfg, base_stride=base_stride)

    out_records = []
    for record in stitchable:  # input order, one sequence alive at a time
        sequence = stitch_sentence(
            record.text, lex, run_cfg, sentence_id=record.id, skip_oov=skip_oov
        ).sequence
        record = replace(record, word_order=run_cfg.word_order)
        if write_pose is not None:
            record = record.with_pose(write_pose(record, sequence), len(sequence))
        else:
            record = replace(record, pose_path=None, n_frames=len(sequence))
        out_records.append(record)

    histogram = LengthHistogram.from_lengths(
        r.n_frames for r in out_records if r.n_frames is not None
    )
    return StitchDatasetResult(
        records=tuple(out_records),
        frame_histogram=histogram,
        base_stride=base_stride,
        skipped=skipped,
    )
