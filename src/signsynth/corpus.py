"""Corpus selection and reshaping: vocabulary filtering, length matching,
and rare-token/name post-processing.

All token matching is case-folded.  merge_short and replace_rare_and_names
are order-sensitive two-pass operations; they consume materialized record
lists and are deterministic given their seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .pose import SentenceRecord

PERSON_TOKEN = "<PERSON>"
UNKNOWN_TOKEN = "<UNKNOWN>"


@dataclass(frozen=True)
class LengthHistogram:
    """Sentence- or frame-length distribution with its count-weighted mean."""

    bins: Mapping[int, int] = field(default_factory=dict)
    mean: float = 0.0
    total: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "bins", dict(self.bins))

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "LengthHistogram":
        bins: Counter = Counter()
        for length in lengths:
            bins[int(length)] += 1
        total = sum(bins.values())
        mean = sum(length * count for length, count in bins.items()) / total if total else 0.0
        return cls(bins=dict(bins), mean=mean, total=total)


@dataclass(frozen=True)
class MergePolicy:
    """Which short sentences get merged, and how many per output sentence."""

    max_len: int = 8  # strictly shorter sentences are merge candidates
    fraction: float = 0.9
    group: int = 3

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if self.group < 2:
            raise ValueError(f"group must be >= 2, got {self.group}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")


def match_rate(sentence: Sequence[str], vocab: "set[str] | frozenset[str]") -> float:
    """Fraction of tokens (case-folded) present in vocab.

    Tokens are lowercased before lookup; vocab must already be lowercase
    (filter_corpus folds it once for the whole stream).
    """
    if not sentence:
        raise ValueError("empty sentence")
    return sum(1 for tok in sentence if tok.lower() in vocab) / len(sentence)


def filter_corpus(
    sentences: Iterable[SentenceRecord], vocab: Iterable[str], min_rate: float
) -> Iterator[SentenceRecord]:
    """Keep sentences whose match rate strictly exceeds min_rate.

    The inequality is strict: a sentence matching exactly min_rate is
    dropped.  Survivors are retagged phenomenon="corpus".
    """
    if not 0.0 <= min_rate <= 1.0:
        raise ValueError(f"min_rate must be in [0, 1], got {min_rate}")
    folded = {w.lower() for w in vocab}
    for record in sentences:
        if match_rate(record.text, folded) > min_rate:
            yield SentenceRecord(
                record.id, record.text, "corpus",
                record.word_order, record.pose_path, record.n_frames,
            )


def merge_short(
    sentences: Sequence[SentenceRecord], policy: MergePolicy, seed: int
) -> list[SentenceRecord]:
    """Merge a seeded fraction of short sentences into longer ones.

    Candidates are sentences strictly shorter than policy.max_len.  A seeded
    uniform draw selects floor(fraction * n_candidates) of them; selected
    candidates are concatenated in corpus order into groups of policy.group
    (joined with single spaces, no added punctuation).  A trailing partial
    group passes through unmerged, as do non-selected and non-candidate
    sentences.  The output conserves the input token multiset.
    """
    candidate_positions = [
        i for i, record in enumerate(sentences) if len(record.text) < policy.max_len
    ]
    n_selected = int(policy.fraction * len(candidate_positions))
    rng = random.Random(seed)
    selected = set(rng.sample(candidate_positions, n_selected))

    out: list[SentenceRecord] = []
    buffer: list[SentenceRecord] = []
    for i, record in enumerate(sentences):
        if i not in selected:
            out.append(record)
            continue
        buffer.append(record)
        if len(buffer) == policy.group:
            merged_text = tuple(tok for member in buffer for tok in member.text)
            out.append(
                SentenceRecord(
                    id="+".join(member.id for member in buffer),
                    text=merged_text,
                    phenomenon=buffer[0].phenomenon,
                    word_order=buffer[0].word_order,
                )
            )
            buffer = []
    out.extend(buffer)  # trailing partial group, unmerged
    return out


def replace_rare_and_names(
    sentences: Sequence[SentenceRecord],
    name_list: Iterable[str],
    min_freq: int,
    extra_counts: Iterable[SentenceRecord] = (),
) -> list[SentenceRecord]:
    """Replace gazetteer names with <PERSON> and rare tokens with <UNKNOWN>.

    Token frequencies are counted case-folded over the full input stream
    plus any extra_counts streams before any substitution; a non-name token
    is replaced when its pre-substitution frequency is below min_freq.  Name
    replacement wins over the frequency rule.  Sentence lengths never change.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    names = {n.lower() for n in name_list}
    freq: Counter = Counter()
    for record in sentences:
        freq.update(tok.lower() for tok in record.text)
    for record in extra_counts:
        freq.update(tok.lower() for tok in record.text)

    def substitute(token: str) -> str:
        folded = token.lower()
        if folded in names:
            return PERSON_TOKEN
        if token in (PERSON_TOKEN, UNKNOWN_TOKEN):
            return token
        if freq[folded] < min_freq:
            return UNKNOWN_TOKEN
        return token

    return [
        SentenceRecord(
            record.id,
            tuple(substitute(tok) for tok in record.text),
            record.phenomenon,
            record.word_order,
            record.pose_path,
            record.n_frames,
        )
        for record in sentences
    ]


def length_stats(sentences: Iterable[SentenceRecord]) -> LengthHistogram:
    """Exact sentence-length histogram; empty input yields total 0, mean 0."""
    return LengthHistogram.from_lengths(len(record.text) for record in sentences)
