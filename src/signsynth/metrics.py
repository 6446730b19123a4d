"""Corpus-level BLEU-1..4 and ROUGE-1/2/L.

BLEU follows the standard corpus protocol: clipped n-gram precisions
aggregated over the corpus, geometric mean, brevity penalty, scaled to
[0, 100].  The default profile applies no smoothing (any zero precision
zeroes the score); the "exp" profile halves a running smoothing constant
into each zero-count precision instead.  ROUGE is reported per pair and
aggregated as the mean of per-pair (precision, recall, F1).

Metric tokenization is whitespace splitting on lowercased text; use
tokenize_for_metrics when starting from raw strings.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

Tokens = Sequence[str]

_MAX_N = 4  # the longest n-gram order: BLEU-1..4


@dataclass(frozen=True)
class EvalReport:
    bleu: Mapping[int, float] = field(default_factory=dict)
    rouge1: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rouge2: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rougeL: tuple[float, float, float] = (0.0, 0.0, 0.0)
    n_pairs: int = 0
    profile: str = "none"  # smoothing profile used for BLEU

    def __post_init__(self) -> None:
        object.__setattr__(self, "bleu", dict(self.bleu))
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        for n, score in self.bleu.items():
            if not 0.0 <= score <= 100.0:
                raise ValueError(f"BLEU-{n} out of range: {score}")
        for name in ("rouge1", "rouge2", "rougeL"):
            if any(not 0.0 <= v <= 1.0 for v in getattr(self, name)):
                raise ValueError(f"{name} out of range")

    def as_dict(self) -> dict:
        def triple(t):
            return {"precision": t[0], "recall": t[1], "f1": t[2]}

        return {
            "bleu": {str(n): s for n, s in sorted(self.bleu.items())},
            "rouge1": triple(self.rouge1),
            "rouge2": triple(self.rouge2),
            "rougeL": triple(self.rougeL),
            "n_pairs": self.n_pairs,
            "profile": self.profile,
        }


def tokenize_for_metrics(text: str) -> list[str]:
    return text.lower().split()


def _ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _overlap(cand_counts: Counter, ref_counts: Counter) -> int:
    """Clipped (multiset) n-gram matches."""
    return sum(min(k, ref_counts[g]) for g, k in cand_counts.items())


def _order_counts(cand: Tokens, ref: Tokens) -> Iterator[tuple[int, int, int]]:
    """(clipped matches, candidate n-grams, reference n-grams) of one pair,
    for n = 1.._MAX_N."""
    for n in range(1, _MAX_N + 1):
        cand_counts = _ngram_counts(cand, n)
        ref_counts = _ngram_counts(ref, n)
        yield _overlap(cand_counts, ref_counts), cand_counts.total(), ref_counts.total()


def _bleu_scores(
    matches: Sequence[int], totals: Sequence[int], c: int, r: int, smooth: bool
) -> dict[int, float]:
    """BLEU-n for n in 1..len(matches) from the corpus clipped-match and
    n-gram counts per order, and the candidate and reference lengths."""
    max_n = len(matches)
    if c == 0:
        return {n: 0.0 for n in range(1, max_n + 1)}
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)

    precisions: list[float] = []
    smooth_scale = 1.0
    for matched, total in zip(matches, totals):
        if total == 0:
            precisions.append(0.0)
        elif matched == 0 and smooth:
            smooth_scale *= 2.0
            precisions.append(1.0 / (smooth_scale * total))
        else:
            precisions.append(matched / total)

    scores: dict[int, float] = {}
    for n in range(1, max_n + 1):
        window = precisions[:n]
        if any(p == 0.0 for p in window):
            scores[n] = 0.0
        else:
            scores[n] = bp * math.exp(sum(math.log(p) for p in window) / n) * 100.0
    return scores


def bleu_corpus(
    candidates: Sequence[Tokens],
    references: Sequence[Tokens],
    max_n: int = 4,
    smooth: bool = False,
) -> dict[int, float]:
    """Corpus BLEU-n for every n in 1..max_n, on the [0, 100] scale: the
    BLEU of ``eval_pairs`` over the zipped pairs, whose BLEU-n reads only
    orders up to n."""
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference count mismatch: {len(candidates)} vs {len(references)}"
        )
    if not candidates:
        raise ValueError("empty corpus")
    if not 1 <= max_n <= _MAX_N:
        raise ValueError(f"max_n must be in [1, {_MAX_N}], got {max_n}")
    bleu = eval_pairs(list(zip(candidates, references)), smooth).bleu
    return {n: bleu[n] for n in range(1, max_n + 1)}


def _prf(overlap: float, n_cand: int, n_ref: int) -> tuple[float, float, float]:
    precision = overlap / n_cand if n_cand else 0.0
    recall = overlap / n_ref if n_ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _lcs_length(a: Tokens, b: Tokens) -> int:
    """Length of a longest common subsequence, bit-parallel over ``b``
    (Hyyro, "Bit-parallel LCS-length computation revisited", 2004): bit j of
    ``v`` is 0 where the LCS of the prefix of ``a`` read so far and ``b[:j+1]``
    grows at j, so the LCS length is the number of 0 bits."""
    positions: dict = {}
    for j, token in enumerate(b):
        positions[token] = positions.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & positions.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Tokens, reference: Tokens) -> tuple[float, float, float]:
    """Longest-common-subsequence overlap as (precision, recall, f1)."""
    if not candidate or not reference:
        return 0.0, 0.0, 0.0
    return _prf(_lcs_length(candidate, reference), len(candidate), len(reference))


def eval_pairs(
    pairs: Sequence[tuple[Tokens, Tokens]], smooth: bool = False
) -> EvalReport:
    """Full report over (candidate, reference) pairs, in one pass: each
    pair's n-gram counts feed both its BLEU sums and its ROUGE-1/2."""
    if not pairs:
        raise ValueError("empty corpus")
    matches = [0] * _MAX_N
    totals = [0] * _MAX_N
    c = r = 0
    rouge12: tuple[list, list] = ([], [])
    rougeL = []
    for cand, ref in pairs:
        c += len(cand)
        r += len(ref)
        for i, (overlap, n_cand, n_ref) in enumerate(_order_counts(cand, ref)):
            matches[i] += overlap
            totals[i] += n_cand
            if i < 2:
                rouge12[i].append(_prf(overlap, n_cand, n_ref))
        rougeL.append(rouge_l(cand, ref))

    def mean_triples(triples: list[tuple[float, float, float]]) -> tuple[float, float, float]:
        k = len(triples)
        return (
            sum(t[0] for t in triples) / k,
            sum(t[1] for t in triples) / k,
            sum(t[2] for t in triples) / k,
        )

    return EvalReport(
        bleu=_bleu_scores(matches, totals, c, r, smooth),
        rouge1=mean_triples(rouge12[0]),
        rouge2=mean_triples(rouge12[1]),
        rougeL=mean_triples(rougeL),
        n_pairs=len(pairs),
        profile="exp" if smooth else "none",
    )
