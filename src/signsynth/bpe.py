"""Byte-pair-encoding tokenizer: training, encode/decode, model file.

Words are split into characters with an end-of-word marker suffixed onto the
final character; training repeatedly merges the most frequent adjacent
symbol pair (ties break to the lexicographically smaller pair) until the
vocabulary budget is spent or no pair occurs twice.  Pair counts are kept
up to date incrementally (Sennrich et al. 2016): a merge re-counts only the
word types that contain the merged pair.  Every model holds the same six
special tokens, ``DEFAULT_SPECIALS`` (with the ``<PERSON>`` and ``<UNKNOWN>``
that ``postprocess`` writes), at ids 0-5, never split and never in a merge.

The base alphabet contains both the plain and the end-marked variant of
every character seen in training, so any string over the training alphabet
survives an encode/decode round trip exactly.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .io import DataError, _json_object, atomic_open

END_OF_WORD = "</w>"
UNK = "<unk>"
DEFAULT_SPECIALS = ("<pad>", "<bos>", "<eos>", UNK, "<PERSON>", "<UNKNOWN>")
_SPECIAL_SET = frozenset(DEFAULT_SPECIALS)

MODEL_VERSION = "bpe-v1"


class EmptyCorpus(ValueError):
    """``bpe_train`` found no word to train on: every token is empty or a special."""


@dataclass(frozen=True)
class BpeModel:
    merges: tuple[tuple[str, str], ...]
    vocab: Mapping[str, int]
    # Derived once per model: merge ranks, and word -> ids for every word
    # encoded so far (seeded with the specials, which encode atomically).
    _ranks: dict = field(init=False, compare=False, repr=False)
    _word_ids: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "merges", tuple((a, b) for a, b in self.merges))
        object.__setattr__(self, "vocab", dict(self.vocab))
        if len(set(self.merges)) != len(self.merges):
            raise ValueError("duplicate merges in model")
        if sorted(self.vocab.values()) != list(range(len(self.vocab))):
            raise ValueError("token ids must be dense in [0, |vocab|)")
        for a, b in self.merges:
            if a + b not in self.vocab:
                raise ValueError(f"merge result {a + b!r} missing from vocab")
        for i, special in enumerate(DEFAULT_SPECIALS):
            if self.vocab.get(special) != i:
                raise ValueError(f"special {special!r} must have reserved id {i}")
        object.__setattr__(self, "_ranks", {pair: i for i, pair in enumerate(self.merges)})
        object.__setattr__(self, "_word_ids", {s: (i,) for i, s in enumerate(DEFAULT_SPECIALS)})

    @property
    def unk_id(self) -> int:
        return self.vocab[UNK]


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word[:-1]) + (word[-1] + END_OF_WORD,)


def bpe_train(corpus: Iterable[Sequence[str]], vocab_size: int) -> BpeModel:
    """Train a BPE model over tokenized sentences, reserving DEFAULT_SPECIALS.

    vocab_size counts everything: specials, the base alphabet, and one slot
    per merge.  A budget equal to specials + alphabet yields zero merges;
    anything smaller is an error.
    """
    word_counts: Counter = Counter()
    charset: set[str] = set()
    for sentence in corpus:
        for token in sentence:
            if not token or token in _SPECIAL_SET:
                continue
            word_counts[token] += 1
            charset.update(token)
    if not word_counts:
        raise EmptyCorpus("empty corpus")

    alphabet = sorted(c for ch in charset for c in (ch, ch + END_OF_WORD))
    n_reserved = len(DEFAULT_SPECIALS) + len(alphabet)
    if vocab_size < n_reserved:
        raise ValueError(
            f"vocab_size {vocab_size} too small: need >= {n_reserved} "
            f"({len(DEFAULT_SPECIALS)} specials + {len(alphabet)} alphabet symbols)"
        )

    words = [_word_symbols(w) for w in word_counts]
    counts = list(word_counts.values())
    pair_counts: Counter = Counter()
    where: dict[tuple[str, str], set[int]] = {}
    for wid, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += counts[wid]
            where.setdefault(pair, set()).add(wid)
    # Lazy max-heap: an entry is live only while its count equals the
    # pair's current count; (-count, pair) breaks ties to the smaller pair.
    heap = [(-c, pair) for pair, c in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while len(merges) < vocab_size - n_reserved:
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        neg_count, pair = heapq.heappop(heap)
        if -neg_count < 2:
            break
        merges.append(pair)
        # Recount whole words so overlapping runs (a a a) stay exact.
        delta: Counter = Counter()
        for wid in where.pop(pair):
            old = words[wid]
            new = words[wid] = _merge_word(old, pair)
            old_pairs = list(zip(old, old[1:]))
            new_pairs = list(zip(new, new[1:]))
            for p in old_pairs:
                delta[p] -= counts[wid]
            for p in new_pairs:
                delta[p] += counts[wid]
            for p in set(old_pairs).difference(new_pairs, [pair]):
                where[p].discard(wid)
            for p in set(new_pairs).difference(old_pairs):
                where.setdefault(p, set()).add(wid)
        for p, d in delta.items():
            if not d:
                continue
            c = pair_counts[p] + d
            if c:
                pair_counts[p] = c
                heapq.heappush(heap, (-c, p))
            else:
                del pair_counts[p]

    vocab: dict[str, int] = {}
    for token in (*DEFAULT_SPECIALS, *alphabet, *(a + b for a, b in merges)):
        if token not in vocab:
            vocab[token] = len(vocab)
    return BpeModel(merges=tuple(merges), vocab=vocab)


def _merge_word(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    """Replace every adjacent occurrence of pair, scanning left to right."""
    merged = pair[0] + pair[1]
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _encode_word(word: str, ranks: Mapping[tuple[str, str], int]) -> tuple[str, ...]:
    """Greedily apply the lowest-ranked merge until none applies."""
    symbols = _word_symbols(word)
    while len(symbols) > 1:
        best_rank = None
        best_pair = None
        for i in range(len(symbols) - 1):
            rank = ranks.get((symbols[i], symbols[i + 1]))
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_pair = (symbols[i], symbols[i + 1])
        if best_pair is None:
            break
        symbols = _merge_word(symbols, best_pair)
    return symbols


def encode(model: BpeModel, text: str) -> list[int]:
    """Tokenize text to ids; specials match atomically, unknown symbols map
    to the unknown id."""
    cache = model._word_ids
    ids: list[int] = []
    for word in text.split():
        word_ids = cache.get(word)
        if word_ids is None:
            unk = model.unk_id
            symbols = _encode_word(word, model._ranks)
            word_ids = cache[word] = tuple(model.vocab.get(sym, unk) for sym in symbols)
        ids.extend(word_ids)
    return ids


def decode(model: BpeModel, ids: Sequence[int]) -> str:
    """Inverse of encode; end-of-word markers become spaces."""
    inverse = {i: tok for tok, i in model.vocab.items()}
    words: list[str] = []
    buf = ""
    for i in ids:
        try:
            token = inverse[i]
        except KeyError:
            raise ValueError(f"unknown token id {i}") from None
        if token in _SPECIAL_SET:
            if buf:
                words.append(buf)
                buf = ""
            words.append(token)
        elif token.endswith(END_OF_WORD):
            words.append(buf + token[: -len(END_OF_WORD)])
            buf = ""
        else:
            buf += token
    if buf:
        words.append(buf)
    return " ".join(words)


def save_model(path, model: BpeModel) -> None:
    payload = {
        "version": MODEL_VERSION,
        "merges": [list(pair) for pair in model.merges],
        "vocab": dict(model.vocab),
        "specials": list(DEFAULT_SPECIALS),
    }
    with atomic_open(path) as fh:
        json.dump(payload, fh, ensure_ascii=False)
        fh.write("\n")


def load_model(path) -> BpeModel:
    """Read a model file written by ``save_model``.  A file that is not one,
    including one whose fields have the wrong types or whose specials are not
    ``DEFAULT_SPECIALS`` in order, is a DataError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = _json_object(fh.read())
        if payload is None:
            raise ValueError("empty file")
        if payload.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {payload.get('version')!r}")
        merges, vocab, specials = payload["merges"], payload["vocab"], payload["specials"]
        if not isinstance(merges, list) or not all(
            isinstance(m, list) and len(m) == 2 and all(isinstance(s, str) for s in m)
            for m in merges
        ):
            raise ValueError("merges must be a list of pairs of strings")
        if not isinstance(vocab, dict) or not all(type(i) is int for i in vocab.values()):
            raise ValueError("vocab must map strings to ints")
        if specials != list(DEFAULT_SPECIALS):
            raise ValueError(f"specials must be {list(DEFAULT_SPECIALS)}")
        return BpeModel(merges=merges, vocab=vocab)
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except ValueError as exc:  # also UnicodeDecodeError
        raise DataError(f"{path}: {exc}") from None
