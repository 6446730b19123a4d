"""Independent brute-force oracles.

Everything here is written from the operation definitions alone, using the
most direct algorithm available (nested loops, linear scans, textbook DP).
Implementations under src/ must never be imported; these exist so the tests
can cross-check the real code against an unrelated computation path.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from itertools import product

import numpy as np


# --- keypoint interpolation -------------------------------------------------


def nearest_donor_fill(frames: list[list[tuple[float, float, float]]], threshold: float):
    """Per-landmark nearest-confident-donor fill via linear outward scan.

    ``frames[t][k]`` is an (x, y, conf) triple.  Returns (filled frames,
    n_filled, n_unresolved).  Equidistant donors resolve to the earlier frame.
    """
    n_frames = len(frames)
    n_landmarks = len(frames[0])
    out = [list(frame) for frame in frames]
    filled = 0
    unresolved = 0
    for t in range(n_frames):
        for k in range(n_landmarks):
            if frames[t][k][2] >= threshold:
                continue
            donor = None
            for dist in range(1, n_frames):
                left = t - dist
                right = t + dist
                if left >= 0 and frames[left][k][2] >= threshold:
                    donor = left
                    break
                if right < n_frames and frames[right][k][2] >= threshold:
                    donor = right
                    break
            if donor is None:
                unresolved += 1
            else:
                x, y, _ = frames[donor][k]
                out[t][k] = (x, y, frames[t][k][2])
                filled += 1
    return out, filled, unresolved


def selection_index_map(frame_stacked, body_idx, face_idx, n_body=33, n_face=468, n_hand=21):
    """Flatten a stacked (543, 3) landmark list by explicit index lookup."""
    values = []
    order = (
        list(body_idx)
        + [n_body + i for i in face_idx]
        + [n_body + n_face + i for i in range(n_hand)]
        + [n_body + n_face + n_hand + i for i in range(n_hand)]
    )
    for g in order:
        values.append(frame_stacked[g][0])
        values.append(frame_stacked[g][1])
    return values


# --- template expansion -----------------------------------------------------


def enumerate_sentences(elements, lexicon):
    """All distinct constraint-satisfying sentences via plain nested loops.

    ``elements`` is a list of either a literal string or a
    (category, {feature: variable}) slot tuple; ``lexicon`` maps category ->
    list of (word, {feature: value}) pairs.  Returns sentences in first-seen
    order of the full cartesian product (slot candidate indices, leftmost
    slot outermost), deduplicated on the token tuple.
    """
    slots = [e for e in elements if not isinstance(e, str)]
    candidate_lists = [lexicon[category] for category, _ in slots]
    seen = set()
    out = []
    for combo in product(*candidate_lists):
        bindings: dict[str, object] = {}
        ok = True
        for (category, constraints), (word, features) in zip(slots, combo):
            for feature, var in constraints.items():
                value = features.get(feature)
                if var in bindings and bindings[var] != value:
                    ok = False
                    break
                bindings[var] = value
            if not ok:
                break
        if not ok:
            continue
        it = iter(combo)
        tokens = tuple(e if isinstance(e, str) else next(it)[0] for e in elements)
        if tokens not in seen:
            seen.add(tokens)
            out.append(tokens)
    return out


# --- corpus operations ------------------------------------------------------


def match_rate_loop(tokens, vocab) -> float:
    hits = 0
    for tok in tokens:
        if tok.lower() in vocab:
            hits += 1
    return hits / len(tokens)


def token_multiset(sentences) -> Counter:
    counts: Counter = Counter()
    for tokens in sentences:
        for tok in tokens:
            counts[tok] += 1
    return counts


# --- BLEU / ROUGE -----------------------------------------------------------


def ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def clipped_precision_counts(candidates, references, n):
    """Corpus-level clipped n-gram matches and candidate n-gram total."""
    matches = 0
    total = 0
    for cand, ref in zip(candidates, references):
        cand_counts = Counter(ngrams(cand, n))
        ref_counts = Counter(ngrams(ref, n))
        for gram, count in cand_counts.items():
            matches += min(count, ref_counts.get(gram, 0))
        total += max(len(cand) - n + 1, 0)
    return matches, total


def bleu_corpus_reference(candidates, references, max_n=4):
    """Textbook corpus BLEU on [0, 100]; any zero precision zeroes the score."""
    c = sum(len(x) for x in candidates)
    r = sum(len(x) for x in references)
    if c == 0:
        return {n: 0.0 for n in range(1, max_n + 1)}
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    precisions = []
    for n in range(1, max_n + 1):
        matches, total = clipped_precision_counts(candidates, references, n)
        precisions.append(matches / total if total > 0 else 0.0)
    scores = {}
    for n in range(1, max_n + 1):
        if any(p == 0.0 for p in precisions[:n]):
            scores[n] = 0.0
        else:
            log_mean = sum(math.log(p) for p in precisions[:n]) / n
            scores[n] = bp * math.exp(log_mean) * 100.0
    return scores


def rouge_n_reference(candidate, reference, n):
    cand_counts = Counter(ngrams(candidate, n))
    ref_counts = Counter(ngrams(reference, n))
    overlap = sum(min(c, ref_counts.get(g, 0)) for g, c in cand_counts.items())
    n_cand = sum(cand_counts.values())
    n_ref = sum(ref_counts.values())
    precision = overlap / n_cand if n_cand else 0.0
    recall = overlap / n_ref if n_ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def lcs_length(a, b) -> int:
    """Classic O(len(a)*len(b)) dynamic program."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l_reference(candidate, reference):
    if not candidate or not reference:
        return 0.0, 0.0, 0.0
    lcs = lcs_length(candidate, reference)
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# --- BPE --------------------------------------------------------------------


def most_frequent_pair(words_with_counts):
    """Highest-count adjacent symbol pair; ties to the lexicographically
    smaller pair.  ``words_with_counts`` maps symbol tuples to frequencies."""
    pair_counts: Counter = Counter()
    for symbols, count in words_with_counts.items():
        for i in range(len(symbols) - 1):
            pair_counts[(symbols[i], symbols[i + 1])] += count
    if not pair_counts:
        return None
    pair, count = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return pair, count


def _merge_symbols(symbols, pair):
    merged = pair[0] + pair[1]
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def bpe_train_reference(corpus, vocab_size, specials, end_of_word="</w>", unk="<unk>"):
    """Recount-everything BPE trainer: every merge recounts every adjacent
    pair of every word type.  Returns (merges, vocab) with the same budget,
    tie-break, stop rules and id assignment as the real trainer."""
    specials = tuple(specials)
    if unk not in specials:
        specials = specials + (unk,)
    special_set = set(specials)

    word_counts: Counter = Counter()
    charset: set = set()
    for sentence in corpus:
        for token in sentence:
            if not token or token in special_set:
                continue
            word_counts[token] += 1
            charset.update(token)

    alphabet = sorted(c for ch in charset for c in (ch, ch + end_of_word))
    n_reserved = len(specials) + len(alphabet)
    words = {tuple(w[:-1]) + (w[-1] + end_of_word,): c for w, c in word_counts.items()}
    merges = []
    while len(merges) < vocab_size - n_reserved:
        pair_counts: Counter = Counter()
        for symbols, count in words.items():
            for i in range(len(symbols) - 1):
                pair_counts[(symbols[i], symbols[i + 1])] += count
        if not pair_counts:
            break
        pair, best_count = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if best_count < 2:
            break
        merges.append(pair)
        words = {_merge_symbols(symbols, pair): count for symbols, count in words.items()}

    vocab = {}
    for token in (*specials, *alphabet, *(a + b for a, b in merges)):
        if token not in vocab:
            vocab[token] = len(vocab)
    return tuple(merges), vocab


# --- stitching --------------------------------------------------------------


def derive_seed_reference(*parts):
    """64-bit seed: the first 8 bytes (little-endian) of SHA-256 over the
    parts joined by the unit separator."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def crossfade_reference(last, first, n):
    """n frames between two boundary frames, frame j at fraction j/(n+1),
    computed in float64, clipped onto the segment, stored as float32."""
    fractions = (np.arange(1, n + 1, dtype=np.float64) / (n + 1))[:, None]
    a = last.astype(np.float64)[None, :]
    b = first.astype(np.float64)[None, :]
    frames = (1.0 - fractions) * a + fractions * b
    frames = np.clip(frames, np.minimum(a, b), np.maximum(a, b))
    return frames.astype(np.float32)


def stitch_sentence_reference(
    words, clips, word_order, base_stride, jitter_strides, crossfade_frames, seed,
    sentence_id, skip_oov=False,
):
    """Per-boundary stitcher: resample each clip, then append clip and
    crossfade pieces one at a time and concatenate them.

    ``clips`` maps lower-case words to (T, D) float32 arrays.  Returns
    (frames, boundaries, applied_stride) with boundaries as
    (word, start, end) triples, end exclusive.
    """
    resolved = []
    for word in words:
        if word.lower() in clips:
            resolved.append(word)
        elif not skip_oov:
            raise KeyError(word)
    rng = random.Random(derive_seed_reference(seed, sentence_id))
    stride = base_stride * rng.choice(sorted(set(jitter_strides)))
    order = list(resolved)
    if word_order == "rwo":
        rng.shuffle(order)

    pieces = []
    boundaries = []
    cursor = 0
    for i, word in enumerate(order):
        clip = clips[word.lower()][::stride]
        if i > 0 and crossfade_frames > 0:
            pieces.append(crossfade_reference(pieces[-1][-1], clip[0], crossfade_frames))
            cursor += crossfade_frames
        pieces.append(clip)
        boundaries.append((word, cursor, cursor + len(clip)))
        cursor += len(clip)
    return np.concatenate(pieces, axis=0), tuple(boundaries), stride


# --- pose files ----------------------------------------------------------------


def encode_pose_reference(seq) -> bytes:
    """A pose file's bytes: ``json.dumps`` of the header object, a newline,
    then the frames as little-endian float32."""
    header = {
        "version": "psp-v1",
        "n_frames": len(seq),
        "dims": 152,
        "source_id": seq.source_id,
    }
    payload = np.ascontiguousarray(seq.frames, dtype="<f4").tobytes()
    return json.dumps(header).encode("utf-8") + b"\n" + payload


# --- JSON lines ----------------------------------------------------------------


class ReferenceDataError(Exception):
    """A bad line in ``read_jsonl_reference``; the text is the one the real
    reader's DataError must carry."""


def read_jsonl_reference(path, parse):
    """Yield ``(lineno, parse(obj))`` for each non-blank line's JSON object,
    parsed by the stdlib alone: strict UTF-8 decode, ``strip``, ``json.loads``.
    Invalid UTF-8, invalid JSON, a non-object line, or a KeyError, TypeError
    or ValueError from ``parse`` raises ReferenceDataError citing
    ``path:lineno``."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ReferenceDataError(f"{path}:{lineno}: invalid UTF-8: {exc}") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ReferenceDataError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ReferenceDataError(
                    f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}"
                )
            try:
                value = parse(obj)
            except KeyError as exc:
                raise ReferenceDataError(f"{path}:{lineno}: missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ReferenceDataError(f"{path}:{lineno}: {exc}") from None
            yield lineno, value


# --- manifest records ----------------------------------------------------------


def record_to_json(record) -> dict:
    """The JSON object of one manifest record; ``json.dumps`` of it is the line."""
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


def record_from_json(obj: dict, make_record):
    """One manifest object checked field by field with ``isinstance``, then
    passed to ``make_record`` (the record type, whose constructor makes the
    remaining checks)."""
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
    return make_record(
        id=record_id,
        text=tuple(text),
        phenomenon=phenomenon,
        word_order=obj.get("word_order", "swo"),
        pose_path=pose_path,
        n_frames=n_frames,
    )
