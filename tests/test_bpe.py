from __future__ import annotations

import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signsynth.bpe import (
    DEFAULT_SPECIALS,
    END_OF_WORD,
    BpeModel,
    bpe_train,
    decode,
    encode,
    load_model,
    save_model,
)
from signsynth.io import DataError

from . import oracles


# Specials lists other than DEFAULT_SPECIALS.  ``model_with_specials`` gives
# each a vocab that reserves it, so only the specials rule rejects the file.
OTHER_SPECIALS = {
    "reordered": [*DEFAULT_SPECIALS[:4], "<UNKNOWN>", "<PERSON>"],
    "no-person": [s for s in DEFAULT_SPECIALS if s != "<PERSON>"],
    "seventh": [*DEFAULT_SPECIALS, "<PLACE>"],
}


def model_with_specials(specials) -> bytes:
    """A model file's bytes: ``specials`` at ids 0.., then the word "a"."""
    vocab = {tok: i for i, tok in enumerate([*specials, "a", "a" + END_OF_WORD])}
    payload = {"version": "bpe-v1", "merges": [], "vocab": vocab, "specials": specials}
    return json.dumps(payload).encode()


def train_toy(sentences, extra_merges=20):
    charset = {c for s in sentences for tok in s for c in tok}
    base = len(DEFAULT_SPECIALS) + 2 * len(charset)
    return bpe_train(sentences, vocab_size=base + extra_merges)


class TestTrain:
    def test_first_merge_matches_pair_count_oracle(self):
        corpus = [["aaab", "aaab"], ["aaab", "aaab"]]
        model = train_toy(corpus, extra_merges=1)
        words = {("a", "a", "a", "b" + END_OF_WORD): 4}
        (pair, _count) = oracles.most_frequent_pair(words)
        assert model.merges[0] == pair == ("a", "a")

    def test_zero_merge_budget(self):
        corpus = [["ab"]]
        charset = {"a", "b"}
        vocab_size = len(DEFAULT_SPECIALS) + 2 * len(charset)
        model = bpe_train(corpus, vocab_size=vocab_size)
        assert model.merges == ()

    def test_too_small_budget_errors(self):
        with pytest.raises(ValueError, match="too small"):
            bpe_train([["ab"]], vocab_size=3)

    def test_budget_below_the_specials_refused_before_the_corpus_is_read(self):
        def corpus():
            raise AssertionError("the corpus was read")
            yield ["ab"]

        budget = len(DEFAULT_SPECIALS) - 1
        with pytest.raises(ValueError, match=f"vocab_size {budget} too small: need >= 6"):
            bpe_train(corpus(), vocab_size=budget)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError, match="empty corpus"):
            bpe_train([], vocab_size=100)

    def test_deterministic(self):
        corpus = [["the", "cat", "sat"], ["the", "bat", "sat"]] * 3
        a = train_toy(corpus)
        b = train_toy(corpus)
        assert a.merges == b.merges
        assert a.vocab == b.vocab

    def test_every_merge_follows_oracle(self):
        # Replay training step by step against the brute-force pair counter.
        corpus = [["banana", "bandana"], ["cabana", "banana"]]
        model = train_toy(corpus, extra_merges=8)
        words = {}
        for s in corpus:
            for tok in s:
                key = tuple(tok[:-1]) + (tok[-1] + END_OF_WORD,)
                words[key] = words.get(key, 0) + 1
        for merge in model.merges:
            best = oracles.most_frequent_pair(words)
            assert best is not None
            pair, count = best
            assert count >= 2
            assert merge == pair
            merged = pair[0] + pair[1]
            new_words = {}
            for symbols, c in words.items():
                out = []
                i = 0
                while i < len(symbols):
                    if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
                        out.append(merged)
                        i += 2
                    else:
                        out.append(symbols[i])
                        i += 1
                new_words[tuple(out)] = new_words.get(tuple(out), 0) + c
            words = new_words

    def test_stops_when_no_pair_repeats(self):
        model = bpe_train([["ab"]], vocab_size=1000)
        # Single occurrence of every pair: nothing merges.
        assert model.merges == ()

    def test_specials_reserved_low_ids(self):
        model = train_toy([["hi", "<PERSON>"]])
        for i, special in enumerate(DEFAULT_SPECIALS):
            assert model.vocab[special] == i

    def test_ids_dense(self):
        model = train_toy([["dense", "ids", "here"]])
        assert sorted(model.vocab.values()) == list(range(len(model.vocab)))

    def test_specials_never_inside_merges(self):
        model = train_toy([["<PERSON>", "went", "home", "went", "home"]])
        for a, b in model.merges:
            assert a not in DEFAULT_SPECIALS
            assert b not in DEFAULT_SPECIALS


# Small alphabets make count ties frequent; repeated letters give overlapping
# pairs such as "a a a"; "<", "/", "w" and ">" let merged symbols spell the
# end-of-word marker; specials sit among ordinary words.
_WORD = st.text(alphabet="aab<w/>", min_size=1, max_size=7)
_TOKEN = st.one_of(_WORD, _WORD, _WORD, st.sampled_from(["<PERSON>", "<unk>", "<pad>"]))
_CORPUS = st.lists(st.lists(_TOKEN, min_size=1, max_size=6), min_size=1, max_size=12)


class TestIncrementalTrainer:
    @given(_CORPUS, st.integers(min_value=0, max_value=60))
    @example([["aaaa", "aaa", "aaaaa", "a"], ["aaaa", "aa"]] * 2, 4)
    @example([["a</w>", "a</w>", "<w>", "w/>"]] * 3, 12)
    @settings(max_examples=300, deadline=None)
    def test_matches_recount_oracle(self, corpus, extra):
        charset = {c for s in corpus for tok in s if tok not in DEFAULT_SPECIALS for c in tok}
        if not charset:
            return
        # specials + alphabet: zero merges at extra=0, and budgets up to 60
        # merges run past the point where no pair occurs twice.
        vocab_size = len(DEFAULT_SPECIALS) + 2 * len(charset) + extra
        model = bpe_train(corpus, vocab_size)
        merges, vocab = oracles.bpe_train_reference(corpus, vocab_size, DEFAULT_SPECIALS)
        assert model.merges == merges
        assert model.vocab == vocab

    def test_paper_vocab_size_trains_in_seconds(self):
        # About 12k Zipf-weighted word types at the paper's vocab_size; the
        # recount-everything trainer needs about 15 minutes for this.
        rng = random.Random(2016)
        letters = "abcdefghijklmnopqrstuvwxyz"
        types = sorted({
            "".join(rng.choice(letters) for _ in range(rng.randint(2, 10)))
            for _ in range(12_500)
        })
        rng.shuffle(types)
        cum_weights = list(itertools.accumulate(1.0 / rank for rank in range(1, len(types) + 1)))
        corpus = [rng.choices(types, cum_weights=cum_weights, k=12) for _ in range(12_000)]
        corpus.append(types)
        t0 = time.perf_counter()
        model = bpe_train(corpus, vocab_size=15_000)
        elapsed = time.perf_counter() - t0
        assert len(model.merges) > 10_000
        assert elapsed < 60.0


class TestEncodeDecode:
    def test_empty(self):
        model = train_toy([["abc"]])
        assert encode(model, "") == []
        assert decode(model, []) == ""

    def test_special_is_atomic(self):
        model = train_toy([["hello", "<PERSON>"]])
        ids = encode(model, "<PERSON>")
        assert len(ids) == 1
        assert ids[0] == model.vocab["<PERSON>"]

    def test_round_trip_simple(self):
        model = train_toy([["the", "cat"], ["the", "hat"]])
        assert decode(model, encode(model, "the cat")) == "the cat"

    def test_round_trip_with_specials(self):
        model = train_toy([["the", "cat"]])
        text = "the <PERSON> cat <UNKNOWN>"
        assert decode(model, encode(model, text)) == text

    def test_unknown_char_maps_to_unk(self):
        model = train_toy([["abc"]])
        ids = encode(model, "q")
        assert ids == [model.unk_id]

    def test_unknown_id_errors(self):
        model = train_toy([["abc"]])
        with pytest.raises(ValueError, match="unknown token id"):
            decode(model, [len(model.vocab)])

    def test_round_trip_over_training_alphabet(self):
        # New words made of seen characters still round-trip exactly.
        model = train_toy([["abc", "cab"], ["bca", "cba"]])
        rng = random.Random(5)
        for _ in range(200):
            words = [
                "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(1, 6))
            ]
            text = " ".join(words)
            assert decode(model, encode(model, text)) == text

    @given(st.lists(st.sampled_from(["cat", "dog", "sun", "moon", "tree"]),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, words):
        model = train_toy([["cat", "dog", "sun"], ["moon", "tree", "cat"]])
        text = " ".join(words)
        assert decode(model, encode(model, text)) == text


class TestEncodeCache:
    def test_repeated_encode_is_stable(self):
        model = train_toy([["the", "cat", "the", "hat"]])
        text = "the cat hat the <PERSON> tac"
        first = encode(model, text)
        for _ in range(3):
            assert encode(model, text) == first

    def test_models_do_not_share_cached_words(self):
        corpus = [["abab", "abab", "baba"]]
        coarse = train_toy(corpus, extra_merges=0)
        fine = train_toy(corpus, extra_merges=5)
        assert coarse.merges != fine.merges
        coarse_ids = encode(coarse, "abab baba")
        fine_ids = encode(fine, "abab baba")
        assert len(fine_ids) < len(coarse_ids)
        assert encode(coarse, "abab baba") == coarse_ids
        # A model loaded fresh encodes the same as the warm one.
        assert encode(BpeModel(fine.merges, fine.vocab), "abab baba") == fine_ids

    def test_specials_atomic_after_cache_warm(self):
        model = train_toy([["hello", "<PERSON>"]])
        encode(model, "hello hello")
        ids = encode(model, "hello <PERSON> hello")
        assert ids.count(model.vocab["<PERSON>"]) == 1
        assert decode(model, ids) == "hello <PERSON> hello"

    def test_unknown_chars_after_cache_warm(self):
        model = train_toy([["abc"]])
        encode(model, "abc")
        assert encode(model, "q q") == [model.unk_id, model.unk_id]
        assert model.unk_id in encode(model, "abqc")

    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=6), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_with_warm_cache(self, words):
        text = " ".join(words)
        assert decode(_CACHED_MODEL, encode(_CACHED_MODEL, text)) == text
        assert decode(_CACHED_MODEL, encode(_CACHED_MODEL, text)) == text

    def test_cache_not_part_of_equality(self):
        model = train_toy([["cache", "me"]])
        fresh = BpeModel(model.merges, model.vocab)
        encode(model, "cache me")
        assert model == fresh
        assert "_word_ids" not in repr(model)


_CACHED_MODEL = train_toy([["abcd", "dcba", "abab"], ["cdcd", "abcd"]])


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = train_toy([["serialize", "me", "now"]])
        path = tmp_path / "model.json"
        save_model(path, model)
        again = load_model(path)
        assert again == model

    def test_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": "bpe-v0", "merges": [], "vocab": {}, "specials": []}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_model_without_unk_names_file(self, tmp_path):
        # bpe_train always reserves <unk>, and encode maps unknown symbols to it.
        path = tmp_path / "model.json"
        path.write_text(
            '{"version": "bpe-v1", "merges": [], "vocab": {"<pad>": 0, "h": 1}, '
            '"specials": ["<pad>"]}'
        )
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: specials must be {list(DEFAULT_SPECIALS)}"

    @pytest.mark.parametrize("specials", OTHER_SPECIALS.values(), ids=OTHER_SPECIALS.keys())
    def test_specials_must_be_the_six(self, tmp_path, specials):
        path = tmp_path / "model.json"
        path.write_bytes(model_with_specials(specials))
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: specials must be {list(DEFAULT_SPECIALS)}"

    def test_specials_are_a_constant(self, tmp_path):
        # A model is built from merges and vocab alone; its file lists the six.
        with pytest.raises(TypeError):
            BpeModel((), {}, DEFAULT_SPECIALS)
        path = tmp_path / "model.json"
        save_model(path, train_toy([["six"]]))
        assert json.loads(path.read_text())["specials"] == list(DEFAULT_SPECIALS)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="dense"):
            BpeModel(merges=(), vocab={"a": 0, "b": 2})
        with pytest.raises(ValueError, match="missing"):
            BpeModel(merges=(("a", "b"),), vocab={"a": 0, "b": 1})
