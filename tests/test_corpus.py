from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsynth.corpus import (
    LengthHistogram,
    MergePolicy,
    PERSON_TOKEN,
    UNKNOWN_TOKEN,
    filter_corpus,
    length_stats,
    match_rate,
    merge_short,
    replace_rare_and_names,
)
from signsynth.pose import SentenceRecord

from . import oracles

WORDS = ["cat", "dog", "run", "jump", "tree", "house", "red", "blue", "sky", "sun"]


def records_from_texts(texts):
    return [SentenceRecord(id=f"s{i}", text=tuple(t)) for i, t in enumerate(texts)]


tokens_strategy = st.lists(st.sampled_from(WORDS), min_size=1, max_size=12)


class TestMatchRate:
    def test_nine_of_ten(self):
        sentence = WORDS[:9] + ["zzz"]
        assert match_rate(sentence, set(WORDS)) == 0.9

    def test_all_match(self):
        assert match_rate(["cat", "dog"], set(WORDS)) == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty sentence"):
            match_rate([], set(WORDS))

    @given(tokens_strategy, st.sets(st.sampled_from(WORDS), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_oracle(self, tokens, vocab):
        assert match_rate(tokens, vocab) == oracles.match_rate_loop(tokens, vocab)


class TestFilterCorpus:
    def test_exact_rate_is_excluded(self):
        # Nine of ten tokens in vocab: rate exactly 0.9 fails "more than 0.9".
        record = SentenceRecord(id="x", text=tuple(WORDS[:9] + ["zzz"]))
        assert list(filter_corpus([record], WORDS, 0.9)) == []

    def test_min_rate_zero_keeps_everything(self):
        records = records_from_texts([["cat"], ["zzz"], ["dog", "qqq"]])
        kept = list(filter_corpus(records, WORDS, 0.0))
        # "zzz" has rate 0.0, which is not > 0.
        assert [r.id for r in kept] == ["s0", "s2"]

    def test_tags_phenomenon_corpus(self):
        records = records_from_texts([["cat", "dog"]])
        assert next(iter(filter_corpus(records, WORDS, 0.5))).phenomenon == "corpus"

    def test_case_folds_vocab(self):
        records = records_from_texts([["CAT", "Dog"]])
        assert len(list(filter_corpus(records, {"cAt", "dOG"}, 0.99))) == 1

    @given(st.lists(tokens_strategy, min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_filter(self, texts):
        vocab = set(WORDS[:5])
        records = records_from_texts(texts)
        got = [r.id for r in filter_corpus(records, vocab, 0.6)]
        want = [
            r.id for r in records if oracles.match_rate_loop(r.text, vocab) > 0.6
        ]
        assert got == want


class TestMergeShort:
    def test_six_candidates_full_fraction(self):
        records = records_from_texts([["a", "b"]] * 6)
        out = merge_short(records, MergePolicy(max_len=8, fraction=1.0, group=3), seed=0)
        assert len(out) == 2
        assert all(len(r.text) == 6 for r in out)

    def test_fraction_zero_is_noop(self):
        records = records_from_texts([["a"], ["b", "c"], ["d"] * 9])
        out = merge_short(records, MergePolicy(max_len=8, fraction=0.0, group=3), seed=1)
        assert out == records

    def test_ninety_percent_of_ten(self):
        # 10 candidates, fraction 0.9 -> 9 selected -> 3 merged + 1 passthrough.
        records = records_from_texts([["w", str(i)] for i in range(10)])
        out = merge_short(records, MergePolicy(max_len=8, fraction=0.9, group=3), seed=42)
        merged = [r for r in out if len(r.text) == 6]
        passthrough = [r for r in out if len(r.text) == 2]
        assert len(merged) == 3
        assert len(passthrough) == 1
        assert oracles.token_multiset(r.text for r in out) == oracles.token_multiset(
            r.text for r in records
        )

    def test_long_sentences_pass_through(self):
        long = records_from_texts([["x"] * 8, ["y"] * 20])
        out = merge_short(long, MergePolicy(max_len=8, fraction=1.0, group=3), seed=0)
        assert out == long

    def test_trailing_partial_group_unmerged(self):
        records = records_from_texts([["a", str(i)] for i in range(4)])
        out = merge_short(records, MergePolicy(max_len=8, fraction=1.0, group=3), seed=0)
        # 4 selected: one merged triple, one leftover unmerged.
        assert sorted(len(r.text) for r in out) == [2, 6]

    def test_deterministic_given_seed(self):
        records = records_from_texts([["w", str(i)] for i in range(20)])
        policy = MergePolicy(max_len=8, fraction=0.5, group=2)
        assert merge_short(records, policy, seed=9) == merge_short(records, policy, seed=9)

    def test_merged_ids_join_members(self):
        records = records_from_texts([["a"], ["b"], ["c"]])
        out = merge_short(records, MergePolicy(max_len=8, fraction=1.0, group=3), seed=0)
        assert out[0].id == "s0+s1+s2"

    @given(
        st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=10), min_size=1,
                 max_size=25),
        st.floats(0.0, 1.0),
        st.integers(2, 4),
        st.integers(0, 999),
    )
    @settings(max_examples=50, deadline=None)
    def test_token_multiset_conserved(self, texts, fraction, group, seed):
        records = records_from_texts(texts)
        policy = MergePolicy(max_len=6, fraction=fraction, group=group)
        out = merge_short(records, policy, seed=seed)
        assert oracles.token_multiset(r.text for r in out) == oracles.token_multiset(
            r.text for r in records
        )
        # Non-candidates appear untouched.
        out_ids = {r.id for r in out}
        for record in records:
            if len(record.text) >= policy.max_len:
                assert record.id in out_ids

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="group"):
            MergePolicy(group=1)
        with pytest.raises(ValueError, match="fraction"):
            MergePolicy(fraction=1.2)
        for max_len in (0, -5):
            with pytest.raises(ValueError, match="max_len"):
                MergePolicy(max_len=max_len)


class TestReplaceRareAndNames:
    def test_rare_token_replaced(self):
        records = records_from_texts([["rare", "cat"], ["rare", "cat"], ["cat"]])
        out = replace_rare_and_names(records, set(), min_freq=3)
        assert out[0].text == (UNKNOWN_TOKEN, "cat")

    def test_name_precedence_over_frequency(self):
        records = records_from_texts([["john", "cat"]] * 100)
        out = replace_rare_and_names(records, {"John"}, min_freq=3)
        assert all(r.text[0] == PERSON_TOKEN for r in out)

    def test_min_freq_one_never_unknown(self):
        records = records_from_texts([["one", "two"], ["three"]])
        out = replace_rare_and_names(records, set(), min_freq=1)
        assert [r.text for r in out] == [("one", "two"), ("three",)]

    def test_lengths_preserved(self):
        records = records_from_texts([["a", "b", "c"], ["d"]])
        out = replace_rare_and_names(records, {"a"}, min_freq=2)
        assert [len(r.text) for r in out] == [3, 1]

    def test_extra_counts_rescue_tokens(self):
        records = records_from_texts([["shared"]])
        extra = records_from_texts([["shared"], ["shared"]])
        out = replace_rare_and_names(records, set(), min_freq=3, extra_counts=extra)
        assert out[0].text == ("shared",)

    def test_survivors_meet_frequency_invariant(self):
        texts = [["a", "b"], ["a", "c"], ["a", "b"]]
        records = records_from_texts(texts)
        freq = Counter(tok for t in texts for tok in t)
        out = replace_rare_and_names(records, set(), min_freq=2)
        for record in out:
            for tok in record.text:
                if tok not in (PERSON_TOKEN, UNKNOWN_TOKEN):
                    assert freq[tok] >= 2

    def test_min_freq_validated(self):
        with pytest.raises(ValueError, match="min_freq"):
            replace_rare_and_names([], set(), min_freq=0)


class TestLengthStats:
    def test_simple(self):
        records = records_from_texts([["a", "b"], ["c", "d"], ["e", "f", "g", "h"]])
        hist = length_stats(records)
        assert hist.bins == {2: 2, 4: 1}
        assert hist.mean == pytest.approx(8 / 3)
        assert hist.total == 3

    def test_empty(self):
        hist = length_stats([])
        assert hist.total == 0
        assert hist.mean == 0.0

    @given(st.lists(tokens_strategy, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_matches_recount(self, texts):
        hist = length_stats(records_from_texts(texts))
        lengths = [len(t) for t in texts]
        assert hist.total == len(lengths)
        assert hist.mean == pytest.approx(sum(lengths) / len(lengths))
        assert hist.bins == dict(Counter(lengths))
        # Type invariant: mean equals the count-weighted mean of the bins.
        weighted = sum(k * v for k, v in hist.bins.items()) / sum(hist.bins.values())
        assert hist.mean == pytest.approx(weighted)


class TestLengthHistogram:
    def test_from_lengths(self):
        hist = LengthHistogram.from_lengths([2, 2, 4])
        assert hist.bins == {2: 2, 4: 1}
        assert hist.mean == pytest.approx(8 / 3)
