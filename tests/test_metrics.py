from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsynth.metrics import (
    EvalReport,
    bleu_corpus,
    eval_pairs,
    rouge_l,
    tokenize_for_metrics,
)

from . import oracles

VOCAB = ["the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "big", "tree"]

sentence_strategy = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12)


def random_corpus(seed, n_pairs=8, max_len=12):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_pairs):
        cand = [rng.choice(VOCAB) for _ in range(rng.randint(1, max_len))]
        ref = [rng.choice(VOCAB) for _ in range(rng.randint(1, max_len))]
        pairs.append((cand, ref))
    return pairs


class TestBleu:
    def test_identical_is_100(self):
        # Pad sentences so every order 1..4 has at least one n-gram.
        corpus = [s * 2 + ["the", "cat", "sat", "on"] for s, _ in random_corpus(1)]
        scores = bleu_corpus(corpus, corpus, max_n=4)
        assert all(scores[n] == pytest.approx(100.0) for n in range(1, 5))

    def test_clipping_example(self):
        # Classic degenerate candidate: p1 must clip to 2/7.
        candidate = ["the"] * 7
        reference = ["the", "cat", "is", "on", "the", "mat"]
        matches, total = oracles.clipped_precision_counts([candidate], [reference], 1)
        assert (matches, total) == (2, 7)
        scores = bleu_corpus([candidate], [reference], max_n=1)
        bp = 1.0  # c=7 >= r=6
        assert scores[1] == pytest.approx(bp * (2 / 7) * 100)

    def test_brevity_boundary(self):
        # Equal corpus lengths: BP = 1, so BLEU-1 equals raw precision.
        candidate = [["the", "cat"]]
        reference = [["the", "dog"]]
        scores = bleu_corpus(candidate, reference, max_n=1)
        assert scores[1] == pytest.approx(50.0)

    def test_zero_precision_zeroes_score(self):
        scores = bleu_corpus([["aa", "bb"]], [["cc", "dd"]], max_n=4)
        assert scores == {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}

    def test_matches_reference_implementation(self):
        for seed in range(30):
            pairs = random_corpus(seed)
            cands = [c for c, _ in pairs]
            refs = [r for _, r in pairs]
            got = bleu_corpus(cands, refs, max_n=4)
            want = oracles.bleu_corpus_reference(cands, refs, max_n=4)
            for n in range(1, 5):
                assert got[n] == pytest.approx(want[n], abs=1e-9)

    def test_permutation_invariant(self):
        pairs = random_corpus(7, n_pairs=10)
        shuffled = list(pairs)
        random.Random(3).shuffle(shuffled)
        a = bleu_corpus([c for c, _ in pairs], [r for _, r in pairs])
        b = bleu_corpus([c for c, _ in shuffled], [r for _, r in shuffled])
        for n in range(1, 5):
            assert a[n] == pytest.approx(b[n])

    def test_score_ordering_when_precisions_monotone(self):
        for seed in range(20):
            pairs = random_corpus(seed, n_pairs=12)
            cands = [c for c, _ in pairs]
            refs = [r for _, r in pairs]
            precisions = []
            for n in range(1, 5):
                m, t = oracles.clipped_precision_counts(cands, refs, n)
                precisions.append(m / t if t else 0.0)
            if all(precisions[i + 1] <= precisions[i] for i in range(3)):
                scores = bleu_corpus(cands, refs)
                assert all(scores[n + 1] <= scores[n] + 1e-9 for n in range(1, 4))

    def test_range_bounds(self):
        for seed in range(20):
            pairs = random_corpus(seed)
            scores = bleu_corpus([c for c, _ in pairs], [r for _, r in pairs])
            assert all(0.0 <= s <= 100.0 for s in scores.values())

    def test_smoothing_profile(self):
        # Disjoint vocab: unsmoothed BLEU is 0, smoothed is small but positive.
        cand = [["aa", "bb", "cc", "dd"]]
        ref = [["ee", "ff", "gg", "hh"]]
        assert bleu_corpus(cand, ref, smooth=False)[4] == 0.0
        assert bleu_corpus(cand, ref, smooth=True)[4] > 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            bleu_corpus([["a"]], [["a"], ["b"]])
        with pytest.raises(ValueError, match="empty"):
            bleu_corpus([], [])


def rouge1(candidate, reference):
    """ROUGE-1 of one (candidate, reference) pair, as eval_pairs reports it."""
    return eval_pairs([(candidate, reference)]).rouge1


class TestRougeN:
    def test_identical(self):
        s = ["the", "cat", "sat"]
        assert rouge1(s, s) == (1.0, 1.0, 1.0)

    def test_unigram_example(self):
        p, r, f = rouge1(["the", "cat", "sat"], ["the", "cat"])
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge1(["aa"], ["bb"]) == (0.0, 0.0, 0.0)

    @given(sentence_strategy, sentence_strategy, st.integers(1, 2))
    @settings(max_examples=80, deadline=None)
    def test_matches_multiset_oracle(self, cand, ref, n):
        report = eval_pairs([(cand, ref)])
        assert (report.rouge1, report.rouge2)[n - 1] == pytest.approx(
            oracles.rouge_n_reference(cand, ref, n)
        )


class TestRougeL:
    def test_identical(self):
        s = ["a", "b", "c"]
        assert rouge_l(s, s) == (1.0, 1.0, 1.0)

    def test_lcs_example(self):
        # LCS("a b c d", "a c d b") = "a c d" (3) -> recall 3/4.
        p, r, f = rouge_l(["a", "b", "c", "d"], ["a", "c", "d", "b"])
        assert oracles.lcs_length("abcd", "acdb") == 3
        assert r == pytest.approx(3 / 4)
        assert p == pytest.approx(3 / 4)

    def test_no_common_tokens(self):
        assert rouge_l(["x"], ["y"]) == (0.0, 0.0, 0.0)

    def test_empty_inputs(self):
        assert rouge_l([], []) == (0.0, 0.0, 0.0)
        assert rouge_l(["a"], []) == (0.0, 0.0, 0.0)

    @given(sentence_strategy, sentence_strategy)
    @settings(max_examples=80, deadline=None)
    def test_matches_dp_oracle(self, cand, ref):
        assert rouge_l(cand, ref) == pytest.approx(
            oracles.rouge_l_reference(cand, ref)
        )

    def test_long_sequences_match_dp_oracle(self):
        # References longer than one 30-bit machine digit of a Python int.
        rng = random.Random(5)
        for _ in range(20):
            cand = [rng.choice(VOCAB[:5]) for _ in range(rng.randint(1, 150))]
            ref = [rng.choice(VOCAB[:5]) for _ in range(rng.randint(1, 150))]
            assert rouge_l(cand, ref) == oracles.rouge_l_reference(cand, ref)

    @given(sentence_strategy)
    @settings(max_examples=40, deadline=None)
    def test_self_is_perfect(self, s):
        assert rouge_l(s, s) == (1.0, 1.0, 1.0)


class TestEvalPairs:
    def test_single_identical_pair(self):
        s = ["the", "cat", "sat", "on", "the", "mat"]
        report = eval_pairs([(s, s)])
        assert all(report.bleu[n] == pytest.approx(100.0) for n in range(1, 5))
        assert report.rouge1 == (1.0, 1.0, 1.0)
        assert report.rougeL == (1.0, 1.0, 1.0)
        assert report.n_pairs == 1

    def test_matches_component_oracles(self):
        pairs = random_corpus(11, n_pairs=5)
        report = eval_pairs(pairs)
        cands = [c for c, _ in pairs]
        refs = [r for _, r in pairs]
        want_bleu = oracles.bleu_corpus_reference(cands, refs)
        for n in range(1, 5):
            assert report.bleu[n] == pytest.approx(want_bleu[n])
        want_rl = [oracles.rouge_l_reference(c, r) for c, r in pairs]
        assert report.rougeL[2] == pytest.approx(sum(t[2] for t in want_rl) / len(want_rl))

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(VOCAB[:4]), max_size=10),
                st.lists(st.sampled_from(VOCAB[:4]), max_size=10),
            ),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_pass_matches_oracles(self, pairs, smooth):
        report = eval_pairs(pairs, smooth=smooth)
        cands = [c for c, _ in pairs]
        refs = [r for _, r in pairs]
        want_bleu = oracles.bleu_corpus_reference(cands, refs, smooth=smooth)
        for n in range(1, 5):
            assert report.bleu[n] == pytest.approx(want_bleu[n], rel=1e-12, abs=1e-12)

        def mean(triples):
            return tuple(sum(t[i] for t in triples) / len(triples) for i in range(3))

        assert report.rouge1 == mean([oracles.rouge_n_reference(c, r, 1) for c, r in pairs])
        assert report.rouge2 == mean([oracles.rouge_n_reference(c, r, 2) for c, r in pairs])
        assert report.rougeL == mean([oracles.rouge_l_reference(c, r) for c, r in pairs])

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            eval_pairs([])

    def test_profile_named(self):
        pairs = random_corpus(2, n_pairs=3)
        assert eval_pairs(pairs).profile == "none"
        assert eval_pairs(pairs, smooth=True).profile == "exp"

    def test_report_serializable(self):
        report = eval_pairs(random_corpus(3, n_pairs=3))
        d = report.as_dict()
        assert set(d) == {"bleu", "rouge1", "rouge2", "rougeL", "n_pairs", "profile"}


class TestTokenize:
    def test_lowercase_whitespace(self):
        assert tokenize_for_metrics("The CAT  sat") == ["the", "cat", "sat"]

    def test_empty(self):
        assert tokenize_for_metrics("") == []
