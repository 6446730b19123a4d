from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsynth import stitch
from signsynth.pose import FRAME_DIM, PoseSequence
from signsynth.records import SentenceRecord
from signsynth.stitch import (
    SignLexicon,
    StitchConfig,
    compute_sampling_rate,
    resample,
    stitch_dataset,
    stitch_sentence,
)

from . import oracles


def clip(n_frames: int, seed: int, word: str = "w") -> PoseSequence:
    rng = np.random.default_rng(seed)
    return PoseSequence(frames=rng.random((n_frames, FRAME_DIM)), source_id=word)


def make_lexicon(lengths: dict[str, int], seed: int = 0) -> SignLexicon:
    return SignLexicon(
        clips={
            word: clip(n, seed=seed + i, word=word)
            for i, (word, n) in enumerate(sorted(lengths.items()))
        }
    )


class RecordingWriter:
    """Stands in for an ``io.pose_set`` writer: keeps each sequence's frames
    by stem and returns the stem's file name."""

    def __init__(self):
        self.frames = {}

    def __call__(self, stem: str, sequence: PoseSequence) -> str:
        self.frames[stem] = sequence.frames
        return f"{stem}.psp"


@pytest.fixture
def sentence_results(monkeypatch):
    """Every StitchResult that ``stitch_dataset`` gets, in call order, from
    ``stitch.stitch_sentence``: the name the benchmark wraps."""
    results = []
    real = stitch.stitch_sentence

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(stitch, "stitch_sentence", recording)
    return results


def mean_frames(result) -> float:
    return sum(r.n_frames for r in result.records) / len(result.records)


class TestSamplingRate:
    def test_exact_ratio(self):
        assert compute_sampling_rate(300, 100) == 3

    def test_clamped_at_one(self):
        assert compute_sampling_rate(100, 300) == 1

    def test_half_to_even(self):
        # Banker's rounding: halves go to the even neighbour.
        assert compute_sampling_rate(350, 100) == 4
        assert compute_sampling_rate(450, 100) == 4
        assert compute_sampling_rate(250, 100) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compute_sampling_rate(0, 10)
        with pytest.raises(ValueError):
            compute_sampling_rate(10, -1)

    @pytest.mark.parametrize("synth, target", [
        (10, float("nan")), (float("nan"), 10), (10, float("inf")), (float("inf"), 10),
    ])
    def test_rejects_non_finite(self, synth, target):
        with pytest.raises(ValueError, match="finite and positive"):
            compute_sampling_rate(synth, target)


class TestResample:
    def test_stride_three(self):
        seq = clip(10, seed=1)
        out = resample(seq, 3)
        assert len(out) == 4
        assert np.array_equal(out.frames, seq.frames[[0, 3, 6, 9]])

    def test_stride_one_identity(self):
        seq = clip(7, seed=2)
        assert resample(seq, 1) is seq

    @given(st.integers(1, 40), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_index_filter(self, n, stride):
        seq = clip(n, seed=n * 10 + stride)
        out = resample(seq, stride)
        kept = [i for i in range(n) if i % stride == 0]
        assert len(out) == -(-n // stride)  # ceil
        assert np.array_equal(out.frames, seq.frames[kept])


class TestStitchSentence:
    def test_single_word_degenerate(self):
        lex = make_lexicon({"hello": 6})
        cfg = StitchConfig(crossfade_frames=0, base_stride=1)
        result = stitch_sentence(["hello"], lex, cfg, sentence_id="s")
        assert np.array_equal(result.sequence.frames, lex.clip("hello").frames)
        assert result.boundaries == (("hello", 0, 6),)

    def test_length_arithmetic(self):
        # Resampled lengths 5, 7, 4 with crossfade 2:
        # total 5+7+4+2*2 = 20, boundaries (0,5), (7,14), (16,20).
        lex = make_lexicon({"a": 5, "b": 7, "c": 4})
        cfg = StitchConfig(crossfade_frames=2, base_stride=1)
        result = stitch_sentence(["a", "b", "c"], lex, cfg, sentence_id="s")
        assert len(result.sequence) == 20
        assert result.boundaries == (("a", 0, 5), ("b", 7, 14), ("c", 16, 20))

    def test_swo_boundaries_bit_exact(self):
        lex = make_lexicon({"a": 5, "b": 7, "c": 4})
        cfg = StitchConfig(crossfade_frames=2, base_stride=1)
        result = stitch_sentence(["a", "b", "c"], lex, cfg, sentence_id="s")
        for word, start, end in result.boundaries:
            assert np.array_equal(result.sequence.frames[start:end], lex.clip(word).frames)

    def test_rwo_is_seeded_permutation(self):
        lex = make_lexicon({"a": 3, "b": 4, "c": 5, "d": 6})
        cfg = StitchConfig(word_order="rwo", crossfade_frames=0, seed=11)
        first = stitch_sentence(["a", "b", "c", "d"], lex, cfg, sentence_id="s1")
        second = stitch_sentence(["a", "b", "c", "d"], lex, cfg, sentence_id="s1")
        order1 = [w for w, _, _ in first.boundaries]
        order2 = [w for w, _, _ in second.boundaries]
        assert order1 == order2
        assert sorted(order1) == ["a", "b", "c", "d"]

    def test_rwo_differs_across_sentence_ids(self):
        lex = make_lexicon({w: 3 for w in "abcdefgh"})
        cfg = StitchConfig(word_order="rwo", crossfade_frames=0, seed=11)
        words = list("abcdefgh")
        orders = {
            tuple(w for w, _, _ in stitch_sentence(words, lex, cfg, sentence_id=f"s{i}").boundaries)
            for i in range(8)
        }
        assert len(orders) > 1  # permutation depends on the sentence id

    def test_crossfade_frames_are_convex(self):
        lex = make_lexicon({"a": 2, "b": 2})
        cfg = StitchConfig(crossfade_frames=3, base_stride=1)
        result = stitch_sentence(["a", "b"], lex, cfg, sentence_id="s")
        last = lex.clip("a").frames[-1]
        first = lex.clip("b").frames[0]
        lo = np.minimum(last, first)
        hi = np.maximum(last, first)
        for j in range(2, 5):  # inserted frames sit at indices 2, 3, 4
            fade = result.sequence.frames[j]
            assert np.all(fade >= lo) and np.all(fade <= hi)

    def test_crossfade_fraction_values(self):
        # With constant frames the fade must hit exactly j/(n+1) blends.
        a = PoseSequence(frames=np.zeros((2, FRAME_DIM), dtype=np.float32))
        b = PoseSequence(frames=np.ones((2, FRAME_DIM), dtype=np.float32))
        lex = SignLexicon(clips={"a": a, "b": b})
        cfg = StitchConfig(crossfade_frames=3, base_stride=1)
        result = stitch_sentence(["a", "b"], lex, cfg, sentence_id="s")
        fades = result.sequence.frames[2:5]
        assert np.allclose(fades[:, 0], [0.25, 0.5, 0.75])

    def test_oov_raises_with_token_name(self):
        lex = make_lexicon({"a": 3})
        with pytest.raises(KeyError, match="zzz"):
            stitch_sentence(["a", "zzz"], lex, StitchConfig(), sentence_id="s")

    def test_skip_oov_drops_token(self, sentence_results):
        # skip_oov is stitch_dataset's: its pre-pass drops the token.
        lex = make_lexicon({"a": 3, "b": 4})
        cfg = StitchConfig(crossfade_frames=0)
        records = [SentenceRecord(id="s", text=("a", "zzz", "b"))]
        stitch_dataset(records, lex, cfg, 7.0, RecordingWriter(), skip_oov=True)
        (result,) = sentence_results
        assert [w for w, _, _ in result.boundaries] == ["a", "b"]

    def test_empty_sentence_errors(self):
        with pytest.raises(ValueError, match="empty word list"):
            stitch_sentence([], make_lexicon({"a": 3}), StitchConfig(), sentence_id="s")

    def test_all_oov_errors(self):
        # Even with skip_oov, a sentence with no lexicon word is not stitched.
        lex = make_lexicon({"a": 3})
        records = [SentenceRecord(id="s", text=("x", "y"))]
        with pytest.raises(ValueError, match="no stitchable records"):
            stitch_dataset(records, lex, StitchConfig(), 3.0, RecordingWriter(), skip_oov=True)

    def test_case_folded_lookup(self):
        lex = make_lexicon({"hello": 4})
        cfg = StitchConfig(crossfade_frames=0)
        result = stitch_sentence(["HeLLo"], lex, cfg, sentence_id="s")
        assert len(result.sequence) == 4

    def test_jitter_multiplies_base_stride(self):
        lex = make_lexicon({"a": 12})
        cfg = StitchConfig(base_stride=2, jitter_strides=(3,), crossfade_frames=0)
        result = stitch_sentence(["a"], lex, cfg, sentence_id="s")
        assert result.applied_stride == 6
        assert len(result.sequence) == 2  # ceil(12/6)

    @given(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6),
        st.integers(0, 4),
        st.integers(1, 3),
        st.sampled_from(["swo", "rwo"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_length_formula(self, words, crossfade, stride, order):
        lengths = {"a": 5, "b": 9, "c": 3, "d": 14}
        lex = make_lexicon(lengths)
        cfg = StitchConfig(
            word_order=order, base_stride=stride, crossfade_frames=crossfade, seed=3
        )
        result = stitch_sentence(words, lex, cfg, sentence_id="x")
        expected = sum(-(-lengths[w] // stride) for w in words) + crossfade * (len(words) - 1)
        assert len(result.sequence) == expected
        assert sorted(w for w, _, _ in result.boundaries) == sorted(words)


class TestStitchSentenceOracle:
    @given(
        words=st.lists(
            st.sampled_from(["a", "A", "b", "cc", "Cc", "d", "zz"]), min_size=1, max_size=6
        ),
        lengths=st.lists(st.integers(1, 12), min_size=4, max_size=4),
        crossfade=st.integers(0, 3),
        order=st.sampled_from(["swo", "rwo"]),
        jitter=st.sets(st.sampled_from([1, 2, 3]), min_size=1),
        base_stride=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        sentence_id=st.text(max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_boundary_reference(
        self, words, lengths, crossfade, order, jitter, base_stride, seed, sentence_id
    ):
        # "zz" is out of vocabulary: the oracle drops it with skip_oov, as
        # stitch_dataset's pre-pass does before calling stitch_sentence.
        if all(w == "zz" for w in words):
            words = words + ["a"]
        rng = np.random.default_rng(seed)
        clips = {
            w: (rng.standard_normal((n, FRAME_DIM)) * 10).astype(np.float32)
            for w, n in zip(["a", "b", "cc", "d"], lengths)
        }
        lex = SignLexicon(clips={w: PoseSequence(frames=f, source_id=w) for w, f in clips.items()})
        cfg = StitchConfig(
            word_order=order, base_stride=base_stride, jitter_strides=tuple(jitter),
            crossfade_frames=crossfade, seed=seed,
        )
        known = [w for w in words if w in lex]
        result = stitch_sentence(known, lex, cfg, sentence_id=sentence_id)
        frames, boundaries, stride = oracles.stitch_sentence_reference(
            words, clips, order, base_stride, jitter, crossfade, seed, sentence_id,
            skip_oov=True,
        )
        assert result.sequence.frames.tobytes() == frames.tobytes()
        assert result.boundaries == boundaries
        assert result.applied_stride == stride


class TestStitchDataset:
    def make_records(self, texts):
        return [SentenceRecord(id=f"r{i}", text=tuple(t)) for i, t in enumerate(texts)]

    def test_fixed_point_when_means_match(self):
        lex = make_lexicon({"a": 10, "b": 10})
        records = self.make_records([["a", "b"]] * 20)
        cfg = StitchConfig(crossfade_frames=0)
        result = stitch_dataset(records, lex, cfg, 20.0, RecordingWriter())
        assert result.base_stride == 1
        assert mean_frames(result) == pytest.approx(20.0)

    def test_three_to_one_ratio(self):
        # Synthetic mean 3x target: stride 3, post-stitch mean within 15%.
        lex = make_lexicon({"a": 60, "b": 60, "c": 60})
        records = self.make_records([["a", "b", "c"]] * 30)  # pre mean 180
        cfg = StitchConfig(crossfade_frames=2)
        result = stitch_dataset(records, lex, cfg, 60.0, RecordingWriter())
        assert result.base_stride == 3
        assert abs(mean_frames(result) - 60.0) <= 0.15 * 60.0

    def test_oov_record_skipped_and_counted(self):
        lex = make_lexicon({"a": 6})
        records = self.make_records([["a"], ["zzz"], ["a"]])
        result = stitch_dataset(records, lex, StitchConfig(), 6.0, RecordingWriter())
        assert result.skipped == 1
        assert len(result.records) == 2

    def test_streams_one_sequence_at_a_time(self):
        lex = make_lexicon({"a": 6, "b": 9})
        records = self.make_records([["a", "b"], ["b"], ["b", "a", "a"]] * 4)
        alive = []

        def write_pose(stem, sequence):
            gc.collect()
            assert all(ref() is None for ref in alive[:-1])
            alive.append(weakref.ref(sequence))
            return f"{stem}.psp"

        result = stitch_dataset(
            records, lex, StitchConfig(word_order="rwo", seed=2), target_mean_frames=12.0,
            write_pose=write_pose,
        )
        assert len(alive) == len(result.records) == 12

    def test_one_pose_sequence_per_output_record(self, monkeypatch):
        # Strided clips are views: the only sequence built per record is the
        # stitched sentence itself, at every stride.
        lex = make_lexicon({w: 7 + i for i, w in enumerate("abcd")})
        records = self.make_records([list("abcd"), list("dcb"), ["A", "a"], ["zz"]] * 10)
        built = []
        real_post_init = PoseSequence.__post_init__

        def counting_post_init(seq):
            real_post_init(seq)
            built.append(seq.source_id)

        monkeypatch.setattr(PoseSequence, "__post_init__", counting_post_init)
        cfg = StitchConfig(word_order="rwo", jitter_strides=(1, 2, 3), seed=4)
        result = stitch_dataset(records, lex, cfg, 20.0, RecordingWriter())
        assert result.skipped == 10
        assert built == [record.id for record in result.records]

    def test_no_stitchable_records_errors(self):
        lex = make_lexicon({"a": 5})
        records = self.make_records([["zzz"]])
        with pytest.raises(ValueError, match="no stitchable records"):
            stitch_dataset(records, lex, StitchConfig(), 5.0, RecordingWriter())

    def test_records_carry_frame_counts(self):
        lex = make_lexicon({"a": 8, "b": 4})
        records = self.make_records([["a", "b"]])
        cfg = StitchConfig(crossfade_frames=2)
        result = stitch_dataset(records, lex, cfg, 12.0, RecordingWriter())
        assert result.records[0].n_frames == 8 + 4 + 2

    def test_one_stitch_sentence_call_per_stitchable_record(self, sentence_results):
        # The benchmark times and counts stitch.stitch_sentence, wrapped by
        # name: stitch_dataset must reach it through the module attribute.
        lex = make_lexicon({"a": 6, "b": 9})
        records = self.make_records([["a", "b"], ["zz"], ["b"], ["a", "zz"], ["b", "a"]])
        result = stitch_dataset(records, lex, StitchConfig(), 10.0, RecordingWriter(), jobs=1)
        assert [r.sequence.source_id for r in sentence_results] == ["r0", "r2", "r4"]
        assert [r.id for r in result.records] == ["r0", "r2", "r4"]


class TestStitchDatasetOracle:
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(["a", "B", "cc", "d", "zz", "Yy"]), min_size=1, max_size=5),
            min_size=1, max_size=8,
        ),
        lengths=st.lists(st.integers(1, 12), min_size=4, max_size=4),
        crossfade=st.integers(0, 3),
        order=st.sampled_from(["swo", "rwo"]),
        jitter=st.sets(st.sampled_from([1, 2, 3]), min_size=1),
        target=st.floats(0.5, 40.0),
        skip_oov=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_sentence_reference(
        self, texts, lengths, crossfade, order, jitter, target, skip_oov, seed
    ):
        # "zz" and "Yy" are out of vocabulary: with skip_oov they are dropped,
        # without it their records are skipped, as are records with no
        # lexicon word at all.
        rng = np.random.default_rng(seed)
        clips = {
            w: (rng.standard_normal((n, FRAME_DIM)) * 10).astype(np.float32)
            for w, n in zip(["a", "b", "cc", "d"], lengths)
        }
        lex = SignLexicon(clips={w: PoseSequence(frames=f, source_id=w) for w, f in clips.items()})
        records = [SentenceRecord(id=f"r{i}", text=tuple(t)) for i, t in enumerate(texts)]
        known = [[w for w in r.text if w.lower() in clips] for r in records]
        kept = [
            (r, words) for r, words in zip(records, known)
            if words and (skip_oov or len(words) == len(r.text))
        ]
        cfg = StitchConfig(
            word_order=order, jitter_strides=tuple(jitter), crossfade_frames=crossfade, seed=seed
        )
        write_pose = RecordingWriter()
        written = write_pose.frames

        if not kept:
            with pytest.raises(ValueError, match="no stitchable records"):
                stitch_dataset(records, lex, cfg, target, write_pose=write_pose, skip_oov=skip_oov)
            return
        result = stitch_dataset(records, lex, cfg, target, write_pose=write_pose, skip_oov=skip_oov)

        pre_mean = sum(sum(len(clips[w.lower()]) for w in words) for _, words in kept) / len(kept)
        base_stride = max(1, round(pre_mean / target))
        assert result.base_stride == base_stride
        assert result.skipped == len(records) - len(kept)
        assert [r.id for r in result.records] == [r.id for r, _ in kept]
        for out, (record, _) in zip(result.records, kept):
            frames, _, _ = oracles.stitch_sentence_reference(
                record.text, clips, order, base_stride, jitter, crossfade, seed, record.id,
                skip_oov=skip_oov,
            )
            assert written[record.id].tobytes() == frames.tobytes()
            assert out == replace(
                record, word_order=order, pose_path=f"{record.id}.psp", n_frames=len(frames)
            )


class TestStitchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StitchConfig(word_order="other")
        with pytest.raises(ValueError):
            StitchConfig(base_stride=0)
        with pytest.raises(ValueError):
            StitchConfig(jitter_strides=(4,))
        with pytest.raises(ValueError):
            StitchConfig(crossfade_frames=-1)

    def test_jitter_normalized(self):
        assert StitchConfig(jitter_strides=(3, 1, 3)).jitter_strides == (1, 3)
