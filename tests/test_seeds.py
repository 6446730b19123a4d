from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from signsynth.seeds import derive_seed, derive_seeds, first_randoms

from . import oracles

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def reference_randoms(seeds) -> list[float]:
    return [random.Random(int(s)).random() for s in seeds]


class TestDeriveSeeds:
    @given(
        st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=8)),
        st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_derive_seed(self, prefix, ids):
        got = derive_seeds(prefix, ids)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(prefix, i) for i in ids]
        assert got.tolist() == [oracles.derive_seed_reference(prefix, i) for i in ids]


class TestFirstRandoms:
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_equals_random_random(self, seeds):
        got = first_randoms(np.array(seeds, dtype=np.uint64))
        assert got.dtype == np.float64
        assert got.tolist() == reference_randoms(seeds)

    def test_edges(self):
        got = first_randoms(np.array(EDGE_SEEDS, dtype=np.uint64))
        assert got.tolist() == reference_randoms(EDGE_SEEDS)

    def test_one_word_keys_among_two_word_keys(self):
        rng = random.Random(0)
        seeds = [rng.getrandbits(64) for _ in range(300)]
        seeds[::7] = [rng.getrandbits(32) for _ in seeds[::7]]
        got = first_randoms(np.array(seeds, dtype=np.uint64))
        assert got.tolist() == reference_randoms(seeds)

    def test_derived_seeds(self):
        seeds = derive_seeds(42, range(2000))
        assert first_randoms(seeds).tolist() == reference_randoms(seeds)

    def test_empty(self):
        assert first_randoms(np.array([], dtype=np.uint64)).shape == (0,)
