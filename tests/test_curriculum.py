from __future__ import annotations

import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsynth import curriculum
from signsynth.curriculum import (
    REAL,
    SYNTHETIC,
    AnnealSchedule,
    MixtureDraw,
    draw,
    real_fraction,
    write_schedule_csv,
)

SCHED = AnnealSchedule()


class TestRealFraction:
    def test_zero_at_step_zero(self):
        assert real_fraction(0, SCHED) == 0.0

    def test_cap_at_ramp_end(self):
        assert real_fraction(60_000, SCHED) == 0.85

    def test_midpoint_and_clamp(self):
        assert real_fraction(30_000, SCHED) == pytest.approx(0.425)
        assert real_fraction(120_000, SCHED) == 0.85

    @given(st.integers(0, 200_000), st.integers(0, 200_000))
    @settings(max_examples=60, deadline=None)
    def test_non_decreasing_and_bounded(self, a, b):
        lo, hi = sorted((a, b))
        assert real_fraction(lo, SCHED) <= real_fraction(hi, SCHED)
        assert 0.0 <= real_fraction(hi, SCHED) <= SCHED.max_real_fraction

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            real_fraction(-1, SCHED)


class TestDraw:
    def test_step_zero_always_synthetic(self):
        for seed in range(50):
            assert draw(0, SCHED, seed, 10, 10).source == SYNTHETIC

    def test_full_fraction_always_real(self):
        sched = AnnealSchedule(max_real_fraction=1.0, ramp_steps=10)
        for seed in range(50):
            assert draw(10, sched, seed, 10, 10).source == REAL

    def test_empirical_rate_within_3_sigma(self):
        n = 100_000
        p = real_fraction(60_000, SCHED)
        hits = sum(
            draw(60_000, SCHED, seed, 100, 100).source == REAL for seed in range(n)
        )
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * sigma

    def test_replay_stable(self):
        draws = [draw(s, SCHED, 42, 17, 23) for s in range(100)]
        # Resuming at any step reproduces the same tail.
        for start in (0, 37, 99):
            replayed = [draw(s, SCHED, 42, 17, 23) for s in range(start, 100)]
            assert replayed == draws[start:]

    def test_item_index_in_range(self):
        sched = AnnealSchedule(max_real_fraction=1.0, ramp_steps=1)
        for seed in range(200):
            d = draw(5, sched, seed, real_size=7, synth_size=3)
            assert 0 <= d.item_index < 7

    def test_sizes_validated(self):
        with pytest.raises(ValueError):
            draw(0, SCHED, 0, 0, 5)

    def test_mixture_draw_validation(self):
        with pytest.raises(ValueError):
            MixtureDraw(step=-1, source=REAL, item_index=0)
        with pytest.raises(ValueError):
            MixtureDraw(step=0, source="other", item_index=0)


class TestEmitSchedule:
    def test_step_count_and_order(self):
        draws = [draw(s, SCHED, 0, 5, 5) for s in range(3)]
        assert [d.step for d in draws] == [0, 1, 2]

    def test_deterministic(self):
        a = [draw(s, SCHED, 9, 5, 5) for s in range(50)]
        b = [draw(s, SCHED, 9, 5, 5) for s in range(50)]
        assert a == b

    def test_cumulative_real_count_matches_integral(self):
        total = 60_000
        draws = (draw(s, SCHED, 7, 10, 10) for s in range(total))
        hits = sum(d.source == REAL for d in draws)
        expected = sum(real_fraction(s, SCHED) for s in range(total))  # 25499.575...
        assert expected == pytest.approx(0.425 * total, rel=1e-4)
        sigma = math.sqrt(
            sum(real_fraction(s, SCHED) * (1 - real_fraction(s, SCHED)) for s in range(total))
        )
        assert abs(hits - expected) <= 3 * sigma

    def test_csv_export(self, tmp_path):
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, 5, SCHED, 3, 10, 10)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "real_fraction", "source"]
        assert len(rows) == 6
        assert rows[1][0] == "0" and rows[1][2] == SYNTHETIC


schedules = st.builds(
    AnnealSchedule,
    max_real_fraction=st.floats(0.0, 1.0),
    ramp_steps=st.one_of(st.integers(1, 10_000), st.integers(1, 2**70)),
)


# Step counts at the edges of a block, and around 4096 steps, which fall inside
# the first block unless _BLOCK is 4096 or smaller.
_STEP_CASES = sorted({
    0, 1, 4095, 4096, 4097,
    curriculum._BLOCK - 1, curriculum._BLOCK, curriculum._BLOCK + 1,
})


class TestScheduleCsvMatchesDraw:
    """write_schedule_csv computes its rows a block of steps at a time; each
    row must still be the one draw() gives for its step."""

    @pytest.mark.parametrize("total_steps", _STEP_CASES)
    @given(sched=schedules, seed=st.integers(-(2**70), 2**70))
    @settings(max_examples=5, deadline=None)
    def test_rows_equal_draws(self, tmp_path_factory, total_steps, sched, seed):
        path = tmp_path_factory.mktemp("csv") / "schedule.csv"
        write_schedule_csv(path, total_steps, sched, seed, 3, 4)
        draws = [draw(s, sched, seed, 3, 4) for s in range(total_steps)]
        want = ["step,real_fraction,source\r\n"] + [
            f"{d.step},{real_fraction(d.step, sched):.6f},{d.source}\r\n" for d in draws
        ]
        assert path.read_bytes() == "".join(want).encode()

    @pytest.mark.parametrize(
        "total_steps", sorted({-1, 0, 1, 4097, curriculum._BLOCK + 1})
    )
    @pytest.mark.parametrize("sizes", [(0, 5), (5, 0), (0, -1)])
    def test_invalid_sizes_raise_only_with_steps(self, tmp_path, total_steps, sizes):
        path = tmp_path / "schedule.csv"
        if total_steps > 0:
            with pytest.raises(ValueError, match="sizes"):
                [draw(s, SCHED, 0, *sizes) for s in range(total_steps)]
            with pytest.raises(ValueError, match="sizes"):
                write_schedule_csv(path, total_steps, SCHED, 0, *sizes)
            assert list(tmp_path.iterdir()) == []
        else:
            assert [draw(s, SCHED, 0, *sizes) for s in range(total_steps)] == []
            write_schedule_csv(path, total_steps, SCHED, 0, *sizes)
            assert path.read_bytes() == b"step,real_fraction,source\r\n"


class TestAnnealSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(max_real_fraction=1.5)
        with pytest.raises(ValueError):
            AnnealSchedule(ramp_steps=0)
