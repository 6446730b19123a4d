"""Linear-annealing mixture sampler for blending real and synthetic data.

Training starts fully on synthetic data and linearly raises the probability
of drawing a real sample to a cap (default 0.85 at 60k steps), staying flat
afterwards.  Each step's draw is seeded from (seed, step) rather than one
advancing stream, so training can resume at any step and replay the exact
same mixture, and data-loader workers need no shared RNG state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .io import atomic_open
from .pose import PoseSequence
from .seeds import derive_seed, derive_seeds, first_randoms

REAL = "real"
SYNTHETIC = "synthetic"

# Steps drawn together by write_schedule_csv: large enough to amortize the
# per-call cost of the array kernel, small enough to keep its arrays in cache.
_BLOCK = 4096


@dataclass(frozen=True)
class AnnealSchedule:
    max_real_fraction: float = 0.85
    ramp_steps: int = 60_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_real_fraction <= 1.0:
            raise ValueError(
                f"max_real_fraction must be in [0, 1], got {self.max_real_fraction}"
            )
        if self.ramp_steps < 1:
            raise ValueError(f"ramp_steps must be >= 1, got {self.ramp_steps}")


@dataclass(frozen=True)
class MixtureDraw:
    step: int
    source: str  # REAL or SYNTHETIC
    item_index: int

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.source not in (REAL, SYNTHETIC):
            raise ValueError(f"source must be {REAL!r} or {SYNTHETIC!r}")


def real_fraction(step: int, sched: AnnealSchedule) -> float:
    """Probability of drawing a real sample at this step (linear ramp, clamped)."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return sched.max_real_fraction * min(1.0, step / sched.ramp_steps)


def draw(
    step: int, sched: AnnealSchedule, seed: int, real_size: int, synth_size: int
) -> MixtureDraw:
    """One seeded mixture draw: pick a source, then an item uniformly within it."""
    if real_size < 1 or synth_size < 1:
        raise ValueError("dataset sizes must be >= 1")
    rng = random.Random(derive_seed(seed, step))
    u = rng.random()
    if u < real_fraction(step, sched):
        return MixtureDraw(step=step, source=REAL, item_index=rng.randrange(real_size))
    return MixtureDraw(step=step, source=SYNTHETIC, item_index=rng.randrange(synth_size))


def truncate_frames(seq: PoseSequence, max_frames: int) -> PoseSequence:
    """First min(len, max_frames) frames; idempotent."""
    if max_frames < 1:
        raise ValueError(f"max_frames must be >= 1, got {max_frames}")
    if len(seq) <= max_frames:
        return seq
    return PoseSequence(frames=seq.frames[:max_frames], source_id=seq.source_id)


def emit_schedule(
    total_steps: int, sched: AnnealSchedule, seed: int, real_size: int, synth_size: int
) -> Iterator[MixtureDraw]:
    """One draw per step in [0, total_steps)."""
    for step in range(total_steps):
        yield draw(step, sched, seed, real_size, synth_size)


def write_schedule_csv(
    path, total_steps: int, sched: AnnealSchedule, seed: int, real_size: int, synth_size: int
) -> None:
    """Export the mixture schedule as 'step,real_fraction,source' rows.

    Row ``step`` carries the source of ``draw(step, ...)``.  Only the first
    ``random()`` of a step's generator picks the source, and the item index
    is not exported, so the rows are computed a block of steps at a time.
    """
    with atomic_open(path, newline="") as fh:
        fh.write("step,real_fraction,source\r\n")
        if total_steps > 0 and (real_size < 1 or synth_size < 1):
            raise ValueError("dataset sizes must be >= 1")
        for start in range(0, total_steps, _BLOCK):
            steps = range(start, min(start + _BLOCK, total_steps))
            rows = []
            for step, u in zip(steps, first_randoms(derive_seeds(seed, steps)).tolist()):
                frac = real_fraction(step, sched)
                rows.append(f"{step},{frac:.6f},{REAL if u < frac else SYNTHETIC}\r\n")
            fh.write("".join(rows))
