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

import numpy as np

from .io import atomic_open
from .seeds import derive_seed, derive_seeds, first_randoms

REAL = "real"
SYNTHETIC = "synthetic"

# Steps drawn together by write_schedule_csv.  The fixed cost of each numpy
# call in the seeding kernel dominates small blocks; cache effects do not show.
# For the 60k steps of the paper's ramp (2-vCPU VM, numpy 2.4), first_randoms
# took 0.20 s at 4096 and 0.13-0.15 s at 16384.  65536 (one block) took 0.10 s,
# but its arrays added 3.7 MB of peak RSS against 1 MB at 16384: near the
# benchmark's 10% peak_rss_mb bound on a 42 MB chain.
_BLOCK = 16384


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


def write_schedule_csv(
    path, total_steps: int, sched: AnnealSchedule, seed: int, real_size: int, synth_size: int
) -> None:
    """Export the mixture schedule as 'step,real_fraction,source' rows.

    Row ``step`` carries the source of ``draw(step, ...)``.  Only the first
    ``random()`` of a step's generator picks the source, and the item index
    is not exported, so the rows are computed a block of steps at a time.
    """
    with atomic_open(path) as fh:
        fh.write("step,real_fraction,source\r\n")
        if total_steps > 0 and (real_size < 1 or synth_size < 1):
            raise ValueError("dataset sizes must be >= 1")
        for start in range(0, total_steps, _BLOCK):
            steps = range(start, min(start + _BLOCK, total_steps))
            fh.writelines(_csv_rows(steps, first_randoms(derive_seeds(seed, steps)), sched))


def _csv_rows(steps: range, firsts: np.ndarray, sched: AnnealSchedule) -> Iterator[str]:
    """The CSV row of each step, from the first ``random()`` of its generator;
    a generator, so a block's rows are never all held at once."""
    for step, u in zip(steps, firsts.tolist()):
        frac = real_fraction(step, sched)
        yield f"{step},{frac:.6f},{REAL if u < frac else SYNTHETIC}\r\n"
