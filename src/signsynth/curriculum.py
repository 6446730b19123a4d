"""Linear-annealing mixture sampler for blending real and synthetic data.

Training starts fully on synthetic data and linearly raises the probability
of drawing a real sample to a cap (default 0.85 at 60k steps), staying flat
afterwards.  Each step's draw is seeded from (seed, step) rather than one
advancing stream, so training can resume at any step and replay the exact
same mixture, and data-loader workers need no shared RNG state.  A step's
source is read straight from its derived seed, ``derive_seed(seed, step)``:
it draws real data exactly when the seed's top 53 bits, as a fraction of
2**53, fall below the step's real fraction.  Its item index comes from a
second seed, ``derive_seed(seed, step, "item")``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .io import atomic_open
from .seeds import derive_seed, derive_seeds

REAL = "real"
SYNTHETIC = "synthetic"

# Steps whose seeds write_schedule_csv holds at once; it bounds memory only.
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


def _is_real(key: int, frac: float) -> bool:
    """Whether a step with derived seed ``key`` and real fraction ``frac`` draws
    real data: the top 53 bits of ``key``, as a fraction of 2**53, are below
    ``frac``.  Exact in float64: a 53-bit int converts without rounding."""
    return (key >> 11) * 2.0**-53 < frac


def draw(
    step: int, sched: AnnealSchedule, seed: int, real_size: int, synth_size: int
) -> MixtureDraw:
    """One seeded mixture draw: pick a source, then an item uniformly within it."""
    if real_size < 1 or synth_size < 1:
        raise ValueError("dataset sizes must be >= 1")
    real = _is_real(derive_seed(seed, step), real_fraction(step, sched))
    item_index = random.Random(derive_seed(seed, step, "item")).randrange(
        real_size if real else synth_size
    )
    return MixtureDraw(step=step, source=REAL if real else SYNTHETIC, item_index=item_index)


def write_schedule_csv(
    path, total_steps: int, sched: AnnealSchedule, seed: int, real_size: int, synth_size: int
) -> None:
    """Export the mixture schedule as 'step,real_fraction,source' rows.

    Row ``step`` carries the source of ``draw(step, ...)``.  The item index is
    not exported, so a block of steps needs only its seeds, one
    ``derive_seeds`` call.
    """
    with atomic_open(path) as fh:
        fh.write("step,real_fraction,source\r\n")
        if total_steps > 0 and (real_size < 1 or synth_size < 1):
            raise ValueError("dataset sizes must be >= 1")
        for start in range(0, total_steps, _BLOCK):
            steps = range(start, min(start + _BLOCK, total_steps))
            for step, key in zip(steps, derive_seeds(seed, steps)):
                frac = real_fraction(step, sched)
                fh.write(f"{step},{frac:.6f},{REAL if _is_real(key, frac) else SYNTHETIC}\r\n")
