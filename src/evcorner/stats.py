"""Run counters every detector keeps as ``detector.stats``."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# histogram bucket upper edges for the event-to-LUT time gap, microseconds
T_ERR_BUCKETS_US = (1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000)


@dataclass
class PipelineStats:
    """Events, LUT generations and phase wall times (``perf_counter``) of one
    detector. Phase 1 is per-event work, phase 2 LUT regeneration; a
    detector without a LUT reports 0 generations and 0 phase-2 time."""

    events_processed: int = 0
    lut_generations: int = 0
    max_batch_size: int = 0
    pixels_regenerated: int = 0  # summed over generations
    phase1_s: float = 0.0
    phase2_s: float = 0.0
    t_err_histogram: np.ndarray = field(
        default_factory=lambda: np.zeros(len(T_ERR_BUCKETS_US) + 1, dtype=np.int64)
    )

    def record_t_err(self, gaps_us: np.ndarray) -> None:
        idx = np.searchsorted(T_ERR_BUCKETS_US, gaps_us, side="left")
        self.t_err_histogram += np.bincount(idx, minlength=len(T_ERR_BUCKETS_US) + 1)

    def record_generation(self, pixels: int, seconds: float) -> None:
        self.lut_generations += 1
        self.pixels_regenerated += pixels
        self.phase2_s += seconds
