"""Two-phase corner pipeline: event-wise threshold-ordinal surface updates
coupled with as-fast-as-possible regeneration of the dirty tiles of a
Harris look-up table.

Phase 1 (per event, applied a batch at a time): decrement-and-fire the TOS
for each event (``TosSurface.update_many``), then tag each event by a single
LUT read. Phase 2 (per batch / continuously): recompute the LUT from a
consistent TOS snapshot. A score depends on the TOS only within the Harris
reach of its pixel, and an event changes the TOS only within ``k_tos`` of
its own, so phase 2 recomputes just the tiles (``harris.TILE`` square)
within ``k_tos + reach`` of the events since the last generation; the
result equals the full-frame map bit for bit. A LUT keeps its scores as
the frame's row strips (``harris.strip_rows``), and a generation builds
new arrays only for the strips its tiles fall in, sharing the rest with
the previous LUT, so its cost follows the dirty area and no published LUT
is ever written to.

``LuvHarrisDetector`` runs either ``LuvHarrisConfig.mode``. In
``alternating`` mode the two phases take turns on the caller's thread: each
``process`` call updates the TOS with the whole chunk, regenerates the LUT
once, and tags the chunk against the LUT from before the update, the one
regenerated after the previous call. In ``dual_thread`` mode the caller's
thread runs phase 1 on each chunk while a worker thread (named
``WORKER_NAME``, started by the first ``process`` call) regenerates
whenever tiles are pending, publishing LUTs by atomic whole-object swap, so
a chunk is tagged without waiting but against an older LUT. ``close()``
(or leaving a ``with`` block) joins the worker.

The LUT a chunk is classified against was generated from an earlier TOS
state; staleness grows with chunk size and only degrades accuracy, never
corrupts ordering (every event yields exactly one tag, in input order).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .events import EventStream, SensorGeometry, Tags
from .harris import HarrisParams, dirty_rects, dirty_tiles, response_rects, strip_rows, tile_grid
from .stats import PipelineStats
from .surfaces import TosSurface, tos_default_threshold

WORKER_NAME = "evcorner-lut-worker"  # the dual_thread regeneration thread


@dataclass(frozen=True)
class LuvHarrisConfig:
    k_tos: int = 3
    t_tos: int | None = None  # default 4 * k_tos
    harris: HarrisParams = field(default_factory=HarrisParams)
    threshold_tr: float = 0.0
    mode: str = "alternating"

    def __post_init__(self):
        if self.k_tos < 1:
            raise InvalidParameter(f"k_tos must be >= 1, got {self.k_tos}")
        if not np.isfinite(self.threshold_tr):
            raise InvalidParameter("threshold_tr must be finite")
        if self.mode not in ("alternating", "dual_thread"):
            raise InvalidParameter(f"mode must be alternating or dual_thread, got {self.mode!r}")

    def effective_t_tos(self) -> int:
        return self.t_tos if self.t_tos is not None else tos_default_threshold(self.k_tos)

    def dirty_radius(self) -> int:
        """How far from an event scores can change: TOS window plus Harris reach."""
        return self.k_tos + self.harris.reach


class HarrisLut:
    """Harris scores over the frame plus the stream time they hold for.

    The scores are kept as ``strips``, the frame's row strips
    (``harris.strip_rows``), each read-only. Each generation recomputes
    only the dirty tiles, writing them into new arrays for the strips they
    fall in, and shares every other strip with the previous generation,
    unchanged and still exact. A LUT is never written to once built, so
    ``scores``, the full frame, is assembled on first use and kept.
    """

    def __init__(self, strips: tuple, generated_at: int, generation_index: int,
                 pixels_regenerated: int = 0):
        self.strips = strips
        self._scores = None
        # timestamp (us) of the newest event in the source snapshot
        self.generated_at = generated_at
        self.generation_index = generation_index
        self.pixels_regenerated = pixels_regenerated  # pixels this generation recomputed

    @classmethod
    def blank(cls, shape: tuple[int, int]) -> "HarrisLut":
        """The cold-start table: all-zero scores, one zero strip shared by
        every strip of the frame."""
        rows = strip_rows(shape)
        zero = np.zeros((min(rows, shape[0]), shape[1]))
        zero.flags.writeable = False
        return cls(tuple(zero[: min(rows, shape[0] - y)] for y in range(0, shape[0], rows)), 0, 0)

    @classmethod
    def from_frame(cls, scores, generated_at: int, generation_index: int) -> "HarrisLut":
        """A LUT holding a read-only copy of the full-frame ``scores``."""
        frame = np.array(scores, dtype=float)
        frame.flags.writeable = False
        rows = strip_rows(frame.shape)
        return cls(tuple(frame[y : y + rows] for y in range(0, len(frame), rows)),
                   generated_at, generation_index)

    @property
    def scores(self) -> np.ndarray:
        """The full-frame scores, assembled from the strips on first use."""
        if self._scores is None:
            strips = self.strips
            if len(strips) == 1:
                self._scores = strips[0]
            else:
                self._scores = np.concatenate(strips)
                self._scores.flags.writeable = False
        return self._scores

    def at(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The scores at pixels ``(y, x)``, gathered strip by strip."""
        strips = self.strips
        if len(strips) == 1 or len(y) == 0:
            return strips[0][y, x]
        rows = len(strips[0])
        strip = y // rows
        first, last = int(strip.min()), int(strip.max())
        if first == last:
            return strips[first][y - first * rows, x]
        out = np.empty(len(y))
        for k in range(first, last + 1):
            hit = np.flatnonzero(strip == k)
            if hit.size:
                out[hit] = strips[k][y[hit] - k * rows, x[hit]]
        return out


def regenerate_lut(
    surface: np.ndarray,
    params: HarrisParams,
    latest_event_t: int,
    previous: HarrisLut | None = None,
    dirty: np.ndarray | None = None,
    t_tos: int = 0,
) -> HarrisLut:
    """Next LUT from a consistent TOS snapshot.

    ``surface`` is the raw TOS, whose cells below ``t_tos`` read as 0 (a
    snapped grid with the default 0 works too). The tiles marked in
    ``dirty`` (see ``harris.dirty_tiles``; None marks all) are recomputed.
    A strip they cover whole is a new array; one they cover in part is a
    copy of the previous strip with them written in; every other strip is
    the previous one. So the previous LUT is never written to and
    publication stays an atomic swap. Without a previous LUT every tile is
    recomputed.
    """
    shape = np.shape(surface)
    rows = strip_rows(shape)
    if previous is None:
        strips, dirty, index = [None] * -(-shape[0] // rows), None, 1
    else:
        strips, index = list(previous.strips), previous.generation_index + 1
    rects = dirty_rects(shape, dirty)
    area = {}  # pixels written per strip
    for y0, y1, x0, x1 in rects:
        area[y0 // rows] = area.get(y0 // rows, 0) + (y1 - y0) * (x1 - x0)
    for k, written in area.items():
        height = min(rows, shape[0] - k * rows)
        whole = written == height * shape[1]
        strips[k] = np.empty((height, shape[1])) if whole else strips[k].copy()
    for (y0, y1, x0, x1), values in response_rects(surface, params, rects, t_tos):
        k = y0 // rows
        strips[k][y0 - k * rows : y1 - k * rows, x0:x1] = values
    for k in area:
        strips[k].flags.writeable = False
    return HarrisLut(tuple(strips), int(latest_event_t), index, sum(area.values()))


def _read_lut(lut: HarrisLut, chunk: EventStream, threshold_tr: float,
              stats: PipelineStats) -> tuple[np.ndarray, np.ndarray]:
    """Phase-1 read: score every event of ``chunk`` from one LUT generation
    and record each event's time gap to it."""
    score = lut.at(chunk.y, chunk.x)
    stats.record_t_err(np.abs(chunk.t.astype(np.int64) - lut.generated_at))
    return score > threshold_tr, score


def _no_tags(chunk: EventStream) -> Tags:
    return Tags.for_stream(chunk, np.zeros(0, bool), np.zeros(0))


class LuvHarrisDetector:
    """The luvHarris pipeline behind a streaming ``process`` interface;
    every call treats its events as pending input.

    ``alternating``: phase 1 updates the TOS with the chunk, phase 2
    regenerates the LUT once, and the chunk is tagged against the LUT from
    before the update, so one large chunk amortises a regeneration as a
    saturated live system would.

    ``dual_thread``: the caller updates the TOS and ORs the chunk's dirty
    tiles into the pending mask under one lock, so the worker's snapshots
    land between whole chunks, then tags the chunk by one read of the
    published LUT. The worker sleeps until tiles are pending (all of them
    at a cold start), takes the TOS copy and the mask together under the
    lock, regenerates outside it, and publishes by rebinding ``self.lut``.
    ``close`` lets it regenerate what is pending first. A worker failure is
    re-raised once, by the next ``process`` or ``close``.
    """

    decision_direction = "greater"
    name = "luvharris"

    def __init__(self, geometry: SensorGeometry, config: LuvHarrisConfig | None = None):
        self.geometry = geometry
        self.config = config or LuvHarrisConfig()
        self.tos = TosSurface(geometry, self.config.k_tos, self.config.effective_t_tos())
        # cold start: all-zero scores, so early events are tagged not-corner
        self.lut = HarrisLut.blank((geometry.height, geometry.width))
        self.stats = PipelineStats()
        # dual_thread state, shared with the worker under _wake's lock
        self._wake = threading.Condition()
        self._dirty = np.ones(tile_grid(self.tos.raw.shape), dtype=bool)
        self._latest_t = 0
        self._stopping = False
        self._worker: threading.Thread | None = None
        self._error: Exception | None = None
        self._seen_gen = 0
        self._since_swap = 0

    def __enter__(self) -> "LuvHarrisDetector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop and join the worker after it regenerates what is pending;
        re-raise its failure if that was not delivered yet. A later
        ``process`` starts a new worker."""
        if self._worker is not None:
            with self._wake:
                self._stopping = True
                self._wake.notify()
            self._worker.join()
            self._worker, self._stopping = None, False
        self._reraise()

    def process(self, chunk: EventStream) -> Tags:
        if self.config.mode == "dual_thread":
            return self._hand_over(chunk)
        if len(chunk) == 0:
            return _no_tags(chunk)
        t0 = time.perf_counter()
        self.tos.update_many(chunk.x, chunk.y)
        t1 = time.perf_counter()
        before = self.lut
        dirty = dirty_tiles(chunk.x, chunk.y, self.tos.raw.shape, self.config.dirty_radius())
        self.lut = regenerate_lut(self.tos.raw, self.config.harris, int(chunk.t[-1]),
                                  before, dirty, self.tos.t_tos)
        t2 = time.perf_counter()
        # tag against the LUT that existed while this chunk was consumed
        is_corner, score = _read_lut(before, chunk, self.config.threshold_tr, self.stats)
        self.stats.phase1_s += t1 - t0 + time.perf_counter() - t2
        self.stats.record_generation(self.lut.pixels_regenerated, t2 - t1)
        self.stats.max_batch_size = max(self.stats.max_batch_size, len(chunk))
        self.stats.events_processed += len(chunk)
        return Tags.for_stream(chunk, is_corner, score)

    def _hand_over(self, chunk: EventStream) -> Tags:
        """dual_thread phase 1: apply the chunk, mark its tiles pending for
        the worker, and tag it against the published LUT."""
        self._reraise()
        if len(chunk) == 0:
            return _no_tags(chunk)
        if self._worker is None:
            self._worker = threading.Thread(target=self._regen_loop, name=WORKER_NAME,
                                            daemon=True)
            self._worker.start()
        t0 = time.perf_counter()
        dirty = dirty_tiles(chunk.x, chunk.y, self.tos.raw.shape, self.config.dirty_radius())
        with self._wake:
            self.tos.update_many(chunk.x, chunk.y)
            self._latest_t = int(chunk.t[-1])
            self._dirty |= dirty
            self._wake.notify()
        lut = self.lut  # one generation for the whole chunk, swapped atomically
        is_corner, score = _read_lut(lut, chunk, self.config.threshold_tr, self.stats)
        if lut.generation_index != self._seen_gen:
            self._seen_gen = lut.generation_index
            self._since_swap = 0
        self._since_swap += len(chunk)
        self.stats.max_batch_size = max(self.stats.max_batch_size, self._since_swap)
        self.stats.events_processed += len(chunk)
        self.stats.phase1_s += time.perf_counter() - t0
        return Tags.for_stream(chunk, is_corner, score)

    def _regen_loop(self) -> None:
        try:
            while True:
                with self._wake:
                    while not (self._dirty.any() or self._stopping):
                        self._wake.wait()
                    if not self._dirty.any():
                        return
                    raw = self.tos.raw.copy()
                    dirty, self._dirty = self._dirty, np.zeros_like(self._dirty)
                    latest = self._latest_t
                t0 = time.perf_counter()
                # through the module global, so tracing it sees this thread too
                self.lut = regenerate_lut(raw, self.config.harris, latest, self.lut,
                                          dirty, self.tos.t_tos)
                self.stats.record_generation(self.lut.pixels_regenerated,
                                             time.perf_counter() - t0)
        except Exception as e:
            self._error = e

    def _reraise(self) -> None:
        error, self._error = self._error, None
        if error is not None:
            raise error
