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
result equals the full-frame map bit for bit. Where the pixel box of those
events +- that radius is at most ``BOX_SIDE`` (2x2 tiles) a side, as for
a few moving corners, phase 2 recomputes just that box as one small-form
rectangle, and each chunk marks its tiles by one slice over its own box
instead of per event. A LUT keeps its scores as the frame's row strips
(``harris.strip_rows``: 32 rows at 1280 wide). A generation copies each
strip its tiles or box fall in and writes them into the copy (a strip
they cover whole is built fresh), and shares every other strip with the
previous LUT, so its cost follows the dirty area and no published LUT is
ever written to. A generation of at least
``2 * harris.STRIP_PIXELS`` pixels (640x480, not 240x180) runs on two
threads where the process may use two CPUs: a helper evaluates every other
rectangle, and the LUT is frozen and published after both halves finish.

``LuvHarrisDetector`` runs one path in either ``LuvHarrisConfig.mode``.
Each ``process`` call updates the TOS with the chunk, marks the chunk's
tiles pending, and tags the chunk against the current LUT. The modes only
differ in who runs phase 2: in ``alternating`` mode the caller regenerates
once at the end of the call, so the next chunk is tagged against a LUT of
this one; in ``dual_thread`` mode a worker thread (named ``WORKER_NAME``,
started by the first ``process`` call) regenerates whenever tiles are
pending and publishes LUTs by atomic whole-object swap, so a chunk is
tagged without waiting but against an older LUT. ``close()`` (or leaving a
``with`` block) joins the worker. Both modes start clear: the cold-start
LUT is the exact map of the all-zero TOS, so nothing is pending before the
first event.

The LUT a chunk is classified against was generated from an earlier TOS
state; staleness grows with chunk size and only degrades accuracy, never
corrupts ordering (every event yields exactly one tag, in input order).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .events import EventStream, SensorGeometry, Tags
from .harris import (SMALL_RECT_TILES, STRIP_PIXELS, TILE, HarrisParams, dirty_rects,
                     dirty_tiles, response_rects, strip_rows, tile_grid)
from .stats import PipelineStats
from .surfaces import TosSurface, tos_default_threshold

WORKER_NAME = "evcorner-lut-worker"  # the dual_thread regeneration thread
HELPER_NAME = "evcorner-lut-helper"  # evaluates half of a large generation
# a pending pixel box at most this many pixels a side is one small-form rectangle
BOX_SIDE = SMALL_RECT_TILES * TILE


def _fits(box) -> bool:
    return box is not None and max(box[1] - box[0], box[3] - box[2]) <= BOX_SIDE


def _union(a, b):
    """The smallest ``(y0, y1, x0, x1)`` box holding boxes ``a`` and ``b`` (None is empty)."""
    if a is None or b is None:
        return a or b
    return min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3])


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
    only the dirty tiles or box, writing them into new arrays for the
    strips they fall in, and shares every other strip with the previous
    generation, unchanged and still exact. A LUT is never written to once
    built, and ``at`` is its one read.
    """

    def __init__(self, strips: tuple, generated_at: int, generation_index: int,
                 pixels_regenerated: int = 0):
        self.strips = strips
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
    previous: HarrisLut,
    dirty: np.ndarray,
    t_tos: int,
    box: tuple | None = None,
) -> HarrisLut:
    """The LUT after ``previous``, from a consistent TOS snapshot.

    ``surface`` is the raw TOS, whose cells below ``t_tos`` read as 0 (a
    snapped grid with ``t_tos`` 0 works too). The tiles marked in
    ``dirty`` (see ``harris.dirty_tiles``) are recomputed; or, when
    ``box``, a ``(y0, y1, x0, x1)`` pixel box holding every changed score,
    is at most ``BOX_SIDE`` a side, only that box, as one rectangle written
    into each strip it crosses. A strip they cover whole is a new array;
    one they cover in part is a copy of the previous strip with them
    written in; every other strip is the previous one. So the previous LUT
    is never written to and publication stays an atomic swap. The first
    LUT follows ``HarrisLut.blank``, the exact map of the all-zero TOS. A
    large generation is split with a helper thread (see the module
    docstring), joined before this returns or raises; its failure is
    raised here.
    """
    shape = np.shape(surface)
    rows = strip_rows(shape)
    strips = list(previous.strips)
    rects = [box] if _fits(box) else dirty_rects(shape, dirty)
    area = {}  # pixels written per strip
    for y0, y1, x0, x1 in rects:
        for k in range(y0 // rows, (y1 - 1) // rows + 1):  # a box may cross strips
            a, b = max(y0, k * rows), min(y1, (k + 1) * rows)
            area[k] = area.get(k, 0) + (b - a) * (x1 - x0)
    for k, written in area.items():
        height = min(rows, shape[0] - k * rows)
        whole = written == height * shape[1]
        strips[k] = np.empty((height, shape[1])) if whole else strips[k].copy()

    def fill(part):
        for (y0, y1, x0, x1), values in response_rects(surface, params, part, t_tos):
            for k in range(y0 // rows, (y1 - 1) // rows + 1):
                a, b = max(y0, k * rows), min(y1, (k + 1) * rows)
                strips[k][a - k * rows : b - k * rows, x0:x1] = values[a - y0 : b - y0]

    pixels = sum(area.values())
    if (pixels >= 2 * STRIP_PIXELS and hasattr(os, "sched_getaffinity")  # not on every OS
            and len(os.sched_getaffinity(0)) >= 2):
        errors = []  # the rectangles are disjoint, so the halves write disjoint cells

        def helper_half():
            try:
                fill(rects[1::2])
            except BaseException as e:
                errors.append(e)

        helper = threading.Thread(target=helper_half, name=HELPER_NAME, daemon=True)
        helper.start()
        try:
            fill(rects[::2])
        finally:
            helper.join()
        if errors:
            raise errors[0]
    else:
        fill(rects)
    for k in area:
        strips[k].flags.writeable = False
    return HarrisLut(tuple(strips), int(latest_event_t), previous.generation_index + 1, pixels)


class LuvHarrisDetector:
    """The luvHarris pipeline behind a streaming ``process`` interface;
    every call treats its events as pending input.

    ``process`` computes the chunk's pixel box (its events +-
    ``dirty_radius``) and, only where that box is over ``BOX_SIDE`` a side,
    its dirty tiles. Under one lock it then updates the TOS with the chunk,
    marks the tiles pending (a box's whole tile cover, one slice) and
    widens the pending box to hold the chunk's, so a snapshot always lands
    between whole chunks. It then tags the chunk by one read of
    ``self.lut``. Phase 2, ``_regenerate``, takes the pending mask and box
    under the lock, regenerates the LUT (the box alone while it stays
    within ``BOX_SIDE`` a side, else the tiles) and publishes it by
    rebinding ``self.lut``.

    ``alternating``: ``process`` ends with one regeneration on the
    caller's thread, reading the TOS in place, so one large chunk
    amortises a regeneration as a saturated live system would.

    ``dual_thread``: ``process`` wakes the worker instead. The worker
    sleeps until tiles are pending, copies the TOS with the mask, and
    regenerates outside the lock. ``close`` lets it regenerate what is
    pending first. A worker failure is re-raised once, by the next
    ``process`` or ``close``; the ``process`` after that starts a new
    worker, and a ``close`` first regenerates on the calling thread. In
    either mode a failed generation leaves its tiles and box pending.
    """

    decision_direction = "greater"
    name = "luvharris"

    def __init__(self, geometry: SensorGeometry, config: LuvHarrisConfig | None = None):
        self.geometry = geometry
        self.config = config or LuvHarrisConfig()
        self.tos = TosSurface(geometry, self.config.k_tos, self.config.effective_t_tos())
        # cold start: the exact all-zero map, so early events are tagged
        # not-corner and nothing is pending
        self.lut = HarrisLut.blank((geometry.height, geometry.width))
        self.stats = PipelineStats()
        # phase 1 and phase 2 share these under _wake's lock
        self._wake = threading.Condition()
        self._dirty = np.zeros(tile_grid(self.tos.raw.shape), dtype=bool)
        self._box = None  # pixel box of the pending chunks' events +- dirty_radius
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
        if it failed and that was not delivered yet, regenerate what it
        left pending on this thread, then re-raise its failure. A later
        ``process`` starts a new worker."""
        try:
            if self._worker is not None:
                with self._wake:
                    self._stopping = True
                    self._wake.notify()
                self._worker.join()
                self._worker, self._stopping = None, False
                if self._error is not None:  # it died leaving a generation pending
                    self._regenerate(copy_tos=False)
        finally:
            self._reraise()

    def process(self, chunk: EventStream) -> Tags:
        """Phase 1 on ``chunk``: update the TOS, mark its tiles pending and
        tag it against the current LUT; then phase 2 (see the class)."""
        self._reraise()
        if len(chunk) == 0:
            return Tags.for_stream(chunk, np.zeros(0, bool), np.zeros(0))
        alternating = self.config.mode == "alternating"
        if not alternating and not (self._worker and self._worker.is_alive()):
            self._worker = threading.Thread(target=self._regen_loop, name=WORKER_NAME,
                                            daemon=True)
            self._worker.start()
        t0 = time.perf_counter()
        (h, w), r = self.tos.raw.shape, self.config.dirty_radius()
        box = (max(int(chunk.y.min()) - r, 0), min(int(chunk.y.max()) + r + 1, h),
               max(int(chunk.x.min()) - r, 0), min(int(chunk.x.max()) + r + 1, w))
        dirty = None if _fits(box) else dirty_tiles(chunk.x, chunk.y, (h, w), r)
        with self._wake:
            self.tos.update_many(chunk.x, chunk.y)
            self._latest_t = int(chunk.t[-1])
            if dirty is None:  # the box's tile cover, a superset of dirty_tiles
                self._dirty[box[0] // TILE : -(-box[1] // TILE),
                            box[2] // TILE : -(-box[3] // TILE)] = True
            else:
                self._dirty |= dirty
            self._box = _union(self._box, box)
            self._wake.notify()
        lut = self.lut  # one generation for the whole chunk, swapped atomically
        score = lut.at(chunk.y, chunk.x)
        self.stats.record_t_err(np.abs(chunk.t.astype(np.int64) - lut.generated_at))
        if lut.generation_index != self._seen_gen:
            self._seen_gen = lut.generation_index
            self._since_swap = 0
        self._since_swap += len(chunk)
        self.stats.max_batch_size = max(self.stats.max_batch_size, self._since_swap)
        self.stats.events_processed += len(chunk)
        self.stats.phase1_s += time.perf_counter() - t0
        if alternating:
            self._regenerate(copy_tos=False)
        return Tags.for_stream(chunk, score > self.config.threshold_tr, score)

    def _regenerate(self, copy_tos: bool) -> None:
        """Phase 2: one LUT generation from the pending tiles, published by
        rebinding ``self.lut``. ``copy_tos`` snapshots the TOS under the
        lock, for a thread other than the one that updates it."""
        with self._wake:
            raw = self.tos.raw.copy() if copy_tos else self.tos.raw
            dirty, self._dirty = self._dirty, np.zeros_like(self._dirty)
            box, self._box = self._box, None
            latest = self._latest_t
        t0 = time.perf_counter()
        try:
            # through the module global, so tracing it sees the worker too
            self.lut = regenerate_lut(raw, self.config.harris, latest, self.lut,
                                      dirty, self.tos.t_tos, box)
        except BaseException:
            with self._wake:  # a failed generation leaves its tiles and box pending
                self._dirty |= dirty
                self._box = _union(self._box, box)
            raise
        self.stats.record_generation(self.lut.pixels_regenerated, time.perf_counter() - t0)

    def _regen_loop(self) -> None:
        try:
            while True:
                with self._wake:
                    while self._box is None and not self._stopping:
                        self._wake.wait()
                    if self._box is None:
                        return
                self._regenerate(copy_tos=True)
        except Exception as e:
            self._error = e

    def _reraise(self) -> None:
        error, self._error = self._error, None
        if error is not None:
            raise error
