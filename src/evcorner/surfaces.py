"""Event-surface data structures.

Three surfaces cover the detectors in this package:

* :class:`TosSurface` — threshold-ordinal surface. A firing pixel is set to
  255, every cell of the surrounding (2k+1)^2 square (the centre included)
  is first decremented by 1, and any cell falling below the zero-threshold
  snaps to 0. Values therefore live in {0} union [t_tos, 255] and encode
  recency *order* with no time parameter at all.
* :class:`SaeSurface` — per-pixel last-fire timestamp map used by the
  arc-pattern detectors.
* :class:`BinaryWindowSurface` — sliding-window binary occupancy used by the
  event-wise Harris baseline.

Surfaces are single-writer. A reader on another thread must copy
:attr:`TosSurface.raw` (or read :attr:`TosSurface.grid`) between calls to
:meth:`TosSurface.update_many`, the one method that mutates the surface (the
pipeline module owns that exclusion).
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryViolation, InvalidParameter
from .events import Event, SensorGeometry


def tos_default_threshold(k_tos: int) -> int:
    """Default zero-threshold: 4 * k_tos (two pixels of edge per side)."""
    if k_tos < 1:
        raise InvalidParameter(f"k_tos must be >= 1, got {k_tos}")
    return 4 * k_tos


class TosSurface:
    """Threshold-ordinal surface over a fixed sensor geometry.

    Internally each cell holds a *raw* value: 255 at the pixel's last fire,
    minus one per covering event since. Between fires a cell only ever
    decreases, so the threshold snap is a pure function of the raw value
    (a cell below the threshold would have snapped to 0 and stayed there),
    and is applied lazily when the surface is read. That keeps the per-event
    update to a decrement and a store; the observable surface is identical
    to snapping after every event.

    Once below the threshold a cell reads 0 until it fires again, so
    ``update_many`` floors the whole raw array at ``t_tos - 1`` once at
    least ``FLOOR_INTERVAL`` events have been applied since the last floor.
    The observable surface does not change, and a never-fired cell next to
    a hot pixel drifts at most ``FLOOR_INTERVAL`` plus one call's events
    below ``t_tos``, far from the int32 wrap. Flooring only every so often
    keeps a small call's cost independent of the sensor size.

    ``cells_touched`` accumulates the clipped update-window area, which
    bounds per-event work at (2k+1)^2 independent of image size.
    """

    FLOOR_INTERVAL = 1 << 16

    def __init__(self, geometry: SensorGeometry, k_tos: int = 3, t_tos: int | None = None):
        if k_tos < 1:
            raise InvalidParameter(f"k_tos must be >= 1, got {k_tos}")
        if t_tos is None:
            t_tos = tos_default_threshold(k_tos)
        if not 0 <= t_tos <= 255:
            raise InvalidParameter(f"t_tos must be in [0, 255], got {t_tos}")
        self.geometry = geometry
        self.k_tos = int(k_tos)
        self.t_tos = int(t_tos)
        self.raw = np.zeros((geometry.height, geometry.width), dtype=np.int32)
        self.cells_touched = 0
        self.events_applied = 0
        self._unfloored = 0  # events applied since raw was last floored

    @property
    def grid(self) -> np.ndarray:
        """Observable surface, values in {0} union [t_tos, 255]. Fresh array."""
        return self.snap(self.raw)

    def snap(self, raw: np.ndarray) -> np.ndarray:
        return np.where(raw >= self.t_tos, raw, 0)

    def update(self, event: Event) -> None:
        if not self.geometry.contains(event.x, event.y):
            raise GeometryViolation(f"({event.x},{event.y}) outside surface")
        self.update_many([event.x], [event.y])

    def update_many(self, xs, ys) -> None:
        """Apply pre-validated events in order (column arrays or int lists).

        The only method that mutates the surface.
        """
        xa = np.asarray(xs, dtype=np.int64)
        ya = np.asarray(ys, dtype=np.int64)
        k = self.k_tos
        h = self.geometry.height
        w = self.geometry.width
        x0s = np.maximum(xa - k, 0).tolist()
        x1s = np.minimum(xa + k + 1, w).tolist()
        y0s = np.maximum(ya - k, 0).tolist()
        y1s = np.minimum(ya + k + 1, h).tolist()
        raw = self.raw
        touched = 0
        for x, y, x0, x1, y0, y1 in zip(xa.tolist(), ya.tolist(), x0s, x1s, y0s, y1s):
            r = raw[y0:y1, x0:x1]
            r -= 1
            raw[y, x] = 255
            touched += (y1 - y0) * (x1 - x0)
        self._unfloored += len(x0s)
        if self._unfloored >= self.FLOOR_INTERVAL:
            np.maximum(raw, self.t_tos - 1, out=raw)
            self._unfloored = 0
        self.cells_touched += touched
        self.events_applied += len(x0s)

    def to_u8(self) -> np.ndarray:
        return self.snap(self.raw).astype(np.uint8)


class SaeSurface:
    """Surface of active events: each cell holds the pixel's last-fire time.

    0 means the pixel never fired; streams should start at t >= 1 if the
    distinction matters.
    """

    def __init__(self, geometry: SensorGeometry):
        self.geometry = geometry
        self.grid = np.zeros((geometry.height, geometry.width), dtype=np.uint64)

    def update(self, event: Event) -> None:
        if not self.geometry.contains(event.x, event.y):
            raise GeometryViolation(f"({event.x},{event.y}) outside surface")
        self.grid[event.y, event.x] = event.t


class BinaryWindowSurface:
    """Sliding-window binary image: cell is set iff it fired within `window`."""

    def __init__(self, geometry: SensorGeometry, window_us: int = 10_000):
        if window_us <= 0:
            raise InvalidParameter(f"window must be positive, got {window_us}")
        self.geometry = geometry
        self.window_us = int(window_us)
        # -1 marks never-fired; timestamps fit comfortably in int64
        self.last_fire = np.full((geometry.height, geometry.width), -1, dtype=np.int64)

    def update(self, event: Event) -> None:
        if not self.geometry.contains(event.x, event.y):
            raise GeometryViolation(f"({event.x},{event.y}) outside surface")
        self.last_fire[event.y, event.x] = event.t

    def read(self, x: int, y: int, now: int) -> bool:
        if not self.geometry.contains(x, y):
            raise GeometryViolation(f"({x},{y}) outside surface")
        last = int(self.last_fire[y, x])
        return last >= 0 and now - last <= self.window_us

    def to_u8(self, now: int) -> np.ndarray:
        live = (self.last_fire >= 0) & ((now - self.last_fire) <= self.window_us)
        return live.astype(np.uint8) * 255
