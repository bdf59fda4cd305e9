"""The threshold-ordinal surface (TOS) that luvHarris reads.

A firing pixel is set to 255, every cell of the surrounding (2k+1)^2 square
(the centre included) is first decremented by 1, and any cell falling below
the zero-threshold snaps to 0. Values therefore live in {0} union
[t_tos, 255] and encode recency *order* with no time parameter at all.

The surface is single-writer. A reader on another thread must copy
:attr:`TosSurface.raw` (or read :attr:`TosSurface.grid`) between calls to
:meth:`TosSurface.update_many`, the one method that mutates the surface (the
luvharris module owns that exclusion).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .events import SensorGeometry


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
    and is applied lazily when the surface is read; the observable surface
    is identical to snapping after every event.

    ``update_many`` applies a run of events at once through the closed form
    of that per-event rule. For each cell::

        raw = (255 if the cell fired in the run, else its prior raw)
              - (number of covering events after the cell's last fire)

    It is computed in numpy over the run's (2k+1)^2 windows, visited in
    pixel order, so the work is O(n * (2k+1)^2) with no full-frame pass.
    ``raw`` is the interior view of a buffer with a k-cell margin, so a
    border pixel's window needs no clipping; margin cells take decrements
    but are never read. Long calls are applied ``SLICE`` events at a time,
    which bounds the temporaries at O(SLICE * (2k+1)^2).

    Once below the threshold a cell reads 0 until it fires again, so the
    whole buffer, margin included, is floored at ``t_tos - 1`` once at
    least ``FLOOR_INTERVAL`` events have been applied since the last floor.
    The observable surface does not change, and a never-fired cell next to
    a hot pixel drifts at most ``FLOOR_INTERVAL`` plus one call's events
    below ``t_tos``, far from the int32 wrap. Flooring only every so often
    keeps a small call's cost independent of the sensor size.
    """

    FLOOR_INTERVAL = 1 << 16
    SLICE = 1 << 12  # below 2**16: _apply packs the event index in 16 bits

    def __init__(self, geometry: SensorGeometry, k_tos: int = 3, t_tos: int | None = None):
        if k_tos < 1:
            raise InvalidParameter(f"k_tos must be >= 1, got {k_tos}")
        if t_tos is None:
            t_tos = tos_default_threshold(k_tos)
        if not 0 <= t_tos <= 255:
            raise InvalidParameter(f"t_tos must be in [0, 255], got {t_tos}")
        self.geometry = geometry
        self.k_tos = k = int(k_tos)
        self.t_tos = int(t_tos)
        rows = geometry.height + 2 * k
        self._row = cols = geometry.width + 2 * k
        self._flat = np.zeros(rows * cols, dtype=np.int32)
        self.raw = self._flat.reshape(rows, cols)[k:-k, k:-k]
        d = np.arange(-k, k + 1)
        self._window = (d[:, None] * cols + d[None, :]).ravel()
        self._unfloored = 0  # events applied since the buffer was last floored

    @property
    def grid(self) -> np.ndarray:
        """Observable surface, values in {0} union [t_tos, 255]. Fresh array."""
        return np.where(self.raw >= self.t_tos, self.raw, 0)

    def update_many(self, xs, ys) -> None:
        """Apply pre-validated events in order (column arrays or int lists).

        The only method that mutates the surface.
        """
        xa = np.asarray(xs, dtype=np.int64)
        ya = np.asarray(ys, dtype=np.int64)
        for s in range(0, len(xa), self.SLICE):
            self._apply(xa[s : s + self.SLICE], ya[s : s + self.SLICE])
        self._unfloored += len(xa)
        if self._unfloored >= self.FLOOR_INTERVAL:
            np.maximum(self._flat, self.t_tos - 1, out=self._flat)
            self._unfloored = 0

    def _apply(self, xa: np.ndarray, ya: np.ndarray) -> None:
        k = self.k_tos
        n = len(xa)
        flat = self._flat
        pix = (ya + k) * self._row + (xa + k)
        # a fired pixel briefly holds 256 + (1 + index of its last fire in
        # the slice), above any raw value; np.maximum.at is order-defined
        order = np.arange(256, 257 + n, dtype=np.int32)
        np.maximum.at(flat, pix, order[1:])
        # visit the windows in pixel order (one sort of pixel<<16 | event
        # index), so the gather and the scatter below sweep the buffer in
        # address order; that keeps their cost from growing with the frame
        key = np.sort((pix << 16) | np.arange(n))
        cells = (key >> 16)[:, None] + self._window
        # event j decrements cell c unless c's last fire in the slice is at
        # or after j (a fire overwrites the decrements before it)
        counted = flat[cells] <= order[key & 0xFFFF, None]
        flat[pix] = 255
        np.subtract.at(flat, cells[counted], np.int32(1))

    def to_u8(self) -> np.ndarray:
        return self.grid.astype(np.uint8)
