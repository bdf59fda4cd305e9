"""Event pre-filters: artificial refractory period and salt-and-pepper
(neighbour-correlation) noise removal.

Both are order-preserving stream transforms, vectorised over the stream
sorted by (pixel, index), and ignore polarity. The refractory filter
measures against the last *retained* event at a pixel, so it is
idempotent. The salt-and-pepper filter supports an event by any prior raw
event in its spatio-temporal neighbourhood (dropped events still count as
support), so a burst's first event is dropped but its followers survive;
it is therefore not idempotent in general.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .events import EventStream


def _pixel_order(stream: EventStream) -> tuple[np.ndarray, np.ndarray]:
    """Pixel numbers (< 2**32) in (pixel, index) order, and that order: a
    stable LSD radix sort on the pixel number's two 16-bit halves."""
    pix = stream.y.astype(np.int64) * stream.geometry.width + stream.x
    order = np.argsort(pix.astype(np.uint16), kind="stable")
    order = order[np.argsort((pix[order] >> 16).astype(np.uint16), kind="stable")]
    return pix[order], order


def refractory_filter(stream: EventStream, period_us: int) -> EventStream:
    """Drop events that follow a retained event at the same pixel within
    ``period_us``. Zero disables the filter.

    A pixel's retained events chain from its first event: the next is the
    first later event more than ``period_us`` after the last. A retained
    event is later than all earlier ones at its pixel, so one binary search
    over the running maximum of t finds the next; pointer doubling then
    follows all chains in log2(longest chain) steps.
    """
    if period_us < 0:
        raise InvalidParameter(f"period must be non-negative, got {period_us}")
    n = len(stream)
    if period_us == 0 or n == 0:
        return stream
    # t's rank, and how many events are at or below t + period (saturated)
    t = stream.t
    by_time = np.argsort(t, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_time] = np.arange(n)
    period = np.uint64(min(period_us, 2**64 - 1))
    bound = np.searchsorted(t[by_time], t + np.minimum(period, ~t), side="right")
    ps, order = _pixel_order(stream)
    head = np.ones(n, dtype=bool)
    head[1:] = ps[1:] != ps[:-1]
    # key = (pixel, running maximum of rank) < (n + 1)**2 < 2**63 for n < 3e9;
    # a search with no match at its pixel lands on the next pixel's first
    # event, which is kept anyway
    group = (np.cumsum(head) - 1) * (n + 1)
    key = np.maximum.accumulate(group + rank[order])
    jump = np.append(np.searchsorted(key, group + bound[order]), n)  # n: chain end
    keep = np.append(head, True)
    count = 0
    while keep.sum() != count:
        count = keep.sum()
        keep[jump[keep]] = True
        jump = jump[jump]
    return _apply_mask(stream, order, keep[:n])


def sp_filter(stream: EventStream, window_us: int, neighborhood: int = 1) -> EventStream:
    """Drop events with no prior event within ``neighborhood`` Chebyshev
    distance in the last ``window_us``.

    Prior means earlier in the stream: an event is kept if, at some pixel
    of its box, the latest earlier event is at most ``window_us`` older.
    Support never depends on keep/drop decisions, so each box offset is one
    binary search of (pixel, index) keys, issued in key order.
    """
    if window_us < 0 or neighborhood < 0:
        raise InvalidParameter("window and neighborhood must be non-negative")
    n = len(stream)
    if n == 0:
        return stream
    w, h = stream.geometry.width, stream.geometry.height
    ps, order = _pixel_order(stream)
    key = ps * n + order  # < 2**63 for n < 2**31
    xs, ts = ps % w, stream.t[order]
    window = np.uint64(min(window_us, 2**64 - 1))
    keep = np.zeros(n, dtype=bool)
    for dx in range(-min(neighborhood, w - 1), min(neighborhood, w - 1) + 1):
        x_in = (xs + dx >= 0) & (xs + dx < w)
        for dy in range(-min(neighborhood, h - 1), min(neighborhood, h - 1) + 1):
            # the latest event before (pixel + d, index), if there; with
            # x + dx in the frame, pixel + d exists only if y + dy does
            d = dy * w + dx
            j = np.searchsorted(key, key + d * n) - 1
            tj = ts[j]
            keep |= x_in & (j >= 0) & (ps[j] == ps + d) & ((ts <= tj) | (ts - tj <= window))
    return _apply_mask(stream, order, keep)


def _apply_mask(stream: EventStream, order: np.ndarray, keep: np.ndarray) -> EventStream:
    """Events whose (pixel, index)-ordered flag ``keep`` is set."""
    mask = np.empty(len(stream), dtype=bool)
    mask[order] = keep
    return EventStream(
        stream.geometry, stream.t[mask], stream.x[mask], stream.y[mask], stream.p[mask]
    )
