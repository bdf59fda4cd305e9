"""Synthetic event-stream generators.

These produce the fixtures the test-suite and benchmark harness rely on:
random/textured streams for throughput work, sweeping edges for surface
properties, wedge wavefronts that present convex (~90 degree) or reflex
(~270 degree) corner patterns to the ring detectors, a double-edge scene
with trailing "secondary wave" stragglers, rate bursts for delay tests, and
a translating L-corner for accuracy and rendering checks.

All generators are deterministic for a given seed and return validated
streams with strictly structured timestamps (starting at t >= 1 so a
never-fired surface cell is distinguishable from an event at t = 0).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter
from .events import EventStream, SensorGeometry


def _stream(geometry, t, x, y, p=None) -> EventStream:
    t = np.asarray(t, dtype=np.uint64)
    if p is None:
        p = np.ones(len(t), dtype=np.uint8)
    return EventStream.from_arrays(geometry, t, np.asarray(x), np.asarray(y), p)


def random_stream(
    geometry: SensorGeometry, n_events: int, duration_us: int = 1_000_000, seed: int = 0
) -> EventStream:
    """Uniformly random pixels with sorted uniform timestamps."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(1, duration_us + 1, n_events).astype(np.uint64))
    x = rng.integers(0, geometry.width, n_events)
    y = rng.integers(0, geometry.height, n_events)
    p = rng.integers(0, 2, n_events).astype(np.uint8)
    return _stream(geometry, t, x, y, p)


def texture_stream(
    geometry: SensorGeometry, n_events: int, duration_us: int = 2_000_000, seed: int = 0
) -> EventStream:
    """High-texture load: dense random activity mixed with column sweeps.

    The sweep component adds the local recency correlations of real moving
    texture; the random component keeps every neighbourhood busy.
    """
    rng = np.random.default_rng(seed)
    w, h = geometry.width, geometry.height
    n_rand = (n_events * 3) // 5
    n_struct = n_events - n_rand
    tr = rng.integers(1, duration_us + 1, n_rand).astype(np.uint64)
    xr = rng.integers(0, w, n_rand)
    yr = rng.integers(0, h, n_rand)
    # several wrapping column sweeps with distinct phases
    idx = np.arange(n_struct)
    lane = idx % 4
    k = idx // 4
    xs = ((k // h) * 3 + lane * (w // 4) + (k % 3)) % w
    ys = (k + lane * 17) % h
    ts = np.linspace(1, duration_us, n_struct).astype(np.uint64)
    t = np.concatenate([tr, ts])
    x = np.concatenate([xr, xs])
    y = np.concatenate([yr, ys])
    order = np.argsort(t, kind="stable")
    p = rng.integers(0, 2, n_events).astype(np.uint8)
    return _stream(geometry, t[order], x[order], y[order], p)


def edge_sweep_stream(
    geometry: SensorGeometry,
    x0: int = 0,
    x1: int | None = None,
    y0: int = 0,
    y1: int | None = None,
    events_per_pixel: int = 1,
    duration_us: int = 1_000_000,
    start_t: int = 1,
) -> EventStream:
    """Vertical edge sweeping left to right, one column at a time.

    Each column crossing fires every row ``events_per_pixel`` times before
    the edge advances. Total duration is scaled over the whole sweep, so
    the same call with a different ``duration_us`` yields identical events
    under different clocks.
    """
    x1 = geometry.width if x1 is None else x1
    y1 = geometry.height if y1 is None else y1
    cols = np.arange(x0, x1)
    rows = np.arange(y0, y1)
    per_col = len(rows) * events_per_pixel
    x = np.repeat(cols, per_col)
    y = np.tile(np.tile(rows, events_per_pixel), len(cols))
    n = len(x)
    t = start_t + np.floor(np.linspace(0, max(duration_us - 1, 0), n)).astype(np.uint64)
    return _stream(geometry, t, x, y)


def _wedge_offsets(angle_deg: int, radius: int) -> list[tuple[int, int]]:
    """Fill offsets of a corner wedge, ordered so ring detectors see the
    intended pattern: emission alternates angular buckets (even buckets
    first), which keeps the few newest ring pixels non-adjacent while the
    full sector still forms one contiguous arc."""
    if angle_deg not in (90, 270):
        raise InvalidParameter("wedge angle must be 90 or 270")
    offs = []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            if dx * dx + dy * dy > (radius + 0.5) ** 2:
                continue
            in_quadrant = dx >= 0 and dy >= 0
            if (angle_deg == 90) != in_quadrant:
                continue
            ang = math.atan2(dy, dx) % (2 * math.pi)
            bucket = int(ang / (2 * math.pi) * 16) % 16
            r = dx * dx + dy * dy
            offs.append((bucket % 2, bucket, r, dx, dy))
    offs.sort()
    return [(dx, dy) for _, _, _, dx, dy in offs]


def wedge_stream(
    geometry: SensorGeometry,
    cx: int,
    cy: int,
    angle_deg: int = 90,
    radius: int = 6,
    n_probes: int = 3,
    start_t: int = 1,
    dt_us: int = 50,
) -> tuple[EventStream, np.ndarray]:
    """Corner wavefront fixture: fill a wedge around (cx, cy), then fire
    probe events at the apex. Returns (stream, probe indices)."""
    offs = _wedge_offsets(angle_deg, radius)
    xs = [cx + dx for dx, dy in offs] + [cx] * n_probes
    ys = [cy + dy for dx, dy in offs] + [cy] * n_probes
    n = len(xs)
    t = start_t + np.arange(n, dtype=np.uint64) * dt_us
    probes = np.arange(len(offs), n)
    return _stream(geometry, t, np.array(xs), np.array(ys)), probes


def straight_edge_stream(
    geometry: SensorGeometry, duration_us: int = 500_000, margin: int = 8
) -> EventStream:
    """Single clean vertical edge crossing the frame once."""
    return edge_sweep_stream(
        geometry, x0=margin, x1=geometry.width - margin, duration_us=duration_us
    )


def double_edge_secondary_stream(
    geometry: SensorGeometry,
    sep: int = 5,
    stragglers_per_step: int = 2,
    step_us: int = 1_000,
    seed: int = 0,
) -> tuple[EventStream, np.ndarray]:
    """Two close parallel edges sweeping right with trailing stragglers.

    Per step the leading edge fires its column, the trailing edge re-fires
    the column ``sep`` behind it, and a few straggler pixels re-fire two
    columns behind the leading edge — the classic secondary wave. The scene
    contains no corners, so every corner tag on it is a false positive.
    Returns (stream, straggler indices).
    """
    rng = np.random.default_rng(seed)
    w, h = geometry.width, geometry.height
    ts, xs, ys = [], [], []
    straggler_idx = []
    rows = list(range(h))
    t = 1
    for c in range(sep, w - 2):
        for y in rows:
            ts.append(t)
            xs.append(c)
            ys.append(y)
            t += 1
        for y in rows:
            ts.append(t)
            xs.append(c - sep)
            ys.append(y)
            t += 1
        if c >= sep + 4 and c + 1 < w:
            base = rng.integers(0, 9)
            for j in range(stragglers_per_step):
                y = int(base + j * (h // max(stragglers_per_step, 1)) * 0.9) % h
                straggler_idx.append(len(ts))
                ts.append(t)
                xs.append(c - 2)
                ys.append(y)
                t += 1
        t += step_us
    return _stream(geometry, np.array(ts), np.array(xs), np.array(ys)), np.array(straggler_idx)


def salt_pepper_stream(
    geometry: SensorGeometry, n_events: int = 400, duration_us: int = 2_000_000, seed: int = 0
) -> EventStream:
    """Sparse isolated noise: events spread thin in space and time."""
    return random_stream(geometry, n_events, duration_us, seed)


def burst_stream(
    geometry: SensorGeometry,
    base_rate: float,
    peak_rate: float,
    duration_s: float,
    period_s: float = 4.0,
    duty: float = 0.5,
    seed: int = 0,
) -> EventStream:
    """Piecewise-constant event rate alternating base and peak segments."""
    rng = np.random.default_rng(seed)
    ts = []
    t0 = 0.0
    while t0 < duration_s:
        seg = min(period_s * duty, duration_s - t0)
        n = int(seg * peak_rate)
        if n:
            ts.append((t0 + np.sort(rng.random(n)) * seg) * 1e6)
        t0 += seg
        if t0 >= duration_s:
            break
        seg = min(period_s * (1 - duty), duration_s - t0)
        n = int(seg * base_rate)
        if n:
            ts.append((t0 + np.sort(rng.random(n)) * seg) * 1e6)
        t0 += seg
    t = np.concatenate(ts).astype(np.uint64) + 1
    n = len(t)
    x = rng.integers(0, geometry.width, n)
    y = rng.integers(0, geometry.height, n)
    return _stream(geometry, t, x, y)


def moving_corner_stream(
    geometry: SensorGeometry,
    edge_len: int = 8,
    step_us: int = 3_333,
    n_steps: int | None = None,
    start: tuple[int, int] = (12, 12),
    seed: int = 0,
) -> tuple[EventStream, np.ndarray]:
    """L-corner translating diagonally, one pixel per step.

    The default step of ~3.3 ms moves the apex ~3 px per 10 ms. Per step
    the two leading edges fire, apex last. Returns (stream, apex indices).
    """
    w, h = geometry.width, geometry.height
    ax, ay = start
    if n_steps is None:
        n_steps = min(w - ax, h - ay) - edge_len
    ts, xs, ys = [], [], []
    apex_idx = []
    t = 1
    for step in range(n_steps):
        cx = ax + step
        cy = ay + step
        if cx >= w or cy >= h:
            break
        for j in range(1, edge_len):
            if cy - j >= 0:
                ts.append(t)
                xs.append(cx)
                ys.append(cy - j)
                t += 1
        for j in range(1, edge_len):
            if cx - j >= 0:
                ts.append(t)
                xs.append(cx - j)
                ys.append(cy)
                t += 1
        apex_idx.append(len(ts))
        ts.append(t)
        xs.append(cx)
        ys.append(cy)
        t += step_us
    return _stream(geometry, np.array(ts), np.array(xs), np.array(ys)), np.array(apex_idx)
