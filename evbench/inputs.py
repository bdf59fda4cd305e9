"""Seeded workload inputs, generated here rather than by ``evcorner.synth``.

Keeping the generators in the benchmark's own files means a change to the
library's synthetic fixtures cannot change what a workload measures. Every
generator is a pure function of its parameters and a ``numpy`` generator
seeded from ``--seed``; ``digest`` fingerprints the result so two runs can
be shown to have measured the same events.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class Events:
    """Column arrays of one recording: t in microseconds, starting at 1."""

    width: int
    height: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.width}x{self.height}".encode())
        for col in (self.t, self.x, self.y, self.p):
            h.update(np.ascontiguousarray(col, dtype=np.int64).tobytes())
        return h.hexdigest()[:16]


def _sorted(width, height, t, x, y, p) -> Events:
    order = np.argsort(t, kind="stable")
    return Events(width, height, t[order].astype(np.int64), x[order].astype(np.int64),
                  y[order].astype(np.int64), p[order].astype(np.int64))


@dataclass(frozen=True)
class TextureParams:
    """Dense random activity mixed with four wrapping column sweeps."""

    width: int = 240
    height: int = 180
    n_events: int = 30_000
    rate_ev_s: int = 150_000
    sweep_share: float = 0.4

    def generate(self, seed: int) -> Events:
        rng = np.random.default_rng([seed, 1])
        w, h = self.width, self.height
        duration_us = self.n_events * 1_000_000 // self.rate_ev_s
        n_sweep = int(self.n_events * self.sweep_share)
        n_rand = self.n_events - n_sweep
        tr = rng.integers(1, duration_us + 1, n_rand)
        xr = rng.integers(0, w, n_rand)
        yr = rng.integers(0, h, n_rand)
        # each lane walks down one column, then steps right; x jitters by up
        # to two pixels so neighbouring sweep events are not all adjacent
        i = np.arange(n_sweep)
        lane = i % 4
        k = i // 4
        phase = rng.integers(0, w, 4)
        xs = (phase[lane] + lane * (w // 4) + k // h * 3 + k % 3) % w
        ys = (k + lane * 17) % h
        ts = 1 + (i * (duration_us - 1)) // max(n_sweep - 1, 1)
        p = rng.integers(0, 2, self.n_events)
        return _sorted(w, h, np.concatenate([tr, ts]), np.concatenate([xr, xs]),
                       np.concatenate([yr, ys]), p)


@dataclass(frozen=True)
class UniformParams:
    """Uniformly random pixels at an exact, constant event rate."""

    width: int = 640
    height: int = 480
    rate_ev_s: int = 60_000

    def generate(self, seed: int, seconds: float) -> Events:
        rng = np.random.default_rng([seed, 2])
        n = int(self.rate_ev_s * seconds)
        t = 1 + (np.arange(n, dtype=np.int64) * 1_000_000) // self.rate_ev_s
        x = rng.integers(0, self.width, n)
        y = rng.integers(0, self.height, n)
        p = rng.integers(0, 2, n)
        return Events(self.width, self.height, t, x, y, p)


@dataclass(frozen=True)
class CornersParams:
    """A few L-corners translating across the frame, bouncing off its edges.

    Each step a corner moves one pixel along each axis and fires its two
    arms (``arm`` - 1 pixels each), apex last, one microsecond apart.
    Corners step every ``step_us``, phase-shifted against each other.
    """

    width: int = 1280
    height: int = 720
    n_corners: int = 8
    arm: int = 8
    step_us: int = 16_000
    margin: int = 16

    def rate_ev_s(self) -> float:
        return self.n_corners * (2 * self.arm - 1) * 1e6 / self.step_us

    def generate(self, seed: int, seconds: float) -> Events:
        rng = np.random.default_rng([seed, 3])
        n_steps = int(seconds * 1e6) // self.step_us
        lo_x, hi_x = self.margin + self.arm, self.width - self.margin
        lo_y, hi_y = self.margin + self.arm, self.height - self.margin
        offs = [(0, -j) for j in range(1, self.arm)] + [(-j, 0) for j in range(1, self.arm)]
        offs.append((0, 0))
        dx = np.array([o[0] for o in offs])
        dy = np.array([o[1] for o in offs])
        steps = np.arange(n_steps)
        ts, xs, ys = [], [], []
        for c in range(self.n_corners):
            ux, uy = rng.integers(0, 4 * max(hi_x - lo_x, hi_y - lo_y), 2)
            cx = lo_x + _triangle(ux + steps, hi_x - lo_x)
            cy = lo_y + _triangle(uy + steps, hi_y - lo_y)
            base = 1 + steps * self.step_us + c * (self.step_us // self.n_corners)
            ts.append((base[:, None] + np.arange(len(offs))[None, :]).ravel())
            xs.append((cx[:, None] + dx[None, :]).ravel())
            ys.append((cy[:, None] + dy[None, :]).ravel())
        t = np.concatenate(ts)
        p = rng.integers(0, 2, len(t))
        return _sorted(self.width, self.height, t, np.concatenate(xs), np.concatenate(ys), p)


def _triangle(u: np.ndarray, span: int) -> np.ndarray:
    """0, 1, ..., span, span - 1, ..., 0, 1, ... for u = 0, 1, 2, ..."""
    u = u % (2 * span)
    return np.where(u <= span, u, 2 * span - u)


def packet_bounds(events: Events, packet_us: int) -> np.ndarray:
    """Event index bounds of consecutive ``packet_us`` packets of stream time.

    Packet i holds the events with ``(t - 1) // packet_us == i`` and spans
    ``bounds[i]:bounds[i + 1]``; packets may be empty.
    """
    n_packets = int(events.t[-1] - 1) // packet_us + 1
    edges = 1 + packet_us * np.arange(n_packets + 1, dtype=np.int64)
    return np.searchsorted(events.t, edges, side="left")


def describe(params) -> dict:
    return {"generator": type(params).__name__, **asdict(params)}
