"""Independent reference implementations used only by the tests.

Everything here is written directly from first principles (full-grid
rewalks, literal kernel tables, exhaustive enumeration, pairwise scans) so
it shares no shortcuts with the library paths it checks.
"""

from __future__ import annotations

import math

import numpy as np

from evcorner import PatchEvaluator, SensorGeometry

# --- threshold-ordinal surface: full-grid rewalk per event ----------------

def naive_tos_new(width: int, height: int):
    return [[0] * width for _ in range(height)]


def naive_tos_apply(rows, x: int, y: int, k: int, t_tos: int) -> int:
    """Apply one event; returns the number of cells it decremented."""
    h = len(rows)
    w = len(rows[0])
    touched = 0
    for yy in range(h):
        for xx in range(w):
            if abs(xx - x) <= k and abs(yy - y) <= k:
                v = rows[yy][xx] - 1
                if v < t_tos:
                    v = 0
                rows[yy][xx] = v
                touched += 1
    rows[y][x] = 255
    return touched


class WindowedTos:
    """Per-event TOS on its own array: decrement the clipped (2k+1)^2
    window, read cells below t_tos as 0, set the fired pixel to 255."""

    def __init__(self, width: int, height: int, k: int, t_tos: int):
        self.k = k
        self.t_tos = t_tos
        self.grid = np.zeros((height, width), dtype=np.int64)

    def apply(self, x: int, y: int) -> None:
        k = self.k
        win = self.grid[max(y - k, 0) : y + k + 1, max(x - k, 0) : x + k + 1]
        win -= 1
        win[win < self.t_tos] = 0
        self.grid[y, x] = 255


# --- Harris: literal kernels, direct per-pixel sums ------------------------

_DERIV = {3: [-1, 0, 1], 5: [-1, -2, 0, 2, 1], 7: [-1, -4, -5, 0, 5, 4, 1]}
_SMOOTH = {3: [1, 2, 1], 5: [1, 4, 6, 4, 1], 7: [1, 6, 15, 20, 15, 6, 1]}


def _reflect101(i: int, n: int) -> int:
    per = 2 * (n - 1)
    i = abs(i) % per
    return per - i if i >= n else i


def naive_sobel(img: np.ndarray, aperture: int) -> tuple[np.ndarray, np.ndarray]:
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    r = aperture // 2
    kd = _DERIV[aperture]
    ks = _SMOOTH[aperture]
    ix = np.zeros((h, w))
    iy = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            sx = 0.0
            sy = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    v = img[_reflect101(y + dy, h), _reflect101(x + dx, w)]
                    sx += ks[dy + r] * kd[dx + r] * v
                    sy += kd[dy + r] * ks[dx + r] * v
            ix[y, x] = sx
            iy[y, x] = sy
    return ix, iy


def naive_harris_map(img: np.ndarray, block: int, aperture: int, kappa: float) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    ix, iy = naive_sobel(img, aperture)
    pxx = ix * ix
    pyy = iy * iy
    pxy = ix * iy
    b = block // 2
    nn = block * block
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            gxx = gyy = gxy = 0.0
            for dy in range(-b, b + 1):
                for dx in range(-b, b + 1):
                    yy = _reflect101(y + dy, h)
                    xx = _reflect101(x + dx, w)
                    gxx += pxx[yy, xx]
                    gyy += pyy[yy, xx]
                    gxy += pxy[yy, xx]
            gxx /= nn
            gyy /= nn
            gxy /= nn
            out[y, x] = gxx * gyy - gxy * gxy - kappa * (gxx + gyy) ** 2
    return out


# --- ring arcs: exhaustive enumeration --------------------------------------

def valid_arc_lengths(vals, n: int) -> set[int]:
    """All L such that some contiguous arc of length L satisfies
    min(arc) > max(outside)."""
    vals = list(vals)
    out = set()
    for s in range(n):
        for length in range(1, n):
            arc = [vals[(s + j) % n] for j in range(length)]
            rest = [vals[(s + length + j) % n] for j in range(n - length)]
            if min(arc) > max(rest):
                out.add(length)
    return out


def oracle_direct_angle(vals, n: int, lmin: int, deg_per: float) -> float:
    cand = [l * deg_per for l in valid_arc_lengths(vals, n) if lmin <= l <= n // 2]
    return min(cand, default=math.inf)


def oracle_folded_angle(vals, n: int, lmin: int, deg_per: float) -> float:
    cand = [
        min(l, n - l) * deg_per
        for l in valid_arc_lengths(vals, n)
        if min(l, n - l) >= lmin
    ]
    return min(cand, default=math.inf)


# --- filters: pairwise scans over numpy history -----------------------------

def brute_refractory(stream, period_us: int):
    """Keep mask via backward scan over the retained set."""
    n = len(stream)
    keep = np.zeros(n, dtype=bool)
    if period_us == 0:
        return np.ones(n, dtype=bool)
    kt = np.empty(n, dtype=np.int64)
    kx = np.empty(n, dtype=np.int64)
    ky = np.empty(n, dtype=np.int64)
    m = 0
    for i in range(n):
        t = int(stream.t[i])
        x = int(stream.x[i])
        y = int(stream.y[i])
        same = (kx[:m] == x) & (ky[:m] == y) & (t - kt[:m] <= period_us)
        if not same.any():
            keep[i] = True
            kt[m] = t
            kx[m] = x
            ky[m] = y
            m += 1
    return keep


def brute_sp(stream, window_us: int, neighborhood: int):
    """Keep mask: any prior raw event within the window and Chebyshev box."""
    n = len(stream)
    keep = np.zeros(n, dtype=bool)
    t = stream.t.astype(np.int64)
    x = stream.x.astype(np.int64)
    y = stream.y.astype(np.int64)
    for i in range(n):
        if i == 0:
            continue
        near = (
            (np.abs(x[:i] - x[i]) <= neighborhood)
            & (np.abs(y[:i] - y[i]) <= neighborhood)
            & (t[i] - t[:i] <= window_us)
        )
        keep[i] = bool(near.any())
    return keep


# --- ideal per-event Harris detector ----------------------------------------

class IdealHarrisOracle:
    """Per event: update a private reference TOS, then evaluate the local
    Harris response on the live surface at the event pixel. The pipeline
    under test must match this exactly when forced to regenerate per event."""

    def __init__(self, geometry: SensorGeometry, config):
        self.tos = WindowedTos(geometry.width, geometry.height, config.k_tos, config.effective_t_tos())
        self.threshold = config.threshold_tr
        self.evaluator = PatchEvaluator((geometry.height, geometry.width), config.harris)

    def classify(self, stream):
        is_corner = np.empty(len(stream), dtype=bool)
        score = np.empty(len(stream), dtype=np.float64)
        for i in range(len(stream)):
            x = int(stream.x[i])
            y = int(stream.y[i])
            self.tos.apply(x, y)
            r = self.evaluator.response(self.tos.grid, x, y)
            score[i] = r
            is_corner[i] = r > self.threshold
        return is_corner, score
