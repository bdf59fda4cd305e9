"""Independent reference implementations used only by the tests.

Everything here is written directly from first principles (full-grid
rewalks, literal kernel tables, exhaustive enumeration, pairwise scans) so
it shares no shortcuts with the library paths it checks.
"""

from __future__ import annotations

import math

import numpy as np

from evcorner import FormatError, PatchEvaluator, SensorGeometry
from evcorner.events import CSV_MAGIC, TAGS_MAGIC, _parse_header, format_score

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


def loop_refractory(stream, period_us: int):
    """Keep mask of the per-event loop: compare with the last retained
    event at the pixel, in stream order."""
    if period_us == 0:
        return np.ones(len(stream), dtype=bool)
    h, w = stream.geometry.height, stream.geometry.width
    last_kept = np.full((h, w), -(period_us + 1), dtype=np.int64)
    keep = np.zeros(len(stream), dtype=bool)
    for i, (t, x, y) in enumerate(zip(stream.t.tolist(), stream.x.tolist(), stream.y.tolist())):
        if t - last_kept[y, x] > period_us:
            keep[i] = True
            last_kept[y, x] = t
    return keep


def loop_sp(stream, window_us: int, neighborhood: int):
    """Keep mask of the per-event loop: support from the latest earlier
    (by index) event at each pixel of the box, dropped or not; the padding
    outside the frame never supports."""
    h, w = stream.geometry.height, stream.geometry.width
    nb = neighborhood
    last = np.full((h + 2 * nb, w + 2 * nb), -(window_us + 1), dtype=np.int64)
    keep = np.zeros(len(stream), dtype=bool)
    span = 2 * nb + 1
    for i, (t, x, y) in enumerate(zip(stream.t.tolist(), stream.x.tolist(), stream.y.tolist())):
        patch = last[y : y + span, x : x + span]
        keep[i] = bool((t - patch <= window_us).any())
        last[y + nb, x + nb] = t
    return keep


# --- CSV files: per-line parsers and f-string writers -----------------------

def spec_read_csv(path, ts_unit: str = "us"):
    """(geometry, t, x, y, p) of an event CSV, parsed line by line with
    Python's int/float; the rules ``read_stream`` must follow."""
    ts, xs, ys, ps = [], [], [], []
    with open(path, "r", errors="replace") as f:
        header = f.readline()
        if not header:
            raise FormatError("empty file", line=1)
        w, h = _parse_header(header, CSV_MAGIC)
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise FormatError(f"expected 4 fields, got {len(fields)}", line=lineno)
            try:
                if ts_unit == "s":
                    t = int(round(float(fields[0]) * 1e6))
                else:
                    t = int(fields[0])
                x = int(fields[1])
                y = int(fields[2])
                p = int(fields[3])
            except ValueError:
                raise FormatError(f"non-numeric field in {line!r}", line=lineno) from None
            except OverflowError:
                raise FormatError(f"timestamp out of range in {line!r}", line=lineno) from None
            if p not in (0, 1):
                raise FormatError(f"polarity must be 0 or 1, got {p}", line=lineno)
            if t < 0:
                raise FormatError(f"negative timestamp {t}", line=lineno)
            ts.append(t)
            xs.append(x)
            ys.append(y)
            ps.append(p)
    geometry = SensorGeometry(w, h)
    try:
        t, x, y = (np.array(ts, dtype=np.uint64), np.array(xs, dtype=np.int64),
                   np.array(ys, dtype=np.int64))
    except OverflowError:
        raise FormatError("a timestamp or coordinate exceeds 64 bits") from None
    return geometry, t, x, y, np.array(ps, dtype=np.uint8)


def spec_read_tags(path):
    """(geometry, t, x, y, p, is_corner, score) of a tag file, parsed line
    by line; a value outside its column's type is a FormatError."""
    ts, xs, ys, ps, cs, ss = [], [], [], [], [], []
    with open(path, "r", errors="replace") as f:
        header = f.readline()
        if not header:
            raise FormatError("empty file", line=1)
        w, h = _parse_header(header, TAGS_MAGIC)
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 6:
                raise FormatError(f"expected 6 fields, got {len(fields)}", line=lineno)
            try:
                ts.append(int(fields[0]))
                xs.append(int(fields[1]))
                ys.append(int(fields[2]))
                ps.append(int(fields[3]))
                cs.append(int(fields[4]) != 0)
                ss.append(float(fields[5]))
            except ValueError:
                raise FormatError(f"non-numeric field in {line!r}", line=lineno) from None
    geometry = SensorGeometry(w, h)
    try:
        cols = (np.array(ts, dtype=np.uint64), np.array(xs, dtype=np.uint16),
                np.array(ys, dtype=np.uint16), np.array(ps, dtype=np.uint8))
    except OverflowError:
        raise FormatError("a field is out of range for its column") from None
    return (geometry, *cols, np.array(cs, dtype=bool), np.array(ss, dtype=np.float64))


def fstring_stream_csv(stream) -> str:
    rows = [f"{CSV_MAGIC} {stream.geometry.width} {stream.geometry.height}\n"]
    t, x, y, p = stream.t, stream.x, stream.y, stream.p
    for i in range(len(stream)):
        rows.append(f"{t[i]},{x[i]},{y[i]},{p[i]}\n")
    return "".join(rows)


def fstring_tags_csv(tags) -> str:
    rows = [f"{TAGS_MAGIC} {tags.geometry.width} {tags.geometry.height}\n"]
    t, x, y, p, c, s = tags.t, tags.x, tags.y, tags.p, tags.is_corner, tags.score
    for i in range(len(tags)):
        rows.append(f"{t[i]},{x[i]},{y[i]},{p[i]},{1 if c[i] else 0},{format_score(float(s[i]))}\n")
    return "".join(rows)


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
