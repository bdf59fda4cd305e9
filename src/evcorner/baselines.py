"""Reference event-wise corner detectors behind one interface: the binary
window Harris baseline (eHarris) and the two ring-pattern detectors (FAST
and ARC).

Ring detectors
--------------
Both classify an event by the pattern of last-fire timestamps on two pixel
rings around it (radius 3: 16 pixels, radius 4: 20 pixels). An arc of
length L on a ring is *valid* when every timestamp inside it is strictly
newer than every timestamp outside — equivalently, the L newest ring
pixels are strictly separated from the rest and sit contiguously.

A valid arc of length L subtends L/N * 360 degrees. Detectors score each
event with the smallest accepted angle over both rings (the ring-wise
maximum, since both rings must agree), so one scalar sweeps the decision
from strict ~90-degree corners to "anything within 180 degrees":

* FAST accepts direct arcs only (angle = L/N * 360, capped at 180), so
  reflex corners — where the newest arc spans ~270 degrees — are rejected.
* ARC folds reflex arcs to their complement (angle = min(L, N-L)/N * 360),
  accepting both convex and reflex corners; strictly more permissive.

The radii and the minimum arc lengths (3 on the inner ring, 4 on the outer)
are fixed module constants; only the acceptance angle is configured. Those
lengths and the default acceptance angle of 144 degrees reproduce the
customary integer bounds [3,6] / [4,8] plus, for ARC, their reflex
complements [10,13] / [12,16].

FAST searches candidate arcs by enumeration with early exits; ARC walks the
ring once in recency order, maintaining a run count. Both implementations
are checked against a brute-force arc enumerator in the tests.

Events closer than the outer ring radius to the border are tagged
not-corner (no defined ring pattern).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .events import EventStream, SensorGeometry, Tags
from .harris import HarrisParams, PatchEvaluator
from .stats import PipelineStats

CIRCLE3 = (
    (0, 3), (1, 3), (2, 2), (3, 1), (3, 0), (3, -1), (2, -2), (1, -3),
    (0, -3), (-1, -3), (-2, -2), (-3, -1), (-3, 0), (-3, 1), (-2, 2), (-1, 3),
)
CIRCLE4 = (
    (0, 4), (1, 4), (2, 3), (3, 2), (4, 1), (4, 0), (4, -1), (3, -2), (2, -3),
    (1, -4), (0, -4), (-1, -4), (-2, -3), (-3, -2), (-4, -1), (-4, 0),
    (-4, 1), (-3, 2), (-2, 3), (-1, 4),
)

INNER_RADIUS = 3  # CIRCLE3
OUTER_RADIUS = 4  # CIRCLE4, and the border margin of the ring detectors
INNER_MIN_LENGTH = 3  # shortest arc accepted on CIRCLE3
OUTER_MIN_LENGTH = 4  # shortest arc accepted on CIRCLE4

NO_ARC = math.inf  # score of an event with no acceptable arc at any angle

WINDOW_US = 10_000  # stream time per process_chunked batch
MAX_CALL_EVENTS = 65_536  # largest process call of process_chunked and measure_throughput


@dataclass(frozen=True)
class ArcRingConfig:
    max_angle_deg: float = 144.0

    def __post_init__(self):
        if not self.max_angle_deg > 0:
            raise InvalidParameter("max_angle_deg must be positive")


@dataclass(frozen=True)
class EHarrisConfig:
    window_us: int = 10_000
    harris: HarrisParams = field(default_factory=HarrisParams)
    threshold_tr: float = 0.0

    def __post_init__(self):
        if self.window_us <= 0:
            raise InvalidParameter(f"window must be positive, got {self.window_us}")
        if not np.isfinite(self.threshold_tr):
            raise InvalidParameter("threshold_tr must be finite")


def _flat_offsets(circle, width: int) -> np.ndarray:
    return np.array([dy * width + dx for dx, dy in circle], dtype=np.int64)


def _min_direct_angle(vals2: list, n: int, lmin: int, deg_per: float) -> float:
    """Smallest direct-arc angle, by candidate enumeration with early exits.

    ``vals2`` is the ring doubled so arcs index without modulo. A start is
    viable only if it exceeds its predecessor (the predecessor is outside
    every arc that starts there). Arcs longer than half the ring never win
    a sweep capped at 180 degrees.
    """
    lcap = n // 2
    best = lcap + 1
    for s in range(n):
        v = vals2[s]
        if v <= vals2[s - 1]:
            continue
        stop = best - 1
        # incremental scan: grow the arc, checking the outside at each length
        mn = v
        for ell in range(1, stop + 1):
            e = vals2[s + ell - 1]
            if e < mn:
                mn = e
            if ell < lmin:
                continue
            ok = True
            for j in range(s + ell, s + n):
                if vals2[j if j < n else j - n] >= mn:
                    ok = False
                    break
            if ok:
                best = ell
                break
    return best * deg_per if best <= lcap else NO_ARC


def _min_folded_angle(vals: np.ndarray, n: int, lmin: int, deg_per: float) -> float:
    """Smallest accepted angle counting reflex arcs at their complement.

    Single pass over the ring in recency order: insert pixels newest-first
    into a boolean ring while tracking the number of runs; the top-L set is
    a valid arc exactly when it forms one run and the ranked values are
    strictly separated at L.
    """
    order = np.argsort(vals)
    op = order.tolist()
    ov = vals.take(order).tolist()
    marked = [False] * n
    runs = 0
    best = NO_ARC
    lmax = n - lmin
    for ell in range(1, lmax + 1):
        pos = op[n - ell]
        runs += 1 - (marked[pos - 1] + marked[pos + 1 - n])
        marked[pos] = True
        if runs == 1 and ell >= lmin and ov[n - ell] > ov[n - ell - 1]:
            a = ell if ell <= n - ell else n - ell
            ang = a * deg_per
            if ang < best:
                best = ang
    return best


class _RingDetector:
    """Common shell for the two ring-pattern detectors.

    ``last_fire`` is the row-major flat map of each pixel's last-fire time;
    0 means the pixel never fired.
    """

    decision_direction = "lesser"

    def __init__(self, geometry: SensorGeometry, config: ArcRingConfig | None = None):
        self.geometry = geometry
        self.config = config or ArcRingConfig()
        self.last_fire = np.zeros(geometry.height * geometry.width, dtype=np.uint64)
        self._off3 = _flat_offsets(CIRCLE3, geometry.width)
        self._off4 = _flat_offsets(CIRCLE4, geometry.width)
        self.stats = PipelineStats()

    def _ring_angle(self, vals, n: int, lmin: int, deg_per: float) -> float:
        raise NotImplementedError

    def process(self, chunk: EventStream) -> Tags:
        n = len(chunk)
        is_corner = np.empty(n, dtype=bool)
        score = np.empty(n, dtype=np.float64)
        w = self.geometry.width
        h = self.geometry.height
        m = OUTER_RADIUS
        xmax = w - m
        ymax = h - m
        flat = self.last_fire
        off3 = self._off3
        off4 = self._off4
        thr = self.config.max_angle_deg
        ring_angle = self._ring_angle
        xs = chunk.x.tolist()
        ys = chunk.y.tolist()
        ts = chunk.t.tolist()
        t0 = time.perf_counter()
        for i in range(n):
            x = xs[i]
            y = ys[i]
            base = y * w + x
            flat[base] = ts[i]
            if x < m or x >= xmax or y < m or y >= ymax:
                score[i] = NO_ARC
                is_corner[i] = False
                continue
            a3 = ring_angle(flat[off3 + base], 16, INNER_MIN_LENGTH, 22.5)
            if a3 == NO_ARC:
                score[i] = NO_ARC
                is_corner[i] = False
                continue
            a4 = ring_angle(flat[off4 + base], 20, OUTER_MIN_LENGTH, 18.0)
            s = a3 if a3 >= a4 else a4  # both rings must accept: worst angle rules
            score[i] = s
            is_corner[i] = s <= thr
        self.stats.phase1_s += time.perf_counter() - t0
        self.stats.events_processed += n
        return Tags.for_stream(chunk, is_corner, score)


class FastDetector(_RingDetector):
    name = "fast"

    def _ring_angle(self, vals, n, lmin, deg_per):
        v = vals.tolist()
        return _min_direct_angle(v + v, n, lmin, deg_per)


class ArcDetector(_RingDetector):
    name = "arc"

    def _ring_angle(self, vals, n, lmin, deg_per):
        return _min_folded_angle(vals, n, lmin, deg_per)


class EHarrisDetector:
    """Event-wise Harris over a sliding-window binary surface.

    ``last_fire`` holds each pixel's last-fire time, -1 where the pixel never
    fired; a pixel is set when it fired at most ``config.window_us`` before
    the current event. Per event: mark the pixel, lift the mirror-padded
    local patch of the binary image (values 0/255, so thresholds stay
    comparable with the surface-based pipeline), and evaluate the Harris
    response at the event pixel.
    """

    decision_direction = "greater"
    name = "eharris"

    def __init__(self, geometry: SensorGeometry, config: EHarrisConfig | None = None):
        self.geometry = geometry
        self.config = config or EHarrisConfig()
        self.last_fire = np.full((geometry.height, geometry.width), -1, dtype=np.int64)
        self.evaluator = PatchEvaluator((geometry.height, geometry.width), self.config.harris)
        self.stats = PipelineStats()

    def process(self, chunk: EventStream) -> Tags:
        n = len(chunk)
        is_corner = np.empty(n, dtype=bool)
        score = np.empty(n, dtype=np.float64)
        ev = self.evaluator
        last = self.last_fire
        win = self.config.window_us
        thr = self.config.threshold_tr
        span = ev._span
        mrow = ev.mrow
        mcol = ev.mcol
        xs = chunk.x.tolist()
        ys = chunk.y.tolist()
        ts = chunk.t.tolist()
        t0 = time.perf_counter()
        for i in range(n):
            x = xs[i]
            y = ys[i]
            t = ts[i]
            last[y, x] = t
            patch = last[np.ix_(mrow[y : y + span], mcol[x : x + span])]
            img = (((t - patch) <= win) & (patch >= 0)) * 255.0
            r = ev.response_from_region(img, x, y)
            score[i] = r
            is_corner[i] = r > thr
        self.stats.phase1_s += time.perf_counter() - t0
        self.stats.events_processed += n
        return Tags.for_stream(chunk, is_corner, score)


def process_chunked(detector, stream: EventStream) -> Tags:
    """Run a detector over a stream batched by stream time.

    Each ``WINDOW_US`` window is one input batch, emulating the backlog a
    live replay would hand over; dense windows are split into calls of at
    most ``MAX_CALL_EVENTS``. One tag per event, in input order.
    """
    parts = []
    for tc in stream.chunks_by_time(WINDOW_US):
        for c in tc.chunks(MAX_CALL_EVENTS):
            parts.append(detector.process(c))
    if not parts:
        return Tags.for_stream(stream, np.zeros(0, bool), np.zeros(0))
    return Tags.concat(parts) if len(parts) > 1 else parts[0]


def _angle_grid(n_points: int) -> list[float]:
    """Integer arc-length steps on both rings mapped to degrees, 67.5..180."""
    angles = sorted(
        {l * 22.5 for l in range(3, 9)} | {l * 18.0 for l in range(4, 11)}
    )
    if n_points >= len(angles):
        return angles
    idx = np.unique(np.round(np.linspace(0, len(angles) - 1, n_points)).astype(int))
    return [angles[i] for i in idx]


def decision_parameter_sweep(detector, stream: EventStream, n_points: int = 50):
    """Tag sets across a sweep of the detector's decision parameter.

    The detector runs once (fed in stream-time batches, so batch-oriented
    pipelines see live-sized backlogs); decisions are re-derived from the
    recorded scores. Returned strict-to-loose: descending response
    thresholds for Harris-scored detectors, ascending acceptance angles for
    ring detectors. Tag sets are nested along the sweep.
    """
    if n_points < 2:
        raise InvalidParameter(f"n_points must be >= 2, got {n_points}")
    tags = process_chunked(detector, stream)
    out = []
    if detector.decision_direction == "greater":
        finite = tags.score[np.isfinite(tags.score)]
        pos = finite[finite > 0]
        if pos.size:
            top = float(pos.max()) * (1.0 + 1e-9)
            bottom = max(float(pos.min()) * 0.5, top * 1e-15)
            thresholds = list(np.geomspace(top, bottom, n_points - 1)) + [-math.inf]
        else:
            thresholds = list(np.linspace(1.0, 0.0, n_points - 1)) + [-math.inf]
        for thr in thresholds:
            out.append((thr, tags.with_is_corner(tags.score > thr)))
    else:
        for ang in _angle_grid(n_points):
            out.append((ang, tags.with_is_corner(tags.score <= ang)))
    return out
