"""Event data model, stream containers, and file I/O.

Streams are stored column-wise (numpy arrays for t, x, y, p) because every
consumer in this package iterates or vectorises over whole streams; the
scalar `Event` / `CornerTag` views exist for per-event APIs and tests.

File formats
------------
CSV events        header ``# evcorner v1 csv <width> <height>``,
                  then one ``t_us,x,y,p`` row per event, p in {0,1}.
packed_binary     header: magic ``EVC1``, u32 width, u32 height, u64 count;
                  then per event u64 t, u16 x, u16 y, u8 p, little-endian,
                  no padding (13 bytes/event).
Tag CSV           header ``# evcorner v1 tags <width> <height>``,
                  rows ``t_us,x,y,p,is_corner,score``.

Timestamps are microseconds held in unsigned 64-bit integers. Readers can
convert seconds-as-float sources with ``ts_unit="s"``. Equal timestamps are
legal and are preserved in file order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import FormatError, GeometryViolation, InvalidParameter, TimestampRegression

CSV_MAGIC = "# evcorner v1 csv"
TAGS_MAGIC = "# evcorner v1 tags"
BINARY_MAGIC = b"EVC1"

MAX_SIDE = 65_536  # x and y are stored as uint16

EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])


class Event(NamedTuple):
    t: int
    x: int
    y: int
    p: bool


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int

    def __post_init__(self):
        if not (1 <= self.width <= MAX_SIDE and 1 <= self.height <= MAX_SIDE):
            raise InvalidParameter(
                f"geometry must be between 1x1 and {MAX_SIDE}x{MAX_SIDE}, "
                f"got {self.width}x{self.height}"
            )

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height


def _validate_columns(geometry: SensorGeometry, t, x, y) -> None:
    bad = np.flatnonzero((x >= geometry.width) | (y >= geometry.height))
    if bad.size:
        i = int(bad[0])
        raise GeometryViolation(
            f"({int(x[i])},{int(y[i])}) outside {geometry.width}x{geometry.height}", index=i
        )
    if len(t) > 1:
        dec = np.flatnonzero(np.diff(t.astype(np.int64)) < 0)
        if dec.size:
            i = int(dec[0]) + 1
            raise TimestampRegression(
                f"t={int(t[i])} after t={int(t[i - 1])}", index=i
            )


@dataclass
class EventStream:
    """An ordered event sequence bound to a sensor geometry."""

    geometry: SensorGeometry
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    @classmethod
    def from_arrays(cls, geometry, t, x, y, p, validate: bool = True) -> "EventStream":
        t = np.asarray(t, dtype=np.uint64)
        x = np.asarray(x)
        y = np.asarray(y)
        p = np.asarray(p)
        if validate:
            if np.any(x < 0) or np.any(y < 0):
                i = int(np.flatnonzero((x < 0) | (y < 0))[0])
                raise GeometryViolation("negative coordinate", index=i)
            _validate_columns(geometry, t, x, y)
        return cls(
            geometry,
            t,
            x.astype(np.uint16, copy=False),
            y.astype(np.uint16, copy=False),
            p.astype(np.uint8, copy=False),
        )

    @classmethod
    def from_events(cls, geometry, events: Iterable[Event], validate: bool = True) -> "EventStream":
        evs = list(events)
        return cls.from_arrays(
            geometry,
            np.array([e.t for e in evs], dtype=np.uint64),
            np.array([e.x for e in evs], dtype=np.int64),
            np.array([e.y for e in evs], dtype=np.int64),
            np.array([1 if e.p else 0 for e in evs], dtype=np.uint8),
            validate=validate,
        )

    @classmethod
    def empty(cls, geometry) -> "EventStream":
        return cls.from_arrays(geometry, [], [], [], [], validate=False)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.t[i]), int(self.x[i]), int(self.y[i]), bool(self.p[i]))

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def slice(self, i0: int, i1: int) -> "EventStream":
        """View of events [i0, i1); shares the underlying arrays."""
        return EventStream(self.geometry, self.t[i0:i1], self.x[i0:i1], self.y[i0:i1], self.p[i0:i1])

    def chunks(self, n: int) -> Iterator["EventStream"]:
        for i in range(0, len(self), n):
            yield self.slice(i, min(i + n, len(self)))

    def chunks_by_time(self, window_us: int) -> Iterator["EventStream"]:
        """Non-empty slices covering successive stream-time windows."""
        if len(self) == 0:
            return
        rel = self.t.astype(np.int64) - int(self.t[0])
        edges = np.arange(window_us, int(rel[-1]) + window_us + 1, window_us)
        bounds = np.searchsorted(rel, edges, side="left")
        i0 = 0
        for i1 in bounds:
            if i1 > i0:
                yield self.slice(i0, int(i1))
                i0 = int(i1)
            if i0 >= len(self):
                break


class CornerTag(NamedTuple):
    event: Event
    is_corner: bool
    score: float


@dataclass
class Tags(Sequence):
    """Column-wise per-event classification output, in input order."""

    geometry: SensorGeometry
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    is_corner: np.ndarray
    score: np.ndarray

    @classmethod
    def for_stream(cls, stream: EventStream, is_corner, score) -> "Tags":
        return cls(
            stream.geometry,
            stream.t,
            stream.x,
            stream.y,
            stream.p,
            np.asarray(is_corner, dtype=bool),
            np.asarray(score, dtype=np.float64),
        )

    @classmethod
    def concat(cls, parts: Sequence["Tags"]) -> "Tags":
        if not parts:
            raise ValueError("nothing to concatenate")
        g = parts[0].geometry
        return cls(
            g,
            np.concatenate([q.t for q in parts]),
            np.concatenate([q.x for q in parts]),
            np.concatenate([q.y for q in parts]),
            np.concatenate([q.p for q in parts]),
            np.concatenate([q.is_corner for q in parts]),
            np.concatenate([q.score for q in parts]),
        )

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Tags(self.geometry, self.t[i], self.x[i], self.y[i], self.p[i],
                        self.is_corner[i], self.score[i])
        return CornerTag(
            Event(int(self.t[i]), int(self.x[i]), int(self.y[i]), bool(self.p[i])),
            bool(self.is_corner[i]),
            float(self.score[i]),
        )

    def with_is_corner(self, is_corner: np.ndarray) -> "Tags":
        """Same events and scores, re-thresholded decision (shares arrays)."""
        return Tags(self.geometry, self.t, self.x, self.y, self.p,
                    np.asarray(is_corner, dtype=bool), self.score)

    def corner_count(self) -> int:
        return int(np.count_nonzero(self.is_corner))


# ---------------------------------------------------------------------------
# file I/O

def _parse_header(line: str, magic: str) -> tuple[int, int]:
    parts = line.strip().split()
    want = magic.split()
    if parts[: len(want)] != want or len(parts) != len(want) + 2:
        raise FormatError(f"bad header, expected '{magic} <width> <height>'", line=1)
    try:
        return int(parts[-2]), int(parts[-1])
    except ValueError:
        raise FormatError("header width/height not integers", line=1) from None


def read_stream(path, format: str = "csv", ts_unit: str = "us") -> EventStream:
    """Read an event file, validating geometry and timestamp order.

    ``ts_unit="s"`` converts seconds-as-float timestamps to integer
    microseconds on the way in (CSV only).
    """
    if format == "csv":
        return _read_csv(path, ts_unit)
    if format == "packed_binary":
        return _read_binary(path)
    raise ValueError(f"unknown format {format!r}")


def _read_csv(path, ts_unit: str) -> EventStream:
    ts, xs, ys, ps = [], [], [], []
    with open(path, "r") as f:
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
    return EventStream.from_arrays(geometry, t, x, y, np.array(ps, dtype=np.uint8))


def _read_binary(path) -> EventStream:
    with open(path, "rb") as f:
        head = f.read(20)
        if len(head) < 20:
            raise FormatError("truncated header (need 20 bytes)")
        magic, w, h, count = struct.unpack("<4sIIQ", head)
        if magic != BINARY_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}")
        rec = np.fromfile(f, dtype=EVENT_DTYPE, count=count)
    if len(rec) != count:
        raise FormatError(f"expected {count} events, file holds {len(rec)}")
    geometry = SensorGeometry(w, h)
    return EventStream.from_arrays(
        geometry, rec["t"], rec["x"].astype(np.int64), rec["y"].astype(np.int64), rec["p"]
    )


def write_stream(stream: EventStream, path, format: str = "csv") -> None:
    if format == "csv":
        with open(path, "w") as f:
            f.write(f"{CSV_MAGIC} {stream.geometry.width} {stream.geometry.height}\n")
            t, x, y, p = stream.t, stream.x, stream.y, stream.p
            for i in range(len(stream)):
                f.write(f"{t[i]},{x[i]},{y[i]},{p[i]}\n")
    elif format == "packed_binary":
        rec = np.empty(len(stream), dtype=EVENT_DTYPE)
        rec["t"] = stream.t
        rec["x"] = stream.x
        rec["y"] = stream.y
        rec["p"] = stream.p
        with open(path, "wb") as f:
            f.write(struct.pack("<4sIIQ", BINARY_MAGIC,
                                stream.geometry.width, stream.geometry.height, len(stream)))
            rec.tofile(f)
    else:
        raise ValueError(f"unknown format {format!r}")


def format_score(s: float) -> str:
    """Render a score keeping at least 6 significant digits.

    Fixed-point for ordinary magnitudes (so 0.0 prints as ``0.000000``),
    scientific notation for very small or very large values.
    """
    if s == 0.0:
        return "0.000000"
    a = abs(s)
    if 0.1 <= a < 1e16:
        return f"{s:.6f}"
    return f"{s:.6e}"


def write_tags(tags: Tags, path) -> None:
    with open(path, "w") as f:
        f.write(f"{TAGS_MAGIC} {tags.geometry.width} {tags.geometry.height}\n")
        t, x, y, p, c, s = tags.t, tags.x, tags.y, tags.p, tags.is_corner, tags.score
        for i in range(len(tags)):
            f.write(f"{t[i]},{x[i]},{y[i]},{p[i]},{1 if c[i] else 0},{format_score(float(s[i]))}\n")


def read_tags(path) -> Tags:
    ts, xs, ys, ps, cs, ss = [], [], [], [], [], []
    with open(path, "r") as f:
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
    return Tags(
        geometry,
        np.array(ts, dtype=np.uint64),
        np.array(xs, dtype=np.uint16),
        np.array(ys, dtype=np.uint16),
        np.array(ps, dtype=np.uint8),
        np.array(cs, dtype=bool),
        np.array(ss, dtype=np.float64),
    )
