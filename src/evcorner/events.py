"""Event data model, stream containers, and file I/O.

Streams and tags are stored column-wise (numpy arrays for t, x, y, p, plus
is_corner and score for tags); every consumer in this package reads whole
columns.

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
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import FormatError, GeometryViolation, InvalidParameter, TimestampRegression

CSV_MAGIC = "# evcorner v1 csv"
TAGS_MAGIC = "# evcorner v1 tags"
BINARY_MAGIC = b"EVC1"

MAX_SIDE = 65_536  # x and y are stored as uint16

EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])


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


def _validate_columns(geometry: SensorGeometry, t, x, y) -> None:
    bad = np.flatnonzero((x >= geometry.width) | (y >= geometry.height))
    if bad.size:
        i = int(bad[0])
        raise GeometryViolation(
            f"({int(x[i])},{int(y[i])}) outside {geometry.width}x{geometry.height}", index=i
        )
    dec = np.flatnonzero(t[1:] < t[:-1])  # in uint64: a difference could wrap
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
    def empty(cls, geometry) -> "EventStream":
        return cls.from_arrays(geometry, [], [], [], [], validate=False)

    def __len__(self) -> int:
        return len(self.t)

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


@dataclass
class Tags:
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
            raise InvalidParameter("nothing to concatenate")
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
    raise InvalidParameter(f"unknown format {format!r}")


# CSV bodies parse in bulk into these rows; event x and y are signed so that
# a negative coordinate reaches GeometryViolation
_EVENT_ROW = np.dtype([("t", "<u8"), ("x", "<i8"), ("y", "<i8"), ("p", "<i8")])
_TAG_ROW = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"),
                     ("c", "<i8"), ("s", "<f8")])


def _loadtxt(lines, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body is legal
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _bulk_columns(lines, dtype, columns):
    """``columns`` of the lines parsed in one ``np.loadtxt`` call; None
    where either rejects them."""
    try:
        return columns(_loadtxt(lines, dtype))
    except ValueError:
        return None


def _scan(lines, line_rule, n_fields: int) -> Iterator[str]:
    """Each non-blank body line as ``line_rule`` rewrites it; FormatError
    at the first line whose fields the rule rejects (ValueError)."""
    for lineno, line in enumerate(lines, start=2):
        if line := line.strip():
            try:
                fields = line.split(",")
                if len(fields) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
                yield line_rule(fields)
            except (ValueError, OverflowError) as e:
                raise FormatError(f"{e} in {line!r}", line=lineno) from None


def _read_rows(path, magic, dtype, line_rule, columns, bulk_dtype=None):
    """Geometry and ``columns(rows)`` of a CSV file.

    One ``np.loadtxt`` call parses the body and ``columns`` checks it a
    column at a time (None: a check failed). A body with whitespace-only
    lines gets one more bulk attempt without them. Only then are the lines
    scanned, which raises FormatError at the first bad line; a body that
    passes (it holds ``1_000``, say) is parsed from the canonical lines the
    scan yields.
    """
    # undecodable bytes become U+FFFD, which no field accepts
    with open(path, "r", errors="replace") as f:
        header = f.readline()
        if not header:
            raise FormatError("empty file", line=1)
        w, h = _parse_header(header, magic)
        body = f.tell()
        cols = _bulk_columns(f, bulk_dtype or dtype, columns)
        if cols is None:
            f.seek(body)
            lines = f.readlines()
            filled = [line for line in lines if not line.isspace()]
            if len(filled) < len(lines):
                cols = _bulk_columns(filled, bulk_dtype or dtype, columns)
        if cols is None:
            rows = _scan(lines, line_rule, len(dtype))
            try:
                cols = columns(_loadtxt(rows, dtype))
            except ValueError:
                for _ in rows:  # a later line may still break the format
                    pass
                SensorGeometry(w, h)
                raise FormatError("a field is out of range for its column") from None
    return SensorGeometry(w, h), cols


def _event_line(ts_unit: str):
    def rule(fields: list[str]) -> str:
        t = int(round(float(fields[0]) * 1e6)) if ts_unit == "s" else int(fields[0])
        x, y, p = map(int, fields[1:])
        if p not in (0, 1) or t < 0:
            raise ValueError(f"need p in {{0, 1}} and t >= 0, got p={p}, t={t}")
        return f"{t},{x},{y},{p}"
    return rule


def _event_columns(rows):
    t, p = rows["t"], rows["p"]
    if t.dtype.kind == "f":  # seconds
        t = np.rint(t * 1e6)
        if not np.all((t >= 0) & (t < 2.0**64)):  # also false for nan
            return None
    if np.all((p == 0) | (p == 1)):
        return np.ascontiguousarray(t, dtype=np.uint64), rows["x"], rows["y"], p
    return None


def _read_csv(path, ts_unit: str) -> EventStream:
    bulk = np.dtype([("t", "<f8")] + _EVENT_ROW.descr[1:]) if ts_unit == "s" else None
    geometry, cols = _read_rows(path, CSV_MAGIC, _EVENT_ROW, _event_line(ts_unit),
                                _event_columns, bulk)
    return EventStream.from_arrays(geometry, *cols)


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


# rows per formatted block: bounds the temporaries of a CSV write
WRITE_BLOCK = 8192


def _write_csv(path, magic: str, geometry: SensorGeometry, n: int, block) -> None:
    """Write n rows a block at a time, each with one ``%`` format:
    ``block(i0, i1)`` gives rows [i0, i1) as (format, column slices)."""
    with open(path, "w") as f:
        f.write(f"{magic} {geometry.width} {geometry.height}\n")
        for i0 in range(0, n, WRITE_BLOCK):
            fmt, columns = block(i0, min(i0 + WRITE_BLOCK, n))
            f.write(fmt % tuple(chain.from_iterable(zip(*(c.tolist() for c in columns)))))


def write_stream(stream: EventStream, path, format: str = "csv") -> None:
    if format == "csv":
        cols = (stream.t, stream.x, stream.y, stream.p)
        _write_csv(path, CSV_MAGIC, stream.geometry, len(stream),
                   lambda i0, i1: ("%d,%d,%d,%d\n" * (i1 - i0), (c[i0:i1] for c in cols)))
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
        raise InvalidParameter(f"unknown format {format!r}")


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


# format_score's two formats, indexed by "prints fixed-point"
_TAG_FORMATS = np.array(["%d,%d,%d,%d,%d,%.6e\n", "%d,%d,%d,%d,%d,%.6f\n"], dtype=object)


def write_tags(tags: Tags, path) -> None:
    """Write a tag file; every score prints as ``format_score`` renders it."""
    corner = np.asarray(tags.is_corner, dtype=bool).view(np.uint8)

    def block(i0, i1):
        score = tags.score[i0:i1] + 0.0  # -0.0 prints as 0.000000
        a = np.abs(score)
        fixed = (score == 0) | ((a >= 0.1) & (a < 1e16))
        return ("".join(_TAG_FORMATS[fixed.view(np.uint8)].tolist()),
                (tags.t[i0:i1], tags.x[i0:i1], tags.y[i0:i1], tags.p[i0:i1], corner[i0:i1], score))

    _write_csv(path, TAGS_MAGIC, tags.geometry, len(tags), block)


def _tag_line(fields: list[str]) -> str:
    t, x, y, p, c = map(int, fields[:5])
    return f"{t},{x},{y},{p},{int(c != 0)},{float(fields[5])!r}"


def read_tags(path) -> Tags:
    geometry, cols = _read_rows(path, TAGS_MAGIC, _TAG_ROW, _tag_line, lambda r: (
        *(np.ascontiguousarray(r[k]) for k in "txyp"), r["c"] != 0, np.ascontiguousarray(r["s"])))
    return Tags(geometry, *cols)
