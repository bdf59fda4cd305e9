import tracemalloc

import numpy as np
import pytest

from evcorner import (
    EvcError,
    EventStream,
    FormatError,
    GeometryViolation,
    InvalidParameter,
    SensorGeometry,
    Tags,
    TimestampRegression,
    read_stream,
    read_tags,
    write_pgm,
    write_stream,
    write_tags,
)
from evcorner import events
from evcorner.events import format_score
from evcorner.synth import random_stream, wedge_stream

from conftest import make_stream
from oracles import fstring_stream_csv, fstring_tags_csv, spec_read_csv, spec_read_tags


def test_csv_line_maps_fields(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("# evcorner v1 csv 640 480\n1000,5,7,1\n")
    s = read_stream(path)
    assert len(s) == 1
    assert (s.t[0], s.x[0], s.y[0], bool(s.p[0])) == (1000, 5, 7, True)
    assert s.geometry == SensorGeometry(640, 480)


def test_csv_out_of_geometry_rejected(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("# evcorner v1 csv 640 480\n1000,640,7,1\n")
    with pytest.raises(GeometryViolation) as ei:
        read_stream(path)
    assert ei.value.index == 0


def test_timestamp_regression_rejected(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("# evcorner v1 csv 32 32\n1000,1,1,1\n900,2,2,0\n")
    with pytest.raises(TimestampRegression) as ei:
        read_stream(path)
    assert ei.value.index == 1


@pytest.mark.parametrize("bad", [
    "",  # empty file
    "# wrong header 10 10\n",
    "# evcorner v1 csv 10\n",
    "# evcorner v1 csv 10 10\n1,2\n",
    "# evcorner v1 csv 10 10\nabc,2,3,1\n",
    "# evcorner v1 csv 10 10\n5,2,3,2\n",  # bad polarity
])
def test_csv_format_errors(tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(bad)
    with pytest.raises(FormatError):
        read_stream(path)


def test_seconds_unit_conversion(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("# evcorner v1 csv 32 32\n0.001234,3,4,1\n")
    s = read_stream(path, ts_unit="s")
    assert s.t[0] == 1234


def test_binary_roundtrip_10k(tmp_path):
    g = SensorGeometry(640, 480)
    s = random_stream(g, 10_000, seed=3)
    path = tmp_path / "e.evb"
    write_stream(s, path, "packed_binary")
    r = read_stream(path, "packed_binary")
    assert r.geometry == g
    for col in ("t", "x", "y", "p"):
        assert np.array_equal(getattr(r, col), getattr(s, col))


def test_binary_header_size_and_record_layout(tmp_path):
    g = SensorGeometry(3, 3)
    s = make_stream(g, [(7, 1, 2, 1)])
    path = tmp_path / "e.evb"
    write_stream(s, path, "packed_binary")
    raw = path.read_bytes()
    assert raw[:4] == b"EVC1"
    assert len(raw) == 20 + 13  # header + one packed event


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "e.evb"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(FormatError):
        read_stream(path, "packed_binary")


def test_empty_stream_roundtrip(tmp_path):
    g = SensorGeometry(16, 16)
    s = EventStream.empty(g)
    for fmt, name in [("csv", "e.csv"), ("packed_binary", "e.evb")]:
        path = tmp_path / name
        write_stream(s, path, fmt)
        r = read_stream(path, fmt)
        assert len(r) == 0 and r.geometry == g
    assert (tmp_path / "e.csv").read_text() == "# evcorner v1 csv 16 16\n"


def test_single_event_roundtrip(tmp_path):
    g = SensorGeometry(16, 16)
    s = make_stream(g, [(42, 3, 9, 0)])
    for fmt in ("csv", "packed_binary"):
        path = tmp_path / "one"
        write_stream(s, path, fmt)
        r = read_stream(path, fmt)
        assert [c.tolist() for c in (r.t, r.x, r.y, r.p)] == [c.tolist() for c in (s.t, s.x, s.y, s.p)]


def test_random_roundtrip_100k(tmp_path):
    g = SensorGeometry(480, 360)
    s = random_stream(g, 100_000, seed=11)
    for fmt in ("csv", "packed_binary"):
        path = tmp_path / "big"
        write_stream(s, path, fmt)
        r = read_stream(path, fmt)
        for col in ("t", "x", "y", "p"):
            assert np.array_equal(getattr(r, col), getattr(s, col))


def test_equal_timestamps_preserved_in_order(tmp_path):
    g = SensorGeometry(8, 8)
    s = make_stream(g, [(5, 1, 1), (5, 2, 2), (5, 3, 3)])
    path = tmp_path / "ties.csv"
    write_stream(s, path)
    r = read_stream(path)
    assert r.x.tolist() == [1, 2, 3]


def test_tag_csv_fields():
    assert format_score(0.0) == "0.000000"
    assert format_score(1.5) == "1.500000"


def test_tag_file_flags_and_zero_score(tmp_path, geometry):
    s = make_stream(geometry, [(1, 2, 3, 1), (2, 4, 5, 0)])
    tags = Tags.for_stream(s, np.array([True, False]), np.array([0.0, 2.25]))
    path = tmp_path / "t.csv"
    write_tags(tags, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# evcorner v1 tags 64 64"
    assert lines[1] == "1,2,3,1,1,0.000000"
    assert lines[2] == "2,4,5,0,0,2.250000"


def test_tags_roundtrip_1k_random(tmp_path, geometry):
    rng = np.random.default_rng(5)
    s = random_stream(geometry, 1000, seed=6)
    # scores spanning the magnitude range Harris responses take
    mag = rng.uniform(-1, 1, 1000) * 10.0 ** rng.uniform(-6, 15, 1000)
    mag[:10] = 0.0
    tags = Tags.for_stream(s, rng.random(1000) < 0.3, mag)
    path = tmp_path / "t.csv"
    write_tags(tags, path)
    r = read_tags(path)
    assert np.array_equal(r.is_corner, tags.is_corner)
    assert np.array_equal(r.t, tags.t)
    assert np.array_equal(r.x, tags.x)
    # lossless at 6 significant digits
    nz = tags.score != 0
    rel = np.abs(r.score[nz] - tags.score[nz]) / np.abs(tags.score[nz])
    assert rel.max() <= 5e-6
    assert np.all(r.score[~nz] == 0.0)


def test_from_arrays_validation_is_total():
    g = SensorGeometry(4, 4)
    with pytest.raises(GeometryViolation):
        EventStream.from_arrays(g, [1], [4], [0], [1])
    with pytest.raises(GeometryViolation):
        EventStream.from_arrays(g, [1], [-1], [0], [1])
    with pytest.raises(TimestampRegression):
        EventStream.from_arrays(g, [5, 4], [0, 0], [0, 0], [1, 1])
    # order is compared on the full 64 bits: no difference wraps
    with pytest.raises(TimestampRegression):
        EventStream.from_arrays(g, [2**64 - 1, 0], [0, 0], [0, 0], [1, 1])
    assert len(EventStream.from_arrays(g, [0, 2**63 + 1], [0, 0], [0, 0], [1, 1])) == 2


# --- bulk readers against the per-line spec (tests/oracles.py) -------------

def _outcome(read, path, *args):
    """Columns and dtypes of a read, or its error type and line/index."""
    try:
        got = read(path, *args)
    except EvcError as e:
        return type(e).__name__, getattr(e, "line", None), getattr(e, "index", None)
    return [(c.dtype.str, np.ascontiguousarray(c).tobytes()) for c in got]


def _spec_stream(path, ts_unit):
    geometry, t, x, y, p = spec_read_csv(path, ts_unit)
    s = EventStream.from_arrays(geometry, t, x, y, p)
    return s.t, s.x, s.y, s.p, np.array([s.geometry.width, s.geometry.height])


def _bulk_stream(path, ts_unit):
    s = read_stream(path, ts_unit=ts_unit)
    return s.t, s.x, s.y, s.p, np.array([s.geometry.width, s.geometry.height])


def _tag_columns(tags):
    return (tags.t, tags.x, tags.y, tags.p, tags.is_corner, tags.score,
            np.array([tags.geometry.width, tags.geometry.height]))


def _spec_tags(path):
    geometry, *cols = spec_read_tags(path)
    return (*cols, np.array([geometry.width, geometry.height]))


CSV_BODIES = [
    ("", "us"),
    ("5,1,2,1\n\n\n7,1,2,0\n", "us"),
    ("5,1,2,1\n   \n\t\n7,1,2,0\n", "us"),
    ("5,1,2,1\n \n\t\n6,1,2,7\n", "us"),  # an error below blank lines
    ("5,1,2,1\n  \n1_000,1,2,1\n", "us"),
    ("5,1,2,1\r\n7,1,2,0\r\n", "us"),
    ("5,1,2,1\n# note\n", "us"),
    ("5,1,2,1,\n", "us"),
    ("+5,+1,2,1\n", "us"),
    ("1_000,1,2,1\n", "us"),
    ("1.0,1,2,1\n", "us"),
    ("-0,1,2,-0\n", "us"),
    (" 5 , 1 ,\t2,1 \n", "us"),
    (f"{2**63 - 1},1,2,1\n", "us"),
    (f"{2**63},1,2,1\n", "us"),
    (f"{2**64 - 1},1,2,1\n", "us"),
    (f"{2**64},1,2,1\n", "us"),
    (f"{2**64 - 1},1,2,1\n0,1,2,1\n", "us"),
    (f"5,{2**63},2,1\n", "us"),
    (f"{2**64},1,2,1\n6,1,2,7\n", "us"),  # a later line error wins
    ("-1,1,2,1\n", "us"),
    ("5,1,2,2\n", "us"),
    ("5,-1,2,1\n", "us"),
    ("5,1,2\n", "us"),
    ("5,1,2,1,0\n", "us"),
    ("5,8,2,1\n", "us"),
    ("5,1,2,1\n4,1,2,1\n", "us"),
    ("0.0000005,1,2,1\n0.0000015,1,2,1\n0.0000025,1,2,1\n", "s"),
    ("0.001234,1,2,1\n1e-3,1,2,0\n", "s"),
    ("-0.0000004,1,2,1\n", "s"),
    ("-0.000001,1,2,1\n", "s"),
    ("inf,1,2,1\n", "s"),
    ("nan,1,2,1\n", "s"),
    ("1e300,1,2,1\n", "s"),
    ("1_0.5,1,2,1\n", "s"),
    ("0.5,1.0,2,1\n", "s"),
    ("5,1,2,1\n\xff\n", "us"),
]


@pytest.mark.parametrize("body,unit", CSV_BODIES)
def test_csv_reader_matches_line_spec(tmp_path, body, unit):
    path = tmp_path / "e.csv"
    path.write_bytes(("# evcorner v1 csv 8 6\n" + body).encode("latin-1"))
    assert _outcome(_bulk_stream, path, unit) == _outcome(_spec_stream, path, unit)


def test_csv_reader_matches_line_spec_on_random_fields(tmp_path):
    tokens = ["0", "1", "2", "5", "7", "-0", "-1", "+3", "1_0", "1.0", "1e3", " 4 ", "",
              "0.0000025", "inf", "nan", "x", "#", str(2**63), str(2**64)]
    rng = np.random.default_rng(0)
    path = tmp_path / "e.csv"
    outcomes = set()
    for case in range(300):
        lines = []
        for _ in range(rng.integers(0, 6)):
            # mostly well-formed rows, so that errors come late in the file
            if rng.random() < 0.6:
                lines.append(f"{case + len(lines)},{rng.integers(0, 8)},{rng.integers(0, 6)},1")
            else:
                n = rng.choice([3, 4, 4, 4, 5])
                lines.append(",".join(rng.choice(tokens, n)))
        path.write_text("# evcorner v1 csv 8 6\n" + "\n".join(lines) + "\n")
        for unit in ("us", "s"):
            want = _outcome(_spec_stream, path, unit)
            assert _outcome(_bulk_stream, path, unit) == want, (lines, unit)
            outcomes.add(want[0] if isinstance(want, tuple) else "ok")
    assert {"ok", "FormatError", "GeometryViolation", "TimestampRegression"} <= outcomes


def test_whitespace_only_lines_parse_in_bulk(tmp_path, monkeypatch):
    g = SensorGeometry(64, 48)
    s = random_stream(g, 3000, seed=12)
    clean, spaced = tmp_path / "clean.csv", tmp_path / "spaced.csv"
    write_stream(s, clean)
    lines = clean.read_text().splitlines(keepends=True)
    for i, blank in ((2900, " \t \n"), (1500, "\n"), (1, "   \n")):
        lines.insert(i, blank)
    spaced.write_text("".join(lines) + "  ")
    want = _outcome(_bulk_stream, clean, "us")

    def no_scan(*args):
        raise AssertionError("the per-line scan ran")

    monkeypatch.setattr(events, "_scan", no_scan)
    assert _outcome(_bulk_stream, spaced, "us") == want


TAG_BODIES = [
    "",
    "5,1,2,1,1,0.500000\n\n  \n6,1,2,0,0,-1.000000e-07\r\n",
    "1_000,1,2,1,0,1_0.5\n",
    f"5,1,2,1,{2**70},nan\n",
    "5,1,2,1,-3,-0.0\n6,1,2,1,0,1e400\n",
    "-1,1,2,1,1,0.5\n",
    "5,70000,2,1,1,0.5\n",
    "5,1,2,256,1,0.5\n",
    "5,1,2,1,1\n",
    "5,1,2,1,1,x\n",
]


@pytest.mark.parametrize("body", TAG_BODIES)
def test_tag_reader_matches_line_spec(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text("# evcorner v1 tags 8 6\n" + body)
    got = _outcome(lambda p: _tag_columns(read_tags(p)), path)
    assert got == _outcome(_spec_tags, path)


def test_tag_reader_matches_line_spec_on_written_file(tmp_path, geometry):
    rng = np.random.default_rng(8)
    s = random_stream(geometry, 3000, seed=9)
    tags = Tags.for_stream(s, rng.random(3000) < 0.4,
                           rng.normal(size=3000) * 10.0 ** rng.uniform(-9, 18, 3000))
    path = tmp_path / "t.csv"
    write_tags(tags, path)
    assert _outcome(lambda p: _tag_columns(read_tags(p)), path) == _outcome(_spec_tags, path)


# --- block-formatted writers against f-string references -------------------

EDGE_SCORES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 0.1, -0.1, 1e16, -1e16,
               float("inf"), float("-inf"), float("nan"), 1.5, -2.25e9, 9.999999e15]
EDGE_SCORES += [float(np.nextafter(v, d)) for v in (0.1, -0.1, 1e16, -1e16)
                for d in (-np.inf, np.inf)]


@pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193])
def test_writers_are_byte_identical_to_fstring_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    g = SensorGeometry(65535, 9)
    t = np.sort(rng.integers(0, 2**64 - 1, n, dtype=np.uint64))
    s = EventStream.from_arrays(g, t, rng.integers(0, 65535, n), rng.integers(0, 9, n),
                                rng.integers(0, 2, n), validate=False)
    score = rng.normal(size=n) * 10.0 ** rng.uniform(-12, 20, n)
    score[: len(EDGE_SCORES)] = EDGE_SCORES[:n]
    tags = Tags.for_stream(s, rng.random(n) < 0.5, rng.permutation(score))
    write_stream(s, tmp_path / "e.csv")
    write_tags(tags, tmp_path / "t.csv")
    assert (tmp_path / "e.csv").read_text() == fstring_stream_csv(s)
    assert (tmp_path / "t.csv").read_text() == fstring_tags_csv(tags)


def test_write_memory_is_bounded_by_block(tmp_path):
    g = SensorGeometry(640, 480)
    s = random_stream(g, 200_000, seed=4)
    tags = Tags.for_stream(s, np.ones(len(s), dtype=bool),
                           np.random.default_rng(4).normal(size=len(s)) * 1e6)
    tracemalloc.start()
    try:
        write_stream(s, tmp_path / "e.csv")
        write_tags(tags, tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak  # 1.7 MiB measured; 13.5 MiB with 65536-row blocks


@pytest.mark.parametrize("call", [
    lambda tmp: read_stream(tmp / "e.csv", "hdf5"),
    lambda tmp: write_stream(EventStream.empty(SensorGeometry(4, 4)), tmp / "e.h5", "hdf5"),
    lambda tmp: write_pgm(np.full((2, 2), 256), tmp / "t.pgm"),
    lambda tmp: Tags.concat([]),
    lambda tmp: wedge_stream(SensorGeometry(32, 32), 16, 16, 45),
], ids=["read-format", "write-format", "pgm-over-8-bits", "concat-nothing", "wedge-angle"])
def test_bad_library_arguments_raise_invalid_parameter(tmp_path, call):
    with pytest.raises(InvalidParameter):
        call(tmp_path)
