import numpy as np
import pytest
import scipy.ndimage as ndi

from evcorner import (
    DelayTrace,
    InvalidParameter,
    LuvHarrisConfig,
    PrCurve,
    SensorGeometry,
    Tags,
    TosSurface,
    export_plot_data,
    render_tos,
    render_trails,
    save_frames,
    write_pgm,
)
from evcorner.render import BRIGHT_VALUE, DIM_VALUE
from evcorner.synth import moving_corner_stream, random_stream

from conftest import make_stream
from oracles import FreshLutDetector, read_pgm


def test_blank_surface_pgm(tmp_path):
    surf = TosSurface(SensorGeometry(8, 6))
    path = tmp_path / "t.pgm"
    render_tos(surf, path)
    img = read_pgm(path)
    assert img.shape == (6, 8) and not img.any()


def test_known_grid_byte_exact(tmp_path):
    grid = np.array([[0, 12, 255], [254, 13, 0], [0, 0, 200]], dtype=np.uint8)
    path = tmp_path / "g.pgm"
    write_pgm(grid, path)
    assert path.read_bytes() == b"P5\n3 3\n255\n" + grid.tobytes()
    assert np.array_equal(read_pgm(path), grid)


def test_surface_roundtrip(tmp_path):
    surf = TosSurface(SensorGeometry(20, 20))
    rng = np.random.default_rng(1)
    surf.update_many(rng.integers(0, 20, 300), rng.integers(0, 20, 300))
    path = tmp_path / "s.pgm"
    render_tos(surf, path)
    assert np.array_equal(read_pgm(path), surf.grid.astype(np.uint8))


def test_trails_no_corners_dim_only(geometry):
    s = random_stream(geometry, 200, duration_us=90_000, seed=2)
    tags = Tags.for_stream(s, np.zeros(200, bool), np.zeros(200))
    frames = render_trails(tags, window_us=100_000)
    assert len(frames) == 1
    assert frames[0].shape == (64, 64)
    assert set(np.unique(frames[0])) <= {0, DIM_VALUE}


def test_trails_single_corner_single_bright_pixel(geometry):
    s = make_stream(geometry, [(10, 5, 5), (20, 9, 9)])
    tags = Tags.for_stream(s, np.array([False, True]), np.array([0.0, 1.0]))
    frames = render_trails(tags, window_us=100_000)
    assert len(frames) == 1
    assert frames[0][9, 9] == BRIGHT_VALUE
    assert frames[0][5, 5] == DIM_VALUE
    assert (frames[0] == BRIGHT_VALUE).sum() == 1


def test_trails_frame_count_and_windows(geometry):
    events = [(t, 1, 1) for t in range(1, 250_001, 1000)]
    s = make_stream(geometry, events)
    tags = Tags.for_stream(s, np.zeros(len(events), bool), np.zeros(len(events)))
    frames = render_trails(tags, window_us=100_000)
    assert len(frames) == 3  # ceil(250ms / 100ms)


def test_trails_empty():
    g = SensorGeometry(8, 8)
    tags = Tags(g, *(np.zeros(0, dt) for dt in (np.uint64, np.uint16, np.uint16,
                                                np.uint8, bool, np.float64)))
    assert render_trails(tags) == []


def test_moving_corner_leaves_connected_trail():
    g = SensorGeometry(64, 64)
    stream, apex = moving_corner_stream(g, step_us=2000, n_steps=30)
    cfg = LuvHarrisConfig(threshold_tr=1e11)
    tags = FreshLutDetector(g, cfg, 32).process(stream)
    frames = render_trails(tags, window_us=200_000)
    trail = np.zeros((64, 64), bool)
    for f in frames:
        trail |= f == BRIGHT_VALUE
    assert trail.sum() >= 10
    labels, n = ndi.label(trail, structure=np.ones((3, 3)))
    assert n == 1  # apex detections form one 8-connected trail


def test_save_frames(tmp_path):
    frames = [np.zeros((4, 4), np.uint8), np.full((4, 4), 7, np.uint8)]
    paths = save_frames(frames, tmp_path / "fr")
    assert len(paths) == 2
    assert np.array_equal(read_pgm(paths[1]), frames[1])


def test_export_delay_trace(tmp_path):
    trace = DelayTrace("d", np.array([1000, 2000]), np.array([0.0, 1500.5]),
                       np.array([1000.0, 2000.0]))
    path = tmp_path / "d.csv"
    export_plot_data(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "stream_time_us,delay_us"
    assert lines[1] == "1000,0.000000"
    assert lines[2] == "2000,1500.500000"


def test_export_empty_trace_header_only(tmp_path):
    trace = DelayTrace("d", np.zeros(0, np.int64), np.zeros(0), np.zeros(0))
    path = tmp_path / "e.csv"
    export_plot_data(trace, path)
    assert path.read_text() == "stream_time_us,delay_us\n"


def test_export_curve_rows_in_sweep_order(tmp_path):
    curve = PrCurve([(3.0, 0.9, 0.1), (2.0, 0.8, 0.4), (1.0, 0.5, 0.9)])
    path = tmp_path / "c.csv"
    export_plot_data(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "parameter,precision,recall"
    assert len(lines) == 4
    assert lines[1].startswith("3.0,")


def test_export_deterministic(tmp_path):
    curve = PrCurve([(1.23456789, 0.333333333333, 0.777)])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_plot_data(curve, p1)
    export_plot_data(curve, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_rejects_unknown(tmp_path):
    with pytest.raises(InvalidParameter):
        export_plot_data({"no": 1}, tmp_path / "x.csv")
