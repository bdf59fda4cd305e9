import math

import numpy as np
import pytest

from evcorner import (
    ArcDetector,
    ArcRingConfig,
    EHarrisConfig,
    EHarrisDetector,
    EventStream,
    FastDetector,
    InvalidParameter,
    SensorGeometry,
    Tags,
    decision_parameter_sweep,
    harris_response_map,
    process_chunked,
)
from evcorner.baselines import (
    CIRCLE3,
    CIRCLE4,
    INNER_RADIUS,
    MAX_CALL_EVENTS,
    OUTER_RADIUS,
    WINDOW_US,
    _min_direct_angle,
    _min_folded_angle,
)
from evcorner.synth import (
    double_edge_secondary_stream,
    moving_corner_stream,
    random_stream,
    straight_edge_stream,
    wedge_stream,
)

from conftest import make_stream
from oracles import oracle_direct_angle, oracle_folded_angle


def test_ring_layouts():
    for circle, n, radius in ((CIRCLE3, 16, INNER_RADIUS), (CIRCLE4, 20, OUTER_RADIUS)):
        assert len(set(circle)) == n
        for (dx0, dy0), (dx1, dy1) in zip(circle, circle[1:] + circle[:1]):
            assert max(abs(dx1 - dx0), abs(dy1 - dy0)) == 1  # angular neighbours touch
            assert radius - 1 < math.hypot(dx0, dy0) < radius + 1


@pytest.mark.parametrize("n,lmin,deg", [(16, 3, 22.5), (20, 4, 18.0)])
def test_ring_angles_match_enumeration_oracle(n, lmin, deg):
    rng = np.random.default_rng(n)
    for trial in range(300):
        # mixed regimes: ties, zeros, near-sorted, pure random
        if trial % 4 == 0:
            vals = rng.integers(0, 5, n)
        elif trial % 4 == 1:
            vals = rng.integers(0, 1000, n)
        elif trial % 4 == 2:
            vals = np.sort(rng.integers(0, 1000, n))
            rng.shuffle(vals[: n // 2])
        else:
            vals = np.where(rng.random(n) < 0.4, 0, rng.integers(1, 50, n))
        vals = vals.astype(np.uint64)
        lst = vals.tolist()
        got_direct = _min_direct_angle(lst + lst, n, lmin, deg)
        want_direct = oracle_direct_angle(lst, n, lmin, deg)
        assert got_direct == want_direct, f"direct mismatch on {lst}"
        got_folded = _min_folded_angle(vals, n, lmin, deg)
        want_folded = oracle_folded_angle(lst, n, lmin, deg)
        assert got_folded == want_folded, f"folded mismatch on {lst}"


def test_first_event_is_not_a_corner(geometry):
    s = make_stream(geometry, [(100, 32, 32)])
    assert FastDetector(s.geometry).process(s).corner_count() == 0
    assert ArcDetector(s.geometry).process(s).corner_count() == 0


def test_wedge_90_accepted_by_both(geometry):
    stream, probes = wedge_stream(geometry, 32, 32, 90)
    for Detector in (FastDetector, ArcDetector):
        tags = Detector(stream.geometry).process(stream)
        assert tags.is_corner[probes].all()


def test_wedge_270_fast_rejects_arc_accepts(geometry):
    stream, probes = wedge_stream(geometry, 32, 32, 270)
    ft = FastDetector(stream.geometry).process(stream)
    at = ArcDetector(stream.geometry).process(stream)
    assert not ft.is_corner[probes].any()
    assert at.is_corner[probes].all()


def test_straight_edge_wavefront_rejected(geometry):
    stream = straight_edge_stream(geometry)
    for Detector in (FastDetector, ArcDetector):
        tags = Detector(stream.geometry).process(stream)
        assert tags.corner_count() == 0


def test_secondary_wave_fools_arc_not_fast():
    g = SensorGeometry(96, 48)
    stream, stragglers = double_edge_secondary_stream(g)
    at = ArcDetector(stream.geometry).process(stream)
    ft = FastDetector(stream.geometry).process(stream)
    assert at.is_corner[stragglers].sum() > len(stragglers) * 0.5
    assert at.corner_count() > ft.corner_count()


def test_fast_acceptances_subset_of_arc(geometry):
    stream = random_stream(geometry, 4000, seed=17)
    ft = FastDetector(stream.geometry).process(stream)
    at = ArcDetector(stream.geometry).process(stream)
    assert not np.any(ft.is_corner & ~at.is_corner)
    # scores agree wherever FAST found an arc: the folded angle can only be
    # equal or smaller
    mask = np.isfinite(ft.score)
    assert np.all(at.score[mask] <= ft.score[mask])


def test_border_events_not_corner(geometry):
    s = make_stream(geometry, [(1, 0, 0), (2, 63, 63), (3, 2, 30)])
    for Detector in (FastDetector, ArcDetector):
        tags = Detector(s.geometry).process(s)
        assert tags.corner_count() == 0
        assert not np.isfinite(tags.score).any()


def test_detectors_preserve_order_and_count(geometry):
    stream = random_stream(geometry, 2000, seed=23)
    for Detector in (FastDetector, ArcDetector, EHarrisDetector):
        tags = Detector(stream.geometry).process(stream)
        assert len(tags) == len(stream)
        assert np.array_equal(tags.t, stream.t)
        assert np.array_equal(tags.x, stream.x)


def test_ring_config_validation():
    with pytest.raises(InvalidParameter):
        ArcRingConfig(max_angle_deg=0)
    with pytest.raises(InvalidParameter):
        EHarrisConfig(window_us=0)
    with pytest.raises(InvalidParameter):
        EHarrisConfig(threshold_tr=math.nan)


def test_ring_last_fire_updates():
    g = SensorGeometry(8, 8)
    det = FastDetector(g)
    det.process(make_stream(g, [(500, 1, 1)]))
    assert det.last_fire.reshape(8, 8)[1, 1] == 500
    det.process(make_stream(g, [(900, 1, 1, 0)]))
    assert det.last_fire.reshape(8, 8)[1, 1] == 900
    assert np.count_nonzero(det.last_fire) == 1  # 0: never fired


def test_ring_last_fire_equals_per_pixel_max_over_stream():
    rng = np.random.default_rng(2)
    g = SensorGeometry(10, 10)
    ref = np.zeros((10, 10), dtype=np.uint64)
    events = []
    t = 1
    for _ in range(500):
        x = int(rng.integers(0, 10))
        y = int(rng.integers(0, 10))
        events.append((t, x, y))
        ref[y, x] = max(ref[y, x], t)
        t += int(rng.integers(0, 3))
    for Detector in (FastDetector, ArcDetector):
        det = Detector(g)
        process_chunked(det, make_stream(g, events))
        assert np.array_equal(det.last_fire.reshape(10, 10), ref)


def test_eharris_window_boundary():
    # a neighbour fired exactly window_us before the event is set in the
    # binary image; one fired window_us + 1 before is not, like a pixel
    # that never fired
    g = SensorGeometry(16, 16)
    cfg = EHarrisConfig(window_us=10_000)
    lone = np.zeros((16, 16))
    lone[8, 8] = 255.0
    pair = lone.copy()
    pair[7, 8] = 255.0
    want = {img: harris_response_map(a, cfg.harris)[8, 8]
            for img, a in (("lone", lone), ("pair", pair))}
    assert want["lone"] != want["pair"]
    for age, img in ((10_000, "pair"), (10_001, "lone")):
        det = EHarrisDetector(g, cfg)
        tags = det.process(make_stream(g, [(1000, 8, 7), (1000 + age, 8, 8)]))
        assert det.last_fire[7, 8] == 1000 and det.last_fire[8, 8] == 1000 + age
        assert det.last_fire[0, 0] == -1  # never fired
        assert math.isclose(tags.score[1], want[img], rel_tol=1e-9, abs_tol=1e-9)


# --- eharris ---------------------------------------------------------------

def test_eharris_isolated_event_not_corner_at_corner_threshold():
    # a lone event makes a single bright dot; its response sits orders of
    # magnitude below real corner responses, so any threshold calibrated on
    # corners rejects it
    g = SensorGeometry(64, 64)
    iso = make_stream(g, [(1000, 32, 32), (2000, 10, 10)])
    iso_scores = EHarrisDetector(g).process(iso).score
    stream, apex = moving_corner_stream(g)
    apex_med = float(np.median(EHarrisDetector(g).process(stream).score[apex]))
    thr = 0.5 * apex_med
    assert (iso_scores < thr).all()
    assert iso_scores.max() < 0.01 * apex_med


def test_eharris_l_corner_apex_tagged_at_suitable_threshold():
    g = SensorGeometry(64, 64)
    stream, apex = moving_corner_stream(g)
    det = EHarrisDetector(g)
    tags = det.process(stream)
    apex_scores = tags.score[apex]
    thr = 0.5 * float(np.median(apex_scores))
    assert thr > 0
    assert (apex_scores > thr).mean() >= 0.9


def test_eharris_slow_replay_degrades():
    g = SensorGeometry(64, 64)
    stream, apex = moving_corner_stream(g)
    tags = EHarrisDetector(g).process(stream)
    thr = 0.5 * float(np.median(tags.score[apex]))
    hits_fast = int((tags.score[apex] > thr).sum())
    slow = EventStream(g, stream.t * np.uint64(100), stream.x, stream.y, stream.p)
    tags_slow = EHarrisDetector(g).process(slow)
    hits_slow = int((tags_slow.score[apex] > thr).sum())
    assert hits_slow < hits_fast


def test_eharris_infinite_window_matches_full_image_harris(geometry):
    rng = np.random.default_rng(31)
    events = [(i + 1, int(rng.integers(0, 64)), int(rng.integers(0, 64)))
              for i in range(400)]
    first = make_stream(geometry, events)
    # replay the same pixels later: the accumulated binary image is static
    replay = make_stream(geometry, [(t + 10_000, x, y) for t, x, y in events])
    cfg = EHarrisConfig(window_us=1 << 40)
    det = EHarrisDetector(geometry, cfg)
    det.process(first)
    tags = det.process(replay)
    img = (det.last_fire >= 0) * 255.0
    full = harris_response_map(img, cfg.harris)
    want = full[replay.y, replay.x]
    rel = np.abs(tags.score - want) / np.maximum(1.0, np.abs(want))
    assert rel.max() <= 1e-9


# --- decision parameter sweep ------------------------------------------------

def test_sweep_nesting_two_extremes(geometry):
    stream = random_stream(geometry, 3000, seed=41)
    for det in (FastDetector(geometry), ArcDetector(geometry), EHarrisDetector(geometry)):
        sweep = decision_parameter_sweep(det, stream, n_points=2)
        assert len(sweep) == 2
        strict = sweep[0][1].is_corner
        loose = sweep[-1][1].is_corner
        assert not np.any(strict & ~loose)  # strict tags nest inside loose


def test_sweep_recall_monotone_in_threshold(geometry):
    stream = random_stream(geometry, 3000, seed=43)
    det = EHarrisDetector(geometry)
    sweep = decision_parameter_sweep(det, stream, n_points=12)
    params = [p for p, _ in sweep]
    assert all(a >= b for a, b in zip(params, params[1:]))  # loosening
    counts = [t.corner_count() for _, t in sweep]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_arc_sweep_angles_strict_to_loose(geometry):
    stream = random_stream(geometry, 3000, seed=47)
    det = ArcDetector(geometry)
    sweep = decision_parameter_sweep(det, stream, n_points=50)
    params = [p for p, _ in sweep]
    assert params[0] == pytest.approx(67.5)
    assert params[-1] == pytest.approx(180.0)
    assert all(a < b for a, b in zip(params, params[1:]))
    counts = [t.corner_count() for _, t in sweep]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_sweep_rejects_bad_n_points(geometry):
    with pytest.raises(InvalidParameter):
        decision_parameter_sweep(FastDetector(geometry), random_stream(geometry, 10), 1)


class _RecordingDetector:
    """Keeps every chunk it is handed and scores each event by its
    timestamp, so the returned tags show their order."""

    def __init__(self):
        self.calls = []

    def process(self, chunk):
        self.calls.append(chunk)
        return Tags.for_stream(chunk, np.zeros(len(chunk), bool), chunk.t.astype(float))


def _stream_at(g, t, seed=0):
    rng = np.random.default_rng(seed)
    n = len(t)
    return EventStream.from_arrays(g, t, rng.integers(0, g.width, n),
                                   rng.integers(0, g.height, n), np.ones(n))


def _assert_one_tag_per_event_in_order(tags, stream):
    assert len(tags) == len(stream)
    assert np.array_equal(tags.t, stream.t) and np.array_equal(tags.score, stream.t)
    assert np.array_equal(tags.x, stream.x) and np.array_equal(tags.y, stream.y)


def test_process_chunked_splits_a_dense_window_into_bounded_calls():
    g = SensorGeometry(16, 16)
    n = 2 * MAX_CALL_EVENTS + 100
    t = np.sort(np.random.default_rng(1).integers(0, WINDOW_US, n))
    t[0] = 0
    stream = _stream_at(g, t)
    det = _RecordingDetector()
    tags = process_chunked(det, stream)
    assert [len(c) for c in det.calls] == [MAX_CALL_EVENTS, MAX_CALL_EVENTS, 100]
    _assert_one_tag_per_event_in_order(tags, stream)


def test_process_chunked_puts_window_edges_in_the_later_window():
    g = SensorGeometry(16, 16)
    w = WINDOW_US
    t = np.array([100, 100 + w - 1, 100 + w, 100 + 2 * w, 100 + 2 * w, 100 + 5 * w])
    stream = _stream_at(g, t)
    det = _RecordingDetector()
    tags = process_chunked(det, stream)
    assert [c.t.tolist() for c in det.calls] == [
        [100, 100 + w - 1], [100 + w], [100 + 2 * w, 100 + 2 * w], [100 + 5 * w]]
    _assert_one_tag_per_event_in_order(tags, stream)


def test_process_chunked_empty_stream_gives_empty_tags():
    det = _RecordingDetector()
    tags = process_chunked(det, EventStream.empty(SensorGeometry(16, 16)))
    assert len(tags) == 0 and det.calls == []


def test_process_chunked_tags_every_event_in_order():
    stream = random_stream(SensorGeometry(32, 32), 20_000, duration_us=250_000, seed=4)
    det = _RecordingDetector()
    tags = process_chunked(det, stream)
    assert len(det.calls) > 20
    _assert_one_tag_per_event_in_order(tags, stream)
