import numpy as np
import pytest

from evcorner import (EventStream, FilterConfig, InvalidParameter, SensorGeometry,
                      refractory_filter, sp_filter)
from evcorner.synth import random_stream

from conftest import make_stream
from oracles import brute_refractory, brute_sp, loop_refractory, loop_sp


def test_refractory_keep_drop_keep(geometry):
    s = make_stream(geometry, [(0, 5, 5), (3000, 5, 5), (11000, 5, 5)])
    out = refractory_filter(s, 5000)
    assert [e.t for e in out] == [0, 11000]


def test_refractory_zero_period_is_identity(geometry):
    s = random_stream(geometry, 500, seed=1)
    out = refractory_filter(s, 0)
    assert out is s


def test_refractory_measures_against_last_retained(geometry):
    # 0 keep, 4000 drop, 8000 drop (8000 - 0 > 5000? no: vs retained 0 -> 8000-0=8000 > 5000 keep)
    s = make_stream(geometry, [(0, 1, 1), (4000, 1, 1), (8000, 1, 1)])
    out = refractory_filter(s, 5000)
    assert [e.t for e in out] == [0, 8000]


def test_refractory_matches_brute_force():
    g = SensorGeometry(48, 48)
    s = random_stream(g, 10_000, duration_us=400_000, seed=7)
    out = refractory_filter(s, 5000)
    keep = brute_refractory(s, 5000)
    assert np.array_equal(out.t, s.t[keep])
    assert np.array_equal(out.x, s.x[keep])


def test_refractory_idempotent():
    g = SensorGeometry(32, 32)
    s = random_stream(g, 5000, duration_us=200_000, seed=9)
    once = refractory_filter(s, 5000)
    twice = refractory_filter(once, 5000)
    assert np.array_equal(once.t, twice.t) and np.array_equal(once.x, twice.x)


def test_sp_lone_event_dropped(geometry):
    s = make_stream(geometry, [(1000, 10, 10)])
    assert len(sp_filter(s, 10_000, 1)) == 0


def test_sp_adjacent_pair_second_kept(geometry):
    s = make_stream(geometry, [(1000, 10, 10), (1100, 11, 10)])
    out = sp_filter(s, 10_000, 1)
    assert [e.t for e in out] == [1100]


def test_sp_far_apart_in_time_dropped(geometry):
    s = make_stream(geometry, [(1000, 10, 10), (50_000, 11, 10)])
    assert len(sp_filter(s, 10_000, 1)) == 0


def test_sp_matches_brute_force():
    g = SensorGeometry(48, 48)
    s = random_stream(g, 10_000, duration_us=300_000, seed=13)
    out = sp_filter(s, 10_000, 1)
    keep = brute_sp(s, 10_000, 1)
    assert np.array_equal(out.t, s.t[keep])
    assert np.array_equal(out.x, s.x[keep])


def test_sp_idempotent_on_all_noise_fixture(geometry):
    # widely separated events: everything is dropped, and an empty stream
    # is a fixed point
    events = [(100_000 * i + 1, (7 * i) % 60, (11 * i) % 60) for i in range(20)]
    s = make_stream(geometry, events)
    once = sp_filter(s, 10_000, 1)
    assert len(once) == 0
    twice = sp_filter(once, 10_000, 1)
    assert len(twice) == 0


def test_sp_second_pass_only_sheds_leading_support(geometry):
    # raw-event support means a cluster's opener is dropped while its
    # followers stay; re-filtering can therefore shed the new opener but
    # never add events
    events = [(1000 + 10 * i, 20 + (i % 2), 20) for i in range(50)]
    s = make_stream(geometry, events)
    once = sp_filter(s, 10_000, 1)
    twice = sp_filter(once, 10_000, 1)
    assert len(once) == 49
    assert len(twice) == 48
    assert np.array_equal(twice.t, once.t[1:])


def test_filters_output_subset_in_order():
    g = SensorGeometry(32, 32)
    s = random_stream(g, 3000, duration_us=100_000, seed=17)
    for out in (refractory_filter(s, 2000), sp_filter(s, 5000, 1)):
        assert len(out) <= len(s)
        assert np.all(np.diff(out.t.astype(np.int64)) >= 0)
        seen = set(zip(s.t.tolist(), s.x.tolist(), s.y.tolist()))
        assert all((int(t), int(x), int(y)) in seen
                   for t, x, y in zip(out.t, out.x, out.y))


def test_filter_config_validation():
    with pytest.raises(InvalidParameter):
        FilterConfig(refractory_us=-1)
    with pytest.raises(InvalidParameter):
        refractory_filter(random_stream(SensorGeometry(8, 8), 10), -5)


def _edge_stream(w, h, n, seed, span_us, validate=True):
    """Random events with many equal timestamps, a hot pixel and events on
    all four borders."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, span_us, n))
    x = rng.integers(0, w, n)
    y = rng.integers(0, h, n)
    x[0::9], x[1::9], y[2::9], y[3::9] = 0, w - 1, 0, h - 1
    x[4::9], y[4::9] = w // 2, h // 2
    if not validate:
        t = rng.permutation(t)
    return EventStream.from_arrays(SensorGeometry(w, h), t, x, y, np.ones(n, np.uint8),
                                   validate=validate)


EDGE_GEOMETRIES = [(1, 1), (1, 9), (9, 1), (7, 5), (20, 15)]


@pytest.mark.parametrize("w,h", EDGE_GEOMETRIES)
@pytest.mark.parametrize("nb", [0, 1, 2])
@pytest.mark.parametrize("window", [0, 1, 30_000])
def test_sp_matches_loop_and_brute_force_at_edges(w, h, nb, window):
    s = _edge_stream(w, h, 400, seed=w * 100 + h, span_us=20_000)
    keep = loop_sp(s, window, nb)
    assert np.array_equal(keep, brute_sp(s, window, nb))
    out = sp_filter(s, window, nb)
    assert np.array_equal(out.t, s.t[keep]) and np.array_equal(out.x, s.x[keep])
    assert np.array_equal(out.y, s.y[keep])


@pytest.mark.parametrize("w,h", EDGE_GEOMETRIES)
@pytest.mark.parametrize("nb", [0, 1, 2])
def test_sp_follows_index_order_on_unvalidated_stream(w, h, nb):
    # t is not monotone: "prior" means earlier in the stream, not in time
    s = _edge_stream(w, h, 400, seed=w + h, span_us=50_000, validate=False)
    for window in (0, 1, 5_000, 30_000):
        keep = loop_sp(s, window, nb)
        out = sp_filter(s, window, nb)
        assert np.array_equal(out.t, s.t[keep]) and np.array_equal(out.x, s.x[keep])


@pytest.mark.parametrize("w,h", EDGE_GEOMETRIES)
@pytest.mark.parametrize("period", [1, 700, 5_000, 2**62])
def test_refractory_matches_loop_and_brute_force_with_hot_pixel(w, h, period):
    s = _edge_stream(w, h, 600, seed=w * 7 + h, span_us=40_000)
    keep = loop_refractory(s, period)
    assert np.array_equal(keep, brute_refractory(s, period))
    out = refractory_filter(s, period)
    assert np.array_equal(out.t, s.t[keep]) and np.array_equal(out.x, s.x[keep])
    assert np.array_equal(out.y, s.y[keep])


@pytest.mark.parametrize("w,h", EDGE_GEOMETRIES)
def test_refractory_follows_index_order_on_unvalidated_stream(w, h):
    s = _edge_stream(w, h, 600, seed=w * 3 + h, span_us=50_000, validate=False)
    for period in (1, 700, 5_000):
        keep = loop_refractory(s, period)
        out = refractory_filter(s, period)
        assert np.array_equal(out.t, s.t[keep]) and np.array_equal(out.x, s.x[keep])


def test_refractory_long_hot_pixel_chain():
    # one pixel fires every 100 us for 20k events: a chain of 4k retained
    # events takes the doubling through twelve steps
    n = 20_000
    s = EventStream.from_arrays(SensorGeometry(4, 4), np.arange(n) * 100,
                                np.full(n, 2), np.full(n, 1), np.ones(n, np.uint8))
    out = refractory_filter(s, 450)
    assert np.array_equal(out.t, s.t[::5])
    # a period past 64 bits keeps only the first event
    assert np.array_equal(refractory_filter(s, 2**70).t, s.t[:1])


def test_filters_are_exact_near_64_bit_timestamps():
    # the same events shifted to end just below 2**64 keep the same mask
    s = _edge_stream(7, 5, 400, seed=3, span_us=3_000)
    high = EventStream.from_arrays(s.geometry, s.t + np.uint64(2**64 - 3_000), s.x, s.y, s.p)
    for period in (1, 40, 2**70):
        keep = loop_refractory(s, min(period, 2**62))
        assert np.array_equal(refractory_filter(high, period).t, high.t[keep])
    for window in (0, 25, 2**70):
        keep = loop_sp(s, min(window, 2**62), 1)
        assert np.array_equal(sp_filter(high, window, 1).t, high.t[keep])
