import tracemalloc

import numpy as np
import pytest

from evcorner import (
    EventStream,
    GeometryViolation,
    InvalidParameter,
    SensorGeometry,
    TosSurface,
    tos_default_threshold,
)
from evcorner.synth import edge_sweep_stream

from oracles import naive_tos_apply, naive_tos_new


def test_default_threshold_values():
    assert tos_default_threshold(3) == 12
    assert tos_default_threshold(1) == 4
    assert tos_default_threshold(7) == 28
    with pytest.raises(InvalidParameter):
        tos_default_threshold(0)


def test_tos_blank_fire_leaves_neighbors_zero():
    surf = TosSurface(SensorGeometry(32, 32), k_tos=3)
    surf.update_many([10], [10])
    g = surf.grid
    assert g[10, 10] == 255
    g[10, 10] = 0
    assert not g.any()  # 0 - 1 falls below threshold -> snapped to 0


def test_tos_single_decrement_above_threshold():
    surf = TosSurface(SensorGeometry(32, 32), k_tos=3)  # t_tos = 12
    surf.update_many([9], [10])
    surf.update_many([10], [10])
    g = surf.grid
    assert g[10, 9] == 254  # decremented once, still >= 12
    assert g[10, 10] == 255


def test_tos_matches_naive_full_grid_reference():
    rng = np.random.default_rng(0)
    k, t_tos = 3, 12
    surf = TosSurface(SensorGeometry(32, 32), k, t_tos)
    ref = naive_tos_new(32, 32)
    for _ in range(300):
        x = int(rng.integers(0, 32))
        y = int(rng.integers(0, 32))
        surf.update_many([x], [y])
        naive_tos_apply(ref, x, y, k, t_tos)
    assert np.array_equal(surf.grid, np.array(ref))


@pytest.mark.parametrize("k,t_tos", [(1, 4), (3, 12), (3, 40), (5, 20)])
def test_tos_range_invariant_fuzz(k, t_tos):
    rng = np.random.default_rng(k * 100 + t_tos)
    surf = TosSurface(SensorGeometry(24, 20), k, t_tos)
    xs = rng.integers(0, 24, 2000)
    ys = rng.integers(0, 20, 2000)
    surf.update_many(xs, ys)
    g = surf.grid
    assert g.min() >= 0 and g.max() <= 255
    bad = (g > 0) & (g < t_tos)
    assert not bad.any()


@pytest.mark.parametrize("k,t_tos", [(1, 4), (3, 12), (3, 0)])
def test_tos_raw_floor_bounds_drift(k, t_tos):
    # a never-fired cell next to a hot pixel loses one per event; without a
    # floor it drifts until the int32 wraps and reads as a valid value
    rng = np.random.default_rng(k + t_tos)
    surf = TosSurface(SensorGeometry(16, 16), k, t_tos)
    surf.update_many(rng.integers(0, 16, 3000), rng.integers(0, 16, 3000))
    hot = np.full(TosSurface.FLOOR_INTERVAL, 8)
    surf.update_many(hot, hot)
    assert surf.raw.min() >= t_tos - 1
    g = surf.grid
    assert g[8, 8] == 255
    assert not ((g > 0) & (g < t_tos)).any()


def test_tos_floor_leaves_surface_unchanged():
    rng = np.random.default_rng(3)
    k, t_tos, interval = 3, 12, 5
    surf = TosSurface(SensorGeometry(20, 16), k, t_tos)
    surf.FLOOR_INTERVAL = interval
    ref = naive_tos_new(20, 16)
    for _ in range(300):
        x = int(rng.integers(0, 20))
        y = int(rng.integers(0, 16))
        surf.update_many([x], [y])
        naive_tos_apply(ref, x, y, k, t_tos)
        # raw starts at 0; each floor lifts it to t_tos - 1
        assert surf.raw.min() >= min(0, t_tos - 1) - interval
    assert np.array_equal(surf.grid, np.array(ref))


@pytest.mark.parametrize("small_limits", [False, True])
@pytest.mark.parametrize("default_t", [False, True])
@pytest.mark.parametrize("k", [1, 3, 6])
def test_tos_batch_splits_match_naive_reference(k, default_t, small_limits):
    w, h, n = 17, 13, 400
    t_tos = tos_default_threshold(k) if default_t else 0
    rng = np.random.default_rng(100 * k + t_tos + small_limits)
    xs = rng.integers(0, w, n)
    ys = rng.integers(0, h, n)
    xs[::9], ys[::9] = 3, 0  # hot pixel on the top border
    xs[1::23], xs[2::23] = 0, w - 1  # left and right borders
    ys[3::23], ys[4::23] = 0, h - 1  # top and bottom borders
    xs[6::17], ys[6::17] = xs[5::17], ys[5::17]  # back-to-back duplicates
    ref = naive_tos_new(w, h)
    for x, y in zip(xs, ys):
        naive_tos_apply(ref, int(x), int(y), k, t_tos)
    ref = np.array(ref)
    splits = [[]] + [np.sort(rng.choice(np.arange(1, n), size=m, replace=False)) for m in (3, 40, 200)]
    for cuts in splits:
        surf = TosSurface(SensorGeometry(w, h), k, t_tos)
        if small_limits:
            surf.FLOOR_INTERVAL = 7
            surf.SLICE = 16
        for bx, by in zip(np.split(xs, cuts), np.split(ys, cuts)):
            surf.update_many(bx, by)
        surf.update_many([], [])
        assert np.array_equal(surf.grid, ref), f"{len(cuts) + 1} calls"


def test_tos_long_call_memory_is_bounded_by_slice():
    g = SensorGeometry(640, 480)
    rng = np.random.default_rng(11)
    xs = rng.integers(0, 640, 200_000)
    ys = rng.integers(0, 480, 200_000)
    whole = TosSurface(g, k_tos=3)
    tracemalloc.start()
    try:
        whole.update_many(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unsliced call would hold a 200k x 49 int64 cell-index matrix (78 MB)
    assert peak < 8 << 20
    sliced = TosSurface(g, k_tos=3)
    for s in range(0, len(xs), TosSurface.SLICE):
        sliced.update_many(xs[s : s + TosSurface.SLICE], ys[s : s + TosSurface.SLICE])
    assert np.array_equal(whole.grid, sliced.grid)


def test_tos_speed_independence():
    g = SensorGeometry(40, 24)
    fast = edge_sweep_stream(g, duration_us=1_000)
    slow = edge_sweep_stream(g, duration_us=1_000_000)
    assert np.array_equal(fast.x, slow.x) and np.array_equal(fast.y, slow.y)
    s1 = TosSurface(g)
    s2 = TosSurface(g)
    s1.update_many(fast.x, fast.y)
    s2.update_many(slow.x, slow.y)
    assert np.array_equal(s1.grid, s2.grid)


def test_tos_edge_two_pixels_thick():
    # Each pixel crossing must supply enough repeat events that trailing
    # columns clear the threshold: reps = ceil((256 - t_tos) / (2*(2k+1))).
    g = SensorGeometry(48, 32)
    k, t_tos = 3, 12
    reps = int(np.ceil((256 - t_tos) / (2 * (2 * k + 1))))
    stream = edge_sweep_stream(g, events_per_pixel=reps)
    surf = TosSurface(g, k, t_tos)
    surf.update_many(stream.x, stream.y)
    grid = surf.grid
    last_col = int(stream.x[-1])
    interior = grid[k : 32 - k]
    for row in interior:
        nz = np.flatnonzero(row)
        outside = nz[nz != last_col]
        assert len(outside) <= 2


def test_tos_border_safety():
    surf = TosSurface(SensorGeometry(16, 12), k_tos=3)
    surf.update_many([0], [0])
    surf.update_many([15], [11])
    g = surf.grid
    assert g[0, 0] == 255 and g[11, 15] == 255
    # an out-of-frame event cannot reach the surface
    with pytest.raises(GeometryViolation):
        EventStream.from_arrays(SensorGeometry(16, 12), [1], [16], [0], [1])


def test_tos_rejects_bad_params():
    g = SensorGeometry(8, 8)
    with pytest.raises(InvalidParameter):
        TosSurface(g, k_tos=0)
    with pytest.raises(InvalidParameter):
        TosSurface(g, k_tos=3, t_tos=300)


def test_per_event_work_independent_of_image_size():
    rng = np.random.default_rng(9)
    xs = rng.integers(10, 100, 500)
    ys = rng.integers(10, 100, 500)
    small = TosSurface(SensorGeometry(128, 128), k_tos=3)
    large = TosSurface(SensorGeometry(640, 480), k_tos=3)
    small.update_many(xs, ys)
    large.update_many(xs, ys)
    # no window reaches the small frame's edge: the shared region is equal
    assert np.array_equal(small.grid, large.grid[:128, :128])
