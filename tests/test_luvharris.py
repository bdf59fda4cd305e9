import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from evcorner import (
    EventStream,
    GeometryViolation,
    HarrisLut,
    HarrisParams,
    ImageTooSmall,
    LuvHarrisConfig,
    LuvHarrisDetector,
    SensorGeometry,
    TosSurface,
    harris_response_map,
    regenerate_lut,
)
from evcorner import luvharris
from evcorner.harris import STRIP_PIXELS, TILE, _RectResponse, dirty_tiles, strip_rows, tile_grid
from evcorner.luvharris import HELPER_NAME, WORKER_NAME
from evcorner.synth import moving_corner_stream, random_stream, wedge_stream

from conftest import luvharris_run
from oracles import (
    FreshLutDetector,
    IdealHarrisOracle,
    WindowedTos,
    lut_scores,
    naive_tos_apply,
    naive_tos_new,
)


def _lut(scores, generated_at, generation_index):
    """A LUT of the full-frame ``scores``, cut into the frame's strips."""
    rows = strip_rows(scores.shape)
    return HarrisLut(tuple(scores[y : y + rows] for y in range(0, len(scores), rows)),
                     generated_at, generation_index)


def _read(lut, events, threshold_tr):
    """Tag (t, x, y) events by one ``process`` call of a detector holding
    ``lut``, on a stream of the LUT's size."""
    h, w = lut_scores(lut).shape
    t, x, y = (np.array(c) for c in zip(*events))
    stream = EventStream.from_arrays(SensorGeometry(w, h), t, x, y, np.ones(len(t)))
    # 3x3 kernels fit the regeneration that follows the read into 8x8
    det = LuvHarrisDetector(stream.geometry, LuvHarrisConfig(
        threshold_tr=threshold_tr, harris=HarrisParams(block_size=3, sobel_aperture=3)))
    det.lut = lut
    tags = det.process(stream)
    return tags.is_corner, tags.score


def test_classify_cold_start_not_corner():
    lut = _lut(np.zeros((8, 8)), 0, 0)
    is_corner, score = _read(lut, [(1, 3, 4)], 0.01)
    assert is_corner.tolist() == [False] and score.tolist() == [0.0]


def test_classify_reads_lut_cell():
    scores = np.zeros((8, 8))
    scores[4, 3] = 5.0
    lut = _lut(scores, 10, 1)
    is_corner, score = _read(lut, [(11, 3, 4)], 1.0)
    assert is_corner.tolist() == [True] and score.tolist() == [5.0]
    # an event outside the LUT's frame cannot reach the read
    with pytest.raises(GeometryViolation):
        EventStream.from_arrays(SensorGeometry(8, 8), [1], [8], [0], [1])


def test_classify_threshold_sweep_monotone():
    rng = np.random.default_rng(0)
    lut = _lut(rng.normal(0, 1, (16, 16)), 0, 1)
    events = [(i, int(rng.integers(0, 16)), int(rng.integers(0, 16))) for i in range(200)]
    counts = []
    for thr in np.linspace(-2, 2, 9):
        counts.append(int(_read(lut, events, thr)[0].sum()))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_lut_reads_strip_by_strip_equal_full_frame_reads():
    # 1300x100 is four strips (three of 32 rows, one of 4)
    rng = np.random.default_rng(3)
    scores = rng.normal(0, 1, (100, 1300))
    lut = _lut(scores, 0, 1)
    assert [len(s) for s in lut.strips] == [32, 32, 32, 4]
    assert np.array_equal(lut_scores(lut), scores)
    spread = [(i, int(rng.integers(0, 1300)), int(rng.integers(0, 100))) for i in range(300)]
    one_strip = [(i, x, y % 32 + 64) for i, x, y in spread]
    for events in (spread, one_strip, spread[:1]):
        _, y = _read(lut, events, 0.0)
        want = scores[[e[2] for e in events], [e[1] for e in events]]
        assert np.array_equal(y, want)
    blank = HarrisLut.blank((100, 1300))
    assert lut_scores(blank).shape == (100, 1300) and not lut_scores(blank).any()
    assert [len(s) for s in blank.strips] == [32, 32, 32, 4]


def test_one_tile_generation_copies_one_strip_and_shares_the_rest():
    g = SensorGeometry(1280, 720)
    cfg = LuvHarrisConfig()
    tos = TosSurface(g, cfg.k_tos, cfg.effective_t_tos())
    stream = random_stream(g, 5000, seed=9)
    tos.update_many(stream.x, stream.y)
    first = regenerate_lut(tos.raw, cfg.harris, 1, HarrisLut.blank(tos.raw.shape),
                           np.ones(tile_grid(tos.raw.shape), bool), tos.t_tos)
    # an event in the middle of tile (9, 18)
    tos.update_many([592], [304])
    dirty = dirty_tiles([592], [304], tos.raw.shape, cfg.dirty_radius())
    assert dirty.sum() == 1
    tracemalloc.start()
    try:
        nxt = regenerate_lut(tos.raw, cfg.harris, 2, first, dirty, tos.t_tos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = strip_rows(tos.raw.shape)
    strip_bytes = rows * 1280 * 8
    # the full frame is 7.4 MB; the one copied strip is a small share of it
    assert peak < 2 * strip_bytes
    assert nxt.pixels_regenerated == 32 * 32
    shared = [a is b for a, b in zip(nxt.strips, first.strips)]
    assert shared == [k != 304 // rows for k in range(-(-720 // rows))]
    assert not any(s.flags.writeable for s in nxt.strips)
    assert np.array_equal(lut_scores(nxt), harris_response_map(tos.grid, cfg.harris))


def test_regenerate_blank_and_deterministic():
    g = SensorGeometry(32, 32)
    tos = TosSurface(g)
    p = HarrisParams()
    every = np.ones(tile_grid(tos.grid.shape), bool)
    lut1 = regenerate_lut(tos.grid, p, 100, HarrisLut.blank(tos.grid.shape), every, 0)
    assert not lut_scores(lut1).any()
    assert lut1.generation_index == 1 and lut1.generated_at == 100
    tos.update_many([5, 6, 7], [5, 5, 5])
    lut2 = regenerate_lut(tos.grid, p, 200, lut1, every, 0)
    lut3 = regenerate_lut(tos.grid, p, 200, lut2, every, 0)
    assert np.array_equal(lut_scores(lut2), lut_scores(lut3))
    assert lut3.generation_index == 3


def test_regenerate_wedge_apex_beats_edges(geometry):
    # large wedge so mid-edge probes sit a full kernel reach away from both
    # the apex and the wedge rim
    stream, probes = wedge_stream(geometry, 32, 32, 90, radius=14)
    tos = TosSurface(geometry)
    tos.update_many(stream.x, stream.y)
    lut = regenerate_lut(tos.grid, HarrisParams(), int(stream.t[-1]),
                         HarrisLut.blank(tos.grid.shape), np.ones(tile_grid(tos.grid.shape), bool), 0)
    scores = lut_scores(lut)
    apex = scores[32, 32]
    assert apex > scores[32, 39] and apex > scores[39, 32]
    assert apex > 0


def test_empty_stream():
    g = SensorGeometry(16, 16)
    tags, stats = luvharris_run(EventStream.empty(g), LuvHarrisConfig())
    assert len(tags) == 0
    assert stats.events_processed == 0 and stats.lut_generations == 0


def test_per_event_regeneration_matches_ideal_oracle():
    g = SensorGeometry(48, 48)
    cfg = LuvHarrisConfig(threshold_tr=1e9)
    stream = random_stream(g, 600, seed=21)
    det = FreshLutDetector(g, cfg, 1)
    tags, stats = det.process(stream), det.stats
    want_c, want_s = IdealHarrisOracle(g, cfg).classify(stream)
    assert np.array_equal(tags.is_corner, want_c)
    rel = np.abs(tags.score - want_s) / np.maximum(1.0, np.abs(want_s))
    assert rel.max() <= 1e-9
    assert stats.lut_generations == len(stream)


def test_fixed_batch_schedule_is_deterministic():
    g = SensorGeometry(32, 32)
    cfg = LuvHarrisConfig(threshold_tr=1e8)
    stream = random_stream(g, 3000, seed=4)
    a = FreshLutDetector(g, cfg, 64).process(stream)
    b = FreshLutDetector(g, cfg, 64).process(stream)
    assert np.array_equal(a.is_corner, b.is_corner)
    assert np.array_equal(a.score, b.score)


def test_event_conservation_both_modes():
    g = SensorGeometry(48, 48)
    stream = random_stream(g, 5000, seed=8)
    for mode in ("alternating", "dual_thread"):
        cfg = LuvHarrisConfig(threshold_tr=1e9, mode=mode)
        tags, stats = luvharris_run(stream, cfg)
        assert len(tags) == len(stream)
        assert np.array_equal(tags.t, stream.t)
        assert np.array_equal(tags.x, stream.x)
        assert stats.events_processed == len(stream)


def test_alternating_tags_each_call_from_the_lut_before_it():
    g = SensorGeometry(40, 30)
    rng = np.random.default_rng(17)
    stream = random_stream(g, 3000, seed=17)
    det = LuvHarrisDetector(g, LuvHarrisConfig(threshold_tr=1e8))
    cuts = np.sort(rng.choice(np.arange(1, len(stream)), 40, replace=False))
    cuts[5] = cuts[4]  # one empty call in the middle
    for i0, i1 in zip(np.r_[0, cuts], np.r_[cuts, len(stream)]):
        part = stream.slice(int(i0), int(i1))
        prev = det.lut
        tags = det.process(part)
        assert np.array_equal(tags.score, lut_scores(prev)[part.y, part.x])
        assert np.array_equal(tags.is_corner, tags.score > 1e8)
        assert det.lut.generation_index == prev.generation_index + (len(part) > 0)
    assert det.stats.lut_generations == det.lut.generation_index == 40


def test_staleness_degrades_monotonically_on_average():
    g = SensorGeometry(64, 64)
    cfg = LuvHarrisConfig(threshold_tr=1e11)
    disagreements = []
    for batch in (1, 64, 2048):
        rate = 0.0
        for seed in (1, 2, 3):
            stream, _ = moving_corner_stream(g, seed=seed, step_us=500 + seed)
            tags = FreshLutDetector(g, cfg, batch).process(stream)
            oracle_c, _ = IdealHarrisOracle(g, cfg).classify(stream)
            rate += float(np.mean(tags.is_corner != oracle_c))
        disagreements.append(rate / 3)
    assert disagreements[0] == 0.0
    assert disagreements[2] >= disagreements[1] >= disagreements[0]


def test_phase1_work_bound_per_event():
    g_small = SensorGeometry(128, 128)
    g_large = SensorGeometry(640, 480)
    stream = random_stream(SensorGeometry(120, 120), 2000, seed=3)
    d1 = LuvHarrisDetector(g_small, LuvHarrisConfig())
    d2 = LuvHarrisDetector(g_large, LuvHarrisConfig())
    s1 = EventStream(g_small, stream.t, stream.x, stream.y, stream.p)
    s2 = EventStream(g_large, stream.t, stream.x, stream.y, stream.p)
    d1.process(s1)
    d2.process(s2)
    # no window reaches the small frame's edge: the shared region is equal
    assert np.array_equal(d1.tos.grid, d2.tos.grid[:128, :128])


def test_dual_thread_luts_are_event_consistent():
    # strictly increasing t: a LUT's generated_at names the stream prefix
    # its snapshot was taken after, which must end on a chunk boundary
    g = SensorGeometry(24, 24)
    cfg = LuvHarrisConfig(mode="dual_thread", threshold_tr=1e9)
    n, chunk = 4000, 512
    rnd = random_stream(g, n, seed=13)
    stream = EventStream.from_arrays(g, np.arange(1, n + 1), rnd.x, rnd.y, rnd.p)
    pipe = LuvHarrisDetector(g, cfg)
    seen = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads finely
    try:
        for part in stream.chunks(chunk):
            pipe.process(part)
            seen[pipe.lut.generation_index] = pipe.lut
            # let the worker catch up, so every chunk end is checked
            deadline = time.monotonic() + 10
            while pipe.lut.generated_at != part.t[-1] and time.monotonic() < deadline:
                time.sleep(0.001)
            seen[pipe.lut.generation_index] = pipe.lut
    finally:
        pipe.close()
        sys.setswitchinterval(interval)
    seen.pop(0, None)  # the cold-start LUT was never generated
    assert {lut.generated_at for lut in seen.values()} >= set(range(chunk, n, chunk)) | {n}
    k, t_tos = cfg.k_tos, cfg.effective_t_tos()
    ref = naive_tos_new(24, 24)
    applied = 0
    for lut in sorted(seen.values(), key=lambda lut: lut.generated_at):
        prefix = int(lut.generated_at)
        assert prefix % chunk == 0 or prefix == n, f"prefix {prefix} splits a chunk"
        for i in range(applied, prefix):
            naive_tos_apply(ref, int(stream.x[i]), int(stream.y[i]), k, t_tos)
        applied = prefix
        assert np.array_equal(lut_scores(lut), harris_response_map(np.array(ref), cfg.harris)), (
            f"generation {lut.generation_index}: LUT after {prefix} events is torn"
        )


@pytest.mark.parametrize("mode", ["alternating", "dual_thread"])
def test_published_luts_stay_unchanged(mode):
    # four strips, most of them shared between generations: no later
    # generation may write into a table already published
    g = SensorGeometry(1300, 100)
    cfg = LuvHarrisConfig(mode=mode, threshold_tr=1e9)
    corner, _ = moving_corner_stream(g, start=(8, 8), n_steps=94)
    noise = random_stream(g, 2000, seed=23)
    x = np.r_[corner.x, noise.x, corner.x[::-1]]
    y = np.r_[corner.y, noise.y, corner.y[::-1]]
    stream = EventStream.from_arrays(g, np.arange(1, len(x) + 1), x, y, np.ones(len(x)))
    pipe = LuvHarrisDetector(g, cfg)
    seen = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for part in stream.chunks(97):
            pipe.process(part)
            lut = pipe.lut
            seen.setdefault(lut.generation_index, (lut, lut_scores(lut)))
            deadline = time.monotonic() + 10
            while pipe.lut.generated_at != part.t[-1] and time.monotonic() < deadline:
                time.sleep(0.001)
            lut = pipe.lut
            seen.setdefault(lut.generation_index, (lut, lut_scores(lut)))
    finally:
        pipe.close()
        sys.setswitchinterval(interval)
    assert len(seen) > 20
    for index, (lut, at_publication) in seen.items():
        assert np.array_equal(lut_scores(lut), at_publication), (
            f"generation {index} changed after it was published"
        )


def test_dual_thread_reraises_worker_failure():
    # 4x4 is smaller than the Sobel aperture: the worker's first
    # regeneration fails, and the caller must see it
    g = SensorGeometry(4, 4)
    stream = random_stream(g, 2000, seed=1)
    with pytest.raises(ImageTooSmall):
        luvharris_run(stream, LuvHarrisConfig(mode="dual_thread"))
    pipe = LuvHarrisDetector(g, LuvHarrisConfig(mode="dual_thread"))
    pipe.process(stream.slice(0, 1))  # starts the worker
    pipe._worker.join(timeout=10)
    assert not pipe._worker.is_alive()  # the worker has died
    with pytest.raises(ImageTooSmall):
        pipe.process(stream)
    pipe.close()  # the error was delivered once


def test_dual_thread_publishes_many_generations():
    g = SensorGeometry(32, 32)
    cfg = LuvHarrisConfig(mode="dual_thread", threshold_tr=1e9)
    stream = random_stream(g, 30_000, seed=2)
    tags, stats = luvharris_run(stream, cfg)
    assert stats.lut_generations > 1
    assert len(tags) == len(stream)


def test_stats_histogram_counts_all_events():
    g = SensorGeometry(32, 32)
    stream = random_stream(g, 2500, seed=5)
    det = FreshLutDetector(g, LuvHarrisConfig(), 128)
    det.process(stream)
    stats = det.stats
    assert int(stats.t_err_histogram.sum()) == len(stream)
    assert stats.max_batch_size == 128


def _border_stream(g, n, seed):
    """Events within two pixels of the frame's edges, the four corners
    included, in random order."""
    rng = np.random.default_rng(seed)
    w, h = g.width, g.height
    side = rng.integers(0, 4, n)
    along = rng.integers(0, max(w, h), n)
    depth = rng.integers(0, 3, n)
    x = np.where(side == 0, depth, np.where(side == 1, w - 1 - depth, along % w))
    y = np.where(side == 2, depth, np.where(side == 3, h - 1 - depth, along % h))
    x[:4], y[:4] = [0, w - 1, 0, w - 1], [0, 0, h - 1, h - 1]
    return EventStream.from_arrays(g, np.arange(1, n + 1), x, y, np.ones(n))


@pytest.mark.parametrize("width,height,k_tos,block,aperture", [
    (w, h, k, b, a) for w, h in [(1300, 100), (150, 140), (20, 13)] for k in [1, 3, 6]
    for b, a in [(3, 3), (7, 5), (9, 7)]
] + [(1280, 720, 3, 7, 5), (1280, 720, 3, 1, 3), (1280, 720, 3, 7, 11)])
def test_dirty_tile_luts_equal_full_map_of_naive_tos(width, height, k_tos, block, aperture):
    # 1300x100 is four one-tile-row strips, 150x140 one strip of many
    # tiles, both ending mid-tile; 20x13 is under one tile; 1280x720 ends
    # mid-tile at the bottom. Rectangles up to SMALL_RECT_TILES a side take
    # the small (matmul) form, except at block 7 with aperture 11, whose
    # block sums can pass 2**53 and so always take the strip form
    g = SensorGeometry(width, height)
    cfg = LuvHarrisConfig(k_tos=k_tos, threshold_tr=1e9,
                          harris=HarrisParams(block_size=block, sobel_aperture=aperture))
    rng = np.random.default_rng(width + 10 * k_tos + block)
    sparse, _ = moving_corner_stream(g, start=(8, 8), n_steps=min(width, height) - 6)
    streams = {
        "sparse": sparse,
        "dense": random_stream(g, 1500, seed=k_tos),
        "border": _border_stream(g, 400, seed=block),
    }
    for name, stream in streams.items():
        det = LuvHarrisDetector(g, cfg)
        ref = WindowedTos(width, height, k_tos, cfg.effective_t_tos())
        cuts = np.sort(rng.choice(np.arange(1, len(stream)), 25, replace=False))
        for i0, i1 in zip(np.r_[0, cuts], np.r_[cuts, len(stream)]):
            det.process(stream.slice(int(i0), int(i1)))
            for x, y in zip(stream.x[i0:i1].tolist(), stream.y[i0:i1].tolist()):
                ref.apply(x, y)
            assert np.array_equal(lut_scores(det.lut), harris_response_map(ref.grid, cfg.harris)), (
                f"{name}: LUT after {i1} events differs from the full-frame map"
            )


def test_dual_thread_dirty_tile_luts_equal_full_map_of_naive_tos():
    # 150x140 is one strip; 1300x100 is four, so the worker's LUTs share
    # the strips a generation leaves clean
    for width, height in ((150, 140), (1300, 100)):
        g = SensorGeometry(width, height)
        cfg = LuvHarrisConfig(mode="dual_thread", threshold_tr=1e9)
        stream, _ = moving_corner_stream(g, start=(8, 8), n_steps=min(width, height) - 6)
        ref = WindowedTos(width, height, cfg.k_tos, cfg.effective_t_tos())
        pipe = LuvHarrisDetector(g, cfg)
        try:
            for part in stream.chunks(97):
                pipe.process(part)
                for x, y in zip(part.x.tolist(), part.y.tolist()):
                    ref.apply(x, y)
                deadline = time.monotonic() + 10
                while pipe.lut.generated_at != part.t[-1] and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert np.array_equal(lut_scores(pipe.lut),
                                      harris_response_map(ref.grid, cfg.harris))
        finally:
            pipe.close()


def test_both_modes_start_clear_and_end_on_the_exact_map():
    # the cold-start LUT is already the exact map of the all-zero TOS, so a
    # dual_thread detector regenerates only the pixel box its first chunk
    # can change: the events +- dirty_radius, clipped to the frame
    g = SensorGeometry(100, 70)
    cfg = LuvHarrisConfig(threshold_tr=1e9)
    rng = np.random.default_rng(31)
    n = 40
    first = EventStream.from_arrays(g, np.arange(1, n + 1), rng.integers(85, 100, n),
                                    rng.integers(55, 70, n), np.ones(n))
    with LuvHarrisDetector(g, replace(cfg, mode="dual_thread")) as det:
        det.process(first)
    r = cfg.dirty_radius()
    area = ((min(int(first.y.max()) + r + 1, 70) - max(int(first.y.min()) - r, 0))
            * (min(int(first.x.max()) + r + 1, 100) - max(int(first.x.min()) - r, 0)))
    assert det.stats.pixels_regenerated == area < 100 * 70
    # fed the same chunks, both modes end on the full-frame map of the naive TOS
    stream = random_stream(g, 300, seed=32)
    ref = naive_tos_new(100, 70)
    for x, y in zip(stream.x.tolist(), stream.y.tolist()):
        naive_tos_apply(ref, x, y, cfg.k_tos, cfg.effective_t_tos())
    want = harris_response_map(np.array(ref), cfg.harris)
    for mode in ("alternating", "dual_thread"):
        with LuvHarrisDetector(g, replace(cfg, mode=mode)) as det:
            for part in stream.chunks(37):
                det.process(part)
        assert np.array_equal(lut_scores(det.lut), want), mode


def test_regenerated_pixels_follow_the_dirty_area():
    hd = SensorGeometry(1280, 720)
    stream, _ = moving_corner_stream(hd)
    _, stats = luvharris_run(stream, LuvHarrisConfig(threshold_tr=1e9))
    assert stats.lut_generations > 100
    assert stats.pixels_regenerated / stats.lut_generations < 0.05 * 1280 * 720
    g = SensorGeometry(240, 180)
    _, stats = luvharris_run(random_stream(g, 40_000, seed=6), LuvHarrisConfig(threshold_tr=1e9))
    assert stats.pixels_regenerated == stats.lut_generations * 240 * 180


def _settle(det, part):
    """Wait until ``det`` has published the LUT of everything up to ``part``."""
    deadline = time.monotonic() + 10
    while det.lut.generated_at != part.t[-1] and time.monotonic() < deadline:
        time.sleep(0.001)


def _events(g, t0, xs, ys):
    return EventStream.from_arrays(g, np.arange(t0, t0 + len(xs)), xs, ys, np.ones(len(xs)))


@pytest.mark.parametrize("mode", ["alternating", "dual_thread"])
def test_failed_generation_leaves_its_tiles_pending(mode, monkeypatch):
    # the failing chunk dirties only the top-left tiles and the next one
    # only the bottom-right: the LUT is exact again only if the failed
    # generation's tiles stayed pending
    g = SensorGeometry(128, 128)
    rng = np.random.default_rng(47)
    first = _events(g, 1, rng.integers(0, 128, 800), rng.integers(0, 128, 800))
    failing = _events(g, 1000, rng.integers(0, 24, 300), rng.integers(0, 24, 300))
    after = _events(g, 2000, rng.integers(104, 128, 300), rng.integers(104, 128, 300))
    real, calls = luvharris.regenerate_lut, []

    def fail_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(luvharris, "regenerate_lut", fail_second)
    with LuvHarrisDetector(g, LuvHarrisConfig(mode=mode, threshold_tr=1e9)) as det:
        det.process(first)
        _settle(det, first)
        if mode == "alternating":
            with pytest.raises(RuntimeError, match="injected"):
                det.process(failing)
        else:
            det.process(failing)
            det._worker.join(timeout=10)
            assert not det._worker.is_alive()
            with pytest.raises(RuntimeError, match="injected"):
                det.process(after)  # raised before the chunk is taken
        det.process(after)
        _settle(det, after)
        assert np.array_equal(lut_scores(det.lut), harris_response_map(det.tos.grid))


def test_close_regenerates_what_a_failed_worker_left_pending(monkeypatch):
    # the worker dies on the second generation; close must still leave the
    # LUT exact, regenerating on the calling thread, and then raise
    g = SensorGeometry(128, 128)
    rng = np.random.default_rng(61)
    first = _events(g, 1, rng.integers(0, 128, 800), rng.integers(0, 128, 800))
    failing = _events(g, 1000, rng.integers(0, 24, 300), rng.integers(0, 24, 300))
    real, calls = luvharris.regenerate_lut, []

    def fail_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(luvharris, "regenerate_lut", fail_second)
    det = LuvHarrisDetector(g, LuvHarrisConfig(mode="dual_thread", threshold_tr=1e9))
    det.process(first)
    _settle(det, first)
    det.process(failing)
    det._worker.join(timeout=10)
    assert not det._worker.is_alive()
    with pytest.raises(RuntimeError, match="injected"):
        det.close()
    assert np.array_equal(lut_scores(det.lut), harris_response_map(det.tos.grid))
    det.close()  # the error was delivered once


@pytest.fixture
def kernel_calls(monkeypatch):
    """(thread name, y0, x0) of every rectangle the Harris kernel evaluates."""
    calls, call = [], _RectResponse.__call__

    def recorded(self, img, y0, y1, x0, x1):
        calls.append((threading.current_thread().name, y0, x0))
        return call(self, img, y0, y1, x0, x1)

    monkeypatch.setattr(_RectResponse, "__call__", recorded)
    return calls


def test_dual_thread_split_generations_equal_full_map_of_naive_tos(kernel_calls, monkeypatch):
    # each chunk dirties more than two strips' worth of a 640x480 frame,
    # so every generation splits; the banded chunk leaves the middle
    # columns clean, so each 64-row strip is two rectangles, one per thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    g = SensorGeometry(640, 480)
    cfg = LuvHarrisConfig(mode="dual_thread", threshold_tr=1e9)
    rng = np.random.default_rng(53)
    n = 1500
    band = rng.integers(0, 400, n)
    chunks = [_events(g, 1 + i * n, rng.integers(0, 640, n), rng.integers(0, 480, n))
              for i in range(3)]
    chunks.append(_events(g, 1 + 3 * n, np.where(band < 200, band, band + 240),
                          rng.integers(0, 480, n)))
    ref = WindowedTos(640, 480, cfg.k_tos, cfg.effective_t_tos())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the three threads finely
    try:
        with LuvHarrisDetector(g, cfg) as det:
            for i, part in enumerate(chunks):
                kernel_calls.clear()
                det.process(part)
                for x, y in zip(part.x.tolist(), part.y.tolist()):
                    ref.apply(x, y)
                _settle(det, part)
                generated = list(kernel_calls)  # before the map below adds its own
                assert det.lut.generation_index == i + 1
                assert det.lut.pixels_regenerated >= 2 * STRIP_PIXELS
                assert np.array_equal(lut_scores(det.lut),
                                      harris_response_map(ref.grid, cfg.harris))
    finally:
        sys.setswitchinterval(interval)
    first_strip = {(name, x0) for name, y0, x0 in generated if y0 == 0}
    assert first_strip == {(WORKER_NAME, 0), (HELPER_NAME, 13 * TILE)}


@pytest.mark.parametrize("case", ["240x180 full frame", "1280x720 sparse", "one CPU"])
def test_generations_predicted_serial_stay_on_the_calling_thread(case, kernel_calls, monkeypatch):
    (w, h), cpus = {"240x180 full frame": ((240, 180), {0, 1}),
                    "1280x720 sparse": ((1280, 720), {0, 1}),
                    "one CPU": ((640, 480), {0})}[case]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    tos = np.random.default_rng(59).integers(0, 256, (h, w))
    dirty = np.ones(tile_grid((h, w)), dtype=bool)
    if case == "1280x720 sparse":  # eight corners' worth of tiles, as live_hd_sparse
        dirty = dirty_tiles(np.arange(100, 1280, 150), np.arange(40, 720, 85), (h, w), 8)
    lut = regenerate_lut(tos, HarrisParams(), 1, HarrisLut.blank((h, w)), dirty, 12)
    assert 0 < lut.pixels_regenerated and len(kernel_calls) >= 2
    assert {name for name, _, _ in kernel_calls} == {threading.current_thread().name}


@pytest.mark.parametrize("half", ["caller", "helper"])
def test_split_generation_joins_its_helper_and_raises_either_failure(half, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    failing = HELPER_NAME if half == "helper" else threading.current_thread().name
    call = _RectResponse.__call__

    def fail_on_one_thread(self, img, *rect):
        if threading.current_thread().name == failing:
            raise RuntimeError(half)
        return call(self, img, *rect)

    monkeypatch.setattr(_RectResponse, "__call__", fail_on_one_thread)
    shape = (480, 640)
    with pytest.raises(RuntimeError, match=half):
        regenerate_lut(np.zeros(shape), HarrisParams(), 1, HarrisLut.blank(shape),
                       np.ones(tile_grid(shape), dtype=bool), 12)
    assert not [t for t in threading.enumerate() if t.name == HELPER_NAME]


def test_sparse_packets_regenerate_their_box_in_one_kernel_call(kernel_calls, monkeypatch):
    # one 15-event L-corner step per 1 ms packet, as live_hd_sparse: each
    # box (events +- dirty_radius, about 24 px a side) fits the small form,
    # so it is one kernel call and no dirty_tiles; a chunk spread over the
    # frame takes the tile path
    marked, real = [], dirty_tiles
    monkeypatch.setattr(luvharris, "dirty_tiles", lambda *a: marked.append(a) or real(*a))
    g = SensorGeometry(1280, 720)
    stream, _ = moving_corner_stream(g, start=(300, 20), n_steps=40)
    det = LuvHarrisDetector(g, LuvHarrisConfig(threshold_tr=1e9))
    for part in stream.chunks_by_time(1000):
        kernel_calls.clear()
        det.process(part)
        assert len(part) == 15 and len(kernel_calls) == 1 and not marked
        assert det.lut.pixels_regenerated <= luvharris.BOX_SIDE ** 2
    spread = _events(g, int(stream.t[-1]) + 1, [10, 1270], [10, 690])
    kernel_calls.clear()
    det.process(spread)
    assert len(marked) == 1 and len(kernel_calls) == 2
    assert np.array_equal(lut_scores(det.lut), harris_response_map(det.tos.grid))


def test_box_across_three_strips_equals_full_map(kernel_calls):
    # 1280 wide is 32-row strips; events at rows 28-75 give the box rows
    # 20-84, 64 rows from mid-strip 0 to mid-strip 2, regenerated as one
    # rectangle written into all three strips
    g = SensorGeometry(1280, 720)
    cfg = LuvHarrisConfig(threshold_tr=1e9)
    rng = np.random.default_rng(67)
    det = LuvHarrisDetector(g, cfg)
    det.process(_events(g, 1, rng.integers(0, 200, 2000), rng.integers(0, 150, 2000)))
    ys = np.r_[28, 75, rng.integers(28, 76, 60)]
    xs = np.r_[100, 147, rng.integers(100, 148, 60)]
    prev = det.lut
    kernel_calls.clear()
    det.process(_events(g, 5000, xs, ys))
    r = cfg.dirty_radius()
    assert (28 - r, 76 + r) == (20, 84) and len(kernel_calls) == 1
    assert det.lut.pixels_regenerated == 64 * 64
    shared = [a is b for a, b in zip(det.lut.strips, prev.strips)]
    assert shared == [k > 2 for k in range(len(shared))]
    assert np.array_equal(lut_scores(det.lut), harris_response_map(det.tos.grid, cfg.harris))


def test_dual_thread_backlog_boxes_end_on_the_exact_map():
    # packets alternate between two corners at opposite ends of the frame
    # and are fed without waiting: a backlog of one packet regenerates its
    # box, one of both corners outgrows the small form and takes the
    # tiles; a pending box lost between the threads leaves stale scores
    g = SensorGeometry(1280, 720)
    cfg = LuvHarrisConfig(mode="dual_thread", threshold_tr=1e9)
    a, _ = moving_corner_stream(g, start=(20, 20), n_steps=60)
    b, _ = moving_corner_stream(g, start=(1100, 600), n_steps=60)
    det = LuvHarrisDetector(g, cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(0, len(a), 15):
            part = _events(g, 1 + 2 * i, a.x[i : i + 15], a.y[i : i + 15])
            det.process(part)
            if i % 45 == 0:  # now and then the worker catches up
                _settle(det, part)
            det.process(_events(g, 16 + 2 * i, b.x[i : i + 15], b.y[i : i + 15]))
    finally:
        det.close()
        sys.setswitchinterval(interval)
    assert det.stats.lut_generations > 1
    assert np.array_equal(lut_scores(det.lut), harris_response_map(det.tos.grid, cfg.harris))
