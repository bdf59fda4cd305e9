"""Acceptance suite: one test per criterion, each printing a pass/fail line
in the terminal summary. Tolerances are pinned here, not configurable.

The heavy timing criteria (4, 5, 8) measure wall-clock behaviour on this
machine; they use seeded streams and median/min statistics to stay stable.
"""

import time

import numpy as np
import pytest

from evcorner import (
    ArcDetector,
    EHarrisDetector,
    FastDetector,
    HarrisParams,
    LuvHarrisConfig,
    LuvHarrisDetector,
    PatchEvaluator,
    SensorGeometry,
    TosSurface,
    binarize_scores,
    fit_throughput_model,
    harris_response_map,
    measure_throughput,
    paced_replay,
    pr_curve,
    refractory_filter,
    sp_filter,
)
from evcorner.events import Tags
from evcorner.synth import (
    burst_stream,
    double_edge_secondary_stream,
    edge_sweep_stream,
    random_stream,
    salt_pepper_stream,
    texture_stream,
    wedge_stream,
)

from conftest import make_stream, record_criterion
from oracles import (
    FreshLutDetector,
    IdealHarrisOracle,
    brute_refractory,
    brute_sp,
    naive_harris_map,
    naive_tos_apply,
    naive_tos_new,
)


def test_criterion_1_oracle_equivalence():
    g = SensorGeometry(128, 128)
    cfg = LuvHarrisConfig(threshold_tr=1e9)
    t0 = time.perf_counter()
    mismatches = 0
    worst_rel = 0.0
    for seed in range(20):
        stream = random_stream(g, 1000, duration_us=200_000, seed=100 + seed)
        tags = FreshLutDetector(g, cfg, 1).process(stream)
        want_c, want_s = IdealHarrisOracle(g, cfg).classify(stream)
        mismatches += int(np.count_nonzero(tags.is_corner != want_c))
        rel = np.abs(tags.score - want_s) / np.maximum(1.0, np.abs(want_s))
        worst_rel = max(worst_rel, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and worst_rel <= 1e-9 and elapsed < 120
    record_criterion(1, "per-event LUT regeneration matches ideal Harris-on-TOS oracle", ok)
    assert mismatches == 0
    assert worst_rel <= 1e-9
    assert elapsed < 120


def test_criterion_2_harris_kernel_equivalence():
    rng = np.random.default_rng(2024)
    p = HarrisParams()
    worst_patch = 0.0
    worst_sobel = 0.0
    for i in range(50):
        h = int(rng.integers(16, 65))
        w = int(rng.integers(16, 65))
        img = rng.integers(0, 256, (h, w)).astype(np.float64)
        m = harris_response_map(img, p)
        patch = PatchEvaluator(img.shape, p)
        for y in range(h):
            for x in range(w):
                v = patch.response(img, x, y)
                worst_patch = max(
                    worst_patch, abs(v - m[y, x]) / max(1.0, abs(m[y, x]))
                )
        if i < 8:  # the pure-python convolution oracle is slow; sample
            # the naive map runs the literal-kernel Sobel convolution inside
            want = naive_harris_map(img, p.block_size, p.sobel_aperture, p.kappa)
            worst_sobel = max(
                worst_sobel, float((np.abs(m - want) / np.maximum(1.0, np.abs(want))).max())
            )
    ok = worst_patch <= 1e-9 and worst_sobel <= 1e-9
    record_criterion(2, "score map == patch evaluation; map == naive Sobel convolution map", ok)
    assert worst_patch <= 1e-9
    assert worst_sobel <= 1e-9


def test_criterion_3_tos_properties():
    # range invariant under fuzz
    rng = np.random.default_rng(33)
    surf = TosSurface(SensorGeometry(32, 32), 3, 12)
    surf.update_many(rng.integers(0, 32, 5000), rng.integers(0, 32, 5000))
    grid = surf.grid
    range_ok = grid.min() >= 0 and grid.max() <= 255 and not ((grid > 0) & (grid < 12)).any()

    # speed independence: identical surfaces for 1 ms and 1 s sweeps
    g = SensorGeometry(40, 24)
    s1 = TosSurface(g)
    s2 = TosSurface(g)
    fast_sweep = edge_sweep_stream(g, duration_us=1_000)
    slow_sweep = edge_sweep_stream(g, duration_us=1_000_000)
    s1.update_many(fast_sweep.x, fast_sweep.y)
    s2.update_many(slow_sweep.x, slow_sweep.y)
    speed_ok = np.array_equal(s1.grid, s2.grid)

    # exact equality with the naive full-grid reference
    surf = TosSurface(SensorGeometry(32, 32), 3, 12)
    ref = naive_tos_new(32, 32)
    for _ in range(300):
        x = int(rng.integers(0, 32))
        y = int(rng.integers(0, 32))
        surf.update_many([x], [y])
        naive_tos_apply(ref, x, y, 3, 12)
    naive_ok = np.array_equal(surf.grid, np.array(ref))

    ok = range_ok and speed_ok and naive_ok
    record_criterion(3, "TOS range invariant, speed independence, naive-reference equality", ok)
    assert range_ok and speed_ok and naive_ok


@pytest.mark.wallclock
def test_criterion_4_throughput_ordering():
    g = SensorGeometry(240, 180)
    stream = texture_stream(g, 2_200_000, seed=7)
    assert len(stream) >= 2_000_000
    factories = {
        "luvharris": lambda: LuvHarrisDetector(g, LuvHarrisConfig(threshold_tr=1e12)),
        "arc": lambda: ArcDetector(g),
        "fast": lambda: FastDetector(g),
        "eharris": lambda: EHarrisDetector(g),
    }
    rates = {}
    for name, factory in factories.items():
        res = measure_throughput(factory, stream, runs=5, budget_s=3.0)
        rates[name] = res.median_rate
    ordering = (
        rates["luvharris"] > rates["arc"] > rates["fast"] > rates["eharris"]
    )
    ratio = rates["luvharris"] / rates["arc"]
    ok = ordering and ratio >= 1.5
    detail = ", ".join(f"{n}={rates[n] / 1e3:.0f}k/s" for n in factories)
    record_criterion(4, f"throughput ordering ({detail}; luv/arc={ratio:.2f})", ok)
    assert ordering, rates
    assert ratio >= 1.5, rates


@pytest.mark.wallclock
def test_criterion_5_delay_behaviour():
    g = SensorGeometry(240, 180)
    probe = texture_stream(g, 400_000, seed=9)
    rate_eh = measure_throughput(lambda: EHarrisDetector(g), probe,
                                 runs=1, budget_s=2.0).median_rate
    rate_luv = measure_throughput(
        lambda: LuvHarrisDetector(g, LuvHarrisConfig(threshold_tr=1e12)),
        probe, runs=1, budget_s=2.0,
    ).median_rate
    peak = min(0.45 * rate_luv, 3.0 * rate_eh)
    base = 0.4 * rate_eh
    assert peak > 1.2 * rate_eh, "machine too slow to separate the detectors"
    stream = burst_stream(g, base, peak, duration_s=16.0, period_s=4.0, seed=11)

    eh_trace = paced_replay(EHarrisDetector(g), stream, packet_us=1000)
    luv_trace = paced_replay(
        LuvHarrisDetector(g, LuvHarrisConfig(threshold_tr=1e12)), stream, packet_us=1000
    )
    span = int(eh_trace.stream_time_us[-1])
    quarter = float(np.interp(span * 0.25, eh_trace.stream_time_us, eh_trace.delay_us))
    mid = float(np.interp(span * 0.55, eh_trace.stream_time_us, eh_trace.delay_us))
    final = float(eh_trace.delay_us[-1])
    eh_grows = final > 2_000_000 and final > mid > quarter
    luv_max = luv_trace.max_delay_after_us(500_000)
    luv_ok = luv_max <= 50_000
    ok = eh_grows and luv_ok
    record_criterion(
        5,
        f"burst delay: eharris grows unbounded (final {final / 1e6:.1f}s), "
        f"luvharris sustained <= 50 ms (max {luv_max / 1e3:.1f} ms)",
        ok,
    )
    assert eh_grows, (quarter, mid, final)
    assert luv_ok, luv_max


def test_criterion_6_fixture_accuracy():
    g = SensorGeometry(64, 64)
    w90, p90 = wedge_stream(g, 32, 32, 90)
    w270, p270 = wedge_stream(g, 32, 32, 270)

    fast_90 = FastDetector(w90.geometry).process(w90).is_corner[p90].all()
    fast_270_rejects = not FastDetector(w270.geometry).process(w270).is_corner[p270].any()
    arc_90 = ArcDetector(w90.geometry).process(w90).is_corner[p90].all()
    arc_270 = ArcDetector(w270.geometry).process(w270).is_corner[p270].all()

    # luvharris accepts both corner polarities at a threshold calibrated on
    # the 90-degree fixture
    base_cfg = LuvHarrisConfig(threshold_tr=0.0)
    t90 = FreshLutDetector(g, base_cfg, 1).process(w90)
    thr = 0.5 * float(np.median(t90.score[p90]))
    cfg = LuvHarrisConfig(threshold_tr=thr)
    luv_90 = bool((t90.score[p90] > thr).all())
    t270 = FreshLutDetector(g, cfg, 1).process(w270)
    luv_270 = bool(t270.is_corner[p270].all())

    # straight edges score negative
    ge = SensorGeometry(48, 32)
    sweep = edge_sweep_stream(ge, x0=8, x1=40)
    surf = TosSurface(ge)
    surf.update_many(sweep.x, sweep.y)
    m = harris_response_map(surf.grid, HarrisParams())
    live_col = int(sweep.x[-1])
    edges_negative = bool((m[8:24, live_col] < 0).all())

    # secondary wave: arc emits more false positives than luvharris
    gs = SensorGeometry(96, 48)
    sec, stragglers = double_edge_secondary_stream(gs)
    arc_fp = ArcDetector(sec.geometry).process(sec).corner_count()
    w90s, p90s = wedge_stream(gs, 48, 24, 90)
    t90s = FreshLutDetector(gs, base_cfg, 1).process(w90s)
    thr_s = 0.5 * float(np.median(t90s.score[p90s]))
    luv_sec = FreshLutDetector(gs, LuvHarrisConfig(threshold_tr=thr_s), 64).process(sec)
    luv_fp = luv_sec.corner_count()
    secondary_ok = arc_fp > luv_fp and arc_fp > 0

    # salt-and-pepper noise smoke: all detectors conserve events
    noise = salt_pepper_stream(g, 400, seed=3)
    noise_ok = all(
        len(D(noise.geometry).process(noise)) == len(noise) for D in (FastDetector, ArcDetector)
    )

    ok = (fast_90 and fast_270_rejects and arc_90 and arc_270
          and luv_90 and luv_270 and edges_negative and secondary_ok and noise_ok)
    record_criterion(
        6,
        "fixtures: FAST rejects 270-deg, ARC+luvharris accept; "
        f"ARC secondary FPs ({arc_fp}) > luvharris ({luv_fp}); edges negative",
        ok,
    )
    assert fast_90 and fast_270_rejects and arc_90 and arc_270
    assert luv_90 and luv_270
    assert edges_negative
    assert secondary_ok
    assert noise_ok


def test_criterion_7_filter_oracles():
    g = SensorGeometry(48, 48)

    # the worked refractory example: keep, drop, keep
    s = make_stream(g, [(0, 5, 5), (3000, 5, 5), (11000, 5, 5)])
    example_ok = refractory_filter(s, 5000).t.tolist() == [0, 11000]

    ref_ok = True
    sp_ok = True
    for seed in (101, 102):
        stream = random_stream(g, 10_000, duration_us=400_000, seed=seed)
        out = refractory_filter(stream, 5000)
        keep = brute_refractory(stream, 5000)
        ref_ok &= np.array_equal(out.t, stream.t[keep]) and np.array_equal(
            out.x, stream.x[keep]
        )
        out = sp_filter(stream, 10_000, 1)
        keep = brute_sp(stream, 10_000, 1)
        sp_ok &= np.array_equal(out.t, stream.t[keep]) and np.array_equal(
            out.x, stream.x[keep]
        )
    ok = example_ok and ref_ok and sp_ok
    record_criterion(7, "refractory and salt-and-pepper filters match brute force", ok)
    assert example_ok and ref_ok and sp_ok


@pytest.mark.wallclock
def test_criterion_8_throughput_model_fit():
    def factory_for(g):
        return lambda: LuvHarrisDetector(g, LuvHarrisConfig(threshold_tr=1e12))

    g1 = SensorGeometry(128, 128)
    g2 = SensorGeometry(640, 480)
    fit_stream = random_stream(g1, 400_000, seed=81)
    holdout = random_stream(g1, 400_000, seed=82)

    # noise-floor estimators: scheduler hiccups only ever add time, so take
    # the cheapest fit and the fastest holdout run
    model = min(
        (fit_throughput_model(factory_for(g1), fit_stream) for _ in range(2)),
        key=lambda m: m.q1_cost_ns,
    )
    measured = min(
        (fit_throughput_model(factory_for(g1), holdout) for _ in range(3)),
        key=lambda m: m.elapsed_s,
    )
    predicted = model.predicted_seconds(measured.v_events, measured.w_generations)
    fit_err = abs(predicted - measured.elapsed_s) / measured.elapsed_s
    fit_ok = fit_err < 0.20

    # q1 must not depend on image size; q2 must scale with area
    big_stream = random_stream(g2, 400_000, seed=83)
    q1_small = min(
        fit_throughput_model(factory_for(g1), fit_stream).q1_cost_ns for _ in range(2)
    )
    q1_big = min(
        fit_throughput_model(factory_for(g2), big_stream).q1_cost_ns for _ in range(2)
    )
    q1_var = abs(q1_big - q1_small) / q1_small
    q1_ok = q1_var < 0.20
    q2_small = fit_throughput_model(factory_for(g1), fit_stream).q2_cost_ns
    q2_big = fit_throughput_model(factory_for(g2), big_stream).q2_cost_ns
    q2_ratio = q2_big / q2_small
    q2_ok = q2_ratio >= 3.0

    ok = fit_ok and q1_ok and q2_ok
    record_criterion(
        8,
        f"cost model: holdout error {fit_err:.1%}, q1 size drift {q1_var:.1%}, "
        f"q2 area scaling {q2_ratio:.1f}x",
        ok,
    )
    assert fit_ok, fit_err
    assert q1_ok, (q1_small, q1_big)
    assert q2_ok, (q2_small, q2_big)


def test_criterion_9_pr_machinery():
    g = SensorGeometry(64, 64)
    rng = np.random.default_rng(91)

    # perfect detector: every sweep point is (1, 1)
    n = 5000
    gt = binarize_scores(rng.random(n), 0.2)
    stream = random_stream(g, n, seed=92)
    perfect = Tags.for_stream(stream, gt.is_corner, gt.is_corner.astype(float))
    curve = pr_curve([(thr, perfect) for thr in (0.9, 0.5, 0.1)], gt)
    perfect_ok = all(p == 1.0 and r == 1.0 for _, p, r in curve.points)

    # random tagging converges to the corner fraction
    n = 100_000
    gt_big = binarize_scores(rng.random(n), 0.2)
    det = rng.random(n) < 0.5
    tags_big = Tags(g, np.zeros(n, np.uint64), np.zeros(n, np.uint16),
                    np.zeros(n, np.uint16), np.zeros(n, np.uint8),
                    det, det.astype(float))
    curve = pr_curve([(0.0, tags_big)], gt_big)
    _, prec, _ = curve.points[0]
    converge_ok = abs(prec - 0.2) <= 0.02

    # recall monotone along every detector sweep
    from evcorner import decision_parameter_sweep

    stream = random_stream(g, 4000, seed=93)
    gt_s = binarize_scores(rng.random(len(stream)), 0.2)
    mono_ok = True
    for det_obj in (EHarrisDetector(g), ArcDetector(g), FastDetector(g),
                    LuvHarrisDetector(g, LuvHarrisConfig())):
        sweep = decision_parameter_sweep(det_obj, stream, n_points=10)
        recalls = pr_curve(sweep, gt_s).recalls()
        mono_ok &= bool(np.all(np.diff(recalls) >= 0))

    ok = perfect_ok and converge_ok and mono_ok
    record_criterion(
        9,
        f"PR machinery: perfect=(1,1), random precision {prec:.3f}~0.2, recall monotone",
        ok,
    )
    assert perfect_ok and converge_ok and mono_ok
