import threading
import time

import numpy as np
import pytest

from evcorner import (
    EventStream,
    InstrumentationUnavailable,
    LuvHarrisConfig,
    LuvHarrisDetector,
    SensorGeometry,
    StreamTooShort,
    Tags,
    fit_throughput_model,
    measure_throughput,
    paced_replay,
    write_stream,
)
from evcorner.cli import main
from evcorner.synth import random_stream


class SleepyDetector:
    """Sleeps a fixed time per event: a detector slower than real time.
    Coalesced backlogs still pay the full per-event cost."""

    name = "sleepy"

    def __init__(self, sleep_per_event_s):
        self.sleep_per_event_s = sleep_per_event_s

    def process(self, chunk):
        time.sleep(self.sleep_per_event_s * len(chunk))
        n = len(chunk)
        return Tags.for_stream(chunk, np.zeros(n, bool), np.zeros(n))


def test_throughput_passthrough_smoke():
    g = SensorGeometry(64, 64)
    stream = random_stream(g, 100_000, seed=1)
    res = measure_throughput(lambda: SleepyDetector(0.0), stream, runs=3, budget_s=0.4)
    assert res.median_rate > 0 and len(res.rates) == 3
    assert res.spread >= 0


def test_throughput_empty_stream_rejected():
    g = SensorGeometry(8, 8)
    with pytest.raises(StreamTooShort):
        measure_throughput(lambda: SleepyDetector(0.0), EventStream.empty(g))


def test_paced_replay_empty_stream_rejected():
    g = SensorGeometry(8, 8)
    with pytest.raises(StreamTooShort):
        paced_replay(SleepyDetector(0.0), EventStream.empty(g))


def test_pacing_never_early():
    g = SensorGeometry(32, 32)
    stream = random_stream(g, 5000, duration_us=300_000, seed=3)
    trace = paced_replay(SleepyDetector(0.0), stream, packet_us=1000)
    # a packet covering stream time T may not be handed over before wall T
    packet_times = np.arange(1, len(trace.released_wall_us) + 1) * 1000
    assert np.all(trace.released_wall_us >= packet_times - 1)  # clock-read slack < 1us


def test_noop_detector_delay_bounded_by_pacing_granularity():
    g = SensorGeometry(32, 32)
    stream = random_stream(g, 5000, duration_us=300_000, seed=5)
    trace = paced_replay(SleepyDetector(0.0), stream, packet_us=1000)
    assert len(trace.delay_us) > 0
    assert np.all(trace.delay_us >= 0)
    # sleep + scheduling jitter, not detector cost; generous ceiling
    assert np.median(trace.delay_us) < 50_000


def test_slow_detector_delay_grows_linearly():
    g = SensorGeometry(32, 32)
    # 10 events per 1 ms packet at 1 ms sleep per event: 10 ms work per packet,
    # so delay accumulates ~9 ms per packet of stream time
    stream = random_stream(g, 600, duration_us=60_000, seed=7)
    trace = paced_replay(SleepyDetector(0.001), stream, packet_us=1000)
    assert trace.delay_us[-1] > trace.delay_us[0]
    packets = trace.stream_time_us[-1] / 1000.0
    end_to_end = trace.delay_us[-1] / packets
    assert 7_000 < end_to_end < 11_500  # us per packet
    fit_slope = np.polyfit(trace.stream_time_us / 1000.0, trace.delay_us, 1)[0]
    assert 5_000 < fit_slope < 13_000


@pytest.mark.wallclock
def test_model_prediction_close_on_holdout():
    g = SensorGeometry(128, 128)
    fit_stream = random_stream(g, 120_000, seed=11)
    holdout = random_stream(g, 120_000, seed=12)
    factory = lambda: LuvHarrisDetector(g, LuvHarrisConfig(threshold_tr=1e9))
    # fastest of three runs each, for the fit and the holdout: timing noise
    # only ever adds. The runs alternate, so a slow spell of the host does
    # not fall on one side only.
    runs = [(fit_throughput_model(factory, fit_stream), fit_throughput_model(factory, holdout))
            for _ in range(3)]
    model = min((fit for fit, _ in runs), key=lambda m: m.elapsed_s)
    assert model.w_generations > 1
    measured = min((held for _, held in runs), key=lambda m: m.elapsed_s)
    predicted = model.predicted_seconds(measured.v_events, measured.w_generations)
    assert abs(predicted - measured.elapsed_s) / measured.elapsed_s < 0.25


def test_fit_elapsed_bounds_its_phases():
    # phases 1 and 2 are disjoint intervals inside the fit's timed loop
    g = SensorGeometry(64, 64)
    model = fit_throughput_model(
        lambda: LuvHarrisDetector(g, LuvHarrisConfig(mode="alternating")),
        random_stream(g, 50_000, seed=9))
    assert model.w_generations > 1
    assert model.predicted_seconds(model.v_events, model.w_generations) <= model.elapsed_s


def test_instrumentation_required():
    g = SensorGeometry(16, 16)

    class Bare:
        def process(self, chunk):
            return None

    with pytest.raises(InstrumentationUnavailable):
        fit_throughput_model(Bare, random_stream(g, 100, seed=1))


def test_burst_delay_recovers_with_headroom():
    # a burst above the sleepy detector's steady rate but below sustainable
    # average: delay rises during the burst and drains afterwards
    from evcorner.synth import burst_stream

    g = SensorGeometry(32, 32)
    # capacity 2000 ev/s; 1 s burst at 3000 ev/s, then 3 s at 200 ev/s
    stream = burst_stream(g, base_rate=200, peak_rate=3000,
                          duration_s=4.0, period_s=4.0, duty=0.25, seed=3)
    trace = paced_replay(SleepyDetector(0.0005), stream, packet_us=1000)
    t = trace.stream_time_us
    d = trace.delay_us
    peak_delay = d[(t > 400_000) & (t <= 1_200_000)].max()
    tail_delay = d[t > 3_000_000].max()
    assert peak_delay > 100_000  # fell behind during the burst
    assert tail_delay < 0.3 * peak_delay  # recovered afterwards


@pytest.mark.wallclock
def test_luvharris_throughput_drops_with_larger_k_tos():
    from evcorner import LuvHarrisConfig, LuvHarrisDetector
    from evcorner.synth import texture_stream

    g = SensorGeometry(128, 128)
    stream = texture_stream(g, 400_000, seed=19)
    rates = {}
    for k in (3, 6):
        cfg = LuvHarrisConfig(k_tos=k, threshold_tr=1e12)
        res = measure_throughput(lambda: LuvHarrisDetector(g, cfg), stream,
                                 runs=3, budget_s=1.0)
        rates[k] = res.median_rate
    assert rates[6] < rates[3]


def test_eharris_modeled_with_zero_q2():
    from evcorner import EHarrisDetector

    g = SensorGeometry(64, 64)
    stream = random_stream(g, 20_000, seed=23)
    model = fit_throughput_model(lambda: EHarrisDetector(g), stream)
    assert model.q2_cost_ns == 0.0 and model.w_generations == 0
    assert model.q1_cost_ns > 0


def test_throughput_excludes_loading(tmp_path):
    # the measurement API consumes a pre-loaded stream; loading happens
    # (and is timed) separately
    from evcorner import read_stream, write_stream

    g = SensorGeometry(32, 32)
    stream = random_stream(g, 20_000, seed=13)
    path = tmp_path / "s.evb"
    write_stream(stream, path, "packed_binary")
    t0 = time.perf_counter()
    loaded = read_stream(path, "packed_binary")
    load_s = time.perf_counter() - t0
    res = measure_throughput(lambda: SleepyDetector(0.0), loaded, runs=1, budget_s=0.3)
    assert load_s >= 0 and res.median_rate > 0


def test_dual_thread_measurements_join_their_workers(tmp_path):
    g = SensorGeometry(32, 32)
    stream = random_stream(g, 20_000, duration_us=200_000, seed=29)
    factory = lambda: LuvHarrisDetector(g, LuvHarrisConfig(mode="dual_thread"))
    before = threading.active_count()
    measure_throughput(factory, stream, runs=2, budget_s=0.25)
    assert threading.active_count() == before
    model = fit_throughput_model(factory, stream)
    assert model.v_events == len(stream) and model.w_generations >= 1
    assert threading.active_count() == before
    src = tmp_path / "events.csv"
    write_stream(stream, src)
    conf = tmp_path / "dual.conf"
    conf.write_text("mode = dual_thread\n")
    assert main(["bench", "--in", str(src), "--detectors", "luvharris", "--mode", "delay",
                 "--config", str(conf), "--out-prefix", f"{tmp_path}/"]) == 0
    assert threading.active_count() == before
