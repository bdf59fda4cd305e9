import time

import numpy as np
import pytest

from evcorner import (
    EventStream,
    InstrumentationUnavailable,
    LuvHarrisConfig,
    LuvHarrisDetector,
    PassThroughDetector,
    SensorGeometry,
    StreamTooShort,
    Tags,
    fit_throughput_model,
    measure_throughput,
    paced_replay,
)
from evcorner.bench import run_detector_timed
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
    res = measure_throughput(lambda: PassThroughDetector(g), stream, runs=3, budget_s=0.4)
    assert res.median_rate > 0 and len(res.rates) == 3
    assert res.spread >= 0


def test_throughput_empty_stream_rejected():
    g = SensorGeometry(8, 8)
    with pytest.raises(StreamTooShort):
        measure_throughput(lambda: PassThroughDetector(g), EventStream.empty(g))


def test_pacing_never_early():
    g = SensorGeometry(32, 32)
    stream = random_stream(g, 5000, duration_us=300_000, seed=3)
    trace = paced_replay(PassThroughDetector(g), stream, packet_us=1000)
    # a packet covering stream time T may not be handed over before wall T
    packet_times = np.arange(1, len(trace.released_wall_us) + 1) * 1000
    assert np.all(trace.released_wall_us >= packet_times - 1)  # clock-read slack < 1us


def test_noop_detector_delay_bounded_by_pacing_granularity():
    g = SensorGeometry(32, 32)
    stream = random_stream(g, 5000, duration_us=300_000, seed=5)
    trace = paced_replay(PassThroughDetector(g), stream, packet_us=1000)
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


def test_model_passthrough_has_zero_q2():
    g = SensorGeometry(64, 64)
    stream = random_stream(g, 50_000, seed=9)
    model = fit_throughput_model(lambda: PassThroughDetector(g), stream)
    assert model.q2_cost_ns == 0.0
    assert model.w_generations == 0
    assert model.q1_cost_ns > 0


@pytest.mark.wallclock
def test_model_prediction_close_on_holdout():
    g = SensorGeometry(128, 128)
    fit_stream = random_stream(g, 120_000, seed=11)
    holdout = random_stream(g, 120_000, seed=12)
    factory = lambda: LuvHarrisDetector(g, LuvHarrisConfig(threshold_tr=1e9),
                                        force_batch_size=8192)
    model = fit_throughput_model(factory, fit_stream)
    assert model.w_generations > 1
    # fastest of three runs: timing noise only ever adds
    measured, v, w = min(
        (run_detector_timed(factory, holdout, chunk_events=8192) for _ in range(3)),
        key=lambda r: r[0],
    )
    predicted = model.predicted_seconds(v, w)
    assert abs(predicted - measured) / measured < 0.25


def test_instrumentation_required():
    g = SensorGeometry(16, 16)

    class Bare:
        def process(self, chunk):
            return None

        def reset(self):
            pass

    with pytest.raises(InstrumentationUnavailable):
        fit_throughput_model(Bare(), random_stream(g, 100, seed=1))


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
    res = measure_throughput(lambda: PassThroughDetector(g), loaded, runs=1, budget_s=0.3)
    assert load_s >= 0 and res.median_rate > 0
