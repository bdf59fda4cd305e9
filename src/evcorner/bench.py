"""Real-time evaluation harness.

Three measurements, mirroring how a live system is judged:

* :func:`measure_throughput` — events per second with the detector fed as
  fast as possible, file I/O excluded (streams are pre-loaded). The stream
  is replayed cyclically (timestamps re-based each pass) so even very fast
  detectors reach a steady state; the reported figure is the median of
  several runs with the spread attached.
* :func:`paced_replay` — packets are released no earlier than their stream
  time by a pacer thread feeding a bounded queue (backpressure, no drops);
  the consumer drains everything pending per iteration, so slow phases are
  paid for with measured delay, not lost events. Delay is wall-clock
  elapsed minus the stream time of the packet just completed, clamped at 0.
* :func:`fit_throughput_model` — splits a detector's cost into a per-event
  part and a per-LUT-generation part and predicts total processing time as
  ``q1 * V + q2 * W`` from the detector's ``stats`` (a ``PipelineStats``);
  detectors without one are rejected. The fit also records its run's wall
  time (``elapsed_s``).

The throughput and model functions take a zero-argument factory and build a
fresh detector for every run; every function here closes the detectors it
runs (see :func:`closing`), so a ``dual_thread`` luvharris worker never
outlives its measurement.
"""

from __future__ import annotations

import gc
import queue
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .baselines import MAX_CALL_EVENTS
from .errors import InstrumentationUnavailable, InvalidParameter, StreamTooShort
from .events import EventStream

MIN_MEASURE_SECONDS = 0.2
# events per process call in fit_throughput_model: small enough that a
# model stream spans many LUT generations
MODEL_CHUNK_EVENTS = 8192


@dataclass
class ThroughputResult:
    detector: str
    rates: list[float]
    median_rate: float
    spread: float  # max - min across runs


@dataclass
class DelayTrace:
    detector: str
    stream_time_us: np.ndarray
    delay_us: np.ndarray
    released_wall_us: np.ndarray  # wall offset at which each packet was released

    def max_delay_after_us(self, warmup_us: int) -> float:
        mask = self.stream_time_us >= warmup_us
        if not np.any(mask):
            return 0.0
        return float(self.delay_us[mask].max())


@dataclass
class ThroughputModel:
    q1_cost_ns: float
    q2_cost_ns: float
    v_events: int
    w_generations: int
    elapsed_s: float  # wall time of the fit's process calls

    def predicted_seconds(self, v: int, w: int) -> float:
        return (self.q1_cost_ns * v + self.q2_cost_ns * w) * 1e-9


@contextmanager
def _gc_paused():
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc_was_on:
            gc.enable()


@contextmanager
def closing(detector):
    """Like ``contextlib.closing``, for any detector: on exit, stop its
    background work if it has a ``close`` method (luvharris ``dual_thread``
    joins its worker there and re-raises a worker failure)."""
    try:
        yield detector
    finally:
        if hasattr(detector, "close"):
            detector.close()


def measure_throughput(
    detector_factory,
    stream: EventStream,
    runs: int = 5,
    budget_s: float = 4.0,
) -> ThroughputResult:
    """Median events/second over ``runs`` saturated replays of ``stream``.

    Each run builds a fresh detector with ``detector_factory`` and feeds it
    calls of ``MAX_CALL_EVENTS``. The stream is cycled with timestamps
    re-based per pass so surface clocks stay monotone.
    """
    if runs < 1:
        raise InvalidParameter(f"runs must be >= 1, got {runs}")
    if len(stream) == 0:
        raise StreamTooShort("empty stream")
    chunks = list(stream.chunks(MAX_CALL_EVENTS))
    span = int(stream.t[-1]) + 1
    rates = []
    name = ""
    for _ in range(runs):
        det = detector_factory()
        name = getattr(det, "name", type(det).__name__)
        processed = 0
        offset = 0
        with _gc_paused(), closing(det):
            t0 = time.perf_counter()
            deadline = t0 + budget_s
            while True:
                for c in chunks:
                    if offset:
                        c = EventStream(c.geometry, c.t + np.uint64(offset), c.x, c.y, c.p)
                    det.process(c)
                    processed += len(c)
                    if time.perf_counter() >= deadline:
                        break
                else:
                    offset += span
                    continue
                break
            elapsed = time.perf_counter() - t0
        if elapsed < MIN_MEASURE_SECONDS:
            raise StreamTooShort(
                f"measurement lasted {elapsed:.3f}s; raise budget_s or stream size"
            )
        rates.append(processed / elapsed)
    return ThroughputResult(name, rates, statistics.median(rates), max(rates) - min(rates))


def paced_replay(
    detector,
    stream: EventStream,
    packet_us: int = 1_000,
    queue_packets: int = 1_024,
) -> DelayTrace:
    """Replay at recorded timestamps and trace per-packet completion delay."""
    if packet_us <= 0:
        raise InvalidParameter(f"packet_us must be positive, got {packet_us}")
    if len(stream) == 0:
        raise StreamTooShort("empty stream")
    rel = stream.t.astype(np.int64) - int(stream.t[0])
    bounds = np.searchsorted(rel, np.arange(packet_us, int(rel[-1]) + packet_us + 1, packet_us))
    packets = []  # (end_stream_offset_us, event slice)
    i0 = 0
    for k, i1 in enumerate(bounds):
        packets.append(((k + 1) * packet_us, stream.slice(i0, int(i1))))
        i0 = int(i1)
        if i0 >= len(stream):
            break
    q: queue.Queue = queue.Queue(maxsize=queue_packets)
    released = [0.0] * len(packets)
    abort = threading.Event()

    def _put(item) -> bool:
        while True:
            try:
                q.put(item, timeout=0.1)
                return True
            except queue.Full:
                if abort.is_set():
                    return False

    def pacer():
        t0 = time.perf_counter()
        for idx, (end_us, sl) in enumerate(packets):
            wait = t0 + end_us * 1e-6 - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            released[idx] = (time.perf_counter() - t0) * 1e6
            if not _put((idx, end_us, sl)):
                return
        _put(None)

    stream_times = []
    delays = []
    th = threading.Thread(target=pacer, daemon=True)
    with _gc_paused():
        wall0 = time.perf_counter()
        th.start()
        try:
            done = False
            while not done:
                item = q.get()
                if item is None:
                    break
                batch = [item]
                while True:  # drain everything pending: the whole backlog is one input batch
                    try:
                        nxt = q.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is None:
                        done = True
                        break
                    batch.append(nxt)
                parts = [sl for (_, _, sl) in batch if len(sl)]
                if parts:
                    if len(parts) == 1:
                        merged = parts[0]
                    else:
                        merged = EventStream(
                            stream.geometry,
                            np.concatenate([s.t for s in parts]),
                            np.concatenate([s.x for s in parts]),
                            np.concatenate([s.y for s in parts]),
                            np.concatenate([s.p for s in parts]),
                        )
                    detector.process(merged)
                completed_us = (time.perf_counter() - wall0) * 1e6
                for _, end_us, _ in batch:
                    stream_times.append(end_us)
                    delays.append(max(completed_us - end_us, 0.0))
        finally:
            abort.set()
            th.join()
    return DelayTrace(
        getattr(detector, "name", type(detector).__name__),
        np.array(stream_times, dtype=np.int64),
        np.array(delays, dtype=np.float64),
        np.array(released, dtype=np.float64),
    )


def fit_throughput_model(detector_factory, stream: EventStream) -> ThroughputModel:
    """Measure per-event and per-generation costs from one run of a fresh
    detector fed ``MODEL_CHUNK_EVENTS`` at a time, and the run's wall time
    (the ``process`` calls only, with the garbage collector paused)."""
    det = detector_factory()
    if not hasattr(det, "stats"):
        raise InstrumentationUnavailable(
            f"{type(det).__name__} exposes no phase counters"
        )
    with _gc_paused(), closing(det):
        t0 = time.perf_counter()
        for c in stream.chunks(MODEL_CHUNK_EVENTS):
            det.process(c)
        elapsed = time.perf_counter() - t0
    v, w = det.stats.events_processed, det.stats.lut_generations
    if v == 0:
        raise StreamTooShort("no events processed")
    q1 = det.stats.phase1_s / v * 1e9
    q2 = det.stats.phase2_s / w * 1e9 if w else 0.0
    return ThroughputModel(q1, q2, v, w, elapsed)
