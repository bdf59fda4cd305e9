"""evcorner benchmark: offline CLI throughput and paced live delay.

    python3 evbench/run.py --workload offline_texture --seed 1 --seconds 15 --trace 0

Run from the repository root; evcorner is imported from ``src/`` next to
this directory and nowhere else. The workload's events are generated here
from ``--seed`` (see ``inputs.py``), evcorner receives only those, and its
outputs are checked against the references in ``checks.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
measurement untraced and then traced, and prints the per-layer metrics
taken from the spans of the traced pass plus the tracing overhead. The last
line of standard output is the result as one JSON object; the exit code is
non-zero when any output check failed. README.md in this directory defines
every metric and why each workload exists.
"""

from __future__ import annotations

import os

# one caller thread plus the pacer: keep numeric libraries single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".evbench"

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919  # a claimed gain must also hold on this seed

# set-up samples span about 5 s: on a shared 2-core host, speed swings by
# a sixth from one second to the next, and a median over 1 s follows them
SETUP_REPEATS = 100
THRESHOLD = 1e12
K_TOS, T_TOS = 3, 12
BLOCK, APERTURE, KAPPA = 7, 5, 0.04
# pixels whose Harris score an event can change: TOS window + Sobel + block
HARRIS_REACH = K_TOS + APERTURE // 2 + BLOCK // 2
PACKET_US = 1_000
# live percentiles are taken per window of stream time, then the median
# over windows, so one stall of the shared machine moves few of them
WINDOW_US = 1_000_000
# offline, a window is this many consecutive jobs (at least): a run holds
# a few dozen jobs, so a p99 over all of them would be its slowest job
JOBS_PER_WINDOW = 8
# score checks replay the first few batches against the reference
CHECK_BATCHES = 5
CHECK_EVENTS = 20_000
FILTER_CHECK_EVENTS = 6_000

WORKLOADS = {
    "offline_texture": {
        "kind": "offline",
        "params": inputs.TextureParams(),
        "refractory_us": 2_000,
        "sp_window_us": 30_000,
    },
    "live_vga_dense": {"kind": "live", "params": inputs.UniformParams()},
    "live_hd_sparse": {"kind": "live", "params": inputs.CornersParams()},
}

END_TO_END = {
    "events_per_s": "ev/s",
    "delay_p50_ms": "ms",
    "delay_p99_ms": "ms",
    "lut_age_p50_ms": "ms",
    "lut_age_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "events.parse_s": "s",
    "events.write_stream_s": "s",
    "events.write_tags_s": "s",
    "filters.refractory_s": "s",
    "filters.sp_s": "s",
    "filters.keep_ratio": "ratio",
    "surfaces.tos_update_ns_per_event": "ns",
    "harris.lut_regen_ms_p50": "ms",
    "harris.lut_regen_ms_p99": "ms",
    "luvharris.phase1_s": "s",
    "luvharris.phase2_s": "s",
    "luvharris.lut_read_ns_per_event": "ns",
    "luvharris.generations": "count",
    "luvharris.events_per_generation": "count",
    "luvharris.dirty_area_fraction": "ratio",
    "cli.overhead_s": "s",
    "live.generator_lag_p99_ms": "ms",
    "live.backlog_max_packets": "count",
    "trace.overhead_ratio": "ratio",
    "trace.missing_entry_points": "count",
}


class BenchError(Exception):
    """The benchmark could not run the workload."""


# ---------------------------------------------------------------------------
# set-up


def import_evcorner():
    """Import evcorner from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "evcorner" / "__init__.py").is_file():
        raise BenchError(f"no evcorner package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "evcorner"]:
        del sys.modules[name]
    evc = importlib.import_module("evcorner")
    importlib.import_module("evcorner.cli")
    if Path(evc.__file__).resolve().parent != SRC / "evcorner":
        raise BenchError(f"imported evcorner from {evc.__file__}, not {SRC}")
    return evc


def detector_config(evc):
    return evc.LuvHarrisConfig(
        k_tos=K_TOS, t_tos=T_TOS,
        harris=evc.HarrisParams(block_size=BLOCK, sobel_aperture=APERTURE, kappa=KAPPA),
        threshold_tr=THRESHOLD, mode="alternating",
    )


def set_up(width: int, height: int):
    """Import, config and detector construction, repeated from a fresh
    import each time; returns the last import and the median time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        # free the previous import first: every sample starts from the same
        # heap, and discarded modules do not pile up into peak_rss_mb
        gc.collect()
        t0 = time.perf_counter()
        evc = import_evcorner()
        evc.LuvHarrisDetector(evc.SensorGeometry(width, height), detector_config(evc))
        samples.append(time.perf_counter() - t0)
    return evc, statistics.median(samples)


class LutProbe:
    """Reads ``lut.generated_at`` before every ``LuvHarrisDetector.process``
    call the CLI makes, and keeps each call's input and output."""

    def __init__(self, detector_cls):
        self.calls: list[tuple[int, object, object]] = []
        self._cls = detector_cls
        self._orig = detector_cls.process
        calls, orig = self.calls, self._orig

        def process(det, chunk):
            generated_at = int(det.lut.generated_at)
            tags = orig(det, chunk)
            calls.append((generated_at, chunk, tags))
            return tags

        detector_cls.process = process

    def close(self) -> None:
        self._cls.process = self._orig


# ---------------------------------------------------------------------------
# offline_texture: closed-loop CLI jobs, file in, tags out


def file_digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class OfflineJob:
    def __init__(self, evc, wl: dict, ev: inputs.Events, workdir: Path):
        self.evc = evc
        self.ev = ev
        self.raw = workdir / "raw.csv"
        self.clean = workdir / "clean.csv"
        self.tags = workdir / "tags.csv"
        cfg = workdir / "detect.cfg"
        checks.write_events_csv(self.raw, ev)
        cfg.write_text(f"k_tos = {K_TOS}\nt_tos = {T_TOS}\nblock_size = {BLOCK}\n"
                       f"sobel_aperture = {APERTURE}\nkappa = {KAPPA}\n")
        self.argv = (
            ["filter", "--in", str(self.raw), "--out", str(self.clean),
             "--refractory-us", str(wl["refractory_us"]), "--sp-window-us", str(wl["sp_window_us"])],
            ["detect", "--in", str(self.clean), "--config", str(cfg),
             "--threshold", repr(THRESHOLD), "--out", str(self.tags)],
        )
        self.probe = LutProbe(evc.LuvHarrisDetector)
        self.ref_prefix = checks.reference_filter(
            _head(ev, FILTER_CHECK_EVENTS), wl["refractory_us"], wl["sp_window_us"])
        self.verified_digest = None
        self.verified_failed = 0

    def close(self) -> None:
        self.probe.close()

    def run(self) -> float:
        """One job; returns its wall time."""
        self.probe.calls.clear()
        cli = sys.modules["evcorner.cli"]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            for argv in self.argv:
                if cli.main(argv) != 0:
                    raise BenchError(f"evcorner {argv[0]} failed: {sink.getvalue()}")
        return time.perf_counter() - t0

    def failed_events(self) -> int:
        """Wrong output rows of the job just run; a job whose files repeat
        the verified first job byte for byte repeats its count."""
        digest = (file_digest(self.clean), file_digest(self.tags))
        if digest == self.verified_digest:
            return self.verified_failed
        failed = self._check()
        if self.verified_digest is None:
            self.verified_digest, self.verified_failed = digest, failed
        return failed

    def _check(self) -> int:
        clean = checks.read_events_csv(self.clean)
        tag_ev, flags, printed = checks.read_tags_csv(self.tags)
        n = len(clean)
        bad = np.zeros(max(n, len(self.ref_prefix)), dtype=bool)
        # (3a) the filter output starts with the reference filter's output
        bad[checks.mismatched_rows(_head(clean, len(self.ref_prefix)), self.ref_prefix)] = True
        # (1, 2) one tag per filtered event, in order, same t, x, y, p
        bad[checks.mismatched_rows(tag_ev, clean)] = True
        calls = self.probe.calls
        seen_t = _concat([c.t for _, c, _ in calls], np.int64)
        exact = _concat([t.score for _, _, t in calls], np.float64)
        corner = _concat([t.is_corner for _, _, t in calls], bool)
        if len(seen_t) != n or np.any(seen_t != clean.t) or len(exact) != n:
            bad[:] = True
        else:
            bad[:n] |= corner != (exact > THRESHOLD)
            if len(flags) == n:
                bad[:n] |= flags != corner
            # (3b) scores of the first batches against the reference surface
            ends = _check_ends(np.cumsum([len(c) for _, c, _ in calls]))
            if ends:
                want = checks.reference_scores(clean, ends, K_TOS, T_TOS, self._response_map)
                bad[checks.exact_score_mismatch(exact[: len(want)], want)] = True
                if len(printed) >= len(want):
                    bad[checks.printed_score_mismatch(printed[: len(want)], want)] = True
        return int(np.count_nonzero(bad))

    def _response_map(self, surface):
        params = self.evc.HarrisParams(block_size=BLOCK, sobel_aperture=APERTURE, kappa=KAPPA)
        return self.evc.harris_response_map(surface, params)


def _concat(columns, dtype) -> np.ndarray:
    return np.concatenate([np.asarray(c, dtype=dtype) for c in columns] or [np.zeros(0, dtype)])


def _head(ev: inputs.Events, n: int) -> inputs.Events:
    return inputs.Events(ev.width, ev.height, ev.t[:n], ev.x[:n], ev.y[:n], ev.p[:n])


def _check_ends(cum_lengths) -> list[int]:
    """Batch ends covering at most CHECK_BATCHES batches and, past the
    first batch, at most CHECK_EVENTS events."""
    ends = []
    for end in (int(e) for e in cum_lengths[:CHECK_BATCHES]):
        if ends and end > CHECK_EVENTS:
            break
        if end > (ends[-1] if ends else 0):
            ends.append(end)
    return ends


def offline_pass(job: OfflineJob, seconds: float) -> dict:
    job_s, failed = [], 0
    start = time.perf_counter()
    while not job_s or time.perf_counter() - start < seconds:
        job_s.append(job.run())
        failed += job.failed_events()
    # every job repeats the same batches, so the last one stands for all
    calls = job.probe.calls
    n = len(job.ev)
    return {
        "events_per_s": n / statistics.median(job_s),
        "delay_groups": np.array_split(job_s, max(1, len(job_s) // JOBS_PER_WINDOW)),
        "age_groups": [_concat([np.asarray(c.t, dtype=np.int64) - g for g, c, _ in calls], np.int64)],
        "attempted": n * len(job_s),
        "failed": failed,
        "passes": len(job_s),
        "batches": [(np.asarray(c.x), np.asarray(c.y)) for _, c, _ in calls],
    }


# ---------------------------------------------------------------------------
# live_*: open-loop pacing in 1 ms packets, the caller drains the backlog


class Pacer(threading.Thread):
    """Releases packet i at ``start + (i + 1) * period`` (when its last
    event has happened); releases every packet already due when late."""

    def __init__(self, n_packets: int, period_s: float, start: float):
        super().__init__(name="pacer", daemon=True)
        self.n_packets = n_packets
        self.period_s = period_s
        self.start_at = start
        self.released = 0
        self.release_wall = np.zeros(n_packets)
        self.cond = threading.Condition()

    def run(self) -> None:
        i, n = 0, self.n_packets
        while i < n:
            now = time.perf_counter()
            due = self.start_at + (i + 1) * self.period_s
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            j = min(n, max(i + 1, int((now - self.start_at) / self.period_s)))
            self.release_wall[i:j] = now
            with self.cond:
                self.released = j
                self.cond.notify()
            i = j


def live_pass(evc, stream, ev: inputs.Events, bounds: np.ndarray) -> dict:
    det = evc.LuvHarrisDetector(stream.geometry, detector_config(evc))
    n_packets = len(bounds) - 1
    period = PACKET_US * 1e-6
    pacer = Pacer(n_packets, period, time.perf_counter() + 0.01)
    drains = []  # (first packet, end packet, generated_at, tags)
    done_wall = []
    pacer.start()
    try:
        done = 0
        while done < n_packets:
            with pacer.cond:
                while pacer.released == done:
                    pacer.cond.wait()
                upto = pacer.released
            generated_at = int(det.lut.generated_at)
            tags = det.process(stream.slice(int(bounds[done]), int(bounds[upto])))
            done_wall.append(time.perf_counter())
            drains.append((done, upto, generated_at, tags))
            done = upto
    finally:
        pacer.join()
    due = pacer.start_at + period * (1 + np.arange(n_packets))
    drain_of = np.repeat(np.arange(len(drains)), [b - a for a, b, _, _ in drains])
    delay_s = np.asarray(done_wall)[drain_of] - due
    ages_us = np.concatenate([ev.t[bounds[a]:bounds[b]] - g for a, b, g, _ in drains])
    per_window = WINDOW_US // PACKET_US
    return {
        "events_per_s": len(ev) / (done_wall[-1] - pacer.start_at),
        "delay_groups": np.array_split(delay_s, range(per_window, n_packets, per_window)),
        "age_groups": np.split(ages_us, np.searchsorted(
            ev.t, np.arange(1 + WINDOW_US, int(ev.t[-1]) + 1, WINDOW_US))),
        "attempted": n_packets,
        "drains": drains,
        "passes": 1,
        "batches": [(ev.x[bounds[a]:bounds[b]], ev.y[bounds[a]:bounds[b]]) for a, b, _, _ in drains],
        "lag_s": pacer.release_wall - due,
        "backlog_max": max(b - a for a, b, _, _ in drains),
    }


def live_failed_packets(evc, ev: inputs.Events, bounds, drains) -> int:
    bad_event = np.zeros(len(ev), dtype=bool)
    bad_packet = np.zeros(len(bounds) - 1, dtype=bool)
    for a, b, _, tags in drains:
        e0, e1 = int(bounds[a]), int(bounds[b])
        got = inputs.Events(ev.width, ev.height, tags.t, tags.x, tags.y, tags.p)
        idx = checks.mismatched_rows(got, _slice(ev, e0, e1))
        if len(tags) != e1 - e0:
            bad_packet[a:b] = True
            continue
        bad_event[e0 + idx] = True
        bad_event[e0:e1] |= np.asarray(tags.is_corner) != (np.asarray(tags.score) > THRESHOLD)
    ends = _check_ends([int(bounds[b]) for a, b, _, _ in drains if bounds[b] > bounds[a]])
    if ends:
        params = evc.HarrisParams(block_size=BLOCK, sobel_aperture=APERTURE, kappa=KAPPA)
        want = checks.reference_scores(
            ev, ends, K_TOS, T_TOS, lambda s: evc.harris_response_map(s, params))
        got = np.concatenate([np.asarray(t.score) for *_, t in drains])[: len(want)]
        if len(got) == len(want):
            bad_event[checks.exact_score_mismatch(got, want)] = True
        else:
            bad_event[: len(want)] = True
    bad = np.flatnonzero(bad_event)
    bad_packet[np.searchsorted(bounds, bad, side="right") - 1] = True
    return int(np.count_nonzero(bad_packet))


def _slice(ev: inputs.Events, e0: int, e1: int) -> inputs.Events:
    return inputs.Events(ev.width, ev.height, ev.t[e0:e1], ev.x[e0:e1], ev.y[e0:e1], ev.p[e0:e1])


# ---------------------------------------------------------------------------
# metrics


def _windowed(groups, q: float, scale: float) -> float:
    """Median over the groups (windows) of each group's q-th percentile;
    0 when no group holds a sample."""
    per_group = [np.percentile(g, q) for g in groups if len(g)]
    return float(np.median(per_group)) * scale if per_group else 0.0


def end_to_end(res: dict, setup_s: float) -> dict:
    return {
        "events_per_s": res["events_per_s"],
        "delay_p50_ms": _windowed(res["delay_groups"], 50, 1e3),
        "delay_p99_ms": _windowed(res["delay_groups"], 99, 1e3),
        "lut_age_p50_ms": _windowed(res["age_groups"], 50, 1e-3),
        "lut_age_p99_ms": _windowed(res["age_groups"], 99, 1e-3),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def dirty_area_fraction(batches, width: int, height: int) -> float:
    """Mean share of pixels within Harris reach of any event of a batch."""
    r = HARRIS_REACH
    shares = []
    for xs, ys in batches:
        if len(xs) == 0:
            continue
        diff = np.zeros((height + 1, width + 1), dtype=np.int32)
        x0 = np.clip(np.asarray(xs, dtype=np.int64) - r, 0, width)
        x1 = np.clip(np.asarray(xs, dtype=np.int64) + r + 1, 0, width)
        y0 = np.clip(np.asarray(ys, dtype=np.int64) - r, 0, height)
        y1 = np.clip(np.asarray(ys, dtype=np.int64) + r + 1, 0, height)
        np.add.at(diff, (y0, x0), 1)
        np.add.at(diff, (y0, x1), -1)
        np.add.at(diff, (y1, x0), -1)
        np.add.at(diff, (y1, x1), 1)
        cover = diff.cumsum(axis=0).cumsum(axis=1)[:height, :width]
        shares.append(np.count_nonzero(cover) / (width * height))
    return float(np.mean(shares)) if shares else 0.0


def per_layer(tracer: Tracer, traced: dict, overhead: float,
              width: int, height: int, keep_ratio: float) -> dict:
    passes = traced["passes"]
    process_events = sum(len(xs) for xs, _ in traced["batches"]) * passes
    regen = np.asarray(tracer.durations("luvharris.regenerate_lut")) * 1e3
    generations = len(regen)
    process_s = tracer.total("luvharris.process")
    phase2_s = tracer.total("luvharris.regenerate_lut")
    lag_ms = traced.get("lag_s", np.zeros(1)) * 1e3
    return {
        "events.parse_s": tracer.total("events.read_stream") / passes,
        "events.write_stream_s": tracer.total("events.write_stream") / passes,
        "events.write_tags_s": tracer.total("events.write_tags") / passes,
        "filters.refractory_s": tracer.total("filters.refractory_filter") / passes,
        "filters.sp_s": tracer.total("filters.sp_filter") / passes,
        "filters.keep_ratio": keep_ratio,
        "surfaces.tos_update_ns_per_event":
            tracer.total("surfaces.update_many") / max(process_events, 1) * 1e9,
        "harris.lut_regen_ms_p50": float(np.percentile(regen, 50)) if generations else 0.0,
        "harris.lut_regen_ms_p99": float(np.percentile(regen, 99)) if generations else 0.0,
        "luvharris.phase1_s": (process_s - phase2_s) / passes,
        "luvharris.phase2_s": phase2_s / passes,
        "luvharris.lut_read_ns_per_event":
            tracer.self_total("luvharris.process") / max(process_events, 1) * 1e9,
        "luvharris.generations": generations / passes,
        "luvharris.events_per_generation": process_events / generations if generations else 0.0,
        "luvharris.dirty_area_fraction": dirty_area_fraction(traced["batches"], width, height),
        "cli.overhead_s": tracer.self_total("cli.main") / passes,
        "live.generator_lag_p99_ms": float(np.percentile(lag_ms, 99)),
        "live.backlog_max_packets": float(traced.get("backlog_max", 0)),
        "trace.overhead_ratio": overhead,
        "trace.missing_entry_points": float(len(tracer.missing)),
    }


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------


def run(args) -> tuple[dict, dict]:
    context = machine_context()
    wl = WORKLOADS[args.workload]
    params = wl["params"]
    # a traced run splits its time between the untraced and the traced pass
    seconds = args.seconds / 2 if args.trace else args.seconds
    if wl["kind"] == "offline":
        ev = params.generate(args.seed)
    else:
        ev = params.generate(args.seed, seconds)
    evc, setup_s = set_up(ev.width, ev.height)
    passes = []
    tracer = Tracer()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if wl["kind"] == "offline":
            job = OfflineJob(evc, wl, ev, workdir)
            try:
                job.run()  # warm-up, and the verified reference for later jobs
                job.failed_events()
                passes.append(offline_pass(job, seconds))
                if args.trace:
                    tracer.install()
                    try:
                        passes.append(offline_pass(job, seconds))
                    finally:
                        tracer.uninstall()
                keep_ratio = len(checks.read_events_csv(job.clean)) / len(ev)
            finally:
                job.close()
            primary = "events_per_s"
        else:
            stream = evc.EventStream.from_arrays(
                evc.SensorGeometry(ev.width, ev.height), ev.t, ev.x, ev.y, ev.p)
            bounds = inputs.packet_bounds(ev, PACKET_US)
            passes.append(live_pass(evc, stream, ev, bounds))
            if args.trace:
                tracer.install()
                try:
                    passes.append(live_pass(evc, stream, ev, bounds))
                finally:
                    tracer.uninstall()
            # checked after tracing, so the reference's Harris calls add no spans
            for res in passes:
                res["failed"] = live_failed_packets(evc, ev, bounds, res.pop("drains"))
            keep_ratio = 0.0
            primary = "delay_p50_ms"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(passes[0], setup_s)
    if args.trace:
        overhead = _overhead(primary, e2e, end_to_end(passes[1], setup_s))
        metrics = per_layer(tracer, passes[1], overhead, ev.width, ev.height, keep_ratio)
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lag_p50_ms = [float(np.percentile(p["lag_s"], 50)) * 1e3 for p in passes if "lag_s" in p]
    info = {
        "workload": args.workload,
        "kind": wl["kind"],
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "seconds_per_pass": seconds,
        "trace": args.trace,
        "params": inputs.describe(params) | {
            k: v for k, v in wl.items() if k not in ("kind", "params")},
        "input_events": len(ev),
        "input_digest": ev.digest(),
        "operations": "events" if wl["kind"] == "offline" else f"{PACKET_US} us packets",
        "delay_samples": [len(g) for g in passes[0]["delay_groups"]],
        "lut_age_samples": [len(g) for g in passes[0]["age_groups"]],
        "failed_ratio": failed / attempted,
        "generator_lag_p50_ms": lag_p50_ms,
        "generator_late": any(v > PACKET_US * 1e-3 for v in lag_p50_ms),
        "missing_entry_points": tracer.missing,
        "layers": tracer.layers() if args.trace else {},
        "machine": context,
    }
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(WORK / f"spans-{stem}.json")
    with open(WORK / f"result-{stem}.json", "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    return info, result


def _overhead(primary: str, untraced: dict, traced: dict) -> float:
    if primary == "events_per_s":
        return untraced[primary] / traced[primary] - 1
    return traced[primary] / untraced[primary] - 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        info, result = run(args)
    except (BenchError, ImportError) as e:
        print(f"evbench: {e}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{args.workload:<16} {name:<34} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:<16} {'failed_ratio':<34} {info['failed_ratio']:>16.6g} ratio "
          f"({result['failed']}/{result['attempted']} {info['operations']})")
    if info["missing_entry_points"]:
        print(f"{args.workload:<16} WARNING: entry points missing, their layers read 0: "
              + ", ".join(info["missing_entry_points"]))
    if info["generator_late"]:
        print(f"{args.workload:<16} WARNING: pacer ran late by more than one packet at p50")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
