import threading

import numpy as np
import pytest

from evcorner import EventStream, LuvHarrisDetector, SensorGeometry, process_chunked
from evcorner.luvharris import HELPER_NAME, WORKER_NAME

# acceptance criteria report lines, printed at the end of the run
ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def record_criterion(number: int, description: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((number, description, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, description, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {number}: {description}")


@pytest.fixture(autouse=True)
def no_lut_worker_left_running():
    """Fail any test that leaves a dual_thread LUT worker or a split
    generation's helper alive: whoever runs a detector must close it, and
    ``regenerate_lut`` must join its helper before it returns."""
    def workers():
        return {t for t in threading.enumerate() if t.name in (WORKER_NAME, HELPER_NAME)}

    before = workers()
    yield
    leaked = workers() - before
    if leaked:
        names = sorted({t.name for t in leaked})
        pytest.fail(f"{len(leaked)} thread(s) still running ({', '.join(names)}); "
                    "close the detector")


@pytest.fixture
def geometry():
    return SensorGeometry(64, 64)


def make_stream(geometry, events):
    """Build a stream from (t, x, y) or (t, x, y, p) tuples."""
    t = np.array([e[0] for e in events], dtype=np.uint64)
    x = np.array([e[1] for e in events], dtype=np.int64)
    y = np.array([e[2] for e in events], dtype=np.int64)
    p = np.array([e[3] if len(e) > 3 else 1 for e in events], dtype=np.uint8)
    return EventStream.from_arrays(geometry, t, x, y, p)


def luvharris_run(stream, config):
    """Run a luvHarris detector over a recorded stream the way the CLI
    does; returns (tags, stats)."""
    with LuvHarrisDetector(stream.geometry, config) as det:
        tags = process_chunked(det, stream)
    return tags, det.stats
