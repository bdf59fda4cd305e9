"""Accuracy comparison on the synthetic fixture suite: wedge corners plus
corner-free distractor scenes, with ground truth constructed from the
generators' probe indices."""

import numpy as np
import pytest

from evcorner import (
    ArcDetector,
    EHarrisDetector,
    EventStream,
    LuvHarrisConfig,
    SensorGeometry,
    binarize_scores,
    decision_parameter_sweep,
    pr_curve,
    precision_at_recall,
)
from evcorner.synth import (
    double_edge_secondary_stream,
    salt_pepper_stream,
    wedge_stream,
)

from oracles import FreshLutDetector

GEOMETRY = SensorGeometry(96, 48)


def build_suite():
    """Concatenated fixture stream and the indices of true corner events."""
    parts = []
    corner_idx = []
    offset_t = 0
    offset_n = 0
    for stream, probes in (
        wedge_stream(GEOMETRY, 30, 24, 90, n_probes=10),
        wedge_stream(GEOMETRY, 66, 24, 270, n_probes=10),
        (double_edge_secondary_stream(GEOMETRY, stragglers_per_step=3)[0],
         np.array([], dtype=int)),
        (salt_pepper_stream(GEOMETRY, 300, seed=5), np.array([], dtype=int)),
    ):
        parts.append(
            EventStream(GEOMETRY, stream.t + np.uint64(offset_t), stream.x, stream.y, stream.p)
        )
        corner_idx.extend((probes + offset_n).tolist())
        offset_t += int(stream.t[-1]) + 1_000_000
        offset_n += len(stream)
    merged = EventStream(
        GEOMETRY,
        np.concatenate([s.t for s in parts]),
        np.concatenate([s.x for s in parts]),
        np.concatenate([s.y for s in parts]),
        np.concatenate([s.p for s in parts]),
    )
    scores = np.zeros(len(merged))
    scores[corner_idx] = 1.0
    gt = binarize_scores(scores, len(corner_idx) / len(merged))
    assert gt.n_corners == len(corner_idx) and not gt.tie_broken
    return merged, gt


@pytest.fixture(scope="module")
def suite():
    return build_suite()


def _p50(detector, stream, gt, n_points=24):
    sweep = decision_parameter_sweep(detector, stream, n_points=n_points)
    return precision_at_recall(pr_curve(sweep, gt), 0.5)


def test_luvharris_beats_arc_at_half_recall(suite):
    stream, gt = suite
    luv = FreshLutDetector(GEOMETRY, LuvHarrisConfig(), 64)
    p_luv = _p50(luv, stream, gt)
    p_arc = _p50(ArcDetector(GEOMETRY), stream, gt)
    assert p_luv >= p_arc
    assert p_luv > 0


def test_relative_improvement_report_over_eharris(suite):
    stream, gt = suite
    p_eh = _p50(EHarrisDetector(GEOMETRY), stream, gt)
    report = {}
    for name, det in (
        ("luvharris", FreshLutDetector(GEOMETRY, LuvHarrisConfig(), 64)),
        ("arc", ArcDetector(GEOMETRY)),
    ):
        report[name] = (_p50(det, stream, gt) - p_eh) / p_eh
    assert np.isfinite(list(report.values())).all()
    assert report["luvharris"] >= report["arc"]
