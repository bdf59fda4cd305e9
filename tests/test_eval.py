import numpy as np
import pytest

from evcorner import (
    ArcDetector,
    CountMismatch,
    EHarrisDetector,
    LuvHarrisConfig,
    LuvHarrisDetector,
    Misalignment,
    PrCurve,
    RecallNotSpanned,
    Tags,
    binarize_scores,
    decision_parameter_sweep,
    load_ground_truth,
    pr_curve,
    precision_at_recall,
)
from evcorner.synth import random_stream

from oracles import write_ground_truth


def test_binarize_top_fraction():
    gt = binarize_scores(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0.2)
    assert gt.is_corner.tolist() == [False, False, False, False, True]
    assert gt.n_corners == 1 and not gt.tie_broken


def test_binarize_all_equal_ties_stable_and_flagged():
    gt = binarize_scores(np.ones(10), 0.3)
    assert gt.is_corner.tolist() == [True] * 3 + [False] * 7
    assert gt.tie_broken


def test_binarize_matches_sort_and_cut_oracle():
    rng = np.random.default_rng(3)
    scores = rng.random(1000)
    gt = binarize_scores(scores, 0.2)
    k = round(1000 * 0.2)
    want = np.zeros(1000, dtype=bool)
    want[np.argsort(-scores, kind="stable")[:k]] = True
    assert np.array_equal(gt.is_corner, want)


def test_load_ground_truth_roundtrip(tmp_path, geometry):
    stream = random_stream(geometry, 50, seed=1)
    scores = np.random.default_rng(2).random(50)
    path = tmp_path / "gt.txt"
    write_ground_truth(scores, path)
    gt = load_ground_truth(path, stream, corner_fraction=0.2)
    assert np.allclose(gt.scores, scores)
    assert gt.n_corners == 10


def test_load_ground_truth_count_mismatch(tmp_path, geometry):
    stream = random_stream(geometry, 10, seed=1)
    path = tmp_path / "gt.txt"
    write_ground_truth(np.ones(9), path)
    with pytest.raises(CountMismatch):
        load_ground_truth(path, stream)


def _tags_for(geometry, n, is_corner, score=None):
    s = random_stream(geometry, n, seed=99)
    score = np.asarray(score if score is not None else is_corner, dtype=float)
    return s, Tags.for_stream(s, np.asarray(is_corner, bool), score)


def test_pr_perfect_detector_is_unit_point(geometry):
    n = 200
    gt = binarize_scores(np.random.default_rng(1).random(n), 0.2)
    _, tags = _tags_for(geometry, n, gt.is_corner)
    curve = pr_curve([(0.5, tags)], gt)
    assert curve.points == [(0.5, 1.0, 1.0)]


def test_pr_no_detections_omitted(geometry):
    n = 100
    gt = binarize_scores(np.random.default_rng(2).random(n), 0.2)
    _, tags = _tags_for(geometry, n, np.zeros(n, bool))
    curve = pr_curve([(1.0, tags)], gt)
    assert curve.points == []


def test_pr_counts_are_consistent(geometry):
    rng = np.random.default_rng(5)
    n = 2000
    gt = binarize_scores(rng.random(n), 0.2)
    det = rng.random(n) < 0.3
    _, tags = _tags_for(geometry, n, det)
    curve = pr_curve([(0.0, tags)], gt)
    _, prec, rec = curve.points[0]
    tp = np.count_nonzero(det & gt.is_corner)
    assert prec == tp / det.sum()
    assert rec == tp / gt.n_corners


def test_pr_random_tagging_precision_converges(geometry):
    rng = np.random.default_rng(7)
    n = 100_000
    frac = 0.2
    gt = binarize_scores(rng.random(n), frac)
    det = rng.random(n) < 0.4  # random, independent of truth
    s = random_stream(geometry, 1, seed=1)  # geometry holder
    tags = Tags(s.geometry, np.zeros(n, np.uint64), np.zeros(n, np.uint16),
                np.zeros(n, np.uint16), np.zeros(n, np.uint8), det, det.astype(float))
    curve = pr_curve([(0.0, tags)], gt)
    _, prec, _ = curve.points[0]
    assert abs(prec - frac) < 0.02


def test_pr_misalignment(geometry):
    gt = binarize_scores(np.random.default_rng(1).random(10), 0.2)
    _, tags = _tags_for(geometry, 9, np.zeros(9, bool))
    with pytest.raises(Misalignment):
        pr_curve([(0.0, tags)], gt)


def test_precision_at_recall_exact_and_interpolated():
    curve = PrCurve([(3.0, 0.9, 0.2), (2.0, 0.7, 0.5), (1.0, 0.4, 1.0)])
    assert precision_at_recall(curve, 0.5) == 0.7
    mid = precision_at_recall(curve, 0.75)
    assert mid == pytest.approx(0.55)
    assert precision_at_recall(PrCurve([(1.0, 1.0, 1.0), (0.5, 1.0, 0.2)]), 0.5) == 1.0


def test_precision_at_recall_not_spanned():
    curve = PrCurve([(1.0, 0.8, 0.3)])
    with pytest.raises(RecallNotSpanned):
        precision_at_recall(curve, 0.5)
    with pytest.raises(RecallNotSpanned):
        precision_at_recall(PrCurve([]), 0.5)


def test_recall_monotone_along_sweeps(geometry):
    stream = random_stream(geometry, 4000, seed=31)
    rng = np.random.default_rng(8)
    gt = binarize_scores(rng.random(len(stream)), 0.2)
    for det in (EHarrisDetector(geometry), ArcDetector(geometry),
                LuvHarrisDetector(geometry, LuvHarrisConfig())):
        sweep = decision_parameter_sweep(det, stream, n_points=10)
        curve = pr_curve(sweep, gt)
        recalls = curve.recalls()
        assert np.all(np.diff(recalls) >= 0)  # sweeps run strict -> loose
