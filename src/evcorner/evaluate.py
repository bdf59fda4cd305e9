"""Accuracy evaluation: ground-truth ingestion, precision-recall curves,
and fixed-recall precision comparison.

Ground truth arrives as a per-event score file aligned by index with an
event stream (this package consumes ground truth, it never generates it):

    header ``# evcorner v1 gtscores <count>``, then one real per line.

Scores are binarised by taking the top ``corner_fraction`` of events as
true corners (ties broken stably by event index and flagged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CountMismatch, FormatError, InvalidParameter, Misalignment, RecallNotSpanned
from .events import EventStream, Tags

GT_MAGIC = "# evcorner v1 gtscores"


@dataclass
class GroundTruth:
    scores: np.ndarray
    is_corner: np.ndarray
    corner_fraction: float
    tie_broken: bool  # set when the cut fell inside a run of equal scores

    @property
    def n_corners(self) -> int:
        return int(np.count_nonzero(self.is_corner))


def binarize_scores(scores: np.ndarray, corner_fraction: float) -> GroundTruth:
    if not 0.0 < corner_fraction < 1.0:
        raise InvalidParameter(f"corner_fraction must be in (0,1), got {corner_fraction}")
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    k = int(round(n * corner_fraction))
    mask = np.zeros(n, dtype=bool)
    tie = False
    if k > 0:
        # stable: equal scores rank by event index
        order = np.lexsort((np.arange(n), -scores))
        top = order[:k]
        mask[top] = True
        if k < n:
            tie = bool(scores[order[k - 1]] == scores[order[k]])
    return GroundTruth(scores, mask, corner_fraction, tie)


def load_ground_truth(path, stream: EventStream, corner_fraction: float = 0.2) -> GroundTruth:
    with open(path, "r") as f:
        header = f.readline()
        if not header:
            raise FormatError("empty ground-truth file", line=1)
        parts = header.strip().split()
        want = GT_MAGIC.split()
        if parts[: len(want)] != want or len(parts) != len(want) + 1:
            raise FormatError(f"bad header, expected '{GT_MAGIC} <count>'", line=1)
        try:
            count = int(parts[-1])
        except ValueError:
            raise FormatError("header count not an integer", line=1) from None
        vals = []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                vals.append(float(line))
            except ValueError:
                raise FormatError(f"non-numeric score {line!r}", line=lineno) from None
    if len(vals) != count:
        raise CountMismatch(f"header says {count} scores, file holds {len(vals)}")
    if count != len(stream):
        raise CountMismatch(f"{count} scores for {len(stream)} events")
    return binarize_scores(np.array(vals), corner_fraction)


@dataclass
class PrCurve:
    points: list  # (parameter, precision, recall), sweep order
    detector: str = ""

    def recalls(self) -> np.ndarray:
        return np.array([r for _, _, r in self.points])

    def precisions(self) -> np.ndarray:
        return np.array([p for _, p, _ in self.points])


def _decisions(entry) -> np.ndarray:
    if isinstance(entry, Tags):
        return entry.is_corner
    return np.asarray(entry, dtype=bool)


def pr_curve(sweep, gt: GroundTruth, detector: str = "") -> PrCurve:
    """Precision/recall per sweep point against binarised ground truth.

    Points with no detections have undefined precision and are omitted
    (their recall is necessarily 0).
    """
    n_corners = gt.n_corners
    points = []
    for param, entry in sweep:
        det = _decisions(entry)
        if len(det) != len(gt.is_corner):
            raise Misalignment(f"{len(det)} decisions vs {len(gt.is_corner)} truths")
        tp = int(np.count_nonzero(det & gt.is_corner))
        n_det = int(np.count_nonzero(det))
        if n_det == 0:
            continue
        precision = tp / n_det
        recall = tp / n_corners if n_corners else 0.0
        points.append((param, precision, recall))
    return PrCurve(points, detector)


def precision_at_recall(curve: PrCurve, target_recall: float = 0.5) -> float:
    """Precision at the given recall, linearly interpolated between the
    bracketing sweep points."""
    if not curve.points:
        raise RecallNotSpanned("empty curve")
    rs = curve.recalls()
    ps = curve.precisions()
    order = np.argsort(rs, kind="stable")
    rs = rs[order]
    ps = ps[order]
    if target_recall < rs[0] or target_recall > rs[-1]:
        raise RecallNotSpanned(
            f"recall {target_recall} outside curve span [{rs[0]:.3f}, {rs[-1]:.3f}]"
        )
    i = int(np.searchsorted(rs, target_recall, side="left"))
    if rs[i] == target_recall:
        return float(ps[i])
    r0, r1 = rs[i - 1], rs[i]
    p0, p1 = ps[i - 1], ps[i]
    frac = (target_recall - r0) / (r1 - r0)
    return float(p0 + frac * (p1 - p0))
