"""Visualization emitters: surface images, corner-trail frames, and CSV
exports of delay traces and precision-recall curves.

Images are written as binary PGM (P5) to stay codec-free; converting to
anything fancier is the caller's concern. All emitters are deterministic
functions of their inputs.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .bench import DelayTrace
from .errors import InvalidParameter
from .evaluate import PrCurve
from .events import Tags, format_score
from .surfaces import TosSurface

DIM_VALUE = 64  # non-corner events
BRIGHT_VALUE = 255  # corner events


def write_pgm(grid, path) -> None:
    g = np.asarray(grid)
    if g.dtype != np.uint8:
        if g.min() < 0 or g.max() > 255:
            raise InvalidParameter("grid values must fit 8 bits")
        g = g.astype(np.uint8)
    h, w = g.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(g.tobytes())


def render_tos(surface, path) -> None:
    """Value-exact 8-bit dump of a threshold-ordinal surface."""
    grid = surface.to_u8() if isinstance(surface, TosSurface) else np.asarray(surface)
    write_pgm(grid, path)


def render_trails(tags: Tags, window_us: int = 100_000) -> list[np.ndarray]:
    """One frame per time window: non-corner events dim, corners bright."""
    if window_us <= 0:
        raise InvalidParameter(f"window_us must be positive, got {window_us}")
    if len(tags) == 0:
        return []
    g = tags.geometry
    t0 = int(tags.t[0])
    span = int(tags.t[-1]) - t0 + 1
    n_frames = math.ceil(span / window_us)
    frames = []
    rel = tags.t.astype(np.int64) - t0
    for k in range(n_frames):
        sel = (rel >= k * window_us) & (rel < (k + 1) * window_us)
        frame = np.zeros((g.height, g.width), dtype=np.uint8)
        dim = sel & ~tags.is_corner
        bright = sel & tags.is_corner
        frame[tags.y[dim], tags.x[dim]] = DIM_VALUE
        frame[tags.y[bright], tags.x[bright]] = BRIGHT_VALUE
        frames.append(frame)
    return frames


def save_frames(frames, out_dir, prefix: str = "frame") -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k, frame in enumerate(frames):
        path = os.path.join(out_dir, f"{prefix}_{k:04d}.pgm")
        write_pgm(frame, path)
        paths.append(path)
    return paths


def export_plot_data(obj, path) -> None:
    """CSV export for external plotting; byte-identical for equal inputs."""
    if isinstance(obj, DelayTrace):
        with open(path, "w") as f:
            f.write("stream_time_us,delay_us\n")
            for st, d in zip(obj.stream_time_us, obj.delay_us):
                f.write(f"{int(st)},{format_score(float(d))}\n")
    elif isinstance(obj, PrCurve):
        with open(path, "w") as f:
            f.write("parameter,precision,recall\n")
            for param, prec, rec in obj.points:
                f.write(f"{param!r},{prec!r},{rec!r}\n")
    else:
        raise InvalidParameter(f"cannot export {type(obj).__name__}")
