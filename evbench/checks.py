"""Output checks and the references they compare against.

The references are written here, independently of the library: a
refractory and a salt-and-pepper filter over per-pixel dictionaries, a
per-event threshold-ordinal surface that snaps below-threshold cells to 0
after every decrement, and the benchmark's own event/tag CSV reader and
writer. Only the Harris kernel is the library's (``harris_response_map``),
applied to the reference surface; the kernel itself is pinned by the test
suite.

Every check returns the indices of the events it found wrong, so the
caller can count failed operations.
"""

from __future__ import annotations

import numpy as np

from inputs import Events

SCORE_RTOL = 1e-9
# tag files print scores with 6 decimals (fixed or scientific)
PRINT_QUANTUM = 5e-7


def write_events_csv(path, ev: Events) -> None:
    rows = np.stack([ev.t, ev.x, ev.y, ev.p], axis=1)
    with open(path, "w") as f:
        f.write(f"# evcorner v1 csv {ev.width} {ev.height}\n")
        np.savetxt(f, rows, fmt="%d", delimiter=",")


def _read_csv(path, magic: str, n_cols: int) -> tuple[tuple[int, int], np.ndarray]:
    with open(path) as f:
        head = f.readline().split()
        rows = np.loadtxt(f, delimiter=",", dtype=np.float64, ndmin=2)
    if head[:-2] != magic.split() or len(head) != len(magic.split()) + 2:
        raise ValueError(f"{path}: bad header {' '.join(head)!r}")
    if rows.size == 0:
        rows = np.zeros((0, n_cols))
    if rows.shape[1] != n_cols:
        raise ValueError(f"{path}: expected {n_cols} columns, got {rows.shape[1]}")
    return (int(head[-2]), int(head[-1])), rows


def read_events_csv(path) -> Events:
    (w, h), rows = _read_csv(path, "# evcorner v1 csv", 4)
    cols = rows.astype(np.int64).T
    return Events(w, h, *cols)


def read_tags_csv(path) -> tuple[Events, np.ndarray, np.ndarray]:
    """(events, is_corner, score) as printed in a tag file."""
    (w, h), rows = _read_csv(path, "# evcorner v1 tags", 6)
    ints = rows[:, :5].astype(np.int64).T
    return Events(w, h, *ints[:4]), ints[4] != 0, rows[:, 5]


def mismatched_rows(got: Events, want: Events) -> np.ndarray:
    """Indices into ``want`` whose (t, x, y, p) row ``got`` does not repeat
    at the same position. A missing or extra row breaks the one-tag-per-
    event alignment, so then every row counts as wrong."""
    if len(got) != len(want) or (got.width, got.height) != (want.width, want.height):
        return np.arange(max(len(want), 1))
    bad = np.zeros(len(want), dtype=bool)
    for a, b in ((got.t, want.t), (got.x, want.x), (got.y, want.y), (got.p, want.p)):
        bad |= np.asarray(a, dtype=np.int64) != np.asarray(b, dtype=np.int64)
    return np.flatnonzero(bad)


def reference_filter(ev: Events, refractory_us: int, sp_window_us: int,
                     neighborhood: int = 1) -> Events:
    """Refractory filter, then salt-and-pepper filter, as ``evcorner filter``
    applies them. Both are causal, so filtering a prefix of the input gives
    a prefix of the output."""
    keep = np.zeros(len(ev), dtype=bool)
    last_kept: dict[tuple[int, int], int] = {}
    ts, xs, ys = ev.t.tolist(), ev.x.tolist(), ev.y.tolist()
    for i, (t, x, y) in enumerate(zip(ts, xs, ys)):
        prev = last_kept.get((x, y))
        if refractory_us == 0 or prev is None or t - prev > refractory_us:
            keep[i] = True
            last_kept[(x, y)] = t
    ev = _select(ev, keep)
    if sp_window_us == 0:
        return ev
    keep = np.zeros(len(ev), dtype=bool)
    last: dict[tuple[int, int], int] = {}
    nb = range(-neighborhood, neighborhood + 1)
    for i, (t, x, y) in enumerate(zip(ev.t.tolist(), ev.x.tolist(), ev.y.tolist())):
        keep[i] = any(
            (x + dx, y + dy) in last and t - last[(x + dx, y + dy)] <= sp_window_us
            for dy in nb for dx in nb
        )
        last[(x, y)] = t
    return _select(ev, keep)


def _select(ev: Events, keep: np.ndarray) -> Events:
    return Events(ev.width, ev.height, ev.t[keep], ev.x[keep], ev.y[keep], ev.p[keep])


def reference_scores(ev: Events, batch_ends: list[int], k_tos: int, t_tos: int,
                     response_map) -> np.ndarray:
    """Score of each event of the first ``batch_ends[-1]`` events when every
    batch is tagged by the Harris map of the surface as it stood before the
    batch (the previous batch's surface; all zero before the first)."""
    h, w = ev.height, ev.width
    surface = np.zeros((h, w), dtype=np.int32)
    out = np.empty(batch_ends[-1] if batch_ends else 0)
    i0 = 0
    xs, ys = ev.x.tolist(), ev.y.tolist()
    for i1 in batch_ends:
        scores = response_map(surface)
        out[i0:i1] = scores[ev.y[i0:i1], ev.x[i0:i1]]
        for x, y in zip(xs[i0:i1], ys[i0:i1]):
            win = surface[max(y - k_tos, 0):y + k_tos + 1, max(x - k_tos, 0):x + k_tos + 1]
            win -= 1
            win[win < t_tos] = 0
            surface[y, x] = 255
        i0 = i1
    return out


def exact_score_mismatch(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.abs(got - want) > SCORE_RTOL * np.maximum(np.abs(want), 1.0))


def printed_score_mismatch(printed: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Like ``exact_score_mismatch``, widened by what printing can lose."""
    a = np.abs(want)
    fixed = (a >= 0.1) & (a < 1e16)
    quantum = np.where(fixed, PRINT_QUANTUM, PRINT_QUANTUM * a)
    tol = quantum + SCORE_RTOL * np.maximum(a, 1.0)
    return np.flatnonzero(np.abs(printed - want) > tol)
