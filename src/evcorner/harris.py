"""Harris response kernel: Sobel derivatives, windowed gradient products,
and the corner response, over whole frames, dirty tiles or single pixels.

The frame path and the per-pixel path are deliberately different
implementations of the same arithmetic: the frame path runs separable
filters over row strips, the per-pixel :class:`PatchEvaluator`, which
eHarris uses, gathers a mirror-extended local region and evaluates only the
requested pixel. They agree to ~1e-12 relative everywhere, including image
borders.

The frame path is translation-exact: a rectangle is evaluated from itself
plus a ``reach`` halo, mirror padding applies only at the frame's edges,
and every filter output is a sum over a fixed neighbourhood in a fixed
order (exact for the block sums of integer images). A pixel's score is
therefore bit-identical whichever rectangle it was computed in, so a full
frame is simply every strip, and recomputing only the rectangles that
cover some tiles (:func:`dirty_rects`) reproduces the full-frame map
exactly.

A rectangle is evaluated in one of two forms of the same arithmetic. The
strip form runs separable filters over the rectangle's crop; it costs
about 60 numpy/scipy calls however large the rectangle, so it suits
strips. The small form, for a rectangle of at most ``SMALL_RECT_TILES``
tiles a side on a raw TOS, is a few small dense matmuls with the
reflect-101 folding built into the operators; its cost grows with the
rectangle's area times its side, so it wins only on small rectangles
(2-3.5x on 32x32 to 32x64, level with the strip form at 64x128). The two
are bit-identical because every sum before the division by the block
area is an integer below 2**53, where float64 addition is exact in any
order: on a TOS (values in [0, 255]) |Ix| and |Iy| are at most
255 * sum|deriv| * sum(smooth) (24480 at aperture 5), and a block sum is
below block_size**2 times that squared (3e10 at the defaults). Where that
bound fails (block 7 with aperture 11, say), or the image is not a TOS,
only the strip form runs.

Both forms work in a per-thread workspace, so the two threads of a split
``luvharris.regenerate_lut`` generation evaluate rectangles of one frame at
once. ``harris_response_map`` stays on one thread.

Conventions (fixed, and what the tests pin down):

* derivative kernels are the classic binomial-smoothed central difference
  ([-1,0,1] for aperture 3, [-1,-2,0,2,1] for 5, ...), unnormalised; their
  sign cannot be observed in the response, which reads Ix and Iy only
  through the block means of Ix², Iy² and the square of that of IxIy;
* gradient products are aggregated with a block *mean* (box filter);
* borders are reflect-101 ("mirror") padded;
* scores are raw — thresholds are interpreted on unnormalised responses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np
import scipy.ndimage as ndi
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ImageTooSmall, InvalidParameter

# side of the square tiles a partial regeneration tracks
TILE = 32
# pixels per evaluated strip (32 rows at 1280 wide): bounds a full frame's
# temporaries at four strip-sized float64 arrays (plus halo rows), and
# keeps narrow frames in few strips so per-call costs stay small; a LUT
# also stores, shares and copies its scores by these strips, so a
# generation that touches one tile row at 1280 wide copies 327 kB
STRIP_PIXELS = 32 * 1280
# rectangles of at most this many tiles a side take the small form (see
# above); past 2x2 tiles its matmuls cost as much as the strip form's calls
SMALL_RECT_TILES = 2


@dataclass(frozen=True)
class HarrisParams:
    block_size: int = 7
    sobel_aperture: int = 5
    kappa: float = 0.04

    def __post_init__(self):
        if self.sobel_aperture < 3 or self.sobel_aperture % 2 == 0:
            raise InvalidParameter(f"sobel_aperture must be odd and >= 3, got {self.sobel_aperture}")
        if self.block_size < 1 or self.block_size % 2 == 0:
            raise InvalidParameter(f"block_size must be odd and >= 1, got {self.block_size}")
        if not (self.kappa > 0 and np.isfinite(self.kappa)):
            raise InvalidParameter(f"kappa must be finite and > 0, got {self.kappa}")

    @property
    def reach(self) -> int:
        """How far a score looks: block plus Sobel half-widths, in pixels."""
        return self.block_size // 2 + self.sobel_aperture // 2


def deriv_kernels(aperture: int) -> tuple[np.ndarray, np.ndarray]:
    """1-D (derivative, smoothing) kernel pair for a given Sobel aperture."""
    if aperture < 3 or aperture % 2 == 0:
        raise InvalidParameter(f"aperture must be odd and >= 3, got {aperture}")
    smooth = np.array([1.0])
    for _ in range(aperture - 1):
        smooth = np.convolve(smooth, [1.0, 1.0])  # binomial row, length = aperture
    deriv = np.array([-1.0, 0.0, 1.0])
    for _ in range((aperture - 3) // 2):
        deriv = np.convolve(deriv, [1.0, 2.0, 1.0])
    return deriv, smooth


def _check_image(image, aperture: int) -> np.ndarray:
    img = np.asarray(image)
    if img.ndim != 2:
        raise InvalidParameter(f"expected 2-D image, got shape {img.shape}")
    if min(img.shape) < aperture:
        raise ImageTooSmall(f"image {img.shape} smaller than aperture {aperture}")
    return img


def harris_response_map(image, params: HarrisParams = HarrisParams()) -> np.ndarray:
    """Harris response R = det(M) - kappa * tr(M)^2 over the whole of
    ``image``, evaluated as the strips of ``dirty_rects``."""
    img = _check_image(image, params.sobel_aperture)
    out = np.empty(img.shape)
    for (y0, y1, x0, x1), values in response_rects(img, params, dirty_rects(img.shape)):
        out[y0:y1, x0:x1] = values
    return out


def response_rects(image, params: HarrisParams, rects, snap_below: int | None = None):
    """Yield each ``(y0, y1, x0, x1)`` rectangle with the Harris response on
    it, as a view into a per-thread workspace that the next step reuses.

    Each rectangle should hold about ``STRIP_PIXELS`` at most (the
    rectangles of ``dirty_rects`` do), so the temporaries stay strip-sized.
    With ``snap_below``, ``image`` is a raw TOS and cells below it read as 0.
    """
    img = _check_image(image, params.sobel_aperture)
    rect = _RectResponse.of(img.shape[0], params, snap_below)
    for r in rects:
        yield r, rect(img, *r)


def tile_grid(shape: tuple[int, int]) -> tuple[int, int]:
    """Rows and columns of ``TILE`` x ``TILE`` tiles covering ``shape``;
    the last row and column may be partial."""
    return -(-shape[0] // TILE), -(-shape[1] // TILE)


def dirty_tiles(xs, ys, shape: tuple[int, int], radius: int) -> np.ndarray:
    """``tile_grid`` mask of the tiles holding a pixel within ``radius``
    (max norm) of any of the events: the scores the events can change."""
    h, w = shape
    x = np.asarray(xs, dtype=np.int64)
    y = np.asarray(ys, dtype=np.int64)
    tx0, tx1 = np.maximum(x - radius, 0) // TILE, np.minimum(x + radius, w - 1) // TILE
    ty0, ty1 = np.maximum(y - radius, 0) // TILE, np.minimum(y + radius, h - 1) // TILE
    mask = np.zeros(tile_grid(shape), dtype=bool)
    span = 2 * radius // TILE + 2  # most tiles one event's square meets per axis
    for dy in range(span):
        rows = np.minimum(ty0 + dy, ty1)
        for dx in range(span):
            mask[rows, np.minimum(tx0 + dx, tx1)] = True
    return mask


def strip_rows(shape: tuple[int, int]) -> int:
    """Rows of each strip of a frame: the most whole tile rows within
    ``STRIP_PIXELS``, at least one (32 rows at 1280 wide, 64 at 640);
    the last strip may be shorter."""
    return max(STRIP_PIXELS // (shape[1] * TILE), 1) * TILE


def dirty_rects(shape: tuple[int, int], dirty: np.ndarray | None = None) -> list:
    """``(y0, y1, x0, x1)`` rectangles covering the tiles marked in
    ``dirty`` (a ``tile_grid`` mask; None marks all).

    Each strip (see ``strip_rows``) holding a dirty tile row gives one
    rectangle per run of tile columns dirty in any of its tile rows,
    spanning its first to last dirty tile row; so an all-dirty frame is
    exactly its strips. Strips are visited in order and clean ones are
    skipped without being looked at.
    """
    h, w = shape
    if dirty is None:
        dirty = np.ones(tile_grid(shape), dtype=bool)
    per_strip = strip_rows(shape) // TILE
    rects = []
    dirty_rows = np.flatnonzero(dirty.any(axis=1)).tolist()
    for _, rows in groupby(dirty_rows, key=lambda r: r // per_strip):
        rows = list(rows)
        y0, y1 = rows[0] * TILE, min((rows[-1] + 1) * TILE, h)
        cols = np.zeros(dirty.shape[1] + 2, dtype=bool)  # clean column each side
        cols[1:-1] = dirty[rows[0] : rows[-1] + 1].any(axis=0)
        edges = np.flatnonzero(cols[1:] != cols[:-1]).tolist()
        rects += [(y0, y1, c0 * TILE, min(c1 * TILE, w))
                  for c0, c1 in zip(edges[::2], edges[1::2])]
    return rects


class _RectResponse:
    """Harris response on rectangles of images ``h`` rows high; the kernels
    and row mirror maps are built once per frame.

    A rectangle of at most ``SMALL_RECT_TILES`` tiles a side goes to
    ``_small`` when ``snap_below`` is set (the image is a raw TOS) and the
    block sums of a TOS stay below 2**53 at these parameters (see the
    module docstring); every other rectangle takes the strip form below.

    A rectangle is read with a ``reach`` halo. Columns: the halo is clipped
    at the frame and the row-wise filters mirror-pad the crop, which matters
    only at real frame edges. Rows: the halo is gathered whole (mirrored
    where it leaves the frame), and the column-wise filters sum shifted
    rows, keeping only the rows the kernel fully covers, which is fast on
    C-ordered arrays. The gradient products are re-mirrored at the frame's
    top and bottom before their block sum, as a frame-wide filter would.
    Four crop-sized float64 arrays are reused in place, from a per-thread
    workspace kept across calls (fresh ones made the allocator return and
    re-fault the memory every generation), so the two threads of a split
    generation share the instance but not the buffers; the box sums add
    ones-weighted taps (exact on integer images) and divide once.
    """

    @staticmethod
    @lru_cache(maxsize=8)
    def of(h: int, params: HarrisParams, snap_below: int | None) -> "_RectResponse":
        """Shared instance per frame height and parameters; only its cache
        of small-form operators grows."""
        return _RectResponse(h, params, snap_below)

    def __init__(self, h: int, params: HarrisParams, snap_below: int | None):
        self.params = params
        self.snap_below = snap_below
        self.bw = params.block_size // 2
        self.kd, self.ks = deriv_kernels(params.sobel_aperture)
        self.box = np.ones(params.block_size)
        self.area = float(params.block_size**2)
        # source row of each halo'd image row, and of each gradient row
        # (coordinates from -reach, resp. -bw), under reflect-101
        self.image_rows = _mirror_indices(h, params.reach)
        self.grad_rows = _mirror_indices(h, self.bw) - np.arange(-self.bw, h + self.bw)
        # the small form's float64 sums are exact while a TOS's (values in
        # [0, 255]) largest block sum stays below 2**53
        grad = 255 * int(np.abs(self.kd).sum()) * int(self.ks.sum())
        exact = snap_below is not None and params.block_size**2 * grad**2 < 2**53
        self.small_side = SMALL_RECT_TILES * TILE if exact else 0
        self._axes = {}  # small-form operators per axis key, see _axis
        self._local = threading.local()

    def _workspace(self, size: int) -> list[np.ndarray]:
        """Four flat float64 buffers of at least ``size`` cells."""
        flat = getattr(self._local, "flat", None)
        if flat is None or flat[0].size < size:
            flat = self._local.flat = [np.empty(size) for _ in range(4)]
        return flat

    def __call__(self, img: np.ndarray, y0: int, y1: int, x0: int, x1: int) -> np.ndarray:
        """The response on ``img[y0:y1, x0:x1]``, as a view into the calling
        thread's workspace: valid until that thread's next call."""
        if y1 - y0 <= self.small_side and x1 - x0 <= self.small_side:
            return self._small(img, y0, y1, x0, x1)
        p, bw = self.params, self.bw
        reach = p.reach
        n, m = y1 - y0, 2 * bw + y1 - y0  # output rows; gradient rows
        q0, q1 = max(x0 - reach, 0), min(x1 + reach, img.shape[1])
        crop = img[self.image_rows[y0 : y1 + 2 * reach], q0:q1]
        size = crop.shape[0] * crop.shape[1]
        a, b, c, d = (f[:size].reshape(crop.shape) for f in self._workspace(size))
        if self.snap_below is None:
            np.copyto(a, crop)
        else:
            np.multiply(crop, crop >= self.snap_below, out=a)
        ndi.correlate1d(a, self.kd, axis=1, output=b, mode="mirror")
        ix = _correlate_rows(b, self.ks, c[:m], d)
        ndi.correlate1d(a, self.ks, axis=1, output=b, mode="mirror")
        iy = _correlate_rows(b, self.kd, a[:m], d)
        # gradient rows beyond the frame mirror the products, not the image
        shift = self.grad_rows[y0 : y1 + 2 * bw]
        fold = np.flatnonzero(shift)
        src = fold + shift[fold]

        def block_sum(prod, tmp):
            prod[fold] = prod[src]
            rows = _correlate_rows(prod, self.box, tmp[:n], None)
            return ndi.correlate1d(rows, self.box, axis=1, output=prod[:n], mode="mirror")

        gxx = block_sum(np.multiply(ix, ix, out=b[:m]), d)
        gxy = block_sum(np.multiply(ix, iy, out=d[:m]), c)
        gyy = block_sum(np.multiply(iy, iy, out=c[:m]), a)
        inner = np.s_[:, x0 - q0 : x1 - q0]
        gxx, gxy, gyy = gxx[inner], gxy[inner], gyy[inner]
        for g in (gxx, gxy, gyy):
            g /= self.area
        return _response(gxx, gxy, gyy, a[:n][inner], p.kappa)

    def _small(self, img: np.ndarray, y0: int, y1: int, x0: int, x1: int) -> np.ndarray:
        """``__call__`` on a small rectangle of a raw TOS, as matmuls with
        the operators of ``_axis``: Ix = S_r A D_c^T, Iy = D_r A S_c^T on
        the snapped crop A, then each product P gives B_r P B_c^T. Every
        sum is an integer below 2**53, so exact in any order."""
        ty, by, (sd_r, _, box_r, _) = self._axis(y0, y1, img.shape[0])
        tx, bx, (_, ds_c, _, box_c) = self._axis(x0, x1, img.shape[1])
        crop = img[y0 - ty : y1 + by, x0 - tx : x1 + bx]
        (ri, ci), rg, cg = crop.shape, box_r.shape[1], box_c.shape[0]
        n, m = y1 - y0, x1 - x0
        f0, f1, f2, f3 = self._workspace(max(ri * ci, 2 * rg * ci, 3 * rg * cg))
        a = f0[: ri * ci].reshape(ri, ci)
        np.multiply(crop, crop >= self.snap_below, out=a)
        t = np.matmul(sd_r, a, out=f1[: 2 * rg * ci].reshape(2 * rg, ci))
        g = np.matmul(t.reshape(2, rg, ci), ds_c, out=f2[: 2 * rg * cg].reshape(2, rg, cg))
        prod = f1[: 3 * rg * cg].reshape(3, rg, cg)  # Ix², IxIy, Iy²
        np.multiply(g[0], g, out=prod[:2])
        np.multiply(g[1], g[1], out=prod[2])
        rows = np.matmul(box_r, prod, out=f0[: 3 * n * cg].reshape(3, n, cg))
        sums = np.matmul(rows, box_c, out=f2[: 3 * n * m].reshape(3, n, m))
        sums /= self.area
        return _response(*sums, f3[: n * m].reshape(n, m), self.params.kappa)

    def _axis(self, start: int, stop: int, length: int):
        """The small form's operators along one axis, for the rectangle
        ``[start, stop)`` of an axis ``length`` long, and how far its crop
        reaches before and after the rectangle.

        The crop is the rectangle plus ``reach`` cells each side, clipped
        at the axis ends; the gradient cells are those the block sums
        read, the rectangle plus ``block_size // 2`` each side, clipped
        likewise. Reflect-101 folding at the axis ends is built into the
        rows of the Sobel pair (crop cells to gradient cells) and of the
        block-sum band (gradient cells to rectangle cells). The operators
        see an axis end only within ``reach``, so they are built once per
        (rectangle length, distance to each end capped at ``reach``) and
        returned as (S stacked on D, (D^T, S^T), B, B^T).
        """
        reach = self.params.reach
        key = (stop - start, min(start, reach), min(length - stop, reach))
        ops = self._axes.get(key)
        if ops is None:
            ops = self._axes[key] = self._axis_operators(*key)
        return key[1], key[2], ops

    def _axis_operators(self, n: int, before: int, after: int) -> tuple:
        bw, sr = self.bw, len(self.kd) // 2
        size = before + n + after  # an axis with the same ends within reach
        g0, g1 = max(before - bw, 0), min(before + n + bw, size)

        def band(cells, pad, weights):
            # row j adds weights[d] at the reflected cell cells[j] - pad + d
            src = _mirror_indices(size, pad)[cells[:, None] + np.arange(len(weights))]
            op = np.zeros((len(cells), size))
            np.add.at(op, (np.arange(len(cells))[:, None], src), weights)
            return op

        deriv = band(np.arange(g0, g1), sr, self.kd)
        smooth = band(np.arange(g0, g1), sr, self.ks)
        box = band(np.arange(before, before + n), bw, self.box)[:, g0:g1]
        return (np.vstack([smooth, deriv]), np.stack([deriv.T, smooth.T]),
                box, np.ascontiguousarray(box.T))


def _response(gxx: np.ndarray, gxy: np.ndarray, gyy: np.ndarray, tr: np.ndarray,
              kappa: float) -> np.ndarray:
    """det(M) - kappa * tr(M)^2 from the block means of Ix², IxIy and Iy²,
    in place in ``gxx`` (``tr`` is scratch), in one fixed order of float
    operations, so equal block means give bit-equal scores."""
    np.add(gxx, gyy, out=tr)
    gxx *= gyy
    gxy *= gxy
    gxx -= gxy
    np.multiply(tr, kappa, out=gxy)
    gxy *= tr
    gxx -= gxy
    return gxx


def _correlate_rows(x: np.ndarray, k: np.ndarray, out: np.ndarray,
                    tmp: np.ndarray | None) -> np.ndarray:
    """Correlation of ``x`` with ``k`` along axis 0 on the ``len(out)`` rows
    the kernel fully covers, tap by tap in a fixed order; ``tmp`` holds the
    weighted taps of a kernel with weights other than 0 and +-1."""
    rows = len(out)
    np.multiply(x[:rows], k[0], out=out)
    for j in range(1, len(k)):
        tap = x[j : j + rows]
        if k[j] == 1:
            out += tap
        elif k[j] == -1:
            out -= tap
        elif k[j]:
            out += np.multiply(tap, k[j], out=tmp[:rows])
    return out


def _mirror_indices(n: int, pad: int) -> np.ndarray:
    """Reflect-101 index map for coordinates [-pad, n + pad)."""
    idx = np.abs(np.arange(-pad, n + pad))
    period = 2 * (n - 1) if n > 1 else 1
    idx = idx % period
    return np.where(idx >= n, period - idx, idx).astype(np.intp)


class PatchEvaluator:
    """Evaluates the Harris response at single pixels of a fixed-size image.

    Precomputes mirror index maps and flattened 2-D kernels so the per-call
    cost is a small gather plus two mat-vecs. Near the border the product
    Ix*Iy needs a sign fix: under reflect-101 the x-derivative is odd in x
    and even in y (vice versa for Iy), so a folded sample flips the sign of
    exactly one factor. Squares are unaffected; the cross term is corrected
    with a per-cell sign table.
    """

    def __init__(self, shape: tuple[int, int], params: HarrisParams = HarrisParams()):
        h, w = shape
        self.params = params
        bw = params.block_size // 2
        sr = params.sobel_aperture // 2
        self.reach = bw + sr
        if min(h, w) <= 2 * self.reach:
            raise ImageTooSmall(
                f"image {shape} too small for block {params.block_size} "
                f"+ aperture {params.sobel_aperture}"
            )
        self.h, self.w = h, w
        self.bw, self.sr = bw, sr
        self.mrow = _mirror_indices(h, self.reach)
        self.mcol = _mirror_indices(w, self.reach)
        kd, ks = deriv_kernels(params.sobel_aperture)
        self.kx = np.outer(ks, kd).ravel()  # smooth rows vertically, differentiate x
        self.ky = np.outer(kd, ks).ravel()
        b = params.block_size
        self.inv_bb = 1.0 / (b * b)
        # sign of a block-window cell's coordinate fold (x and y separately)
        folded_r = (np.arange(-self.reach, h + self.reach) < 0) | (
            np.arange(-self.reach, h + self.reach) >= h
        )
        folded_c = (np.arange(-self.reach, w + self.reach) < 0) | (
            np.arange(-self.reach, w + self.reach) >= w
        )
        self.sign_row = np.where(folded_r, -1.0, 1.0)
        self.sign_col = np.where(folded_c, -1.0, 1.0)
        self._span = 2 * self.reach + 1
        self._wshape = (params.sobel_aperture, params.sobel_aperture)
        self._bb = b * b

    def region(self, image: np.ndarray, x: int, y: int) -> np.ndarray:
        """Mirror-extended (block + aperture - 1)^2 region centred on (x, y)."""
        rows = self.mrow[y : y + self._span]
        cols = self.mcol[x : x + self._span]
        return image[np.ix_(rows, cols)]

    def response_from_region(self, region: np.ndarray, x: int, y: int) -> float:
        wv = sliding_window_view(region, self._wshape).reshape(self._bb, -1)
        gx = wv @ self.kx
        gy = wv @ self.ky
        gxx = (gx @ gx) * self.inv_bb
        gyy = (gy @ gy) * self.inv_bb
        bw = self.bw
        if bw <= x < self.w - bw and bw <= y < self.h - bw:
            gxy = (gx @ gy) * self.inv_bb
        else:
            s = np.outer(
                self.sign_row[y + self.sr : y + self.sr + 2 * bw + 1],
                self.sign_col[x + self.sr : x + self.sr + 2 * bw + 1],
            ).ravel()
            gxy = float(np.dot(gx * gy, s)) * self.inv_bb
        tr = gxx + gyy
        return gxx * gyy - gxy * gxy - self.params.kappa * tr * tr

    def response(self, image: np.ndarray, x: int, y: int) -> float:
        return self.response_from_region(self.region(image, x, y), x, y)
