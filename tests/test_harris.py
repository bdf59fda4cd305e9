import tracemalloc

import numpy as np
import pytest

from evcorner import (
    HarrisParams,
    ImageTooSmall,
    InvalidParameter,
    PatchEvaluator,
    harris_response_map,
)
from evcorner.harris import STRIP_PIXELS, TILE, dirty_rects, strip_rows, tile_grid

from oracles import naive_harris_map, scan_dirty_rects


def corner_image(size=32, value=255):
    """Ideal 90-degree corner: bright quadrant on dark background."""
    img = np.zeros((size, size))
    img[size // 2 :, size // 2 :] = value
    return img


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


def test_constant_image_zero_derivatives_and_response():
    img = np.full((16, 16), 137.0)
    p = HarrisParams()
    assert np.allclose(harris_response_map(img, p), 0)


@pytest.mark.parametrize("aperture", [3, 5, 7])
def test_sobel_matches_naive_convolution(aperture):
    # checked through the response: the naive map runs the literal-kernel
    # Sobel convolution inside
    rng = np.random.default_rng(aperture)
    img = rng.integers(0, 256, (16, 16)).astype(np.float64)
    p = HarrisParams(sobel_aperture=aperture)
    got = harris_response_map(img, p)
    want = naive_harris_map(img, p.block_size, aperture, p.kappa)
    assert rel_err(got, want).max() <= 1e-9


def test_map_matches_naive_map():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, (14, 17)).astype(np.float64)
    p = HarrisParams(block_size=5, sobel_aperture=3)
    got = harris_response_map(img, p)
    want = naive_harris_map(img, 5, 3, p.kappa)
    assert rel_err(got, want).max() <= 1e-9


def test_ideal_corner_sign_pattern():
    img = corner_image(32)
    p = HarrisParams()
    r = harris_response_map(img, p)
    apex = r[16, 16]
    horiz_edge = r[16, 24]  # along one straight edge, away from the apex
    vert_edge = r[24, 16]
    assert apex > horiz_edge and apex > vert_edge
    assert horiz_edge < 0 and vert_edge < 0
    assert apex > 0


def test_patch_equals_map_everywhere():
    rng = np.random.default_rng(1)
    p = HarrisParams()
    img = rng.integers(0, 256, (20, 24)).astype(np.float64)
    m = harris_response_map(img, p)
    patch = PatchEvaluator(img.shape, p)
    for y in range(20):
        for x in range(24):
            v = patch.response(img, x, y)
            assert rel_err(np.array(v), m[y, x]).max() <= 1e-9


def test_patch_step_edge_negative():
    img = np.zeros((24, 24))
    img[:, 12:] = 255.0
    assert PatchEvaluator(img.shape).response(img, 12, 12) < 0


def test_rotation_covariance():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (24, 24)).astype(np.float64)
    p = HarrisParams()
    r = harris_response_map(img, p)
    r_rot = harris_response_map(np.rot90(img), p)
    scale = np.maximum(1.0, np.abs(r_rot))
    assert (np.abs(r_rot - np.rot90(r)) / scale).max() <= 1e-9


def test_contrast_scaling_quartic():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 128, (20, 20)).astype(np.float64)
    p = HarrisParams()
    r1 = harris_response_map(img, p)
    r2 = harris_response_map(img * 2.0, p)
    mask = np.abs(r1) > 1e3  # exclude near-zero responses
    assert np.allclose(r2[mask] / r1[mask], 16.0, rtol=1e-9)


def test_errors():
    p = HarrisParams()
    with pytest.raises(ImageTooSmall):
        harris_response_map(np.zeros((4, 4)), p)
    with pytest.raises(InvalidParameter):
        HarrisParams(sobel_aperture=4)
    with pytest.raises(InvalidParameter):
        HarrisParams(block_size=2)
    with pytest.raises(InvalidParameter):
        HarrisParams(kappa=0.0)


@pytest.mark.parametrize("block,aperture", [(3, 3), (7, 5), (9, 7)])
@pytest.mark.parametrize("kind", ["tos", "float"])
def test_crop_with_reach_halo_matches_full_map_bitwise(block, aperture, kind):
    # a rectangle plus its reach halo (clipped at the frame) is evaluated
    # as its own image, so its rows and strips start elsewhere than the
    # frame's; at this width the frame itself spans three strips
    rng = np.random.default_rng(block)
    h, w = 200, 700
    if kind == "tos":
        img = rng.integers(12, 256, (h, w)) * (rng.random((h, w)) < 0.4)
    else:
        img = rng.normal(0.0, 50.0, (h, w))
    p = HarrisParams(block_size=block, sobel_aperture=aperture)
    r = p.reach
    full = harris_response_map(img, p)
    rects = [
        (40, 73, 50, 91),  # interior
        (90, 101, 300, 333),  # across a strip boundary
        (0, 20, 0, 15),  # top-left corner
        (180, 200, 685, 700),  # bottom-right corner
        (0, 200, 60, 70),  # top to bottom
        (70, 75, 0, 700),  # left to right
        (97, 141, 696, 700),  # right edge
    ]
    for y0, y1, x0, x1 in rects:
        cy, cx = max(y0 - r, 0), max(x0 - r, 0)
        crop = img[cy : min(y1 + r, h), cx : min(x1 + r, w)]
        got = harris_response_map(crop, p)[y0 - cy : y1 - cy, x0 - cx : x1 - cx]
        assert np.array_equal(got, full[y0:y1, x0:x1]), (y0, y1, x0, x1)


def test_full_map_memory_is_strip_bounded():
    rng = np.random.default_rng(5)
    img = rng.integers(12, 256, (720, 1280)).astype(np.int32)
    tracemalloc.start()
    try:
        harris_response_map(img, HarrisParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 7.4 MB result plus four strip-sized float64 buffers; whole-frame
    # temporaries peaked at about 56 MB
    assert peak < 16 << 20


@pytest.mark.parametrize("width,height,strips", [(1280, 720, 23), (1300, 100, 4), (640, 480, 8),
                                                 (240, 180, 2), (20, 13, 1)])
def test_dirty_rects_equal_a_scan_of_every_strip(width, height, strips):
    # sparse masks leave most strips clean; dense ones fill whole strips
    rng = np.random.default_rng(width + height)
    grid = tile_grid((height, width))
    masks = [np.zeros(grid, bool), np.ones(grid, bool)]
    masks += [rng.random(grid) < density for density in (0.01, 0.05, 0.3, 0.9) for _ in range(10)]
    for dirty in masks:
        want = scan_dirty_rects((height, width), dirty, TILE, STRIP_PIXELS)
        assert dirty_rects((height, width), dirty) == want
    # an all-dirty frame is its strips: 32 rows each at 1280 wide, 64 at 640
    rows = strip_rows((height, width))
    assert dirty_rects((height, width)) == [
        (y, min(y + rows, height), 0, width) for y in range(0, height, rows)]
    assert -(-height // rows) == strips
