"""Image I/O, letterbox geometry, and box-overlay rendering."""

import numpy as np
import pytest

from edgeyolo import images
from edgeyolo.images import ImageError, LetterboxTransform
from edgeyolo.postprocess import Box, Detection


def _rand_img(rng, h, w):
    return rng.random((3, h, w)).astype(np.float32)


# ---------------------------------------------------------------------------
# PPM round trips and header handling
# ---------------------------------------------------------------------------

def test_ppm_round_trip_quantization_bound(tmp_path):
    rng = np.random.default_rng(11)
    img = _rand_img(rng, 17, 23)
    p = tmp_path / "a.ppm"
    images.write_ppm(p, img)
    back = images.read_ppm(p)
    assert back.shape == img.shape
    assert back.dtype == np.float32
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-7


def test_ppm_round_trip_exact_on_u8_grid(tmp_path):
    # values already on the u8 grid survive write/read bit-exactly
    rng = np.random.default_rng(12)
    img = (rng.integers(0, 256, (3, 9, 9)) / 255.0).astype(np.float32)
    p = tmp_path / "grid.ppm"
    images.write_ppm(p, img)
    back = images.read_ppm(p)
    assert np.array_equal(back, img)


def test_ppm_header_comments_and_whitespace(tmp_path):
    raster = bytes(range(4 * 2 * 3))
    raw = b"P6\n# made by hand\n4 2 # trailing note\n255\n" + raster
    p = tmp_path / "c.ppm"
    p.write_bytes(raw)
    img = images.read_ppm(p)
    assert img.shape == (3, 2, 4)
    expect = np.frombuffer(raster, dtype=np.uint8).reshape(2, 4, 3)
    assert np.array_equal((img * 255).astype(np.uint8),
                          expect.transpose(2, 0, 1))


def test_ppm_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(ImageError):
        images.read_ppm(p)


def test_ppm_rejects_wrong_maxval(tmp_path):
    p = tmp_path / "m.ppm"
    for maxval in (b"65535", b"0", b"-255", b"ff"):
        p.write_bytes(b"P6\n2 2\n" + maxval + b"\n" + bytes(24))
        with pytest.raises(ImageError):
            images.read_ppm(p)


def test_ppm_rejects_short_raster(tmp_path):
    p = tmp_path / "s.ppm"
    p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(ImageError):
        images.read_ppm(p)


def test_ppm_rejects_truncated_header(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n4")
    with pytest.raises(ImageError):
        images.read_ppm(p)
    # malformed sizes are header errors too, not reshape or letterbox faults
    for dims in (b"ab 4", b"-1 -1", b"0 4", b"4 0", b"1" * 5000 + b" 4"):
        p.write_bytes(b"P6\n" + dims + b"\n255\n" + bytes(48))
        with pytest.raises(ImageError):
            images.read_ppm(p)


def test_write_ppm_rejects_non_chw():
    with pytest.raises(ImageError):
        images.write_ppm("/tmp/never-written.ppm", np.zeros((4, 4, 3)))


def test_read_image_dispatch(tmp_path):
    rng = np.random.default_rng(13)
    img = _rand_img(rng, 8, 8)
    p = tmp_path / "d.ppm"
    images.write_ppm(p, img)
    assert np.array_equal(images.read_image(p), images.read_ppm(p))
    with pytest.raises(ImageError):
        images.read_image(tmp_path / "x.jpg")


def test_read_image_png_round_trip(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    rng = np.random.default_rng(14)
    u8 = rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)
    p = tmp_path / "p.png"
    PIL.fromarray(u8, "RGB").save(p)
    img = images.read_image(p)
    assert img.shape == (3, 6, 5)
    assert np.array_equal((img * 255).astype(np.uint8), u8.transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# resize and letterbox geometry
# ---------------------------------------------------------------------------

def test_resize_nearest_identity():
    rng = np.random.default_rng(15)
    img = _rand_img(rng, 10, 14)
    assert np.array_equal(images.resize_nearest(img, 14, 10), img)


def test_resize_nearest_2x_block_structure():
    rng = np.random.default_rng(16)
    img = _rand_img(rng, 6, 4)
    up = images.resize_nearest(img, 8, 12)
    for i in range(12):
        for j in range(8):
            assert np.array_equal(up[:, i, j], img[:, i // 2, j // 2])


def test_resize_nearest_rejects_bad_size():
    img = np.zeros((3, 4, 4), dtype=np.float32)
    with pytest.raises(ImageError):
        images.resize_nearest(img, 0, 4)


def test_letterbox_wide_image_geometry():
    rng = np.random.default_rng(17)
    img = _rand_img(rng, 50, 100)
    canvas, t = images.letterbox(img, 64)
    assert canvas.shape == (3, 64, 64)
    assert t.scale == pytest.approx(0.64)
    assert (t.pad_x, t.pad_y) == (0.0, 16.0)
    # bands above and below the content are pure fill
    assert np.all(canvas[:, :16, :] == 0.5)
    assert np.all(canvas[:, 48:, :] == 0.5)
    assert np.array_equal(canvas[:, 16:48, :], images.resize_nearest(img, 64, 32))


def test_letterbox_square_image_fills_canvas():
    rng = np.random.default_rng(18)
    img = _rand_img(rng, 32, 32)
    canvas, t = images.letterbox(img, 64)
    assert (t.pad_x, t.pad_y) == (0.0, 0.0)
    assert t.scale == pytest.approx(2.0)
    # content covers the whole canvas, no fill border anywhere
    assert np.array_equal(canvas, images.resize_nearest(img, 64, 64))


@pytest.mark.parametrize("shape", [(3, 0, 20), (3, 20, 0), (0, 20, 20), (20, 20),
                                   (1, 3, 20, 20)])
def test_letterbox_rejects_empty_or_non_chw_arrays(shape):
    with pytest.raises(ImageError, match="CxHxW"):
        images.letterbox(np.zeros(shape, dtype=np.float32), 32)


def test_letterbox_transform_inverse_identity():
    t = LetterboxTransform(scale=0.37, pad_x=11.0, pad_y=3.0)
    rng = np.random.default_rng(19)
    src = rng.random((200, 4)) * 100 + 1
    canvas = src * t.scale + (t.pad_x, t.pad_y, 0.0, 0.0)
    np.testing.assert_allclose(t.boxes_to_source(canvas), src, rtol=0, atol=1e-9)


def test_map_detections_to_source():
    t = LetterboxTransform(scale=0.64, pad_x=0.0, pad_y=16.0)
    d = Detection(Box(32.0, 32.0, 12.8, 6.4), 1, 0.9)
    (back,) = images.map_detections_to_source([d], t)
    assert back.class_id == 1 and back.score == 0.9
    assert (back.box.cx, back.box.cy) == pytest.approx((50.0, 25.0))
    assert (back.box.w, back.box.h) == pytest.approx((20.0, 10.0))


# ---------------------------------------------------------------------------
# overlay rendering
# ---------------------------------------------------------------------------

def test_draw_detections_outlines_box():
    img = np.zeros((3, 32, 32), dtype=np.float32)
    d = Detection(Box(10.0, 10.0, 4.0, 4.0), 0, 1.0)
    out = images.draw_detections(img, [d])
    color = np.array([1.0, 0.2, 0.2], dtype=np.float32)
    for ch in range(3):
        assert np.all(out[ch, 8, 8:13] == color[ch])   # top edge
        assert np.all(out[ch, 12, 8:13] == color[ch])  # bottom edge
        assert np.all(out[ch, 8:13, 8] == color[ch])   # left edge
        assert np.all(out[ch, 8:13, 12] == color[ch])  # right edge
    assert np.all(out[:, 9:12, 9:12] == 0.0)           # interior untouched
    assert np.all(img == 0.0)                          # input not mutated


def test_draw_detections_clamps_out_of_bounds():
    img = np.zeros((3, 16, 16), dtype=np.float32)
    d = Detection(Box(0.0, 0.0, 100.0, 100.0), 2, 0.5)
    out = images.draw_detections(img, [d])
    assert out.shape == img.shape
    assert np.isfinite(out).all()


@pytest.mark.parametrize("cx,cy", [(-40.0, 10.0), (70.0, 10.0), (15.0, -30.0), (15.0, 45.0)])
def test_draw_detections_skips_box_off_canvas(cx, cy):
    # a 10x6 box wholly outside a 30x20 image paints nothing, not a border line
    img = np.zeros((3, 20, 30), dtype=np.float32)
    out = images.draw_detections(img, [Detection(Box(cx, cy, 10.0, 6.0), 0, 0.9)])
    assert np.all(out == 0.0)
