"""Synthetic data pipeline: glyph table, rendering, preprocessing,
robustness transforms, dataset reproducibility, and PGM file handling."""

import os

import numpy as np
import pytest

from psan.data import (GLYPHS, RenderOptions, SyntheticDataset, apply_transform,
                       preprocess, read_pgm, render_word, transform_expanded,
                       transform_padded, transform_r_expanded,
                       transform_r_padded, write_pgm, _split_pad)
from psan.decoder import DEFAULT_CHARSET


def test_glyph_table_covers_charset_distinctly():
    assert set(GLYPHS) == set(DEFAULT_CHARSET.chars)
    assert len({g.tobytes() for g in GLYPHS.values()}) == 94
    for g in GLYPHS.values():
        assert g.shape == (7, 5) and g.dtype == bool
        assert 8 <= g.sum() <= 27  # neither near-empty nor near-full


def test_render_is_deterministic_in_label_and_seed():
    a = render_word("abc", 42)
    b = render_word("abc", 42)
    np.testing.assert_array_equal(a, b)
    # pin the geometry so only the seeded noise/gray draws differ
    opts = RenderOptions(scale=2, gap=1, shear_deg=0.0)
    c = render_word("abc", 42, opts)
    d = render_word("abc", 43, opts)
    assert c.shape == d.shape
    assert np.abs(c - d).max() > 0


def test_render_single_glyph_pixel_exact():
    """All knobs pinned and noise/shear off: the canvas is background with
    the scaled glyph stamped inside a one-pixel border."""
    opts = RenderOptions(scale=3, gap=1, bg=0.2, ink=0.9, noise=0.0, shear_deg=0.0)
    out = render_word("A", 0, opts)
    assert out.shape == (3, 23, 17)
    expected = np.full((23, 17), 0.2)
    block = np.kron(GLYPHS["A"], np.ones((3, 3), dtype=bool))
    expected[1:22, 1:16][block] = 0.9
    for ch in range(3):
        np.testing.assert_array_equal(out[ch], expected)
    # with every knob pinned the seed has nothing left to influence
    np.testing.assert_array_equal(out, render_word("A", 999, opts))


def test_render_canvas_grows_with_label():
    opts = RenderOptions(scale=2, gap=2, bg=0.1, ink=0.8, noise=0.0, shear_deg=0.0)
    out = render_word("abcd", 0, opts)
    assert out.shape == (3, 18, 4 * 10 + 5 * 2)


def test_render_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty label"):
        render_word("", 0)
    with pytest.raises(ValueError, match="no glyph"):
        render_word("a b", 0)
    for bad in (RenderOptions(scale=5), RenderOptions(gap=3),
                RenderOptions(noise=0.2), RenderOptions(shear_deg=20)):
        with pytest.raises(ValueError):
            render_word("a", 0, bad)


def test_render_empty_label_when_allowed():
    opts = RenderOptions(scale=2, gap=1, bg=0.3, ink=0.8, noise=0.0,
                         shear_deg=0.0, allow_empty=True)
    out = render_word("", 0, opts)
    assert out.shape[1] == 16
    np.testing.assert_array_equal(out, np.full_like(out, 0.3))


def test_preprocess_aspect_and_padding():
    rng = np.random.default_rng(0)
    wide = preprocess(rng.uniform(0, 1, (3, 64, 256)))
    assert wide.shape == (3, 32, 128)
    assert np.abs(wide.data[:, :, 127]).max() > 0  # full width, no pad column

    square = preprocess(rng.uniform(0.2, 1, (3, 32, 32)))
    assert np.abs(square.data[:, :, 32:]).max() == 0  # right pad is exact zeros
    assert np.abs(square.data[:, :, :32]).max() > 0

    sliver = preprocess(rng.uniform(0, 1, (3, 100, 10)))  # extreme aspect
    assert np.abs(sliver.data[:, :, 8:]).max() == 0  # width clamped up to 8


def test_preprocess_normalizes_to_symmetric_range():
    out = preprocess(np.full((3, 32, 128), 0.5))
    np.testing.assert_array_equal(out.data, np.zeros((3, 32, 128)))
    lo = preprocess(np.zeros((3, 32, 128)))
    np.testing.assert_allclose(lo.data, -1.0, atol=1e-12)


def test_preprocess_is_idempotent():
    raw = render_word("abc", 7)
    once = preprocess(raw)
    twice = preprocess(once)
    np.testing.assert_array_equal(once.data, twice.data)


def test_preprocess_rejects_bad_shapes():
    with pytest.raises(ValueError, match="3, h, w"):
        preprocess(np.zeros((32, 128)))
    with pytest.raises(ValueError, match="3, h, w"):
        preprocess(np.zeros((1, 32, 128)))


def test_padded_transform_hand_case():
    img = np.arange(12, dtype=np.float64).reshape(3, 2, 2)
    out = transform_padded(img)
    assert out.shape == (3, 4, 4)
    a, b, c, d = img[0].ravel()
    np.testing.assert_array_equal(out[0], [[a, a, b, b], [a, a, b, b],
                                           [c, c, d, d], [c, c, d, d]])


def test_expanded_transform_grows_ten_percent():
    img = np.random.default_rng(1).uniform(0, 1, (3, 100, 200))
    out = transform_expanded(img)
    assert out.shape == (3, 110, 220)
    np.testing.assert_array_equal(out[:, 5:105, 10:210], img)


def test_split_pad_rounding():
    assert _split_pad(0.0, 0.0, 64) == (0, 0)
    assert _split_pad(0.05, 0.05, 100) == (5, 5)
    assert _split_pad(0.2, 0.2, 10) == (2, 2)
    # side a's own rounding never exceeds the joint total
    a, b = _split_pad(0.049, 0.0, 10)
    assert a + b == 0 or (a >= 0 and b >= 0)
    for fa, fb, dim in ((0.07, 0.13, 33), (0.19, 0.01, 7), (0.1, 0.1, 1)):
        a, b = _split_pad(fa, fb, dim)
        assert a >= 0 and b >= 0
        assert a + b == int(np.floor((fa + fb) * dim + 0.5))


def test_random_transforms_are_seeded_and_bounded():
    img = np.random.default_rng(2).uniform(0, 1, (3, 40, 80))
    for fn, cap in ((transform_r_padded, 0.2), (transform_r_expanded, 0.1)):
        once = fn(img, seed=5)
        again = fn(img, seed=5)
        np.testing.assert_array_equal(once, again)
        for axis, dim in ((1, 40), (2, 80)):
            grown = once.shape[axis] - dim
            assert 0 <= grown <= int(np.floor(2 * cap * dim + 0.5))


def test_padded_keeps_original_as_center_block():
    img = np.random.default_rng(3).uniform(0, 1, (3, 30, 50))
    out = transform_padded(img)
    np.testing.assert_array_equal(out[:, 15:45, 25:75], img)


def test_apply_transform_dispatch():
    img = np.random.default_rng(4).uniform(0, 1, (3, 10, 20))
    np.testing.assert_array_equal(apply_transform(img, "none"), img)
    assert apply_transform(img, "padded").shape == (3, 20, 40)
    with pytest.raises(ValueError, match="unknown transform"):
        apply_transform(img, "cropped")


def test_dataset_reproducible_records_and_images():
    kw = dict(count=8, seed=3, alphabet="abc", min_len=1, max_len=4)
    d1, d2 = SyntheticDataset(**kw), SyntheticDataset(**kw)
    assert d1.records == d2.records
    assert len(d1) == 8
    for i in range(8):
        assert 1 <= len(d1.label(i)) <= 4
        assert set(d1.label(i)) <= set("abc")
        np.testing.assert_array_equal(d1.image(i).data, d2.image(i).data)
    assert d1.image(0) is d1.image(0)  # cached


def test_dataset_validates_construction():
    with pytest.raises(ValueError, match="alphabet"):
        SyntheticDataset(4, 0, "")
    with pytest.raises(ValueError, match="no glyph"):
        SyntheticDataset(4, 0, "a b")
    with pytest.raises(ValueError, match="length range"):
        SyntheticDataset(4, 0, "ab", min_len=3, max_len=2)


def test_manifest_round_trip(tmp_path):
    ds = SyntheticDataset(6, seed=9, alphabet="xyz", max_len=5)
    path = tmp_path / "manifest.tsv"
    ds.write_manifest(path)
    back = SyntheticDataset.from_manifest(path)
    assert back.records == ds.records
    np.testing.assert_array_equal(back.image(2).data, ds.image(2).data)


class _Unwritable(str):
    def __format__(self, spec):
        raise RuntimeError("label cannot be formatted")


def test_failed_manifest_write_keeps_the_old_file(tmp_path):
    ds = SyntheticDataset(4, seed=9, alphabet="xyz", max_len=5)
    path = tmp_path / "manifest.tsv"
    ds.write_manifest(path)
    old = path.read_bytes()
    idx, _, seed = ds.records[2]
    ds.records[2] = (idx, _Unwritable("xy"), seed)
    with pytest.raises(RuntimeError, match="cannot be formatted"):
        ds.write_manifest(path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["manifest.tsv"]


def test_manifest_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\tab\n")
    with pytest.raises(ValueError, match="expected index"):
        SyntheticDataset.from_manifest(path)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    gray = rng.integers(0, 256, (9, 13)).astype(np.float64) / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(path, gray)
    back = read_pgm(path)
    assert back.shape == (3, 9, 13)
    np.testing.assert_allclose(back[0], gray, atol=1e-12)


def test_pgm_reader_handles_comments_and_errors(tmp_path):
    body = bytes(range(6))
    good = tmp_path / "c.pgm"
    good.write_bytes(b"P5\n# a comment line\n3 2\n255\n" + body)
    img = read_pgm(good)
    np.testing.assert_allclose(img[0], np.arange(6).reshape(2, 3) / 255.0, atol=1e-12)

    bad_magic = tmp_path / "m.pgm"
    bad_magic.write_bytes(b"P2\n3 2\n255\n" + body)
    with pytest.raises(ValueError, match="P5"):
        read_pgm(bad_magic)

    short = tmp_path / "s.pgm"
    short.write_bytes(b"P5\n3 2\n255\n" + body[:3])
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(short)


def test_export_pgm_matches_raw_channel(tmp_path):
    ds = SyntheticDataset(2, seed=4, alphabet="ab", max_len=2)
    paths = ds.export_pgm(tmp_path)
    assert [p.split("/")[-1] for p in paths] == ["000000.pgm", "000001.pgm"]
    back = read_pgm(paths[1])
    np.testing.assert_allclose(back[0], ds.raw(1)[0], atol=0.5 / 255.0 + 1e-12)


@pytest.mark.parametrize("size", ["0 0", "4 0", "0 4"])
def test_pgm_reader_rejects_empty_images(tmp_path, size):
    path = tmp_path / "empty.pgm"
    path.write_bytes(f"P5\n{size}\n255\n".encode("ascii"))
    with pytest.raises(ValueError, match="at least 1x1"):
        read_pgm(path)
