"""Synthetic word-image generation, preprocessing, and robustness transforms.

Every character owns a fixed procedural 5x7 binary glyph derived from a hash
of the character, so the corpus needs no font files and regenerating any
sample from its (label, seed) pair is exact. Raw renders are grayscale in
[0, 1] replicated to three channels; preprocessing resizes to height 32,
normalizes to [-1, 1], and right-pads to width 128.
"""

import hashlib
import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .decoder import DEFAULT_CHARSET
from .ops import interp_matrix
from .tensor import Tensor

GLYPH_H, GLYPH_W = 7, 5
TARGET_H, TARGET_W = 32, 128


def _glyph_bits(ch):
    """Deterministic 7x5 binary bitmap for one character.

    35 bits are taken from sha256(char); if the pattern is degenerate
    (nearly empty or nearly full) a salt is appended and the hash retried,
    still fully deterministic.
    """
    salt = 0
    while True:
        digest = hashlib.sha256(f"{ch}:{salt}".encode()).digest()
        bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8))[:GLYPH_H * GLYPH_W]
        ink = int(bits.sum())
        if 8 <= ink <= 27:
            return bits.reshape(GLYPH_H, GLYPH_W).astype(bool)
        salt += 1


GLYPHS = {ch: _glyph_bits(ch) for ch in DEFAULT_CHARSET.chars}
assert len({g.tobytes() for g in GLYPHS.values()}) == len(GLYPHS), "glyphs must be distinct"


@dataclass
class RenderOptions:
    """Rendering knobs. None means 'draw from the sample seed'.

    noise is the max amplitude of additive uniform noise (0 disables it);
    shear_deg bounds the horizontal shear angle drawn per sample.
    """
    scale: int | None = None       # integer glyph magnification, 2..4
    gap: int | None = None         # pixels between glyphs (and border), 1..2
    bg: float | None = None        # background gray level
    ink: float | None = None       # glyph gray level
    noise: float = 0.05
    shear_deg: float = 8.0
    allow_empty: bool = False

    def validate(self):
        if self.scale is not None and not 2 <= self.scale <= 4:
            raise ValueError(f"scale must be in 2..4, got {self.scale}")
        if self.gap is not None and not 1 <= self.gap <= 2:
            raise ValueError(f"gap must be 1 or 2, got {self.gap}")
        if not 0 <= self.noise <= 0.1:
            raise ValueError(f"noise amplitude must be in [0, 0.1], got {self.noise}")
        if not 0 <= self.shear_deg <= 15:
            raise ValueError(f"shear must be in [0, 15] degrees, got {self.shear_deg}")


def render_word(label, seed, opts=None):
    """Render a label to a raw (3, h, w) float image in [0, 1].

    Fully determined by (label, seed, opts): the seed drives every random
    draw (per-knob values left as None, the shear angle, the noise field).
    """
    opts = opts or RenderOptions()
    opts.validate()
    if not label and not opts.allow_empty:
        raise ValueError("empty label (set allow_empty to render a blank canvas)")
    for ch in label:
        if ch not in GLYPHS:
            raise ValueError(f"character {ch!r} has no glyph")

    rng = np.random.default_rng(seed)
    scale = opts.scale if opts.scale is not None else int(rng.integers(2, 5))
    gap = opts.gap if opts.gap is not None else int(rng.integers(1, 3))
    bg = opts.bg if opts.bg is not None else float(rng.uniform(0.05, 0.30))
    ink = opts.ink if opts.ink is not None else float(rng.uniform(0.70, 0.95))
    shear = float(rng.uniform(-opts.shear_deg, opts.shear_deg)) if opts.shear_deg > 0 else 0.0

    gh, gw = GLYPH_H * scale, GLYPH_W * scale
    h = gh + 2 * gap
    w = len(label) * gw + (len(label) + 1) * gap
    w = max(w, 2 * gap + 1)
    canvas = np.full((h, w), bg, dtype=np.float64)
    x = gap
    for ch in label:
        block = GLYPHS[ch].repeat(scale, 0).repeat(scale, 1)
        canvas[gap:gap + gh, x:x + gw][block] = ink
        x += gw + gap

    if shear != 0.0:
        # Integer per-row shift; row y moves by tan(angle) * (rows below it).
        t = np.tan(np.radians(shear))
        rows = np.arange(h)
        offsets = np.rint(t * (h - 1 - rows)).astype(int)
        offsets -= offsets.min()
        extra = offsets.max()
        sheared = np.full((h, w + extra), bg, dtype=np.float64)
        sheared[rows[:, None], offsets[:, None] + np.arange(w)] = canvas
        canvas = sheared

    if opts.noise > 0:
        canvas = canvas + rng.uniform(-opts.noise, opts.noise, size=canvas.shape)
        canvas = np.clip(canvas, 0.0, 1.0)

    return np.repeat(canvas[None], 3, axis=0)


def resize_bilinear(img, out_h, out_w):
    """Bilinear resize of a (C, h, w) array, half-pixel convention."""
    c, h, w = img.shape
    mh = interp_matrix(h, out_h, np.float64)
    mw = interp_matrix(w, out_w, np.float64)
    return np.matmul(mh, np.matmul(img.astype(np.float64, copy=False), mw.T))


def preprocess(img):
    """Resize to height 32 (aspect-preserving, width capped at 128),
    normalize to [-1, 1], right-pad with zeros to width 128. The result is
    float32 for every model; a float64 model widens it in `features()`.

    Input with any negative value is taken as already normalized and only
    geometry is applied, which makes the function idempotent on conforming
    full-width images.
    """
    arr = img.data if isinstance(img, Tensor) else np.asarray(img, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"preprocess expects (3, h, w), got {arr.shape}")
    _, h, w = arr.shape
    new_w = max(8, min(TARGET_W, int(np.floor(TARGET_H * w / h + 0.5))))
    resized = resize_bilinear(arr, TARGET_H, new_w)
    if arr.min() >= 0:
        resized = 2.0 * resized - 1.0
    out = np.zeros((3, TARGET_H, TARGET_W), dtype=np.float64)
    out[:, :, :new_w] = resized
    return Tensor(out)


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def _replicate_pad(img, top, bottom, left, right):
    return np.pad(img, ((0, 0), (top, bottom), (left, right)), mode="edge")


def _split_pad(frac_a, frac_b, dim):
    """Total padding is round-half-up of the summed fractions of dim, split
    so side a gets its own rounded share (capped by the total)."""
    total = _round_half_up((frac_a + frac_b) * dim)
    a = min(_round_half_up(frac_a * dim), total)
    return a, total - a


def transform_padded(img):
    """Double both dims by replicating h/2 rows and w/2 columns per side."""
    _, h, w = img.shape
    return _replicate_pad(img, h // 2, h - h // 2, w // 2, w - w // 2)


def _random_pad(img, seed, cap):
    """Replication padding with per-side fractions drawn from [0, cap]."""
    _, h, w = img.shape
    fr = np.random.default_rng(seed).uniform(0.0, cap, size=4)
    top, bottom = _split_pad(fr[0], fr[1], h)
    left, right = _split_pad(fr[2], fr[3], w)
    return _replicate_pad(img, top, bottom, left, right)


def transform_r_padded(img, seed):
    """Replication padding with per-side fractions drawn from [0, 0.2]."""
    return _random_pad(img, seed, 0.2)


def transform_expanded(img):
    """Grow both dims by 10% total (5% per side), replication padding."""
    _, h, w = img.shape
    top, bottom = _split_pad(0.05, 0.05, h)
    left, right = _split_pad(0.05, 0.05, w)
    return _replicate_pad(img, top, bottom, left, right)


def transform_r_expanded(img, seed):
    """Replication padding with per-side fractions drawn from [0, 0.1]."""
    return _random_pad(img, seed, 0.1)


TRANSFORMS = ("none", "padded", "r_padded", "expanded", "r_expanded")


def apply_transform(img, name, seed=0):
    if name == "none":
        return img
    if name == "padded":
        return transform_padded(img)
    if name == "r_padded":
        return transform_r_padded(img, seed)
    if name == "expanded":
        return transform_expanded(img)
    if name == "r_expanded":
        return transform_r_expanded(img, seed)
    raise ValueError(f"unknown transform {name!r}, expected one of {TRANSFORMS}")


class SyntheticDataset:
    """A reproducible corpus of rendered words.

    Labels and per-sample seeds are drawn once from the master seed, so the
    (label, seed) sequence is identical across runs; images are regenerated
    on demand and cached after preprocessing. Generation is pure per sample,
    so parallel renderers would be safe, but nothing here spawns threads.
    """

    def __init__(self, count, seed, alphabet, min_len=1, max_len=10,
                 opts=None, records=None):
        self.opts = opts or RenderOptions()
        if records is not None:
            self.records = list(records)
        else:
            if count < 1:
                raise ValueError(f"dataset count must be >= 1, got {count}")
            if not alphabet:
                raise ValueError("alphabet must be non-empty")
            for ch in alphabet:
                if ch not in GLYPHS:
                    raise ValueError(f"alphabet character {ch!r} has no glyph")
            if not 1 <= min_len <= max_len:
                raise ValueError(f"bad label length range {min_len}..{max_len}")
            rng = np.random.default_rng(seed)
            letters = list(alphabet)
            self.records = []
            for i in range(count):
                n = int(rng.integers(min_len, max_len + 1))
                label = "".join(letters[j] for j in rng.integers(0, len(letters), size=n))
                self.records.append((i, label, int(rng.integers(0, 2 ** 31))))
        self._cache = {}

    def __len__(self):
        return len(self.records)

    def label(self, i):
        return self.records[i][1]

    def seed(self, i):
        return self.records[i][2]

    def raw(self, i):
        """Raw (3, h, w) render in [0, 1], before any preprocessing."""
        _, label, seed = self.records[i]
        return render_word(label, seed, self.opts)

    def image(self, i):
        """Preprocessed (3, 32, 128) tensor, cached."""
        img = self._cache.get(i)
        if img is None:
            img = preprocess(self.raw(i))
            self._cache[i] = img
        return img

    def write_manifest(self, path):
        with atomic_write(path, "w") as f:
            for idx, label, seed in self.records:
                f.write(f"{idx}\t{label}\t{seed}\n")

    @classmethod
    def from_manifest(cls, path, opts=None):
        opts = opts or RenderOptions()
        records = []
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{path}:{line_no}: expected index<TAB>label<TAB>seed")
                try:
                    record = (int(parts[0]), parts[1], int(parts[2]))
                except ValueError:
                    raise ValueError(f"{path}:{line_no}: index and seed must be integers") from None
                if record[2] < 0:
                    raise ValueError(f"{path}:{line_no}: seed must be >= 0")
                if not record[1] and not opts.allow_empty:
                    raise ValueError(f"{path}:{line_no}: empty label")
                records.append(record)
        if not records:
            raise ValueError(f"{path}: manifest has no samples")
        return cls(count=len(records), seed=0, alphabet=None, opts=opts, records=records)

    def export_pgm(self, directory):
        """Write each raw render as {index:06}.pgm, named by its index column."""
        paths = []
        for i, (idx, _, _) in enumerate(self.records):
            gray = self.raw(i)[0]
            path = f"{directory}/{idx:06d}.pgm"
            write_pgm(path, gray)
            paths.append(path)
        return paths


@contextmanager
def atomic_write(path, mode):
    """Write `path` through a temporary file beside it ("w" UTF-8 text, "wb"
    bytes) that is renamed over `path` when the block returns, so a failed
    write leaves the old file and no temporary. The name is per thread."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_pgm(path, gray):
    """Write a [0, 1] float grayscale array as an 8-bit binary PGM (P5)."""
    arr = np.clip(np.asarray(gray) * 255.0 + 0.5, 0, 255).astype(np.uint8)
    h, w = arr.shape
    with atomic_write(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr)


# preprocess resizes with dense matrices, 1 KiB per column of a 1-pixel-high
# strip; a default-config render is under 250 pixels wide
MAX_PGM_SIDE = 4096
MAX_PGM_HEADER = 4096  # bytes of magic, sizes, maxval and comments


def _pgm_header(path, data):
    """(w, h, raster offset) of the binary PGM whose first bytes are `data`,
    at most MAX_PGM_HEADER of them. A side over MAX_PGM_SIDE is refused."""
    cut = len(data) == MAX_PGM_HEADER
    short = f"PGM header longer than {MAX_PGM_HEADER} bytes" if cut else "truncated PGM header"
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos or (cut and pos == len(data)):  # a field cut by the cap may go on
            raise ValueError(f"{path}: {short}")
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    for field in fields[1:]:
        if not field.isdigit():  # ASCII decimal digits only, as the format says
            raise ValueError(f"{path}: bad PGM header field {field.decode('latin-1')!r}")
    w, h, maxval = (int(f) for f in fields[1:])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported")
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image is {w}x{h}, need at least 1x1")
    if w > MAX_PGM_SIDE or h > MAX_PGM_SIDE:
        raise ValueError(f"{path}: image is {w}x{h}, at most {MAX_PGM_SIDE} pixels a side")
    return w, h, pos + 1  # single whitespace byte after maxval


def read_pgm(path):
    """Read a binary PGM (P5) into a (3, h, w) float array in [0, 1]. The
    read is bounded by the header: at most MAX_PGM_HEADER bytes of it, then
    exactly w*h pixel bytes; a file with bytes after the raster is refused."""
    with open(path, "rb") as f:
        w, h, pos = _pgm_header(path, f.read(MAX_PGM_HEADER))
        f.seek(pos)
        raster = f.read(h * w)
        if len(raster) != h * w:
            raise ValueError(f"{path}: truncated pixel data")
        if f.read(1):
            raise ValueError(f"{path}: data after the {w}x{h} pixel raster")
    gray = np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(np.float64) / 255.0
    return np.repeat(gray[None], 3, axis=0)
