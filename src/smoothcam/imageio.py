"""Binary PPM image handling, the fixed heat colormap, and overlay rendering.

PPM (P6, maxval 255) is the only raster format: it parses in a few lines, has
no dependencies, and makes golden-file tests byte-exact. The colormap is a
fixed piecewise-linear blue-green-red ramp for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, NonFiniteMapError, ParamError, ShapeError
from .tensor import Tensor, as_tensor, integer, ints, real

_WHITESPACE = b" \t\r\n\v\f"


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB pixels, row-major, 3 bytes per pixel."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self):
        object.__setattr__(self, "width", integer(self.width, "width"))
        object.__setattr__(self, "height", integer(self.height, "height"))
        if self.width < 1 or self.height < 1:
            raise ShapeError(f"image size {self.width}x{self.height} must be positive")
        if len(self.pixels) != 3 * self.width * self.height:
            raise ShapeError(
                f"pixel buffer holds {len(self.pixels)} bytes, "
                f"expected {3 * self.width * self.height}"
            )


def read_ppm(path) -> RgbImage:
    """Parse a binary PPM (magic P6, maxval 255); header comments are allowed."""
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise FormatError("not a binary PPM (expected magic 'P6' at byte offset 0)")
    pos = 2
    width, pos = _read_header_int(data, pos)
    height, pos = _read_header_int(data, pos)
    maxval, pos = _read_header_int(data, pos)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} at byte offset {pos} (only 255)")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError(f"expected single whitespace after maxval at byte offset {pos}")
    pos += 1
    if width < 1 or height < 1:
        raise FormatError(f"bad image size {width}x{height} in header")
    need = 3 * width * height
    if len(data) - pos < need:
        raise FormatError(
            f"pixel data truncated at byte offset {len(data)}: "
            f"need {need} bytes from offset {pos}, found {len(data) - pos}"
        )
    return RgbImage(width=width, height=height, pixels=data[pos : pos + need])


def write_ppm(img: RgbImage, path) -> None:
    """Write the canonical P6 form (single-space header, maxval 255)."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    _write_new(path, header + img.pixels)


def _write_new(path, data: bytes) -> None:
    """Write data as a new file, first removing any file or symlink at path.

    Rewriting an existing file in place can wait on a filesystem flush (tens
    of ms on ext4), and a symlink would be written through.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_bytes(data)


def to_input_tensor(img: RgbImage, model_input_shape) -> Tensor:
    """Convert to a [C,H,W] float64 tensor in [0,1]; dims must match exactly.

    One-channel models take the luma 0.299 R + 0.587 G + 0.114 B.
    """
    c, h, w = ints(model_input_shape, "model input shape", 3)
    if (img.height, img.width) != (h, w):
        raise ShapeError(
            f"image is {img.width}x{img.height}, model expects {w}x{h} "
            "(inputs are not resized)"
        )
    arr = np.frombuffer(img.pixels, dtype=np.uint8).reshape(h, w, 3) / 255.0
    if c == 3:
        return np.ascontiguousarray(arr.transpose(2, 0, 1))
    if c == 1:
        luma = 0.299 * arr[:, :, 0] + 0.587 * arr[:, :, 1] + 0.114 * arr[:, :, 2]
        return luma[None, :, :]
    raise ShapeError(f"model wants {c} channels; only 1 or 3 are supported")


def colormap(v: float) -> tuple[int, int, int]:
    """Heat color for an intensity in [0,1] (clamped): blue -> green -> red.

    R = clamp(1.5 - |4v - 3|), G = clamp(1.5 - |4v - 2|), B = clamp(1.5 - |4v - 1|),
    each clamped to [0,1] and quantized with round-half-away-from-zero.
    """
    r, g, b = _colormap_bytes(np.array(float(v)))
    return int(r), int(g), int(b)


def overlay(base: RgbImage, heat: RgbImage, blend: float = 0.5) -> RgbImage:
    """Blend a rendered heat image (`heat_image`) of the same size over the base image.

    out = round((1 - blend) * base + blend * heat) per channel, so blend=0
    returns the base exactly and blend=1 the heat image.
    """
    if not 0.0 <= real(blend, "blend") <= 1.0:
        raise ParamError(f"blend must be in [0, 1], got {blend}")
    if (heat.width, heat.height) != (base.width, base.height):
        raise ShapeError(f"heat image {heat.width}x{heat.height} does not match image "
                         f"{base.width}x{base.height}")
    pixels = np.frombuffer(base.pixels, dtype=np.uint8).reshape(base.height, base.width, 3)
    cm = np.frombuffer(heat.pixels, dtype=np.uint8).reshape(pixels.shape)
    mixed = np.floor((1.0 - blend) * pixels + float(blend) * cm + 0.5).astype(np.uint8)
    return RgbImage(width=base.width, height=base.height, pixels=mixed.tobytes())


def heat_image(heat: Tensor) -> RgbImage:
    """Render a [0,1] heat map as a pure colormapped image; NaN raises NonFiniteMapError."""
    hm = as_tensor(heat)
    if hm.ndim != 2:
        raise ShapeError(f"heat map must be 2-D, got shape {hm.shape}")
    if np.isnan(hm).any():
        raise NonFiniteMapError("heat map holds NaN, which has no color")
    cm = _colormap_bytes(hm).astype(np.uint8)
    return RgbImage(width=hm.shape[1], height=hm.shape[0], pixels=cm.tobytes())


def write_map_csv(values: Tensor, path, header: str | None = None) -> None:
    """Dump a 2-D map as CSV, one row per line, "%.9f" per value.

    An optional header string is written first as a '#'-prefixed comment line.
    A non-empty 2-D map of finite values in [0, 1] without -0.0 (every display
    map) prints as fixed-width "d.ddddddddd" built from exactly rounded
    integers; any other array takes one "%"-format call per row. Both give the
    bytes a per-value f"{v:.9f}" would.
    """
    arr = np.atleast_2d(as_tensor(values))
    if arr.ndim > 2:
        raise ShapeError(f"a map CSV holds a 2-D map, got shape {arr.shape}")
    lines = [] if header is None else ["# " + header]
    if arr.size and not np.signbit(arr).any() and (arr <= 1.0).all():
        text = "".join(line + "\n" for line in lines).encode("utf-8")
        text += _fixed_width_rows(_round_nanos(arr))
    else:
        lines += [",".join(["%.9f"] * len(row)) % tuple(row) for row in arr]
        text = ("\n".join(lines) + "\n").encode("utf-8")
    _write_new(path, text)


# "%.9f" text of q = round(v * 1e9) for v in [0, 1], as three 4-byte words:
# "d.dd" from q // 10**7, "dddd" from the next four digits, "ddd," from the last three.
_HEAD_WORDS = np.frombuffer(
    "".join(f"{i // 100}.{i % 100:02d}" for i in range(101)).encode(), np.uint32)
_MID_WORDS = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint32)
_TAIL_WORDS = np.frombuffer("".join(f"{i:03d}," for i in range(1000)).encode(), np.uint32)


def _round_nanos(v: np.ndarray) -> np.ndarray:
    """Exact round-half-even(v * 1e9) as int64, for finite v in [0, 1].

    Rounding is monotone and every half-integer below 2**52 is a double, so
    rint(p) of the rounded product p = v * 1e9 is the answer unless p is itself
    a half-integer. Those few ask Python's correctly rounded f"{v:.9f}" instead.
    """
    p = v * 1e9
    q = np.rint(p)
    tie = np.abs(p - q) == 0.5
    q[tie] = [int(f"{t:.9f}".replace(".", "")) for t in v[tie].tolist()]
    return q.astype(np.int64)


def _fixed_width_rows(q: np.ndarray) -> bytes:
    """Rows of "d.ddddddddd" joined by ',' and ended by '\\n', for q in [0, 1e9]."""
    head = q // 10**7
    low = q - head * 10**7
    mid = low // 1000
    words = np.stack([_HEAD_WORDS[head], _MID_WORDS[mid], _TAIL_WORDS[low - mid * 1000]],
                     axis=-1)
    text = words.view(np.uint8).reshape(q.shape[0], -1)
    text[:, -1] = ord("\n")
    return text.tobytes()


def _colormap_bytes(values: np.ndarray) -> np.ndarray:
    """Vectorized colormap: float array of already-quantized byte values [H,W,3]."""
    v = np.clip(values, 0.0, 1.0)
    channels = [np.clip(1.5 - np.abs(4.0 * v - c), 0.0, 1.0) for c in (3.0, 2.0, 1.0)]
    return np.floor(255.0 * np.stack(channels, axis=-1) + 0.5)


def _read_header_int(data: bytes, pos: int) -> tuple[int, int]:
    pos = _skip_whitespace_and_comments(data, pos)
    start = pos
    while pos < len(data) and data[pos : pos + 1].isdigit():
        pos += 1
    if pos == start:
        raise FormatError(f"expected an integer in PPM header at byte offset {start}")
    try:
        return int(data[start:pos]), pos
    except ValueError:  # more digits than int() will convert
        raise FormatError(f"PPM header integer at byte offset {start} is too long") from None


def _skip_whitespace_and_comments(data: bytes, pos: int) -> int:
    while pos < len(data):
        if data[pos] in _WHITESPACE:
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos
