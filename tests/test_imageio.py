import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from smoothcam import (
    FormatError,
    NonFiniteMapError,
    ParamError,
    RgbImage,
    ShapeError,
    colormap,
    heat_image,
    overlay,
    read_ppm,
    to_input_tensor,
    write_map_csv,
    write_ppm,
)
from smoothcam.imageio import _round_nanos

# Golden bytes computed from the stated formula with an independent scalar
# implementation (clamped tent functions, round-half-away-from-zero).
COLORMAP_GOLDENS = {
    0.0: (0, 0, 128),
    0.25: (0, 128, 255),
    0.5: (128, 255, 128),
    0.75: (255, 128, 0),
    1.0: (128, 0, 0),
}


def _write(path, payload: bytes):
    path.write_bytes(payload)
    return path


def test_read_ppm_minimal_header(tmp_path):
    path = _write(tmp_path / "a.ppm", b"P6 2 1 255\n" + bytes(6))
    img = read_ppm(path)
    assert (img.width, img.height) == (2, 1)
    assert img.pixels == bytes(6)


def test_read_ppm_tolerates_comments(tmp_path):
    payload = b"P6\n# made by hand\n2 # width\n2\n255\n" + bytes(12)
    img = read_ppm(_write(tmp_path / "c.ppm", payload))
    assert (img.width, img.height) == (2, 2)


def test_read_ppm_rejects_deep_maxval(tmp_path):
    path = _write(tmp_path / "deep.ppm", b"P6 2 1 65535\n" + bytes(12))
    with pytest.raises(FormatError, match="65535"):
        read_ppm(path)


def test_read_ppm_rejects_wrong_magic(tmp_path):
    path = _write(tmp_path / "p3.ppm", b"P3 1 1 255\n0 0 0\n")
    with pytest.raises(FormatError, match="offset 0"):
        read_ppm(path)


def test_read_ppm_truncation_reports_offset(tmp_path):
    path = _write(tmp_path / "short.ppm", b"P6 2 2 255\n" + bytes(5))
    with pytest.raises(FormatError, match="byte offset"):
        read_ppm(path)


def test_read_ppm_rejects_overlong_header_integer(tmp_path):
    # More digits than int() converts must be a format error, not a ValueError.
    path = _write(tmp_path / "long.ppm", b"P6 " + b"1" * 5000 + b" 1 255\n" + bytes(3))
    with pytest.raises(FormatError, match="offset 3"):
        read_ppm(path)


def test_read_ppm_rejects_a_missing_header_integer(tmp_path):
    path = _write(tmp_path / "x.ppm", b"P6 x 16 255\n")
    with pytest.raises(FormatError, match="expected an integer in PPM header at byte offset 3"):
        read_ppm(path)


@pytest.mark.parametrize("payload, message", [
    (b"P6 2 1 255", "expected single whitespace after maxval at byte offset 10"),
    (b"P6 2 1 255#" + bytes(6), "expected single whitespace after maxval at byte offset 10"),
    (b"P6 0 1 255\n", "bad image size 0x1"),
    (b"P6 2 0 255\n", "bad image size 2x0"),
])
def test_read_ppm_rejects_bad_header_end(tmp_path, payload, message):
    with pytest.raises(FormatError, match=message):
        read_ppm(_write(tmp_path / "bad.ppm", payload))


_PPM_WHITESPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\v", b"\f"])
# A comment runs to CR or LF, which also counts as whitespace.
_PPM_COMMENT = st.builds(lambda body, end: b"#" + body.translate(None, b"\r\n") + end,
                         st.binary(max_size=8), st.sampled_from([b"\r", b"\n", b"\r\n"]))


def _ppm_gap(min_size):
    return st.lists(st.one_of(_PPM_WHITESPACE, _PPM_COMMENT), min_size=min_size,
                    max_size=4).map(b"".join)


@given(data=st.data(), width=st.integers(1, 4), height=st.integers(1, 4))
def test_read_ppm_header_grammar(tmp_path_factory, data, width, height):
    # Whitespace and comments may lead any field (none is needed after P6) and a field may
    # carry leading zeros; one whitespace byte ends the header and trailing bytes are ignored.
    draw = data.draw
    gaps = [draw(_ppm_gap(0 if i == 0 else 1), f"gap {i}") for i in range(3)]
    zeros = [draw(st.integers(0, 2), f"zeros {i}") for i in range(3)]
    fields = [b"0" * z + str(v).encode() for z, v in zip(zeros, (width, height, 255))]
    pixels = draw(st.binary(min_size=3 * width * height, max_size=3 * width * height), "pixels")
    end = draw(_PPM_WHITESPACE, "end") + pixels + draw(st.binary(max_size=3), "trailing")
    path = tmp_path_factory.mktemp("ppm") / "h.ppm"
    img = read_ppm(_write(path, b"P6" + b"".join(g + f for g, f in zip(gaps, fields)) + end))
    assert (img.width, img.height, img.pixels) == (width, height, pixels)
    # Junk in place of one field is reported at that field's offset.
    bad = draw(st.integers(0, 2), "junk field")
    junk = draw(st.binary(min_size=1, max_size=4).filter(
        lambda b: not (b[:1].isdigit() or b[:1].isspace() or b[:1] == b"#")), "junk")
    fields[bad] = junk
    head = b"P6" + b"".join(g + f for g, f in zip(gaps[: bad + 1], fields[: bad + 1]))
    offset = len(head) - len(junk)
    _write(path, head + b"".join(g + f for g, f in zip(gaps[bad + 1 :], fields[bad + 1 :])) + end)
    with pytest.raises(FormatError, match=f"^expected an integer in PPM header at byte offset "
                                          f"{offset}$"):
        read_ppm(path)


def test_ppm_roundtrip_is_byte_identical(tmp_path, rng):
    pixels = bytes(rng.integers(0, 256, size=3 * 4 * 3, dtype=np.uint8))
    img = RgbImage(width=4, height=3, pixels=pixels)
    first = tmp_path / "one.ppm"
    write_ppm(img, first)
    again = tmp_path / "two.ppm"
    write_ppm(read_ppm(first), again)
    assert first.read_bytes() == again.read_bytes()
    assert read_ppm(first).pixels == pixels


# ---------------------------------------------------------------------------
# to_input_tensor
# ---------------------------------------------------------------------------


def test_white_image_maps_to_ones():
    img = RgbImage(width=2, height=2, pixels=b"\xff" * 12)
    rgb = to_input_tensor(img, (3, 2, 2))
    assert np.array_equal(rgb, np.ones((3, 2, 2)))
    gray = to_input_tensor(img, (1, 2, 2))
    assert np.allclose(gray, 1.0, atol=1e-12)


def test_black_image_maps_to_zeros():
    img = RgbImage(width=3, height=1, pixels=bytes(9))
    assert np.array_equal(to_input_tensor(img, (3, 1, 3)), np.zeros((3, 1, 3)))
    assert np.array_equal(to_input_tensor(img, (1, 1, 3)), np.zeros((1, 1, 3)))


def test_pure_red_luma():
    img = RgbImage(width=1, height=1, pixels=b"\xff\x00\x00")
    gray = to_input_tensor(img, (1, 1, 1))
    assert gray[0, 0, 0] == pytest.approx(0.299, abs=1e-12)


def test_to_input_tensor_rejects_size_mismatch():
    img = RgbImage(width=2, height=2, pixels=bytes(12))
    with pytest.raises(ShapeError):
        to_input_tensor(img, (1, 4, 4))
    with pytest.raises(ShapeError):
        to_input_tensor(img, (2, 2, 2))


# ---------------------------------------------------------------------------
# colormap / overlay
# ---------------------------------------------------------------------------


def test_colormap_golden_values():
    for v, want in COLORMAP_GOLDENS.items():
        assert colormap(v) == want


def _scalar_colormap(v):
    # The documented formula, one channel at a time in plain Python floats.
    v = min(max(v, 0.0), 1.0)
    return tuple(int(math.floor(255.0 * min(max(1.5 - abs(4.0 * v - c), 0.0), 1.0) + 0.5))
                 for c in (3.0, 2.0, 1.0))


@given(v=st.floats(allow_nan=False) | st.sampled_from([0.125, 0.375, 0.625, 0.875]))
def test_colormap_matches_the_scalar_formula(v):
    assert colormap(v) == _scalar_colormap(v)


def test_colormap_rejects_nan():
    # NaN has no color (int() of it was a bare ValueError); infinities clamp, as in heat_image.
    with pytest.raises(ParamError, match="^colormap value must not be NaN, got nan$"):
        colormap(float("nan"))
    assert colormap(np.inf) == colormap(1.0) and colormap(-np.inf) == colormap(0.0)


@pytest.mark.parametrize("v", ["0.5", True, None], ids=["text", "bool", "none"])
def test_colormap_value_must_be_a_real_number(v):
    # "0.5" gave (128, 255, 128) and True gave (128, 0, 0).
    with pytest.raises(ParamError, match="colormap value must be a real number"):
        colormap(v)
    assert colormap(np.float32(0.5)) == (128, 255, 128) and colormap(1) == (128, 0, 0)


def test_colormap_clamps_out_of_range():
    assert colormap(-3.0) == colormap(0.0)
    assert colormap(42.0) == colormap(1.0)


def test_colormap_monotone_extremes():
    # Hot end grows redder, cold end grows bluer (as a share of intensity).
    def shares(v):
        r, g, b = colormap(v)
        total = r + g + b
        return r / total, b / total
    red = [shares(v)[0] for v in np.linspace(0.75, 1.0, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(red, red[1:]))
    blue = [shares(v)[1] for v in np.linspace(0.0, 0.25, 20)]
    assert all(b <= a + 1e-12 for a, b in zip(blue, blue[1:]))


def test_overlay_blend_zero_is_base(rng):
    pixels = bytes(rng.integers(0, 256, size=12, dtype=np.uint8))
    base = RgbImage(width=2, height=2, pixels=pixels)
    heat = rng.random((2, 2))
    assert overlay(base, heat_image(heat), blend=0.0).pixels == pixels


def test_overlay_blend_one_is_pure_heat(rng):
    base = RgbImage(width=2, height=2, pixels=bytes(rng.integers(0, 256, size=12, dtype=np.uint8)))
    heat = rng.random((2, 2))
    got = overlay(base, heat_image(heat), blend=1.0)
    assert got.pixels == heat_image(heat).pixels


def test_overlay_half_blend_on_black():
    base = RgbImage(width=1, height=1, pixels=bytes(3))
    got = overlay(base, heat_image(np.ones((1, 1))), blend=0.5)
    assert got.pixels == bytes([64, 0, 0])


def test_overlay_validates_arguments(rng):
    base = RgbImage(width=2, height=2, pixels=bytes(12))
    with pytest.raises(ShapeError):
        overlay(base, heat_image(np.zeros((3, 3))))
    with pytest.raises(ParamError):
        overlay(base, heat_image(np.zeros((2, 2))), blend=1.5)


def test_overlay_refuses_a_heat_image_of_another_size():
    # Same pixel count, transposed: only the size check can tell.
    base = RgbImage(width=2, height=1, pixels=bytes(6))
    with pytest.raises(ShapeError, match="heat image 1x2 does not match image 2x1"):
        overlay(base, heat_image(np.zeros((2, 1))))


@pytest.mark.parametrize("blend", ["0.5", True], ids=["text", "bool"])
def test_overlay_blend_must_be_a_real_number(blend):
    # Text raised a bare TypeError; True passed as 1.
    base = RgbImage(width=2, height=2, pixels=bytes(12))
    with pytest.raises(ParamError, match="blend must be a real number"):
        overlay(base, heat_image(np.zeros((2, 2))), blend)


@pytest.mark.parametrize("render", [heat_image], ids=["heat_image"])
def test_a_nan_heat_map_is_refused(render):
    # The byte cast warned "invalid value encountered in cast" and made up bytes.
    with pytest.raises(NonFiniteMapError, match="NaN"):
        render(np.array([[0.5, np.nan]]))
    assert render(np.array([[np.inf, -np.inf]])).pixels == render(np.array([[1.0, 0.0]])).pixels


@pytest.mark.parametrize("shape", [(2, 2, 3), (4,)])
def test_heat_image_rejects_a_map_that_is_not_2d(shape):
    with pytest.raises(ShapeError, match=re.escape(f"heat map must be 2-D, got shape {shape}")):
        heat_image(np.zeros(shape))


# ---------------------------------------------------------------------------
# CSV dump
# ---------------------------------------------------------------------------


def test_csv_single_value(tmp_path):
    path = tmp_path / "map.csv"
    write_map_csv(np.array([[0.5]]), path)
    assert path.read_text() == "0.500000000\n"


def test_csv_two_by_two(tmp_path):
    path = tmp_path / "map.csv"
    write_map_csv(np.array([[0.0, 1.0], [0.25, 0.125]]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "0.000000000,1.000000000"
    assert lines[1] == "0.250000000,0.125000000"


def test_csv_header_comment(tmp_path):
    path = tmp_path / "map.csv"
    write_map_csv(np.array([[1.0]]), path, header="method=gradcam seed=1")
    lines = path.read_text().splitlines()
    assert lines[0] == "# method=gradcam seed=1"
    assert lines[1] == "1.000000000"


@pytest.mark.parametrize("header", ["a\nb", "a\rb", "a\r\n", "\n", 5, b"x"])
def test_csv_header_with_a_line_break_is_refused(tmp_path, header):
    # "a\nb" wrote a second line "b", which np.loadtxt cannot read as a row. A header that is
    # not a str (5, b"x") ended in a bare TypeError.
    path = tmp_path / "map.csv"
    message = f"a map CSV header must hold no CR or LF and be a str, got {header!r}"
    with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
        write_map_csv(np.array([[1.0]]), path, header=header)
    assert not path.exists()


def _per_value_csv(values, header=None) -> bytes:
    """The writer's oracle: one f"{v:.9f}" per value."""
    lines = [] if header is None else ["# " + header]
    lines += [",".join(f"{v:.9f}" for v in row) for row in np.atleast_2d(values)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _written(directory, values, header=None) -> bytes:
    path = directory / "map.csv"
    write_map_csv(values, path, header=header)
    data = path.read_bytes()
    path.unlink()  # a fresh file per example: rewriting one in place can force a flush
    return data


_EDGES = [0.0, 1.0, float(np.nextafter(1.0, 0.0)), 5e-324, 1 / 1024]
_UNIT = st.floats(0.0, 1.0) | st.sampled_from(_EDGES)
_ANY = _UNIT | st.floats() | st.sampled_from([-0.0, float("nan"), np.inf, -np.inf, -0.5, 1.5])
_HEADERS = st.sampled_from([None, "method=gradcam seed=1", ""])


def _maps(elements, min_side=1):
    return arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=min_side,
                                           max_side=7), elements=elements)


@given(values=_maps(_UNIT), header=_HEADERS)
# Every odd multiple of 1/1024 times 1e9 is an exact half-integer: a map of ties.
@example(values=np.arange(1, 1024, 2).reshape(16, 32) / 1024, header=None)
def test_csv_unit_maps_match_per_value_format(tmp_path_factory, values, header):
    directory = tmp_path_factory.mktemp("csv")
    assert _written(directory, values, header) == _per_value_csv(values, header)


@given(values=_maps(_ANY, min_side=0), header=_HEADERS)
@example(values=np.array([[-0.0, 0.5]]), header=None)
@example(values=np.array([[np.nan, np.inf, -np.inf]]), header="h")
@example(values=np.zeros((0, 3)), header=None)
def test_csv_other_arrays_match_per_value_format(tmp_path_factory, values, header):
    directory = tmp_path_factory.mktemp("csv")
    assert _written(directory, values, header) == _per_value_csv(values, header)


def test_csv_accepts_one_dimensional_input(tmp_path):
    for values in (np.array([0.1, 0.7]), np.array(0.25)):
        assert _written(tmp_path, values) == _per_value_csv(values)


def test_csv_rejects_a_map_of_more_than_two_dimensions(tmp_path):
    # This raised "TypeError: only 0-dimensional arrays can be converted ...".
    with pytest.raises(ShapeError, match=re.escape("got shape (1, 2, 2)")):
        write_map_csv(np.zeros((1, 2, 2)), tmp_path / "map.csv")
    assert not (tmp_path / "map.csv").exists()


def _nanos_oracle(values):
    return [int(f"{v:.9f}".replace(".", "")) for v in values]


@given(k=st.integers(0, 10**9 - 1))
def test_round_nanos_at_and_beside_ties(k):
    values = []
    for v in ((k + 0.5) / 1e9, k / 1e9):
        below, above = np.nextafter(v, 0.0), np.nextafter(v, 2.0)
        values += [v, below, above, np.nextafter(below, 0.0), np.nextafter(above, 2.0)]
    values = np.array([v for v in values if v <= 1.0])
    assert _round_nanos(values).tolist() == _nanos_oracle(values)


@given(i=st.integers(0, 2**16), k=st.integers(0, 39))
def test_round_nanos_on_dyadic_values(i, k):
    values = np.array([min(i / 2.0**k, 1.0)])
    assert _round_nanos(values).tolist() == _nanos_oracle(values)


def test_exact_tie_rounds_to_even(tmp_path):
    # 1/1024 * 1e9 = 976562.5 exactly: the even neighbour wins.
    assert _written(tmp_path, np.array([[1 / 1024]])) == b"0.000976562\n"


def test_image_constructor_validates():
    with pytest.raises(ShapeError):
        RgbImage(width=2, height=2, pixels=bytes(5))
    # A list was accepted, and write_ppm then raised "can't concat list to bytes".
    for pixels in ([0] * 12, bytearray(12), "x" * 12):
        with pytest.raises(ParamError, match="pixel buffer must be bytes"):
            RgbImage(width=2, height=2, pixels=pixels)
    with pytest.raises(ShapeError):
        RgbImage(width=0, height=2, pixels=b"")
    with pytest.raises(ShapeError):  # 3 * width * height has more digits than Python prints
        RgbImage(width=int("9" * 4300), height=9, pixels=b"")


@pytest.mark.parametrize("width, height", [(2.0, 2), (2, True), ("2", 2), (None, 2)],
                         ids=["float", "bool", "text", "none"])
def test_image_size_must_be_integers(tmp_path, width, height):
    # A float width was accepted and written as "P6\n2.0 2\n255", which read_ppm refuses.
    with pytest.raises(ParamError, match="width|height"):
        RgbImage(width=width, height=height, pixels=bytes(12))
    img = RgbImage(width=np.int64(2), height=np.uint8(2), pixels=bytes(12))
    assert type(img.width) is int and type(img.height) is int
    write_ppm(img, tmp_path / "a.ppm")
    assert read_ppm(tmp_path / "a.ppm") == img
