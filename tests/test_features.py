"""Encoder tests: per-cell oracles, covariance, padding and config bounds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mstrack import features, kernels
from mstrack.errors import ConfigError, ShapeError
from mstrack.features import (
    BASE_CHANNELS,
    MAX_FEATURE_WEIGHT,
    EncoderConfig,
    encode_frame,
    pad_to_multiple,
    validate_frame,
)


def cell_mean_oracle(frame, stride):
    h, w = frame.shape[:2]
    hc, wc = h // stride, w // stride
    out = np.zeros((hc, wc, 3), dtype=np.float64)
    for i in range(hc):
        for j in range(wc):
            out[i, j] = frame[i * stride:(i + 1) * stride, j * stride:(j + 1) * stride].mean(axis=(0, 1))
    return out.astype(np.float32)


def mean_std_cell_features(frame, stride, position_weight, std_weight=1.0):
    """`_cell_base_features` as NumPy's mean and std over the cell axes, before
    the sums moved to a pixel-major float64 copy."""
    h, w = frame.shape[:2]
    hc, wc = h // stride, w // stride
    blocks = frame.reshape(hc, stride, wc, stride, 3).astype(np.float64)
    mean = blocks.mean(axis=(1, 3))
    std = blocks.std(axis=(1, 3)) * std_weight
    cx = (np.arange(wc, dtype=np.float64) + 0.5) / wc
    cy = (np.arange(hc, dtype=np.float64) + 0.5) / hc
    pos = np.empty((hc, wc, 2), dtype=np.float64)
    pos[:, :, 0] = cx[None, :] * position_weight
    pos[:, :, 1] = cy[:, None] * position_weight
    return np.concatenate([mean, pos, std], axis=2).astype(np.float32)


@st.composite
def cell_frames(draw, elements):
    stride = draw(st.sampled_from([16, 8]))
    hc, wc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    frame = draw(hnp.arrays(elements[0], (hc * stride, wc * stride, 3), elements=elements[1]))
    return stride, frame


_WEIGHTS = st.floats(-4.0, 4.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(cell_frames((np.uint8, st.integers(0, 255))), _WEIGHTS, _WEIGHTS)
def test_cell_features_bytes_equal_mean_std_on_ppm_frames(sf, pw, sw):
    stride, raw = sf
    frame = raw.astype(np.float32) / 255.0  # as evaluation.load_frame scales a PPM
    want = mean_std_cell_features(frame, stride, pw, sw)
    assert features._cell_base_features(frame, stride, pw, sw).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(cell_frames((np.float32, st.floats(0.0, 1.0, width=32))), _WEIGHTS, _WEIGHTS)
def test_cell_features_bytes_equal_mean_std_on_float_frames(sf, pw, sw):
    stride, frame = sf
    want = mean_std_cell_features(frame, stride, pw, sw)
    assert features._cell_base_features(frame, stride, pw, sw).tobytes() == want.tobytes()


_FEATURE_WEIGHTS = st.floats(-MAX_FEATURE_WEIGHT, MAX_FEATURE_WEIGHT)


@st.composite
def palette_frames(draw):
    """1-69 px frames of 1, 2 or 256 grey levels per channel: one level
    makes every cell flat, so its deviations are zero."""
    h, w = draw(st.integers(1, 69)), draw(st.integers(1, 69))
    levels = draw(st.sampled_from([1, 2, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.integers(0, levels, size=(h, w, 3)) / max(levels - 1, 1)).astype(np.float32)


@settings(max_examples=100, deadline=None)
@given(palette_frames(), _FEATURE_WEIGHTS, _FEATURE_WEIGHTS)
def test_handcrafted_map_bytes_equal_pad_loop(frame, pw, sw):
    # each level is its stride's base features, with the -0.0 of a
    # zero-deviation cell times a negative (or -0.0) weight made +0.0: the
    # bytes the channel loop and the fold that replaced it gave
    pyr = encode_frame(frame, EncoderConfig(position_weight=pw, std_weight=sw))
    f = pad_to_multiple(frame)
    for got, stride in ((pyr.level16, 16), (pyr.level8, 8)):
        want = features._cell_base_features(f, stride, pw, sw) + np.float32(0.0)
        assert got.shape[2] == BASE_CHANNELS and got.tobytes() == want.tobytes()
        assert not np.any(np.signbit(got[got == 0.0]))


def test_encoder_weight_bound_keeps_features_in_float32():
    # cells of alternating 0 and 1 pixels have mean 1/2 and the largest std, 1/2
    frame = np.zeros((32, 32, 3), dtype=np.float32)
    frame[::2, ::2] = frame[1::2, 1::2] = 1.0
    for pw, sw in ((MAX_FEATURE_WEIGHT, MAX_FEATURE_WEIGHT),
                   (-MAX_FEATURE_WEIGHT, MAX_FEATURE_WEIGHT)):
        pyr = encode_frame(frame, EncoderConfig(position_weight=pw, std_weight=sw))
        assert np.all(np.isfinite(pyr.level16)) and np.all(np.isfinite(pyr.level8))
    for name in ("position_weight", "std_weight"):
        for value in (np.nextafter(MAX_FEATURE_WEIGHT, np.inf), -1e39, np.inf, np.nan):
            with pytest.raises(ConfigError, match=name):
                EncoderConfig(**{name: value})


def test_validate_frame_contract():
    ok = np.zeros((32, 48, 3), dtype=np.float32)
    assert validate_frame(ok).shape == (32, 48, 3)
    with pytest.raises(ShapeError):
        validate_frame(np.zeros((32, 48), dtype=np.float32))
    with pytest.raises(ShapeError):
        validate_frame(np.zeros((0, 48, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        validate_frame(np.full((32, 32, 3), 2.0, dtype=np.float32))
    with pytest.raises(ShapeError, match="finite"):
        validate_frame(np.full((32, 32, 3), 2.0, dtype=np.float32))
    for bad in (np.nan, np.inf, -np.inf):
        one = ok.copy()
        one[5, 7, 1] = bad
        with pytest.raises(ShapeError, match="finite"):
            validate_frame(one)


def test_pad_to_multiple_edge_replicates():
    frame = np.arange(2 * 3 * 3, dtype=np.float32).reshape(2, 3, 3) / 100.0
    padded = pad_to_multiple(frame, 16)
    assert padded.shape == (16, 16, 3)
    assert np.array_equal(padded[0, :3], frame[0])
    assert np.array_equal(padded[5, 2], frame[1, 2])
    mask = np.arange(3 * 17, dtype=np.int32).reshape(3, 17)
    padded = pad_to_multiple(mask, 16)
    assert padded.shape == (16, 32) and padded.dtype == np.int32
    assert np.array_equal(padded[:3, :17], mask)
    assert np.array_equal(padded[15, :17], mask[2]) and np.all(padded[:3, 31] == mask[:, 16])
    aligned = np.zeros((32, 48, 3), dtype=np.float32)
    assert pad_to_multiple(aligned) is aligned


def test_uniform_frame_gives_constant_level16():
    frame = np.full((64, 64, 3), 0.5, dtype=np.float32)
    pyr = encode_frame(frame, EncoderConfig())
    flat = pyr.level16.reshape(-1, pyr.level16.shape[2])
    # position channels vary by definition; appearance channels must not
    assert np.allclose(flat[:, :3], flat[0, :3], atol=1e-6)
    assert np.allclose(flat[:, 5:8], flat[0, 5:8], atol=1e-6)


def test_half_red_half_blue_matches_mean_oracle():
    frame = np.zeros((32, 64, 3), dtype=np.float32)
    frame[:, :32, 0] = 1.0
    frame[:, 32:, 2] = 1.0
    pyr = encode_frame(frame, EncoderConfig())
    oracle = cell_mean_oracle(frame, 16)
    np.testing.assert_allclose(pyr.level16[:, :, :3], oracle, atol=1e-6)
    diff = pyr.level16[0, 0, :3] - pyr.level16[0, 3, :3]
    np.testing.assert_allclose(diff, [1.0, 0.0, -1.0], atol=1e-6)


def test_translation_covariance_of_appearance_channels():
    rng = np.random.default_rng(31)
    base = rng.random((64, 64, 3)).astype(np.float32)
    shifted = np.roll(base, 16, axis=1)
    cfg = EncoderConfig()
    a = encode_frame(base, cfg).level16
    b = encode_frame(shifted, cfg).level16
    # interior cells shift by exactly one cell in the appearance channels;
    # position channels track the cell itself, not the content
    np.testing.assert_allclose(b[:, 1:, :3], a[:, :-1, :3], atol=1e-6)
    np.testing.assert_allclose(b[:, 1:, 5:8], a[:, :-1, 5:8], atol=1e-6)
    np.testing.assert_allclose(b[:, 1:, 3:5], a[:, 1:, 3:5], atol=1e-6)


def test_level8_shape():
    frame = np.zeros((48, 80, 3), dtype=np.float32)
    pyr = encode_frame(frame, EncoderConfig())
    assert pyr.level16.shape[:2] == (3, 5)
    assert pyr.level8.shape[:2] == (6, 10)


def test_encoder_config_validation():
    # one handcrafted encoder of 8 channels: no mode to pick, no weights file
    # to name and no channel count to set
    assert [f.name for f in dataclasses.fields(EncoderConfig)] == ["position_weight", "std_weight"]
    for retired in ({"mode": "handcrafted"}, {"weights_path": "w.mswt"},
                    {"channels16": 32}, {"channels8": 32}):
        with pytest.raises(TypeError):
            EncoderConfig(**retired)
    with pytest.raises(ConfigError):
        EncoderConfig(std_weight=np.nan)


def test_handcrafted_levels_make_no_product(monkeypatch):
    class ProductCalled(Exception):
        pass

    def no_product(*args, **kwargs):
        raise ProductCalled

    monkeypatch.setattr(kernels, "matmul", no_product)
    assert not hasattr(features, "matmul")
    frame = np.random.default_rng(38).random((40, 56, 3)).astype(np.float32)
    encode_frame(frame, EncoderConfig())


@pytest.mark.parametrize(
    "mode, size, width",
    [
        ("handcrafted", 32, 8),
        ("handcrafted", 8, 8),
    ],
)
def test_encode_frame_pads_any_frame_size(mode, size, width):
    # `mode` only names the rows: there is one encoder; `size` is the side of
    # a square frame that pads up to whole stride-16 cells
    rng = np.random.default_rng(11)
    frame = rng.random((75, 100, 3)).astype(np.float32)
    cfg = EncoderConfig()
    pyr = encode_frame(frame, cfg)
    # the encoder's 8 channels, each non-zero somewhere
    assert width == BASE_CHANNELS
    for level in (pyr.level16, pyr.level8):
        assert level.shape[2] == width
        assert np.all(np.any(level, axis=(0, 1)))
    assert pyr.level16.shape[:2] == (5, 7) and pyr.level8.shape[:2] == (10, 14)
    edge = np.pad(frame, ((0, 5), (0, 12), (0, 0)), mode="edge")
    ref = encode_frame(edge, cfg)
    assert np.array_equal(pyr.level16, ref.level16) and np.array_equal(pyr.level8, ref.level8)
    one = encode_frame(np.full((1, 1, 3), 0.5, dtype=np.float32), cfg)
    assert one.level16.shape[:2] == (1, 1) and one.level8.shape[:2] == (2, 2)
    square = encode_frame(rng.random((size, size, 3)).astype(np.float32), cfg)
    cells = -(-size // 16)
    assert square.level16.shape == (cells, cells, width)
    assert square.level8.shape == (2 * cells, 2 * cells, width)
