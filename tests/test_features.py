"""Encoder tests: per-cell oracles, covariance, MSWT container handling."""

import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mstrack import features
from mstrack.engine import EngineConfig, track_sequence
from mstrack.errors import ConfigError, FormatError, ShapeError
from mstrack.features import (
    BASE_CHANNELS,
    MAX_FEATURE_WEIGHT,
    EncoderConfig,
    encode_frame,
    load_weights,
    pad_to_multiple,
    save_weights,
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


def fit_channels_loop(base, channels):
    """The handcrafted channel fit before the 0/1 channel map: zero-pad, or
    fold base channel i into channel i % channels with float32 adds."""
    c = base.shape[2]
    if channels == c:
        return base
    out = np.zeros(base.shape[:2] + (channels,), dtype=np.float32)
    if channels > c:
        out[:, :, :c] = base
        return out
    for i in range(c):
        out[:, :, i % channels] += base[:, :, i]
    return out


def einsum_projection(base, channels, seed):
    """The random projection before the cached map: a fresh seeded Gaussian
    matrix and a float64 einsum, cast to float32."""
    rng = np.random.default_rng(seed)
    p = (rng.standard_normal((BASE_CHANNELS, channels)) / np.sqrt(BASE_CHANNELS)).astype(np.float32)
    out = np.einsum("hwc,cd->hwd", base.astype(np.float64), p.astype(np.float64))
    return out.astype(np.float32)


def _reference_levels(frame, cfg, fit):
    """Both levels as the replaced forms computed them; `fit(base, level)`."""
    f = pad_to_multiple(frame)
    return [
        fit(features._cell_base_features(f, stride, cfg.position_weight, cfg.std_weight), level)
        for level, stride in enumerate((16, 8))
    ]


_FEATURE_WEIGHTS = st.floats(-MAX_FEATURE_WEIGHT, MAX_FEATURE_WEIGHT)


@st.composite
def encoder_frames(draw):
    h, w = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, 256, size=(h, w, 3)).astype(np.float32) / 255.0


@settings(max_examples=60, deadline=None)
@given(encoder_frames(), _FEATURE_WEIGHTS, _FEATURE_WEIGHTS, st.integers(8, 40), st.integers(8, 40))
def test_handcrafted_map_bytes_equal_pad_loop(frame, pw, sw, c16, c8):
    # a product sum adds +0.0 terms, so the -0.0 of a zero-deviation cell
    # times a negative (or -0.0) weight comes out as +0.0; adding 0.0 to both
    # sides maps -0.0 to +0.0 and leaves every other value as it is.  The
    # encoder emits the 8 real channels, the loop's columns past them are zero
    cfg = EncoderConfig(channels16=c16, channels8=c8, position_weight=pw, std_weight=sw)
    pyr = encode_frame(frame, cfg)
    want = _reference_levels(frame, cfg, lambda base, level: fit_channels_loop(base, (c16, c8)[level]))
    for got, padded in zip((pyr.level16, pyr.level8), want):
        assert got.shape[2] == BASE_CHANNELS and not np.any(padded[:, :, BASE_CHANNELS:])
        assert (got + 0.0).tobytes() == (padded[:, :, :BASE_CHANNELS] + 0.0).tobytes()


@settings(max_examples=60, deadline=None)
@given(encoder_frames(), _FEATURE_WEIGHTS, _FEATURE_WEIGHTS, st.integers(1, 7), st.integers(1, 7))
def test_handcrafted_fold_map_matches_fold_loop(frame, pw, sw, c16, c8):
    # the map sums each channel in float64 and rounds once; the loop rounded
    # after every float32 add, so a channel of 3 or more base channels can
    # differ in its last bits.  The tolerance is relative to the fold of the
    # absolute terms, which bounds the loop's rounding when terms cancel.
    cfg = EncoderConfig(channels16=c16, channels8=c8, position_weight=pw, std_weight=sw)
    pyr = encode_frame(frame, cfg)
    for got, level, c in ((pyr.level16, 0, c16), (pyr.level8, 1, c8)):
        want = _reference_levels(frame, cfg, lambda base, _: fit_channels_loop(base, c))[level]
        scale = _reference_levels(frame, cfg, lambda base, _: fit_channels_loop(np.abs(base), c))[level]
        assert np.all(np.abs(got.astype(np.float64) - want) <= 1e-6 * scale)


@settings(max_examples=60, deadline=None)
@given(
    encoder_frames(), _FEATURE_WEIGHTS, _FEATURE_WEIGHTS,
    st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32),
)
def test_random_projection_map_within_one_ulp_of_einsum(frame, pw, sw, c16, c8, seed):
    cfg = EncoderConfig(mode="random-projection", channels16=c16, channels8=c8, seed=seed,
                        position_weight=pw, std_weight=sw)
    pyr = encode_frame(frame, cfg)
    want = _reference_levels(
        frame, cfg, lambda base, level: einsum_projection(base, (c16, c8)[level], seed + level)
    )
    np.testing.assert_array_max_ulp(pyr.level16, want[0], maxulp=1)
    np.testing.assert_array_max_ulp(pyr.level8, want[1], maxulp=1)


def test_random_projection_draws_its_maps_once_for_many_frames(monkeypatch):
    draws = []
    default_rng = np.random.default_rng

    def counted(seed):
        draws.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    features._channel_maps.cache_clear()
    cfg = EncoderConfig(mode="random-projection", seed=123)
    rng = default_rng(37)
    for _ in range(10):
        encode_frame(rng.random((48, 64, 3)).astype(np.float32), cfg)
    assert draws == [123, 124]


def test_encoder_weight_bound_keeps_features_in_float32():
    # cells of alternating 0 and 1 pixels have mean 1/2 and the largest std, 1/2
    frame = np.zeros((32, 32, 3), dtype=np.float32)
    frame[::2, ::2] = frame[1::2, 1::2] = 1.0
    for mode in ("handcrafted", "random-projection"):
        for channels in (1, 3, 8, 32):
            for pw, sw in ((MAX_FEATURE_WEIGHT, MAX_FEATURE_WEIGHT),
                           (-MAX_FEATURE_WEIGHT, MAX_FEATURE_WEIGHT)):
                cfg = EncoderConfig(mode=mode, channels16=channels, channels8=channels,
                                    position_weight=pw, std_weight=sw)
                pyr = encode_frame(frame, cfg)
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


def test_channel_folding_and_padding():
    frame = np.random.default_rng(32).random((32, 32, 3)).astype(np.float32)
    ref = encode_frame(frame, EncoderConfig(channels16=BASE_CHANNELS, channels8=BASE_CHANNELS)).level16
    # past the 8 base channels, C adds no zero columns: the level is the C = 8 one
    wide = encode_frame(frame, EncoderConfig(channels16=12, channels8=12))
    assert wide.level16.tobytes() == ref.tobytes()
    narrow = encode_frame(frame, EncoderConfig(channels16=5, channels8=5))
    assert narrow.level16.shape[2] == 5
    folded = ref[:, :, :5].copy()
    for i in range(5, BASE_CHANNELS):
        folded[:, :, i % 5] += ref[:, :, i]
    np.testing.assert_allclose(narrow.level16, folded, atol=1e-6)


def test_level8_shape():
    frame = np.zeros((48, 80, 3), dtype=np.float32)
    pyr = encode_frame(frame, EncoderConfig())
    assert pyr.level16.shape[:2] == (3, 5)
    assert pyr.level8.shape[:2] == (6, 10)


def test_random_projection_seed_determinism():
    frame = np.random.default_rng(33).random((32, 32, 3)).astype(np.float32)
    a = encode_frame(frame, EncoderConfig(mode="random-projection", seed=5))
    b = encode_frame(frame, EncoderConfig(mode="random-projection", seed=5))
    c = encode_frame(frame, EncoderConfig(mode="random-projection", seed=6))
    assert np.array_equal(a.level16, b.level16)
    assert not np.array_equal(a.level16, c.level16)


def test_encoder_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(mode="learned")
    with pytest.raises(ConfigError):
        EncoderConfig(channels16=0)
    with pytest.raises(ConfigError):
        EncoderConfig(mode="weights-file")


def _weights_dict(c16=6, c8=4):
    rng = np.random.default_rng(34)
    return {
        "proj16": rng.normal(size=(16 * 16 * 3, c16)).astype(np.float32),
        "proj8": rng.normal(size=(8 * 8 * 3, c8)).astype(np.float32),
    }


def test_weights_round_trip(tmp_path):
    path = tmp_path / "w.mswt"
    tensors = _weights_dict()
    save_weights(path, tensors)
    loaded = load_weights(path)
    assert set(loaded) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], tensors[k])


def test_weights_file_mode_end_to_end(tmp_path):
    path = tmp_path / "w.mswt"
    save_weights(path, _weights_dict())
    cfg = EncoderConfig(mode="weights-file", weights_path=str(path), channels16=6, channels8=4)
    frame = np.random.default_rng(35).random((32, 32, 3)).astype(np.float32)
    pyr = encode_frame(frame, cfg)
    assert pyr.level16.shape == (2, 2, 6)
    assert pyr.level8.shape == (4, 4, 4)


def test_weights_channel_mismatch_names_both_counts(tmp_path):
    path = tmp_path / "w.mswt"
    save_weights(path, _weights_dict(c16=6, c8=4))
    cfg = EncoderConfig(mode="weights-file", weights_path=str(path), channels16=9, channels8=4)
    frame = np.zeros((32, 32, 3), dtype=np.float32)
    with pytest.raises(FormatError, match=r"6.*9"):
        encode_frame(frame, cfg)


def test_weights_corruption_detected(tmp_path):
    path = tmp_path / "w.mswt"
    save_weights(path, _weights_dict())
    blob = bytearray(path.read_bytes())
    blob[10] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        load_weights(path)


def test_weights_truncation_detected(tmp_path):
    path = tmp_path / "w.mswt"
    save_weights(path, _weights_dict())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_weights(path)


def test_weights_bad_magic(tmp_path):
    path = tmp_path / "w.mswt"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(FormatError, match="magic"):
        load_weights(path)


def test_weights_non_finite_rejected(tmp_path):
    path = tmp_path / "w.mswt"
    for bad in (np.nan, np.inf):
        tensors = _weights_dict()
        tensors["proj16"][3, 2] = bad
        save_weights(path, tensors)
        with pytest.raises(FormatError, match="'proj16'.*non-finite"):
            load_weights(path)


def test_weights_file_read_once_per_file_version(tmp_path, monkeypatch):
    path = tmp_path / "w.mswt"
    save_weights(path, _weights_dict())
    reads = []

    def counted(p):
        reads.append(p)
        return load_weights(p)

    monkeypatch.setattr(features, "load_weights", counted)
    enc = EncoderConfig(mode="weights-file", weights_path=str(path), channels16=6, channels8=4)
    cfg = EngineConfig(encoder=enc)
    rng = np.random.default_rng(36)
    frames = [rng.random((32, 32, 3)).astype(np.float32) for _ in range(10)]
    mask = np.zeros((32, 32), dtype=np.int32)
    mask[8:24, 8:24] = 1
    track_sequence(frames, mask, cfg)
    assert reads == [str(path)]
    # a rewritten file is read again
    save_weights(path, {k: v + 1.0 for k, v in _weights_dict().items()})
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    track_sequence(frames, mask, cfg)
    assert reads == [str(path)] * 2


def test_weights_rewrite_is_not_cached(tmp_path):
    path = tmp_path / "w.mswt"
    first = _weights_dict()
    save_weights(path, first)
    load_weights(path)
    second = {k: v + 1.0 for k, v in first.items()}
    save_weights(path, second)
    np.testing.assert_array_equal(load_weights(path)["proj16"], second["proj16"])


@pytest.mark.parametrize(
    "mode, channels, width",
    [
        ("handcrafted", 32, 8),
        ("handcrafted", 8, 8),
        ("handcrafted", 4, 4),
        ("random-projection", 32, 32),
    ],
)
def test_encode_frame_pads_any_frame_size(mode, channels, width):
    rng = np.random.default_rng(11)
    frame = rng.random((75, 100, 3)).astype(np.float32)
    cfg = EncoderConfig(mode=mode, channels16=channels, channels8=channels)
    pyr = encode_frame(frame, cfg)
    # the handcrafted encoder emits only its min(C, 8) real channels, each non-zero somewhere
    for level in (pyr.level16, pyr.level8):
        assert level.shape[2] == width
        assert np.all(np.any(level, axis=(0, 1)))
    assert pyr.level16.shape[:2] == (5, 7) and pyr.level8.shape[:2] == (10, 14)
    edge = np.pad(frame, ((0, 5), (0, 12), (0, 0)), mode="edge")
    ref = encode_frame(edge, cfg)
    assert np.array_equal(pyr.level16, ref.level16) and np.array_equal(pyr.level8, ref.level8)
    one = encode_frame(np.full((1, 1, 3), 0.5, dtype=np.float32), cfg)
    assert one.level16.shape[:2] == (1, 1) and one.level8.shape[:2] == (2, 2)


def _mswt_blob(name: bytes, dims) -> bytes:
    body = features.WEIGHTS_MAGIC + struct.pack("<I", features.WEIGHTS_VERSION)
    body += struct.pack("<I", len(name)) + name + struct.pack("<I", len(dims))
    body += b"".join(struct.pack("<I", d) for d in dims)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_weights_bad_name_or_dims_are_format_errors(tmp_path):
    p = tmp_path / "w.mswt"
    for name, dims, match in (
        (b"\xff\xfe", [1], "not UTF-8"),
        # the int64 products of these two dims wrap, to a negative count and to 0
        (b"x", [2**32 - 1] * 4 + [16], "truncated data"),
        (b"x", [2**31, 2**31, 4], "truncated data"),
        (b"x", [0, 2**31, 2**31], "zero dimension"),
    ):
        p.write_bytes(_mswt_blob(name, dims))
        with pytest.raises(FormatError, match=match):
            load_weights(p)
