"""Encoder tests: per-cell oracles, covariance, MSWT container handling."""

import os

import numpy as np
import pytest

from mstrack import features
from mstrack.engine import EngineConfig, track_sequence
from mstrack.errors import ConfigError, FormatError, ShapeError
from mstrack.features import (
    BASE_CHANNELS,
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


def test_validate_frame_contract():
    ok = np.zeros((32, 48, 3), dtype=np.float32)
    assert validate_frame(ok).shape == (32, 48, 3)
    with pytest.raises(ShapeError):
        validate_frame(np.zeros((32, 48), dtype=np.float32))
    with pytest.raises(ShapeError):
        validate_frame(np.zeros((30, 48, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        validate_frame(np.full((32, 32, 3), 2.0, dtype=np.float32))


def test_pad_to_multiple_edge_replicates():
    frame = np.arange(2 * 3 * 3, dtype=np.float32).reshape(2, 3, 3) / 100.0
    padded = pad_to_multiple(frame, 16)
    assert padded.shape == (16, 16, 3)
    assert np.array_equal(padded[0, :3], frame[0])
    assert np.array_equal(padded[5, 2], frame[1, 2])


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
    wide = encode_frame(frame, EncoderConfig(channels16=12, channels8=12))
    assert wide.level16.shape[2] == 12
    assert np.allclose(wide.level16[:, :, BASE_CHANNELS:], 0.0)
    narrow = encode_frame(frame, EncoderConfig(channels16=5, channels8=5))
    assert narrow.level16.shape[2] == 5
    ref = encode_frame(frame, EncoderConfig(channels16=BASE_CHANNELS, channels8=BASE_CHANNELS)).level16
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
