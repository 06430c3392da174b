"""Synthetic data, directory loading, and checkpoint round-trips."""

import numpy as np
import pytest

from adq.errors import ConfigurationError, InputError
from adq.nn.arch import NetworkArch
from adq.nn.checkpoint import load_checkpoint, save_checkpoint
from adq.nn.data import load_directory, synthetic_dataset
from adq.nn.engine import forward, init_state
from adq.presets import build_toy_cnn


class TestSyntheticDataset:
    def test_shapes_and_labels(self):
        ds = synthetic_dataset(num_classes=10, image_shape=(1, 8, 8),
                               train_per_class=6, test_per_class=3, seed=0)
        assert ds.x_train.shape == (60, 1, 8, 8)
        assert ds.x_test.shape == (30, 1, 8, 8)
        assert set(ds.y_train.tolist()) == set(range(10))
        assert np.bincount(ds.y_train).tolist() == [6] * 10

    def test_seed_reproducible(self):
        a = synthetic_dataset(seed=5)
        b = synthetic_dataset(seed=5)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_test, b.y_test)

    def test_noise_controls_spread(self):
        quiet = synthetic_dataset(noise=0.01, seed=1)
        loud = synthetic_dataset(noise=2.0, seed=1)
        # same prototypes, so per-class variance scales with the noise
        def within_class_var(ds):
            return np.mean([ds.x_train[ds.y_train == c].var(axis=0).mean()
                            for c in range(10)])
        assert within_class_var(loud) > 100 * within_class_var(quiet)

    def test_rgb_variant(self):
        ds = synthetic_dataset(image_shape=(3, 16, 16), train_per_class=2,
                               test_per_class=1, seed=0)
        assert ds.image_shape == (3, 16, 16)


class TestDirectoryLoader:
    def test_round_trip_via_npy(self, tmp_path):
        rng = np.random.default_rng(0)
        for label in range(3):
            d = tmp_path / str(label)
            d.mkdir()
            for i in range(4):
                np.save(d / f"img{i}.npy", rng.normal(size=(1, 4, 4)))
        ds = load_directory(tmp_path, test_fraction=0.25, seed=0)
        assert len(ds.y_train) + len(ds.y_test) == 12
        assert ds.x_train.shape[1:] == (1, 4, 4)
        assert set(np.concatenate([ds.y_train, ds.y_test])) == {0, 1, 2}

    def test_missing_directory_rejected(self):
        with pytest.raises(InputError):
            load_directory("/nonexistent/path")

    def test_non_integer_label_rejected(self, tmp_path):
        (tmp_path / "cat").mkdir()
        np.save(tmp_path / "cat" / "x.npy", np.zeros((1, 2, 2)))
        with pytest.raises(InputError):
            load_directory(tmp_path)

    def test_inconsistent_shapes_rejected(self, tmp_path):
        for label, shape in ((0, (1, 2, 2)), (1, (1, 3, 3))):
            d = tmp_path / str(label)
            d.mkdir()
            np.save(d / "x.npy", np.zeros(shape))
        with pytest.raises(InputError):
            load_directory(tmp_path)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        arch = build_toy_cnn(widths=(3, 3, 5, 5))
        state = init_state(arch, 9)
        state.step = 17
        state.epoch = 4
        bits = {"0": 16, "2": 7}
        ad_rows = [{"layer_id": 0, "epoch": 1, "nonzero": 5, "total": 10,
                    "ad": 0.5}]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arch, state, bits=bits, ad_history=ad_rows,
                        quant_state={"input:0": {"mode": "ema",
                                                 "ema_decay": 0.99,
                                                 "x_min": -1.0, "x_max": 2.0}})
        arch2, state2, header = load_checkpoint(path)
        assert arch2.to_dict() == arch.to_dict()
        assert header["bits"] == bits
        assert header["ad_history"] == ad_rows
        assert header["epoch"] == 4 and header["step"] == 17
        for lid in state.weights:
            for name, arr in state.weights[lid].items():
                assert np.array_equal(state2.weights[lid][name], arr)
        for lid in state.m:
            for name, arr in state.m[lid].items():
                assert np.array_equal(state2.m[lid][name], arr)

    def test_rng_stream_resumes_identically(self, tmp_path):
        arch = build_toy_cnn(widths=(2, 2, 2, 2))
        state = init_state(arch, 3)
        state.rng.normal(size=100)  # advance the stream
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arch, state)
        _, state2, _ = load_checkpoint(path)
        assert np.array_equal(state.rng.normal(size=8),
                              state2.rng.normal(size=8))

    def test_forward_equivalence_after_reload(self, tmp_path):
        arch = build_toy_cnn(widths=(3, 3, 4, 4))
        state = init_state(arch, 1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arch, state)
        arch2, state2, _ = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
        a, _ = forward(arch, state, x, training=False)
        b, _ = forward(arch2, state2, x, training=False)
        assert np.array_equal(a, b)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(InputError):
            load_checkpoint(p)


class TestArchJson:
    def test_save_load_round_trip(self, tmp_path):
        arch = build_toy_cnn()
        path = tmp_path / "arch.json"
        arch.save(path)
        back = NetworkArch.load(path)
        assert back.to_dict() == arch.to_dict()
        assert back.arch_hash() == arch.arch_hash()


class TestArchJsonIntegers:
    """from_dict reads integer fields as they are written: no fallback for
    zero or null, and the same int() conversion for skip_source."""

    def _record(self, **conv_fields):
        conv = {"id": 0, "kind": "conv2d", "in_channels": 1,
                "out_channels": 2, "kernel": 3, "padding": 1, **conv_fields}
        return {"input_shape": [1, 4, 4], "num_classes": 2, "layers": [
            conv, {"id": 1, "kind": "relu"},
            {"id": 2, "kind": "conv2d", "in_channels": 2, "out_channels": 2,
             "kernel": 3, "padding": 1},
            {"id": 3, "kind": "residual-add", "skip_source": "1"},
            {"id": 4, "kind": "avgpool", "kernel": 0},
            {"id": 5, "kind": "flatten"},
            {"id": 6, "kind": "linear", "in_channels": 2, "out_channels": 2},
        ]}

    def test_zero_stride_rejected(self):
        with pytest.raises(ConfigurationError, match="stride must be >= 1"):
            NetworkArch.from_dict(self._record(stride=0))

    def test_null_stride_is_malformed(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            NetworkArch.from_dict(self._record(stride=None))

    def test_string_skip_source_read_as_layer_id(self):
        arch = NetworkArch.from_dict(self._record())
        assert arch.layer(3).skip_source == 1
        assert arch.input_ids(3) == (2, 1)
