"""Activation-density bookkeeping tests."""

import numpy as np
import pytest

from adq.admon import ADHistory, observation_points
from adq.artifacts import write_file
from adq.errors import InputError
from adq.presets import build_resnet18, build_toy_cnn


def test_all_zero_batch_counts_total_only():
    h = ADHistory()
    h.record(0, 1, np.zeros(100))
    rec = h.records[(0, 1)]
    assert rec.nonzero == 0 and rec.total == 100
    assert h.layer_ad(0, 1) == 0.0


def test_worked_example_100_of_512():
    h = ADHistory()
    acts = np.zeros(512)
    acts[:100] = 0.7
    h.record(3, 1, acts)
    ad = h.layer_ad(3, 1)
    assert ad == 100 / 512
    assert round(ad, 3) == 0.195


def test_counts_match_elementwise_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3, 5, 5))
    x[x < 0] = 0.0  # post-relu
    h = ADHistory()
    h.record(2, 1, x)
    explicit = int(sum(1 for v in x.ravel() if v > 0))
    assert h.records[(2, 1)].nonzero == explicit
    assert h.records[(2, 1)].total == x.size


def test_full_and_dead_layers():
    h = ADHistory()
    h.record(0, 1, np.ones(10))
    h.record(1, 1, np.zeros(10))
    assert h.layer_ad(0, 1) == 1.0
    assert h.layer_ad(1, 1) == 0.0


def test_accumulation_pools_counts_not_means():
    rng = np.random.default_rng(1)
    batches = [np.maximum(rng.normal(size=n), 0) for n in (64, 128, 32)]
    h = ADHistory()
    for b in batches:
        h.record(0, 1, b)
    pooled = sum(int((b > 0).sum()) for b in batches) / sum(b.size for b in batches)
    assert h.layer_ad(0, 1) == pooled
    per_batch_mean = np.mean([(b > 0).mean() for b in batches])
    assert h.layer_ad(0, 1) != pytest.approx(per_batch_mean)  # sizes differ


def test_recording_order_invariant():
    rng = np.random.default_rng(2)
    batches = [np.maximum(rng.normal(size=50), 0) for _ in range(5)]
    h1, h2 = ADHistory(), ADHistory()
    for b in batches:
        h1.record(0, 1, b)
    for b in reversed(batches):
        h2.record(0, 1, b)
    assert h1.records[(0, 1)].nonzero == h2.records[(0, 1)].nonzero
    assert h1.records[(0, 1)].total == h2.records[(0, 1)].total


def test_scale_invariance():
    rng = np.random.default_rng(3)
    x = np.maximum(rng.normal(size=200), 0)
    h1, h2 = ADHistory(), ADHistory()
    h1.record(0, 1, x)
    h2.record(0, 1, 17.3 * x)
    assert h1.layer_ad(0, 1) == h2.layer_ad(0, 1)


def test_epochs_must_increase():
    h = ADHistory()
    h.record(0, 5, np.ones(3))
    with pytest.raises(InputError):
        h.record(0, 4, np.ones(3))


class TestNetworkAD:
    def test_all_ones(self):
        h = ADHistory()
        h.record(0, 1, np.ones(10))
        h.record(1, 1, np.ones(30))
        assert h.network_ad(1) == 1.0

    def test_equal_sizes_average(self):
        h = ADHistory()
        a = np.zeros(10); a[:2] = 1  # AD 0.2
        b = np.zeros(10); b[:4] = 1  # AD 0.4
        h.record(0, 1, a)
        h.record(1, 1, b)
        assert h.network_ad(1) == pytest.approx(0.3)

    def test_pooled_vs_mean_on_unequal_layers(self):
        rng = np.random.default_rng(4)
        h = ADHistory()
        sizes = [100, 5000, 64]
        nz_total = 0
        for lid, n in enumerate(sizes):
            x = np.maximum(rng.normal(size=n), 0)
            h.record(lid, 1, x)
            nz_total += int((x > 0).sum())
        assert h.network_ad(1) == nz_total / sum(sizes)
        mean = np.mean([h.layer_ad(l, 1) for l in range(3)])
        assert h.network_ad(1, mode="mean") == pytest.approx(mean)

    def test_partial_epoch_rejected(self):
        h = ADHistory()
        h.record(0, 1, np.ones(5))
        h.record(1, 1, np.ones(5))
        h.record(0, 2, np.ones(5))
        with pytest.raises(InputError):
            h.network_ad(2)


class TestSaturation:
    def _series(self, layer, values):
        h = ADHistory()
        for e, v in enumerate(values, start=1):
            x = np.zeros(1000)
            x[:int(v * 1000)] = 1.0
            h.record(layer, e, x)
        return h

    def test_constant_series_saturated(self):
        h = self._series(0, [0.4] * 6)
        assert h.is_saturated(epsilon=1e-6, window=5)

    def test_drifting_series_not_saturated(self):
        h = self._series(0, [0.1 + 0.05 * i for i in range(8)])
        assert not h.is_saturated(epsilon=0.01, window=5)

    def test_insufficient_history_is_false_not_error(self):
        h = self._series(0, [0.5, 0.5])
        assert not h.is_saturated(epsilon=0.01, window=5)

    def test_window_rule_matches_reevaluation(self):
        rng = np.random.default_rng(9)
        vals = np.clip(0.5 + np.cumsum(rng.normal(0, 0.01, 20)), 0, 1)
        h = self._series(0, vals)
        eps, win = 0.015, 4
        got = h.layer_saturated(0, eps, win)
        recomputed = [h.layer_ad(0, e) for e in h.epochs(0)][-win:]
        assert got == ((max(recomputed) - min(recomputed)) < eps)

    def test_all_layers_required(self):
        h = self._series(0, [0.4] * 6)
        for e in range(1, 7):
            x = np.zeros(1000)
            x[:100 * e] = 1.0
            h.record(1, e, x)
        assert h.layer_saturated(0, 0.01, 5)
        assert not h.layer_saturated(1, 0.01, 5)
        assert not h.is_saturated(0.01, 5)

    def test_window_below_two_rejected(self):
        h = self._series(0, [0.5] * 3)
        with pytest.raises(InputError):
            h.layer_saturated(0, 0.01, 1)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    h = ADHistory()
    for lid in (0, 3, 7):
        for e in (1, 2, 3):
            h.record(lid, e, np.maximum(rng.normal(size=40), 0))
    path = tmp_path / "ad.csv"
    write_file(path, h.to_csv())
    back = ADHistory.from_csv(path)
    assert back.records.keys() == h.records.keys()
    for key, rec in h.records.items():
        assert (back.records[key].nonzero, back.records[key].total) == \
            (rec.nonzero, rec.total)


class TestObservationPoints:
    def test_toy_cnn_convs_observe_their_relu(self):
        arch = build_toy_cnn()
        pts = observation_points(arch)
        for spec in arch.layers:
            if spec.kind == "conv2d":
                assert arch.layer(pts[spec.id]).kind == "relu"

    def test_final_classifier_observes_raw_output(self):
        arch = build_toy_cnn()
        fc = [l.id for l in arch.layers if l.kind == "linear"][-1]
        assert observation_points(arch)[fc] == fc

    def test_resnet_block_conv2_observes_post_add_relu(self):
        arch = build_resnet18(num_classes=10, input_size=32)
        pts = observation_points(arch)
        for spec in arch.layers:
            if spec.kind == "residual-add":
                pos = arch.position(spec.id)
                relu_after = arch.layers[pos + 1]
                assert relu_after.kind == "relu"
                # the conv feeding the add observes that relu
                main_src = arch.input_ids(spec.id)[0]
                while arch.layer(main_src).kind not in ("conv2d", "linear"):
                    main_src = arch.input_ids(main_src)[0]
                assert pts[main_src] == relu_after.id
