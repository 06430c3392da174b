"""Bit-width/channel update rules, skip propagation, and schedule runs."""

import numpy as np
import pytest

from adq.errors import ConfigurationError, InputError
from adq.nn.arch import LayerSpec, NetworkArch
from adq.nn.data import synthetic_dataset
from adq.nn.engine import forward, init_state
from adq.presets import build_resnet18, build_toy_cnn
from adq.scheduler import (ScheduleConfig, default_exempt, main_chain_weighted_ids,
                           propagate_skip_bitwidths, rebuild_pruned,
                           run_schedule, select_pruned_channels,
                           skip_topology, update_bitwidths, update_channels)


def _update(bits, ad, exempt=()):
    return update_bitwidths(dict(enumerate(bits)), ad, frozenset(exempt))


class TestUpdateBitwidths:
    def test_paper_worked_example(self):
        out = _update([16, 10, 8], {0: 0.9, 1: 0.3, 2: 0.5})
        assert [out[i] for i in range(3)] == [14, 3, 4]

    def test_full_density_is_fixed_point(self):
        out = _update([7, 3, 16], {i: 1.0 for i in range(3)})
        assert out == {0: 7, 1: 3, 2: 16}

    def test_exempt_layers_unchanged(self):
        out = _update([16, 12, 16], {0: 0.1, 1: 0.5, 2: 0.1}, exempt={0, 2})
        assert out[0] == 16 and out[2] == 16 and out[1] == 6

    def test_clamped_at_one(self):
        out = _update([4], {0: 0.01})
        assert out[0] == 1

    def test_exhaustive_grid_matches_round_and_clamp_oracle(self):
        for k in range(1, 17):
            for ad100 in range(0, 101):
                ad = ad100 / 100.0
                out = _update([k], {0: ad})
                # independent oracle: round half away from zero, clamp to >= 1
                import math
                prop = math.floor(k * ad + 0.5)
                want = max(1, min(k, prop))
                assert out[0] == want, (k, ad)

    def test_ad_out_of_bounds_rejected(self):
        with pytest.raises(InputError):
            _update([8], {0: 1.2})
        with pytest.raises(InputError):
            _update([8], {0: -0.1})

    def test_never_increases(self):
        rng = np.random.default_rng(0)
        bits = dict.fromkeys(range(6), 16)
        for _ in range(5):
            ad = {i: float(rng.uniform(0, 1)) for i in range(6)}
            nxt = update_bitwidths(bits, ad, frozenset())
            assert all(nxt[i] <= bits[i] for i in range(6))
            bits = nxt


class TestUpdateChannels:
    def test_full_density_keeps_width(self):
        assert update_channels({0: 64}, {0: 64}, {0: 1.0})[0] == 64

    def test_table_consistency_64_to_19(self):
        # 19-channel layer from a 64-wide one is consistent with AD ~ 0.297
        assert update_channels({0: 64}, {0: 64}, {0: 0.297})[0] == 19

    def test_random_pairs_match_oracle(self):
        import math
        rng = np.random.default_rng(1)
        for _ in range(300):
            c = int(rng.integers(1, 512))
            ad = float(rng.uniform(0, 1))
            got = update_channels({0: c}, {0: c}, {0: ad})[0]
            want = max(1, min(c, math.floor(c * ad + 0.5)))
            assert got == want

    def test_multiplier_is_initial_width(self):
        # after shrinking, a recovered density re-derives from the original
        initial = {0: 64}
        channels = update_channels(initial, initial, {0: 0.25})
        assert channels[0] == 16
        channels = update_channels(channels, initial, {0: 0.2})
        assert channels[0] == 13  # round(64 * 0.2), not round(16 * 0.2)

    def test_alternative_current_multiplier(self):
        initial = {0: 64}
        channels = update_channels(initial, initial, {0: 0.25},
                                   from_initial=False)
        channels = update_channels(channels, initial, {0: 0.25},
                                   from_initial=False)
        assert channels[0] == 4  # 64 -> 16 -> 4

    def test_never_increases(self):
        assert update_channels({0: 10}, {0: 64}, {0: 1.0})[0] == 10


class TestSelectChannels:
    def test_identity_when_nothing_pruned(self):
        kept = select_pruned_channels({0: 4},
                                      {0: np.array([0.1, 0.9, 0.5, 0.2])})
        assert kept[0] == [0, 1, 2, 3]

    def test_top2_by_score(self):
        kept = select_pruned_channels({0: 2}, {0: np.array([0.9, 0.1, 0.5])})
        assert kept[0] == [0, 2]

    def test_ties_prefer_lower_index(self):
        kept = select_pruned_channels({0: 2},
                                      {0: np.array([0.5, 0.5, 0.5, 0.5])})
        assert kept[0] == [0, 1]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            c = int(rng.integers(1, n + 1))
            scores = rng.uniform(size=n)
            kept = set(select_pruned_channels({0: c}, {0: scores})[0])
            want = set(sorted(range(n), key=lambda i: (-scores[i], i))[:c])
            assert kept == want

    def test_too_few_channels_is_an_input_error(self):
        with pytest.raises(InputError, match="want 5 channels"):
            select_pruned_channels({0: 5}, {0: np.array([1.0, 0.5])})


class TestSkipPropagation:
    def test_no_skips_identity(self):
        arch = build_toy_cnn()
        bits = dict.fromkeys(arch.weighted_ids(), 16)
        eff = propagate_skip_bitwidths(arch, bits)
        assert eff["layer_bits"] == bits
        assert eff["skip_edge_bits"] == {}

    def test_skip_edge_uses_destination_bits(self):
        # two convs, then an add joining conv0's relu via the skip edge
        arch = NetworkArch([
            LayerSpec(id=0, kind="conv2d", in_channels=1, out_channels=2,
                      kernel=3, padding=1),
            LayerSpec(id=1, kind="relu"),
            LayerSpec(id=2, kind="conv2d", in_channels=2, out_channels=2,
                      kernel=3, padding=1),
            LayerSpec(id=3, kind="residual-add", skip_source=1),
            LayerSpec(id=4, kind="relu"),
            LayerSpec(id=5, kind="avgpool", kernel=0),
            LayerSpec(id=6, kind="flatten"),
            LayerSpec(id=7, kind="linear", in_channels=2, out_channels=2),
        ], (1, 4, 4), 2)
        eff = propagate_skip_bitwidths(arch, {0: 16, 2: 4, 7: 16})
        assert eff["skip_edge_bits"][3] == 4  # destination conv's width

    def test_resnet_projection_convs_inherit_destination(self):
        arch = build_resnet18(num_classes=10, input_size=32,
                              always_project=True)
        main = main_chain_weighted_ids(arch)
        bits = {lid: int(b) for lid, b in
                zip(main, [16] + list(range(2, 18)) + [16])}
        eff = propagate_skip_bitwidths(arch, bits)
        topo = skip_topology(arch)
        assert len(topo) == 8
        for add_id, t in topo.items():
            dest_bits = eff["layer_bits"][t["destination"]]
            assert eff["skip_edge_bits"][add_id] == dest_bits
            for cid in t["skip_convs"]:
                assert eff["layer_bits"][cid] == dest_bits

    def test_dangling_skip_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkArch([
                LayerSpec(id=0, kind="conv2d", in_channels=1, out_channels=1,
                          kernel=1),
                LayerSpec(id=1, kind="residual-add", skip_source=9),
                LayerSpec(id=2, kind="flatten"),
                LayerSpec(id=3, kind="linear", in_channels=4, out_channels=2),
            ], (1, 2, 2), 2)


class TestDefaultExempt:
    def test_first_and_last_weighted(self):
        arch = build_toy_cnn()
        ids = arch.weighted_ids()
        assert default_exempt(arch) == frozenset({ids[0], ids[-1]})


class TestRebuild:
    def _feedforward(self):
        return NetworkArch([
            LayerSpec(id=0, kind="conv2d", in_channels=1, out_channels=4,
                      kernel=3, padding=1),
            LayerSpec(id=1, kind="relu"),
            LayerSpec(id=2, kind="conv2d", in_channels=4, out_channels=6,
                      kernel=3, padding=1),
            LayerSpec(id=3, kind="relu"),
            LayerSpec(id=4, kind="avgpool", kernel=0),
            LayerSpec(id=5, kind="flatten"),
            LayerSpec(id=6, kind="linear", in_channels=6, out_channels=3),
        ], (1, 6, 6), 3)

    def test_weights_carried_for_surviving_channels(self):
        arch = self._feedforward()
        state = init_state(arch, 0)
        kept = {0: [1, 3], 2: [0, 2, 5]}
        new_arch, new_state = rebuild_pruned(arch, state, {0: 2, 2: 3}, kept)
        assert new_arch.layer(0).out_channels == 2
        assert new_arch.layer(2).in_channels == 2
        want = state.weights[2]["w"][np.ix_([0, 2, 5], [1, 3])]
        assert np.array_equal(new_state.weights[2]["w"], want)
        assert np.array_equal(new_state.weights[0]["b"],
                              state.weights[0]["b"][[1, 3]])

    def test_linear_input_slice_follows_flatten(self):
        arch = NetworkArch([
            LayerSpec(id=0, kind="conv2d", in_channels=1, out_channels=3,
                      kernel=3, padding=1),
            LayerSpec(id=1, kind="relu"),
            LayerSpec(id=2, kind="flatten"),
            LayerSpec(id=3, kind="linear", in_channels=3 * 16, out_channels=2),
        ], (1, 4, 4), 2)
        state = init_state(arch, 0)
        new_arch, new_state = rebuild_pruned(arch, state, {0: 2}, {0: [0, 2]})
        assert new_arch.layer(3).in_channels == 32
        want_cols = list(range(0, 16)) + list(range(32, 48))
        assert np.array_equal(new_state.weights[3]["w"],
                              state.weights[3]["w"][:, want_cols])

    def test_linear_relu_linear_head(self):
        # the second linear's inputs are the first linear's outputs, not
        # features of the flattened map
        arch = NetworkArch([
            LayerSpec(id=0, kind="conv2d", in_channels=1, out_channels=3,
                      kernel=3, padding=1),
            LayerSpec(id=1, kind="relu"),
            LayerSpec(id=2, kind="flatten"),
            LayerSpec(id=3, kind="linear", in_channels=3 * 16, out_channels=5),
            LayerSpec(id=4, kind="relu"),
            LayerSpec(id=5, kind="linear", in_channels=5, out_channels=2),
        ], (1, 4, 4), 2)
        state = init_state(arch, 0)
        new_arch, new_state = rebuild_pruned(arch, state, {0: 2}, {0: [0, 2]})
        assert new_arch.layer(3).in_channels == 32
        assert new_arch.layer(5).in_channels == 5
        assert np.array_equal(new_state.weights[5]["w"],
                              state.weights[5]["w"])
        logits, _ = forward(new_arch, new_state,
                            np.ones((2, 1, 4, 4)))
        assert logits.shape == (2, 2)

    def test_pruned_forward_runs_for_random_ad(self):
        rng = np.random.default_rng(5)
        arch = self._feedforward()
        for _ in range(10):
            state = init_state(arch, 0)
            initial = {0: 4, 2: 6}
            ad = {0: float(rng.uniform()), 2: float(rng.uniform())}
            channels = update_channels(initial, initial, ad)
            scores = {0: rng.uniform(size=4), 2: rng.uniform(size=6)}
            kept = select_pruned_channels(channels, scores)
            new_arch, new_state = rebuild_pruned(arch, state, channels, kept)
            x = rng.normal(size=(2, 1, 6, 6))
            logits, _ = forward(new_arch, new_state, x)
            assert logits.shape == (2, 3)

    def test_identity_skip_prune_mismatch_rejected(self):
        arch = NetworkArch([
            LayerSpec(id=0, kind="conv2d", in_channels=1, out_channels=4,
                      kernel=3, padding=1),
            LayerSpec(id=1, kind="relu"),
            LayerSpec(id=2, kind="conv2d", in_channels=4, out_channels=4,
                      kernel=3, padding=1),
            LayerSpec(id=3, kind="residual-add", skip_source=1),
            LayerSpec(id=4, kind="relu"),
            LayerSpec(id=5, kind="avgpool", kernel=0),
            LayerSpec(id=6, kind="flatten"),
            LayerSpec(id=7, kind="linear", in_channels=4, out_channels=2),
        ], (1, 4, 4), 2)
        state = init_state(arch, 0)
        with pytest.raises(ConfigurationError, match="projection"):
            rebuild_pruned(arch, state, {0: 4, 2: 2}, {2: [0, 1]})


class TestRunSchedule:
    def _dataset(self):
        return synthetic_dataset(num_classes=10, image_shape=(1, 8, 8),
                                 train_per_class=20, test_per_class=10,
                                 noise=0.4, seed=3)

    def test_single_iteration_is_pure_baseline(self):
        arch = build_toy_cnn(widths=(4, 4, 8, 8))
        cfg = ScheduleConfig(max_iters=1, epoch_budget=2, saturation_window=2,
                             saturation_epsilon=1e-9)
        res = run_schedule(arch, self._dataset(), cfg, seed=0)
        assert len(res.log.iterations) == 1
        assert all(b == 16 for b in res.log.iterations[0].bits.values())

    def test_evaluates_at_the_training_batch_size(self, monkeypatch):
        from adq.nn import engine
        seen, real = [], engine.accuracy

        def spy(arch, state, x, y, quantizer=None, batch_size=256):
            seen.append(batch_size)
            return real(arch, state, x, y, quantizer, batch_size)

        monkeypatch.setattr(engine, "accuracy", spy)
        cfg = ScheduleConfig(max_iters=1, epoch_budget=2, saturation_window=2,
                             batch_size=16)
        run_schedule(build_toy_cnn(widths=(4, 4, 8, 8)), self._dataset(),
                     cfg, seed=0)
        # two epochs, then the final evaluation at the last assignment
        assert seen == [16, 16, 16]

    def test_bits_non_increasing_and_bounded_iterations(self):
        arch = build_toy_cnn(widths=(4, 4, 8, 8))
        cfg = ScheduleConfig(max_iters=4, epoch_budget=3, saturation_window=2,
                             saturation_epsilon=0.002)
        res = run_schedule(arch, self._dataset(), cfg, seed=1)
        assert 1 <= len(res.log.iterations) <= 4
        rows = res.log.iterations
        for prev, cur in zip(rows, rows[1:]):
            for lid in prev.bits:
                assert cur.bits[lid] <= prev.bits[lid]
        exempt = default_exempt(res.arch)
        for row in rows:
            for lid in exempt:
                assert row.bits[lid] == 16

    def test_dead_layer_clamps_to_one_bit(self):
        # a conv whose relu never fires has AD 0 -> bit-width clamps to 1
        arch = build_toy_cnn(widths=(4, 4, 6, 6))
        ds = self._dataset()
        cfg = ScheduleConfig(max_iters=2, epoch_budget=2, saturation_window=2,
                             saturation_epsilon=1e-9)

        from adq.nn import engine as eng
        orig = eng.init_state

        def rigged(a, seed):
            st = orig(a, seed)
            dead = a.weighted_ids()[2]
            st.weights[dead]["w"] = np.zeros_like(st.weights[dead]["w"])
            st.weights[dead]["b"] = np.full_like(st.weights[dead]["b"], -5.0)
            return st

        eng_init = run_schedule.__globals__["engine"].init_state
        run_schedule.__globals__["engine"].init_state = rigged
        try:
            res = run_schedule(arch, ds, cfg, seed=2)
        finally:
            run_schedule.__globals__["engine"].init_state = eng_init
        dead = arch.weighted_ids()[2]
        assert res.assignment[dead] == 1

    def test_fixed_point_terminates_before_budget(self):
        # density locked at 1.0 keeps bits unchanged: stops after iteration 1
        arch = build_toy_cnn(widths=(4, 4, 8, 8))
        ds = self._dataset()
        ds.x_train = np.abs(ds.x_train) + 1.0  # all activations positive
        cfg = ScheduleConfig(max_iters=4, epoch_budget=2, saturation_window=2,
                             saturation_epsilon=1e9)  # saturate instantly
        res = run_schedule(arch, ds, cfg, seed=3)
        ads = [r.network_ad for r in res.log.iterations]
        if all(a == 1.0 for a in ads):
            assert len(res.log.iterations) < 4

    def test_pruned_schedule_consistent_with_channel_rule(self):
        import math
        arch = build_toy_cnn(widths=(6, 6, 10, 10))
        cfg = ScheduleConfig(max_iters=3, epoch_budget=3, saturation_window=2,
                             saturation_epsilon=0.002, pruning_enabled=True)
        res = run_schedule(arch, self._dataset(), cfg, seed=4)
        rows = res.log.iterations
        conv_ids = [l.id for l in build_toy_cnn(
            widths=(6, 6, 10, 10)).layers if l.kind == "conv2d"]
        initial = {lid: w for lid, w in zip(conv_ids, (6, 6, 10, 10))}
        # recompute the channel rule from the recorded densities
        for prev, cur in zip(rows, rows[1:]):
            prev_epoch_end = sum(r.epochs for r in rows[:rows.index(prev) + 1])
            for lid in conv_ids:
                ad = res.ad_history.layer_ad(lid, prev_epoch_end)
                want = max(1, min(prev.channels[lid],
                                  math.floor(initial[lid] * ad + 0.5)))
                assert cur.channels[lid] == want
        logits, _ = forward(res.arch, res.state,
                            self._dataset().x_test[:4])
        assert logits.shape == (4, 10)
