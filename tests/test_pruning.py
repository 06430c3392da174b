"""Pruning: the skip-connection rule in scheduled assignments, and the
table-driven rebuild held to the former mirroring rebuild bit for bit."""

import numpy as np
import pytest

from adq import scheduler
from adq.energy import pim_network_energy
from adq.nn.arch import LayerSpec, NetworkArch
from adq.nn.data import synthetic_dataset
from adq.nn.engine import init_state
from adq.presets import build_toy_cnn
from adq.scheduler import (PruneState, ScheduleConfig,
                           main_chain_weighted_ids, propagate_skip_bitwidths,
                           rebuild_pruned, run_schedule, skip_topology)

from oracles import mirroring_rebuild_pruned


def projection_resnet(widths=((8, 1), (16, 2), (32, 2)), in_channels=3,
                      size=16, num_classes=10):
    """Stem conv, then one residual block per (channels, stride) pair, each
    with a 1x1 projection conv on its skip path (the benchmark's
    resnet-prune architecture with the default arguments)."""
    layers = []

    def add(kind, **kw):
        layers.append(LayerSpec(id=len(layers), kind=kind, **kw))
        return len(layers) - 1

    add("conv2d", in_channels=in_channels, out_channels=widths[0][0],
        kernel=3, stride=1, padding=1)
    add("batchnorm")
    prev, cin = add("relu"), widths[0][0]
    for cout, stride in widths:
        add("conv2d", in_channels=cin, out_channels=cout, kernel=1,
            stride=stride, padding=0, skip_source=prev)
        skip = add("batchnorm")
        add("conv2d", in_channels=cin, out_channels=cout, kernel=3,
            stride=stride, padding=1, skip_source=prev)
        add("batchnorm")
        add("relu")
        add("conv2d", in_channels=cout, out_channels=cout, kernel=3,
            stride=1, padding=1)
        add("batchnorm")
        add("residual-add", skip_source=skip)
        prev, cin = add("relu"), cout
    add("avgpool", kernel=0)
    add("flatten")
    add("linear", in_channels=cin, out_channels=num_classes)
    return NetworkArch(layers, (in_channels, size, size), num_classes)


def vgg_stack():
    """Conv/batchnorm/relu/maxpool stack that flattens a 2x2 map."""
    layers = []

    def add(kind, **kw):
        layers.append(LayerSpec(id=len(layers), kind=kind, **kw))

    cin = 2
    for item in (6, "M", 8, 8, "M", 10, "M"):
        if item == "M":
            add("maxpool", kernel=2, stride=2)
            continue
        add("conv2d", in_channels=cin, out_channels=item, kernel=3,
            padding=1)
        add("batchnorm")
        add("relu")
        cin = item
    add("flatten")
    add("linear", in_channels=10 * 2 * 2, out_channels=5)
    return NetworkArch(layers, (2, 16, 16), 5)


class TestSkipRuleInSchedule:
    def _result(self):
        arch = projection_resnet(widths=((4, 1), (8, 2)), size=8)
        ds = synthetic_dataset(num_classes=10, image_shape=(3, 8, 8),
                               train_per_class=6, test_per_class=3,
                               noise=0.35, seed=1)
        cfg = ScheduleConfig(max_iters=2, epoch_budget=2,
                             saturation_window=2, saturation_epsilon=0.0,
                             pruning_enabled=True, batch_size=16)
        return run_schedule(arch, ds, cfg, seed=0)

    def test_costs_follow_the_bits_that_run(self):
        res = self._result()
        topo = skip_topology(res.arch)
        assert all(t["skip_convs"] for t in topo.values())
        for t in topo.values():
            for cid in t["skip_convs"]:
                assert res.assignment.k[cid] == \
                    res.assignment.k[t["destination"]]
                assert res.prune_state.channels[cid] == \
                    res.prune_state.channels[t["destination"]]
        ran = propagate_skip_bitwidths(res.arch, res.assignment)["layer_bits"]
        assert ran == res.quantizer.bits
        got = pim_network_energy(res.arch, res.assignment, res.prune_state)
        want = pim_network_energy(res.arch, ran, res.prune_state)
        assert got.to_dict() == want.to_dict()


def _randomise(state, rng):
    """Give every parameter distinct values, so a wrong slice shows."""
    for params in state.weights.values():
        for name, arr in params.items():
            params[name] = rng.normal(size=arr.shape)


def _scheduled_inputs(arch, rng):
    """A kept set and channel counts as run_schedule hands them over: every
    main-chain conv has a kept entry; skip-path convs have none and already
    hold their destination's count."""
    kept, channels = {}, {}
    for lid in main_chain_weighted_ids(arch):
        spec = arch.layer(lid)
        if spec.kind != "conv2d":
            continue
        n = int(rng.integers(1, spec.out_channels + 1))
        kept[lid] = sorted(int(i) for i in
                           rng.choice(spec.out_channels, n, replace=False))
        channels[lid] = n
    for t in skip_topology(arch).values():
        for cid in t["skip_convs"]:
            channels[cid] = channels[t["destination"]]
    initial = {cid: arch.layer(cid).out_channels for cid in arch.conv_ids()}
    return kept, PruneState(channels, initial)


def _same_array(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.strides == b.strides and a.tobytes() == b.tobytes())


class TestRebuildParity:
    @pytest.mark.parametrize("build", [
        lambda: build_toy_cnn(widths=(6, 6, 10, 10)), vgg_stack,
        projection_resnet], ids=["toy_cnn", "vgg_stack", "projection_resnet"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_mirroring_rebuild(self, build, seed):
        rng = np.random.default_rng(seed)
        arch = build()
        state = init_state(arch, seed)
        _randomise(state, rng)
        for _ in range(3):  # successive rebuilds, as across iterations
            kept, ps = _scheduled_inputs(arch, rng)
            new_arch, new_state = rebuild_pruned(arch, state, ps, kept)
            old_arch, old_state = mirroring_rebuild_pruned(
                arch, state, ps, dict(kept))
            assert new_arch.to_dict() == old_arch.to_dict()
            for part in ("weights", "m", "v"):
                new, old = getattr(new_state, part), getattr(old_state, part)
                assert new.keys() == old.keys()
                for lid in new:
                    assert new[lid].keys() == old[lid].keys()
                    for p in new[lid]:
                        assert _same_array(new[lid][p], old[lid][p]), \
                            (part, lid, p)
            assert new_state.rng is state.rng
            assert new_state.epoch == old_state.epoch
            arch, state = new_arch, new_state


class TestPruningScores:
    @pytest.mark.parametrize("strict_ad_pass", [False, True])
    def test_scores_are_the_last_epochs_densities(self, monkeypatch,
                                                  strict_ad_pass):
        """Each conv's channel scores average to its AD in the last epoch of
        the iteration they prune after."""
        calls, epoch_end = [], [0]
        select = scheduler.select_pruned_channels

        def capture(prune_state, scores):
            calls.append((epoch_end[0], dict(scores)))
            return select(prune_state, scores)

        def on_iteration(it, arch, state, assignment, prune_state, history,
                         record):
            epoch_end[0] += record.epochs

        monkeypatch.setattr(scheduler, "select_pruned_channels", capture)
        ds = synthetic_dataset(num_classes=10, image_shape=(1, 8, 8),
                               train_per_class=12, test_per_class=6,
                               noise=0.4, seed=3)
        cfg = ScheduleConfig(max_iters=3, epoch_budget=3,
                             saturation_window=2, saturation_epsilon=0.003,
                             pruning_enabled=True,
                             strict_ad_pass=strict_ad_pass)
        res = run_schedule(build_toy_cnn(widths=(4, 4, 6, 6)), ds, cfg,
                           seed=7, iteration_callback=on_iteration)
        assert calls
        for epoch, scores in calls:
            assert scores
            for lid, s in scores.items():
                assert np.mean(s) == pytest.approx(
                    res.ad_history.layer_ad(lid, epoch), rel=1e-12)
