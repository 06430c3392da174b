"""Pruning: the skip-connection rule in scheduled assignments and kept
channel sets, and the table-driven rebuild held to the former mirroring
rebuild bit for bit."""

import copy

import numpy as np
import pytest

from adq import scheduler
from adq.energy import pim_network_energy
from adq.nn.arch import LayerSpec, NetworkArch
from adq.nn import engine
from adq.nn.data import synthetic_dataset
from adq.nn.engine import init_state
from adq.presets import build_toy_cnn
from adq.scheduler import (ScheduleConfig, default_exempt,
                           main_chain_weighted_ids, propagate_skip_bitwidths,
                           rebuild_pruned, run_schedule, skip_topology)

import oracles
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
                assert res.assignment[cid] == \
                    res.assignment[t["destination"]]
                assert res.channels[cid] == res.channels[t["destination"]]
        eff = propagate_skip_bitwidths(res.arch, res.assignment)
        ran = eff["layer_bits"]
        assert res.quantizer.sites == {
            **{("input", lid): k for lid, k in ran.items()
               if lid not in default_exempt(res.arch)},
            **{("skip", aid): k for aid, k in eff["skip_edge_bits"].items()}}
        got = pim_network_energy(res.arch, res.assignment, res.channels)
        want = pim_network_energy(res.arch, ran, res.channels)
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
    return kept, channels


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
            kept, channels = _scheduled_inputs(arch, rng)
            new_arch, new_state = rebuild_pruned(arch, state, channels, kept)
            old_arch, old_state = mirroring_rebuild_pruned(
                arch, state, channels, dict(kept))
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

        def capture(channels, scores):
            calls.append((epoch_end[0], dict(scores)))
            return select(channels, scores)

        def on_iteration(run, record):
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

    def test_a_conv_observed_after_a_flatten_keeps_its_top_channels(
            self, monkeypatch):
        """conv -> relu -> conv -> flatten -> relu -> linear: the second
        conv is scored from the flattened, channel-major relu output, and
        keeps its most active channels, not its first ones."""
        seen, kept_sets = [], []
        record = scheduler.ADHistory.record

        def recording(history, lid, epoch, acts):
            seen.append((lid, epoch, np.array(acts)))
            return record(history, lid, epoch, acts)

        def recording_rebuild(arch, state, channels, kept):
            kept_sets.append((max(e for _, e, _ in seen), dict(channels),
                              kept))
            return rebuild_pruned(arch, state, channels, kept)

        monkeypatch.setattr(scheduler.ADHistory, "record", recording)
        monkeypatch.setattr(scheduler, "rebuild_pruned", recording_rebuild)
        specs = [dict(kind="conv2d", in_channels=1, out_channels=4,
                      kernel=3, padding=1),
                 dict(kind="relu"),
                 dict(kind="conv2d", in_channels=4, out_channels=4,
                      kernel=3, padding=1),
                 dict(kind="flatten"),
                 dict(kind="relu"),
                 dict(kind="linear", in_channels=4 * 36, out_channels=3)]
        arch = NetworkArch([LayerSpec(id=i, **kw)
                            for i, kw in enumerate(specs)], (1, 6, 6), 3)
        ds = synthetic_dataset(num_classes=3, image_shape=(1, 6, 6),
                               train_per_class=8, test_per_class=2,
                               noise=0.4, seed=1)
        cfg = ScheduleConfig(max_iters=2, epoch_budget=2,
                             saturation_window=2, saturation_epsilon=0.0,
                             pruning_enabled=True, batch_size=8)
        run_schedule(arch, ds, cfg, seed=0)
        assert kept_sets
        epoch, channels, kept = kept_sets[0]
        assert set(kept) == {0, 2}
        # conv 2's positive fraction per channel over the epoch, from the
        # flattened relu output: channel c holds features [36c, 36c + 36)
        acts = np.concatenate([a for lid, e, a in seen
                               if lid == 2 and e == epoch])
        assert acts.ndim == 2
        score = [float(np.mean(acts[:, 36 * c:36 * (c + 1)] > 0))
                 for c in range(4)]
        top = sorted(range(4), key=lambda c: (-score[c], c))[:channels[2]]
        assert channels[2] < 4
        assert kept[2] == sorted(top)
        assert kept[2] != list(range(channels[2]))  # not the first n


class TestPairedSkipChannels:
    """A scheduled rebuild keeps one channel set on both branches of each
    residual-add, so the pruned network computes the original one with the
    dropped channels zeroed."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rebuilt_network_is_the_restricted_original(self, monkeypatch,
                                                        seed):
        rng = np.random.default_rng(seed)
        chosen, rebuilds = [], []

        def random_selection(channels, scores):
            kept = {lid: sorted(int(i) for i in rng.choice(
                len(s), channels[lid], replace=False))
                for lid, s in scores.items()}
            chosen.append(kept)
            return kept

        def recording_rebuild(arch, state, channels, kept):
            new_arch, new_state = rebuild_pruned(arch, state, channels, kept)
            rebuilds.append((arch, copy.deepcopy(state.weights), new_arch,
                             copy.deepcopy(new_state.weights)))
            return new_arch, new_state

        monkeypatch.setattr(scheduler, "select_pruned_channels",
                            random_selection)
        monkeypatch.setattr(scheduler, "rebuild_pruned", recording_rebuild)
        ds = synthetic_dataset(num_classes=10, image_shape=(3, 8, 8),
                               train_per_class=4, test_per_class=2,
                               noise=0.35, seed=seed)
        cfg = ScheduleConfig(max_iters=2, epoch_budget=2,
                             saturation_window=2, saturation_epsilon=0.0,
                             pruning_enabled=True, batch_size=16)
        run_schedule(projection_resnet(widths=((4, 1), (8, 2)), size=8), ds,
                     cfg, seed=seed)
        assert len(rebuilds) == len(chosen) == 1
        arch, weights, new_arch, new_weights = rebuilds[0]
        # the intended sets: chosen for main-chain convs, the destination's
        # for skip-path convs
        keep = dict(chosen[0])
        for t in oracles.skip_topology(arch).values():
            for cid in t["skip_convs"]:
                keep[cid] = keep[t["destination"]]
        assert set(keep) == set(arch.conv_ids())
        for spec in arch.layers:
            src = arch.input_ids(spec.id)[0]
            names = {"conv2d": ("w", "b"),
                     "batchnorm": ("gamma", "beta")}.get(spec.kind, ())
            cid = spec.id if spec.kind == "conv2d" else src
            for name in names:
                dropped = np.setdiff1d(np.arange(len(weights[spec.id][name])),
                                       keep[cid])
                weights[spec.id][name][dropped] = 0.0
        original, rebuilt = init_state(arch, 0), init_state(new_arch, 0)
        original.weights, rebuilt.weights = weights, new_weights
        x = np.random.default_rng(seed).normal(size=(6, 3, 8, 8))
        want = engine.eval_logits(arch, original, x)
        got = engine.eval_logits(new_arch, rebuilt, x)
        assert np.abs(got - want).max() <= 1e-12
