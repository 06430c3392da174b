"""Skip connections and AD observation points, resolved once per network,
held to the former per-call graph walks (``oracles.skip_topology`` and
``oracles.observation_points``)."""

import dataclasses
import inspect

import numpy as np
import pytest

from adq import scheduler
from adq.admon import observation_points
from adq.errors import ConfigurationError
from adq.nn import arch as arch_mod
from adq.nn.arch import LayerSpec, NetworkArch, skip_topology
from adq.nn.engine import forward, init_state
from adq.presets import PRESETS, build_resnet18, build_toy_cnn, build_vgg19

import oracles
from test_pruning import projection_resnet


def _chain(*specs, input_shape, num_classes):
    return NetworkArch([LayerSpec(id=i, **kw) for i, kw in enumerate(specs)],
                       input_shape, num_classes)


def _linear_head():
    return _chain(
        dict(kind="conv2d", in_channels=1, out_channels=2, kernel=3),
        dict(kind="relu"),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=8, out_channels=5),
        dict(kind="relu"),
        dict(kind="linear", in_channels=5, out_channels=3),
        input_shape=(1, 4, 4), num_classes=3)


def _conv_then_conv():
    return _chain(
        dict(kind="conv2d", in_channels=1, out_channels=3, kernel=3,
             padding=1),
        dict(kind="conv2d", in_channels=3, out_channels=2, kernel=3),
        dict(kind="relu"),
        dict(kind="avgpool", kernel=0),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=2, out_channels=2),
        input_shape=(1, 4, 4), num_classes=2)


def _two_skip_convs():
    """A skip path of two convs, and a conv followed by two relus."""
    return _chain(
        dict(kind="conv2d", in_channels=1, out_channels=2, kernel=3,
             padding=1),
        dict(kind="relu"),
        dict(kind="relu"),
        dict(kind="conv2d", in_channels=2, out_channels=2, kernel=1,
             skip_source=1),
        dict(kind="relu"),
        dict(kind="conv2d", in_channels=2, out_channels=2, kernel=1),
        dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3,
             padding=1, skip_source=2),
        dict(kind="relu"),
        dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3,
             padding=1),
        dict(kind="residual-add", skip_source=5),
        dict(kind="relu"),
        dict(kind="avgpool", kernel=0),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=2, out_channels=2),
        input_shape=(1, 4, 4), num_classes=2)


ARCHS = {
    "toy_cnn": build_toy_cnn,
    "vgg19": build_vgg19,
    "resnet18": lambda: build_resnet18(num_classes=10),
    "resnet18_always_project": lambda: build_resnet18(num_classes=10,
                                                      always_project=True),
    "resnet_prune_record": projection_resnet,  # the benchmark's record
    "linear_relu_linear_head": _linear_head,
    "conv_then_conv": _conv_then_conv,
    "two_skip_convs_resnet": _two_skip_convs,
    **{f"preset_{name}": PRESETS[name].build_arch for name in sorted(PRESETS)},
}


@pytest.mark.parametrize("name", sorted(ARCHS))
def test_skip_topology_matches_former_walk(name):
    arch = ARCHS[name]()
    got = skip_topology(arch)
    assert got == oracles.skip_topology(arch)
    assert skip_topology(arch) is got  # resolved once per architecture
    assert bool(got) == ("resnet" in name)


@pytest.mark.parametrize("name", sorted(ARCHS))
def test_observation_points_match_former_walk(name):
    arch = ARCHS[name]()
    former = oracles.observation_points(arch)
    assert observation_points(arch) == {
        wid: obs for wid, (obs, _is_relu) in former.items()}
    # the dropped flag is implied: a layer observes itself or a relu
    for wid, (obs, is_relu) in former.items():
        assert is_relu == (obs != wid)
    # one-to-one: an epoch observer records under one weighted layer
    points = observation_points(arch)
    assert len(set(points.values())) == len(points)


def test_removed_vgg_conv_changes_the_sites():
    arch = PRESETS["vgg19-cifar10-iter2a"].build_arch()
    assert len(observation_points(arch)) == len(
        observation_points(build_vgg19())) - 1


def test_scheduler_reexports_the_arch_functions():
    for name in ("skip_topology", "inherit_from_destinations",
                 "main_chain_weighted_ids"):
        assert getattr(scheduler, name) is getattr(arch_mod, name)


def test_add_without_weighted_main_ancestor_builds_and_runs():
    # the add's main input is a relu of a relu of the network input, so no
    # weighted layer lies on its chain; its skip input is a conv
    arch = _chain(
        dict(kind="relu"),
        dict(kind="conv2d", in_channels=2, out_channels=2, kernel=1,
             skip_source=0),
        dict(kind="relu", skip_source=0),
        dict(kind="residual-add", skip_source=1),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=8, out_channels=2),
        input_shape=(2, 2, 2), num_classes=2)
    logits, _ = forward(arch, init_state(arch, 0),
                        np.ones((3, 2, 2, 2)))
    assert logits.shape == (3, 2)
    with pytest.raises(ConfigurationError) as former:
        oracles.skip_topology(arch)
    for _ in range(2):  # the error is not cached away
        with pytest.raises(ConfigurationError) as got:
            skip_topology(arch)
        assert str(got.value) == str(former.value)


def test_arch_is_frozen():
    arch = build_toy_cnn()
    assert isinstance(arch.layers, tuple)
    assert list(inspect.signature(NetworkArch).parameters) == [
        "layers", "input_shape", "num_classes"]
    for name, value in (("layers", ()), ("input_shape", (1, 4, 4)),
                        ("num_classes", 3), ("_memo", {})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(arch, name, value)
    with pytest.raises(TypeError):
        NetworkArch(arch.layers, arch.input_shape, arch.num_classes,
                    _index={})
