"""Published layer-wise bit-width/channel configurations and the VGG19 /
ResNet18 architecture builders they attach to.

Bit lists are transcribed verbatim (`bits_raw`). For ResNet18 the verbatim
lists carry, per basic block, a third entry for the skip-branch quantization
point; it always equals the destination (second) convolution and is folded
into the per-layer mapping. For the pruned VGG19 row the verbatim list has
21 entries; the documented alignment takes the first 16 as the convolution
bit-widths and the final entry as the classifier. Convolutions inside skip
connections inherit the destination layer's bit-width and channel count and
are therefore not listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from adq.errors import InputError
from adq.nn.arch import (LayerSpec, NetworkArch, inherit_from_destinations,
                         main_chain_weighted_ids)

VGG19_PLAN = (64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
              512, 512, 512, 512, "M", 512, 512, 512, 512, "M")
RESNET18_CHANNELS = (64,) + (64, 64, 64, 64, 128, 128, 128, 128,
                             256, 256, 256, 256, 512, 512, 512, 512)
RESNET18_STRIDES = (1, 1, 2, 1, 2, 1, 2, 1)


def _adder(layers):
    """add(**spec) appends a LayerSpec with the next id and returns the id."""
    def add(**kw):
        layers.append(LayerSpec(id=len(layers), **kw))
        return len(layers) - 1
    return add


def build_vgg19(num_classes=10, input_size=32, in_channels=3) -> NetworkArch:
    layers = []
    add = _adder(layers)
    cin = in_channels
    for item in VGG19_PLAN:
        if item == "M":
            add(kind="maxpool", kernel=2, stride=2)
            continue
        add(kind="conv2d", in_channels=cin, out_channels=item, kernel=3,
            stride=1, padding=1)
        add(kind="batchnorm")
        add(kind="relu")
        cin = item
    add(kind="flatten")
    add(kind="linear", in_channels=cin, out_channels=num_classes)
    return NetworkArch(layers, (in_channels, input_size, input_size),
                       num_classes)


def build_resnet18(num_classes=100, input_size=32, in_channels=3,
                   always_project=False) -> NetworkArch:
    layers = []
    add = _adder(layers)
    add(kind="conv2d", in_channels=in_channels, out_channels=64, kernel=3,
        stride=1, padding=1)
    add(kind="batchnorm")
    prev = add(kind="relu")
    cin = 64
    for b in range(8):
        stride = RESNET18_STRIDES[b]
        cout = RESNET18_CHANNELS[2 + 2 * b]
        block_in = prev
        project = always_project or stride != 1 or cin != cout
        skip_from = block_in
        conv1_kw = {}
        if project:
            add(kind="conv2d", in_channels=cin, out_channels=cout,
                kernel=1, stride=stride, padding=0)
            skip_from = add(kind="batchnorm")
            conv1_kw["skip_source"] = block_in  # branch off the block input
        add(kind="conv2d", in_channels=cin, out_channels=cout, kernel=3,
            stride=stride, padding=1, **conv1_kw)
        add(kind="batchnorm")
        add(kind="relu")
        add(kind="conv2d", in_channels=cout, out_channels=cout, kernel=3,
            stride=1, padding=1)
        add(kind="batchnorm")
        add(kind="residual-add", skip_source=skip_from)
        prev = add(kind="relu")
        cin = cout
    add(kind="avgpool", kernel=0)  # global
    add(kind="flatten")
    add(kind="linear", in_channels=cin, out_channels=num_classes)
    return NetworkArch(layers, (in_channels, input_size, input_size),
                       num_classes)


def build_toy_cnn(num_classes: int = 10,
                  image_shape: tuple[int, ...] = (1, 8, 8),
                  widths: tuple[int, ...] = (8, 8, 16, 16)) -> NetworkArch:
    """Small 4-conv network for desk-scale schedule runs."""
    c, h, w = image_shape
    layers = []
    add = _adder(layers)
    cin = c
    for i, width in enumerate(widths):
        add(kind="conv2d", in_channels=cin, out_channels=width, kernel=3,
            stride=1, padding=1)
        add(kind="relu")
        if i == 1:
            add(kind="maxpool", kernel=2, stride=2)
        cin = width
    add(kind="avgpool", kernel=0)
    add(kind="flatten")
    add(kind="linear", in_channels=cin, out_channels=num_classes)
    return NetworkArch(layers, tuple(image_shape), num_classes)


# ---------------------------------------------------------- bit list parsing

def vgg_bits_from_raw(raw) -> list:
    """17-entry lists map directly; the 21-entry pruned-row list maps via the
    documented alignment (first 16 entries = convs, last entry = classifier)."""
    if len(raw) == 17:
        return [b for b in raw]
    if len(raw) == 21:
        return list(raw[:16]) + [raw[20]]
    raise InputError(f"unexpected VGG19 bit list length {len(raw)}")


def resnet_bits_from_raw(raw) -> list:
    """18-entry lists map directly; 26-entry lists carry a per-block third
    entry for the skip branch (always equal to the destination conv)."""
    if len(raw) == 18:
        return list(raw)
    if len(raw) == 26:
        out = [raw[0]]
        for b in range(8):
            out.extend([raw[1 + 3 * b], raw[2 + 3 * b]])
        out.append(raw[25])
        return out
    raise InputError(f"unexpected ResNet18 bit list length {len(raw)}")


def assignment_map(arch: NetworkArch, main_bits) -> dict:
    """Map a main-chain bit list onto weighted layer ids, giving skip-path
    convolutions their destination layer's bit-width."""
    main_ids = main_chain_weighted_ids(arch)
    if len(main_ids) != len(main_bits):
        raise InputError(
            f"bit list has {len(main_bits)} entries for {len(main_ids)} layers")
    bits = dict(zip(main_ids, main_bits))
    return inherit_from_destinations(arch, bits)


def channel_map(arch: NetworkArch, conv_channels) -> dict:
    """Map a main-chain conv channel list onto conv layer ids; skip-path
    convolutions inherit the destination layer's channel count."""
    main_convs = [i for i in main_chain_weighted_ids(arch)
                  if arch.layer(i).kind == "conv2d"]
    if len(main_convs) != len(conv_channels):
        raise InputError(
            f"channel list has {len(conv_channels)} entries for "
            f"{len(main_convs)} conv layers")
    channels = dict(zip(main_convs, conv_channels))
    return inherit_from_destinations(arch, channels)


# ------------------------------------------------------------------ catalog

@dataclass(frozen=True)
class Preset:
    name: str
    family: str              # 'vgg19-cifar10', 'resnet18-cifar100', ...
    arch_kind: str           # 'vgg19' | 'resnet18'
    num_classes: int
    input_size: int
    baseline_bits: int
    bits_raw: tuple
    channels: tuple | None = None
    removed_convs: int = 0   # trailing main-chain convs dropped (iter 2a)
    published: dict = field(default_factory=dict)

    def build_arch(self) -> NetworkArch:
        if self.arch_kind == "vgg19":
            arch = build_vgg19(self.num_classes, self.input_size)
            if self.removed_convs:
                doomed = []
                for cid in arch.conv_ids()[-self.removed_convs:]:
                    pos = arch.position(cid)
                    doomed.append(cid)
                    for nxt in arch.layers[pos + 1:pos + 3]:
                        if nxt.kind in ("batchnorm", "relu"):
                            doomed.append(nxt.id)
                arch = arch.drop_layers(doomed)
            return arch
        # projection shortcuts on every block: the published baseline MAC
        # energies are only reached with per-block 1x1 projections
        return build_resnet18(self.num_classes, self.input_size,
                              always_project=True)

    def main_bits(self) -> list:
        if self.removed_convs:
            return list(self.bits_raw)  # removed entries already omitted
        if self.arch_kind == "vgg19":
            return vgg_bits_from_raw(self.bits_raw)
        return resnet_bits_from_raw(self.bits_raw)

    def bit_assignment(self, arch=None) -> dict:
        arch = arch or self.build_arch()
        return assignment_map(arch, self.main_bits())

    def channel_assignment(self, arch=None) -> dict | None:
        if self.channels is None:
            return None
        arch = arch or self.build_arch()
        return channel_map(arch, list(self.channels))


def _uniform(n, k):
    return tuple([k] * n)


_PRESETS = [
    # ----- Table I(a): VGG19 on CIFAR-10, analytical efficiency ------------
    Preset("vgg19-cifar10-baseline", "vgg19-cifar10", "vgg19", 10, 32, 16,
           _uniform(17, 16),
           published={"accuracy": 91.85, "total_ad": 0.284,
                      "energy_efficiency": 1.0, "epochs": 100,
                      "train_complexity": 1.0}),
    Preset("vgg19-cifar10-iter2", "vgg19-cifar10", "vgg19", 10, 32, 16,
           (16, 4, 5, 4, 3, 2, 2, 2, 3, 3, 3, 4, 3, 3, 3, 3, 16),
           published={"accuracy": 91.62, "total_ad": 0.992,
                      "energy_efficiency": 4.16, "epochs": 70,
                      "train_complexity": 0.524}),
    Preset("vgg19-cifar10-iter2a", "vgg19-cifar10", "vgg19", 10, 32, 16,
           (16, 4, 5, 4, 3, 2, 2, 2, 3, 3, 3, 4, 3, 3, 3, 16),
           removed_convs=1,
           published={"accuracy": 92.16, "total_ad": 1.000,
                      "energy_efficiency": 4.19, "epochs": 70,
                      "train_complexity": 0.502}),
    # ----- Table I(b): ResNet18 on CIFAR-100 -------------------------------
    Preset("resnet18-cifar100-baseline", "resnet18-cifar100", "resnet18",
           100, 32, 16, _uniform(18, 16),
           published={"accuracy": 70.90, "total_ad": 0.416,
                      "energy_efficiency": 1.0, "epochs": 120,
                      "train_complexity": 1.0}),
    Preset("resnet18-cifar100-iter2", "resnet18-cifar100", "resnet18",
           100, 32, 16,
           (16, 5, 3, 3, 11, 1, 1, 11, 4, 4, 10, 4, 4, 11, 3, 3, 9, 3, 3, 9,
            3, 3, 6, 1, 1, 16),
           published={"accuracy": 71.51, "total_ad": 0.743,
                      "energy_efficiency": 2.76, "epochs": 70,
                      "train_complexity": 0.620}),
    Preset("resnet18-cifar100-iter3", "resnet18-cifar100", "resnet18",
           100, 32, 16,
           (16, 5, 3, 3, 5, 1, 1, 8, 4, 4, 6, 4, 4, 8, 3, 3, 9, 3, 3, 9,
            3, 3, 6, 1, 1, 16),
           published={"accuracy": 70.51, "total_ad": 0.869,
                      "energy_efficiency": 3.19, "epochs": 70,
                      "train_complexity": 0.703}),
    # ----- Table I(c): ResNet18 on TinyImagenet (32-bit baseline) ----------
    Preset("resnet18-tinyimagenet-baseline", "resnet18-tinyimagenet",
           "resnet18", 200, 64, 32, _uniform(18, 32),
           published={"accuracy": 44.26, "total_ad": 0.447,
                      "energy_efficiency": 1.0, "epochs": 60,
                      "train_complexity": 1.0}),
    Preset("resnet18-tinyimagenet-iter2", "resnet18-tinyimagenet",
           "resnet18", 200, 64, 32,
           (16, 10, 7, 7, 22, 10, 10, 24, 10, 10, 22, 6, 6, 22, 9, 9, 18,
            5, 5, 16, 4, 4, 11, 3, 3, 16),
           published={"accuracy": 43.94, "total_ad": 0.651,
                      "energy_efficiency": 2.73, "epochs": 25,
                      "train_complexity": 0.694}),
    Preset("resnet18-tinyimagenet-iter3", "resnet18-tinyimagenet",
           "resnet18", 200, 64, 32,
           (16, 3, 7, 7, 16, 2, 2, 17, 3, 3, 15, 6, 6, 15, 9, 9, 9, 5, 5, 7,
            4, 4, 4, 3, 3, 16),
           published={"accuracy": 44.00, "total_ad": 0.914,
                      "energy_efficiency": 4.14, "epochs": 25,
                      "train_complexity": 0.705}),
    Preset("resnet18-tinyimagenet-iter4", "resnet18-tinyimagenet",
           "resnet18", 200, 64, 32,
           (16, 3, 7, 7, 14, 2, 2, 14, 3, 3, 10, 6, 6, 10, 9, 9, 9, 5, 5, 7,
            4, 4, 4, 3, 3, 16),
           published={"accuracy": 43.50, "total_ad": 0.917,
                      "energy_efficiency": 4.50, "epochs": 25,
                      "train_complexity": 0.770}),
    # ----- Table II(a): VGG19 on CIFAR-10, quantization + pruning ----------
    Preset("vgg19-cifar10-prune-iter2", "vgg19-cifar10", "vgg19", 10, 32, 16,
           (16, 4, 5, 9, 4, 3, 5, 2, 2, 2, 3, 5, 3, 3, 4, 3, 4, 3, 3, 3, 16),
           channels=(19, 22, 38, 24, 45, 37, 44, 54, 103, 126, 150, 125,
                     122, 112, 111, 8),
           published={"accuracy": 86.88, "total_ad": 0.999,
                      "energy_efficiency": 980.0, "epochs": 70,
                      "train_complexity": 0.344}),
    # ----- Table II(b): ResNet18 on CIFAR-100, quantization + pruning ------
    Preset("resnet18-cifar100-prune-iter2", "resnet18-cifar100", "resnet18",
           100, 32, 16,
           (16, 5, 3, 11, 1, 11, 4, 10, 4, 11, 3, 9, 3, 9, 3, 6, 1, 16),
           channels=(21, 12, 44, 6, 47, 34, 87, 34, 89, 58, 156, 50, 146,
                     110, 192, 59, 59),
           published={"accuracy": 66.40, "total_ad": 0.732,
                      "energy_efficiency": 150.0, "epochs": 70,
                      "train_complexity": 0.372}),
    Preset("resnet18-cifar100-prune-iter3", "resnet18-cifar100", "resnet18",
           100, 32, 16,
           (16, 5, 3, 5, 1, 8, 4, 6, 4, 8, 3, 9, 3, 9, 3, 6, 1, 16),
           channels=(21, 12, 19, 1, 31, 34, 61, 34, 58, 58, 156, 50, 146,
                     110, 192, 9, 22),
           published={"accuracy": 63.01, "total_ad": 0.992,
                      "energy_efficiency": 300.0, "epochs": 70,
                      "train_complexity": 0.374}),
    # ----- Table II(c): ResNet18 on TinyImagenet, quantization + pruning ---
    Preset("resnet18-tinyimagenet-prune-iter2", "resnet18-tinyimagenet",
           "resnet18", 200, 64, 32,
           (16, 10, 7, 22, 10, 24, 10, 22, 6, 22, 9, 18, 5, 16, 4, 11, 3, 16),
           channels=(20, 14, 45, 21, 48, 42, 88, 27, 91, 73, 151, 41, 129,
                     70, 178, 56, 20),
           published={"accuracy": 38.40, "total_ad": 0.666,
                      "energy_efficiency": 93.4, "epochs": 25,
                      "train_complexity": 0.450}),
]

PRESETS = {p.name: p for p in _PRESETS}

# Normalization used for the training-complexity metric: total epochs of an
# uncompressed baseline run. The VGG19/CIFAR-10 value is the full 210-epoch
# baseline training run behind the published accuracy curves; others are fitted to
# the published complexity columns and are config-overridable.
BASELINE_EPOCH_TOTALS = {
    "vgg19-cifar10": 210,
    "resnet18-cifar100": 240,
    "resnet18-tinyimagenet": 105,
}


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        raise InputError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]


def preset_names() -> list:
    return sorted(PRESETS)
