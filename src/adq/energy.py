"""Energy models over a (bit-width, channel)-annotated architecture.

Two models are provided:

* analytical: per-layer energy N_Mem * E_Mem|k + N_MAC * E_MAC|k with
  N_Mem = N^2*I + p^2*I*O, N_MAC = M^2*I*p^2*O, E_Mem|k = 2.5k pJ and
  E_MAC|k = (3.1k/32 + 0.1) pJ. Linear layers are treated as a 1x1
  convolution on a 1x1 map. Both coefficients are linear in k, so bit-widths
  above 16 (full-precision baselines) extrapolate naturally.
* pim: MAC energy only, using measured per-MAC energies at the supported
  precisions {2, 4, 8, 16}; requested bit-widths round up to the next
  supported precision. Memory access energy is out of model.

Pooling, activation, normalization, and residual-add layers cost nothing in
either model. 1-bit layers are costed by the same formulas but flagged in
the report, since a true binary execution path would use different hardware.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field

from adq.artifacts import csv_text
from adq.errors import ConfigurationError, InputError
from adq.nn.arch import NetworkArch

# analytical coefficients, 45nm estimates in pJ:
# E_Mem|k = MEM_PJ_PER_BIT * k, E_MAC|k = MULT32_PJ * k / 32 + ADD32_PJ
MEM_PJ_PER_BIT = 2.5
MULT32_PJ = 3.1
ADD32_PJ = 0.1

# measured per-MAC energy of the shift-accumulate array in fJ, by supported
# precision, ascending
PIM_MAC_FJ = {2: 2.942, 4: 16.968, 8: 66.714, 16: 276.676}


@dataclass(frozen=True)
class LayerShape:
    layer_id: int
    kind: str       # 'conv' or 'linear'
    n: int          # input feature-map side
    m: int          # output feature-map side
    p: int          # kernel side
    i: int          # input channels
    o: int          # output channels


def mem_accesses(shape: LayerShape) -> int:
    """N_Mem = N^2 * I + p^2 * I * O (input reads + weight reads)."""
    return shape.n * shape.n * shape.i + shape.p * shape.p * shape.i * shape.o


def mac_count(shape: LayerShape) -> int:
    """N_MAC = M^2 * I * p^2 * O."""
    return shape.m * shape.m * shape.i * shape.p * shape.p * shape.o


def analytical_layer_energy(shape: LayerShape, k: int) -> float:
    """Layer energy in pJ at bit-width k (1..32)."""
    return _analytical_pj(mem_accesses(shape), mac_count(shape), k)


def _analytical_pj(n_mem: int, n_mac: int, k: int) -> float:
    """N_Mem * E_Mem|k + N_MAC * E_MAC|k in pJ at bit-width k (1..32)."""
    if not (1 <= k <= 32):
        raise InputError(f"bit-width {k} outside [1, 32]")
    return (n_mem * (MEM_PJ_PER_BIT * k)
            + n_mac * (MULT32_PJ * k / 32.0 + ADD32_PJ))


def _add(values):
    """The floats added left to right, so that reports and tables have the
    same bytes on every Python: since 3.12, sum() adds floats with
    compensated summation."""
    return functools.reduce(operator.add, values, 0)


def pim_round_bits(k: int) -> int:
    """Smallest supported PIM precision >= k."""
    if not (1 <= k <= 16):
        raise InputError(f"bit-width {k} outside [1, 16] for the PIM array")
    return next(s for s in PIM_MAC_FJ if k <= s)


# ------------------------------------------------------------------- shapes

def layer_shapes(arch: NetworkArch, channels=None) -> list[LayerShape]:
    """Resolve LayerShape records for every weighted layer of `arch`.

    `channels` optionally overrides conv output channel counts
    ({layer_id: count}); input channel counts and downstream feature sizes
    follow (see NetworkArch.infer_shapes), so pruned models are costed at
    their pruned shapes. The unpruned list is kept in the architecture's
    memo; each call returns a fresh list, and each pruned call walks the
    network again.
    """
    if channels is None:
        return list(arch.kept("layer_shapes", lambda: tuple(
            _shape_records(arch, arch.infer_shapes()))))
    return _shape_records(arch, arch.infer_shapes(channels))


def _shape_records(arch, shapes) -> list[LayerShape]:
    out = []
    for spec in arch.layers:
        if spec.kind == "conv2d":
            i, n, _ = shapes[arch.input_ids(spec.id)[0]]
            o, m, _ = shapes[spec.id]
            out.append(LayerShape(spec.id, "conv", n=n, m=m, p=spec.kernel,
                                  i=i, o=o))
        elif spec.kind == "linear":
            (i,) = shapes[arch.input_ids(spec.id)[0]]
            (o,) = shapes[spec.id]
            out.append(LayerShape(spec.id, "linear", n=1, m=1, p=1, i=i, o=o))
    return out


# ------------------------------------------------------------------ reports

@dataclass
class LayerEnergy:
    layer_id: int
    kind: str
    k: int
    pim_k: int | None
    in_channels: int
    out_channels: int
    n_mem: int
    n_mac: int
    energy_pj: float
    binary_flag: bool = False  # 1-bit layer costed by the generic formulas


@dataclass
class EnergyReport:
    model: str                     # 'analytical' | 'pim'
    rows: list = field(default_factory=list)
    baseline_total_pj: float = 0.0
    baseline_bits: int = 16

    @property
    def total_pj(self) -> float:
        return _add(r.energy_pj for r in self.rows)

    @property
    def total_uj(self) -> float:
        return self.total_pj / 1e6

    @property
    def efficiency(self) -> float:
        return efficiency_ratio_values(self.baseline_total_pj, self.total_pj)

    def to_dict(self) -> dict:
        total = self.total_pj
        return {
            "model": self.model,
            "baseline_bits": self.baseline_bits,
            "layers": [vars(r) for r in self.rows],
            "total_pj": total,
            "total_uj": total / 1e6,
            "baseline_total_pj": self.baseline_total_pj,
            "baseline_total_uj": self.baseline_total_pj / 1e6,
            "efficiency_ratio": efficiency_ratio_values(
                self.baseline_total_pj, total),
        }

    def to_json(self) -> str:
        """The report as JSON, byte for byte ``json.dumps(self.to_dict(),
        indent=2)``. That encoder is pure Python; here the C encoder writes
        all rows in one call and the scalar items in another, and the two
        are spliced into the indent=2 layout. An encoded string holds no raw
        newline, so the encoders write ",<newline>" only as a separator. A
        report without rows has no efficiency ratio, so to_dict raises."""
        doc = self.to_dict()
        rows = _ROWS.encode(doc.pop("layers"))[2:-2].replace(
            "},\n      {", "\n    },\n    {\n      ")
        model, bits, totals = _ITEMS.encode(doc)[1:-1].split(",\n  ", 2)
        return (f'{{\n  {model},\n  {bits},\n  "layers": [\n    {{\n      '
                f"{rows}\n    }}\n  ],\n  {totals}\n}}")

    def to_csv(self) -> str:
        return csv_text([
            ["layer_id", "kind", "k", "pim_k", "channels", "N_Mem", "N_MAC",
             "E_pJ"],
            *([r.layer_id, r.kind, r.k, "" if r.pim_k is None else r.pim_k,
               r.out_channels, r.n_mem, r.n_mac, f"{r.energy_pj:.6g}"]
              for r in self.rows),
            ["total", "", "", "", "", "", "", f"{self.total_pj:.6g}"],
            ["baseline_total", "", self.baseline_bits, "", "", "", "",
             f"{self.baseline_total_pj:.6g}"],
            ["efficiency_ratio", "", "", "", "", "", "",
             f"{self.efficiency:.6g}"]])


# C encoders whose item separators start a new line at a report's top level
# and inside its rows
_ITEMS = json.JSONEncoder(separators=(",\n  ", ": "))
_ROWS = json.JSONEncoder(separators=(",\n      ", ": "))


def _network_energy(model, arch, bits, channels, baseline_bits,
                    cost) -> EnergyReport:
    """Report with one row per weighted layer; cost(n_mem, n_mac, k) returns
    (the PIM precision or None, energy in pJ), and each row's counts are
    computed once. The baseline is uniform `baseline_bits`, unpruned, over
    the same layer set. Its total depends on the architecture alone, so it
    is kept in the architecture's memo by (model, baseline_bits)."""
    shapes = layer_shapes(arch, channels)
    missing = [s.layer_id for s in shapes if s.layer_id not in bits]
    if missing:
        raise ConfigurationError(f"no bit-width for layers {missing}")
    rows = []
    for s in shapes:
        k = int(bits[s.layer_id])
        n_mem, n_mac = mem_accesses(s), mac_count(s)
        pim_k, energy_pj = cost(n_mem, n_mac, k)
        rows.append(LayerEnergy(s.layer_id, s.kind, k, pim_k, s.i, s.o,
                                n_mem, n_mac, energy_pj, k == 1))
    # an unpruned report is costed at the baseline's own shapes
    baseline_pj = arch.kept(
        ("baseline_pj", model, baseline_bits), lambda: _add(
            cost(mem_accesses(s), mac_count(s), baseline_bits)[1]
            for s in (shapes if channels is None else layer_shapes(arch))))
    return EnergyReport(model, rows, baseline_pj, baseline_bits)


def _pim_cost(n_mem, n_mac, k):
    pk = pim_round_bits(k)
    return pk, n_mac * PIM_MAC_FJ[pk] / 1e3  # fJ -> pJ


def _analytical_cost(n_mem, n_mac, k):
    return None, _analytical_pj(n_mem, n_mac, k)


def pim_network_energy(arch: NetworkArch, bits: dict,
                       channels: dict | None = None) -> EnergyReport:
    """MAC-only PIM energy report of bits ({weighted layer id: k}) at the
    conv channel counts `channels` (see layer_shapes); baseline is uniform
    16-bit, unpruned."""
    return _network_energy("pim", arch, bits, channels, 16, _pim_cost)


def analytical_network_energy(arch: NetworkArch, bits: dict,
                              channels: dict | None = None,
                              baseline_bits: int = 16) -> EnergyReport:
    """MAC + memory-access energy report of bits ({weighted layer id: k}) at
    the conv channel counts `channels` (see layer_shapes); baseline is
    uniform `baseline_bits`, unpruned, over the same layer set."""
    return _network_energy("analytical", arch, bits, channels, baseline_bits,
                           _analytical_cost)


def efficiency_ratio_values(baseline_total: float, total: float) -> float:
    if total == 0:
        raise InputError("efficiency ratio undefined: zero model energy")
    return baseline_total / total


def training_complexity(iterations, baseline_epoch_total: float) -> float:
    """MAC-reduction-weighted epoch count relative to a full baseline run.

    `iterations` is a list of (mac_reduction, epochs) pairs, one per
    quantization iteration; the initial iteration carries reduction 1.
    """
    items = list(iterations)
    if not items:
        raise InputError("training_complexity needs at least one iteration")
    if baseline_epoch_total <= 0:
        raise InputError("baseline_epoch_total must be positive")
    for red, _ in items:
        if red < 1:
            raise InputError(f"mac reduction {red} < 1")
    return _add(ep / red for red, ep in items) / baseline_epoch_total
