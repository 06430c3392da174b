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

import csv
import io
import json
from dataclasses import dataclass, field

from adq.errors import ConfigurationError, InputError
from adq.nn.arch import NetworkArch

PIM_SUPPORTED = (2, 4, 8, 16)


@dataclass(frozen=True)
class AnalyticalEnergyTable:
    """45nm estimate coefficients, in pJ."""
    mem_per_bit: float = 2.5
    mult32: float = 3.1
    add32: float = 0.1

    def e_mem(self, k: int) -> float:
        return self.mem_per_bit * k

    def e_mac(self, k: int) -> float:
        return self.mult32 * k / 32.0 + self.add32


@dataclass(frozen=True)
class PimEnergyTable:
    """Measured per-MAC energy of the shift-accumulate array, in fJ."""
    per_mac_fj: tuple = ((2, 2.942), (4, 16.968), (8, 66.714), (16, 276.676))

    def e_mac(self, supported_k: int) -> float:
        for k, e in self.per_mac_fj:
            if k == supported_k:
                return e
        raise InputError(f"no PIM energy entry for {supported_k}-bit")


ANALYTICAL_TABLE = AnalyticalEnergyTable()
PIM_TABLE = PimEnergyTable()


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
    if not (1 <= k <= 32):
        raise InputError(f"bit-width {k} outside [1, 32]")
    return (mem_accesses(shape) * ANALYTICAL_TABLE.e_mem(k)
            + mac_count(shape) * ANALYTICAL_TABLE.e_mac(k))


def pim_round_bits(k: int) -> int:
    """Smallest supported PIM precision >= k."""
    if not (1 <= k <= 16):
        raise InputError(f"bit-width {k} outside [1, 16] for the PIM array")
    for s in PIM_SUPPORTED:
        if k <= s:
            return s
    raise InputError(f"bit-width {k} outside [1, 16] for the PIM array")


# ------------------------------------------------------------------- shapes

def layer_shapes(arch: NetworkArch, channels=None) -> list[LayerShape]:
    """Resolve LayerShape records for every weighted layer of `arch`.

    `channels` optionally overrides conv output channel counts
    ({layer_id: count}); input channel counts and downstream feature sizes
    follow (see NetworkArch.infer_shapes), so pruned models are costed at
    their pruned shapes.
    """
    shapes = arch.infer_shapes(channels)
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
        return sum(r.energy_pj for r in self.rows)

    @property
    def total_uj(self) -> float:
        return self.total_pj / 1e6

    @property
    def efficiency(self) -> float:
        return efficiency_ratio_values(self.baseline_total_pj, self.total_pj)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "baseline_bits": self.baseline_bits,
            "layers": [vars(r) for r in self.rows],
            "total_pj": self.total_pj,
            "total_uj": self.total_uj,
            "baseline_total_pj": self.baseline_total_pj,
            "baseline_total_uj": self.baseline_total_pj / 1e6,
            "efficiency_ratio": self.efficiency,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    def to_csv(self, path=None) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["layer_id", "kind", "k", "pim_k", "channels",
                    "N_Mem", "N_MAC", "E_pJ"])
        for r in self.rows:
            w.writerow([r.layer_id, r.kind, r.k,
                        "" if r.pim_k is None else r.pim_k,
                        r.out_channels, r.n_mem, r.n_mac, f"{r.energy_pj:.6g}"])
        w.writerow(["total", "", "", "", "", "", "", f"{self.total_pj:.6g}"])
        w.writerow(["baseline_total", "", self.baseline_bits, "", "", "", "",
                    f"{self.baseline_total_pj:.6g}"])
        w.writerow(["efficiency_ratio", "", "", "", "", "", "",
                    f"{self.efficiency:.6g}"])
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", newline="") as f:
                f.write(text)
        return text


def _resolve_bits(shapes, assignment):
    if hasattr(assignment, "k"):
        bits = assignment.k
    else:
        bits = assignment
    missing = [s.layer_id for s in shapes if s.layer_id not in bits]
    if missing:
        raise ConfigurationError(f"no bit-width for layers {missing}")
    return {s.layer_id: int(bits[s.layer_id]) for s in shapes}


def _network_energy(model, arch, assignment, prune_state, baseline_bits,
                    cost) -> EnergyReport:
    """Report with one row per weighted layer; cost(shape, k) returns
    (the PIM precision or None, energy in pJ). The baseline is uniform
    `baseline_bits`, unpruned, over the same layer set."""
    channels = getattr(prune_state, "channels", prune_state)
    shapes = layer_shapes(arch, channels)
    bits = _resolve_bits(shapes, assignment)
    report = EnergyReport(model=model, baseline_bits=baseline_bits)
    for s in shapes:
        k = bits[s.layer_id]
        pim_k, energy_pj = cost(s, k)
        report.rows.append(LayerEnergy(
            layer_id=s.layer_id, kind=s.kind, k=k, pim_k=pim_k,
            in_channels=s.i, out_channels=s.o,
            n_mem=mem_accesses(s), n_mac=mac_count(s),
            energy_pj=energy_pj, binary_flag=(k == 1)))
    report.baseline_total_pj = sum(
        cost(s, baseline_bits)[1] for s in layer_shapes(arch))
    return report


def pim_network_energy(arch: NetworkArch, assignment,
                       prune_state=None) -> EnergyReport:
    """MAC-only PIM energy report; baseline is uniform 16-bit, unpruned."""
    def cost(s, k):
        pk = pim_round_bits(k)
        return pk, mac_count(s) * PIM_TABLE.e_mac(pk) / 1e3  # fJ -> pJ
    return _network_energy("pim", arch, assignment, prune_state, 16, cost)


def analytical_network_energy(arch: NetworkArch, assignment, prune_state=None,
                              baseline_bits: int = 16) -> EnergyReport:
    """MAC + memory-access energy report; baseline is uniform `baseline_bits`,
    unpruned, over the same layer set."""
    def cost(s, k):
        return None, analytical_layer_energy(s, k)
    return _network_energy("analytical", arch, assignment, prune_state,
                           baseline_bits, cost)


def efficiency_ratio(report: EnergyReport, baseline_report: EnergyReport) -> float:
    """baseline total / model total."""
    return efficiency_ratio_values(baseline_report.total_pj, report.total_pj)


def efficiency_ratio_values(baseline_total: float, total: float) -> float:
    if total == 0:
        raise RuntimeError("efficiency ratio undefined: zero model energy")
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
    return sum(ep / red for red, ep in items) / baseline_epoch_total
