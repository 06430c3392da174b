"""Energy model unit tests: counting formulas, both cost models,
training complexity, and model invariants."""

import json
from dataclasses import replace
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adq import energy
from adq.artifacts import write_file
from adq.energy import (ADD32_PJ, MEM_PJ_PER_BIT, MULT32_PJ, EnergyReport,
                        LayerEnergy, LayerShape, analytical_layer_energy,
                        analytical_network_energy, layer_shapes, mac_count,
                        mem_accesses, pim_network_energy, pim_round_bits,
                        training_complexity)
from adq.errors import InputError
from adq.nn.arch import NetworkArch, main_chain_weighted_ids
from adq.presets import build_resnet18, build_toy_cnn, build_vgg19
from adq.presets import PRESETS, assignment_map, channel_map

import oracles


def shp(kind="conv", n=1, m=1, p=1, i=1, o=1):
    return LayerShape(0, kind, n=n, m=m, p=p, i=i, o=o)


class TestCounts:
    def test_unit_shape_two_accesses(self):
        assert mem_accesses(shp()) == 2

    def test_first_vgg_layer_hand_arithmetic(self):
        s = shp(n=32, m=32, p=3, i=3, o=64)
        assert mem_accesses(s) == 32 * 32 * 3 + 9 * 3 * 64 == 4800
        assert mac_count(s) == 1024 * 3 * 9 * 64 == 1769472

    def test_doubling_out_channels_doubles_weight_term_only(self):
        a = shp(n=8, m=8, p=3, i=4, o=10)
        b = shp(n=8, m=8, p=3, i=4, o=20)
        act = 8 * 8 * 4
        assert mem_accesses(b) - act == 2 * (mem_accesses(a) - act)

    def test_unit_mac(self):
        assert mac_count(shp()) == 1

    def test_vgg19_cifar10_conv_macs_sum(self):
        arch = build_vgg19(num_classes=10, input_size=32)
        shapes = layer_shapes(arch)
        conv_total = sum(mac_count(s) for s in shapes if s.kind == "conv")
        assert conv_total == 398131200
        assert abs(conv_total - 3.98e8) / 3.98e8 < 1e-3


class TestAnalytical:
    def test_unit_shape_32bit(self):
        # 2 accesses * 80 pJ + 1 MAC * 3.2 pJ
        assert analytical_layer_energy(shp(), 32) == pytest.approx(163.2)

    def test_16bit_access_is_40pj(self):
        assert MEM_PJ_PER_BIT * 16 == 40.0
        # a unit shape with no MACs: its energy is its 2 accesses' alone
        assert analytical_layer_energy(shp(m=0), 16) == 80.0

    def test_32bit_consistency_with_component_table(self):
        assert MULT32_PJ * 32 / 32.0 + ADD32_PJ == pytest.approx(3.2)
        assert MEM_PJ_PER_BIT * 32 == pytest.approx(80.0)
        assert analytical_layer_energy(shp(n=0, p=0), 32) == 0.0
        assert analytical_layer_energy(shp(n=0), 32) == pytest.approx(
            80.0 + 3.2)

    def test_random_shapes_match_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = shp(n=int(rng.integers(1, 64)), m=int(rng.integers(1, 64)),
                    p=int(rng.integers(1, 8)), i=int(rng.integers(1, 256)),
                    o=int(rng.integers(1, 256)))
            k = int(rng.integers(1, 33))
            want = ((s.n ** 2 * s.i + s.p ** 2 * s.i * s.o) * 2.5 * k
                    + (s.m ** 2 * s.i * s.p ** 2 * s.o) * (3.1 * k / 32 + 0.1))
            got = analytical_layer_energy(s, k)
            assert abs(got - want) <= 1e-9 * want

    def test_bit_range_enforced(self):
        with pytest.raises(InputError):
            analytical_layer_energy(shp(), 0)
        with pytest.raises(InputError):
            analytical_layer_energy(shp(), 33)


class TestPimRounding:
    @pytest.mark.parametrize("k,want", [(3, 4), (5, 8)])
    def test_documented_examples(self, k, want):
        assert pim_round_bits(k) == want

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_supported_fixed_points(self, k):
        assert pim_round_bits(k) == k

    def test_exhaustive_ceiling_oracle(self):
        for k in range(1, 17):
            want = next(s for s in (2, 4, 8, 16) if s >= k)
            assert pim_round_bits(k) == want

    def test_idempotent(self):
        for k in range(1, 17):
            assert pim_round_bits(pim_round_bits(k)) == pim_round_bits(k)

    def test_out_of_range_rejected(self):
        for k in (0, 17, 32):
            with pytest.raises(InputError):
                pim_round_bits(k)


class TestNetworkEnergies:
    def _toy(self):
        arch = build_toy_cnn(widths=(4, 4, 8, 8))
        return arch, dict.fromkeys(arch.weighted_ids(), 16)

    def test_uniform16_pim_equals_closed_form(self):
        arch, bits = self._toy()
        rep = pim_network_energy(arch, bits)
        total_mac = sum(r.n_mac for r in rep.rows)
        assert rep.total_pj == pytest.approx(total_mac * 276.676 / 1e3)
        assert rep.efficiency == pytest.approx(1.0)

    def test_additivity(self):
        arch, bits = self._toy()
        for builder in (pim_network_energy, analytical_network_energy):
            rep = builder(arch, bits)
            assert rep.total_pj == pytest.approx(
                sum(r.energy_pj for r in rep.rows), rel=1e-12)

    def test_lowering_bits_never_costs_more(self):
        arch, _ = self._toy()
        ids = arch.weighted_ids()
        rng = np.random.default_rng(1)
        for builder in (pim_network_energy, analytical_network_energy):
            bits = {i: 16 for i in ids}
            base = builder(arch, bits).total_pj
            for lid in ids:
                lowered = dict(bits)
                lowered[lid] = int(rng.integers(1, 16))
                assert builder(arch, lowered).total_pj <= base

    def test_pruned_channels_substituted(self):
        arch, bits = self._toy()
        conv_ids = [l.id for l in arch.layers if l.kind == "conv2d"]
        channels = {conv_ids[1]: 2}
        rep = pim_network_energy(arch, bits, channels)
        row = {r.layer_id: r for r in rep.rows}
        assert row[conv_ids[1]].out_channels == 2
        assert row[conv_ids[2]].in_channels == 2  # downstream slice adjusted

    def test_one_bit_layers_flagged(self):
        arch, _ = self._toy()
        ids = arch.weighted_ids()
        bits = {i: 16 for i in ids}
        bits[ids[1]] = 1
        rep = pim_network_energy(arch, bits)
        flags = {r.layer_id: r.binary_flag for r in rep.rows}
        assert flags[ids[1]] and not flags[ids[0]]

    def test_pim_rejects_bits_above_16(self):
        arch, _ = self._toy()
        bits = {i: 32 for i in arch.weighted_ids()}
        with pytest.raises(InputError):
            pim_network_energy(arch, bits)

    def test_efficiency_identities(self):
        arch, bits = self._toy()
        rep = analytical_network_energy(arch, bits)
        assert rep.efficiency == pytest.approx(1.0)
        total = rep.total_pj
        for r in rep.rows:
            r.energy_pj /= 2.0
        assert rep.efficiency == pytest.approx(2.0)
        rep.baseline_total_pj = total / 4.0
        assert rep.efficiency == pytest.approx(0.5)
        for r in rep.rows:
            r.energy_pj = 0.0
        with pytest.raises(InputError, match="zero model energy"):
            rep.efficiency

    def test_totals_add_left_to_right(self):
        # sum() compensates since Python 3.12 and would give 1.0 here
        rows = [LayerEnergy(0, "conv", 8, None, 1, 1, 1, 1, e)
                for e in (1e16, 1.0, -1e16)]
        assert EnergyReport("analytical", rows).total_pj == 0.0
        assert training_complexity(
            [(1.0, 1e16), (1.0, 1.0), (1.0, -1e16)], 1) == 0.0

    def test_empty_network_energy_is_zero(self):
        from adq.nn.arch import LayerSpec, NetworkArch
        arch = NetworkArch(
            [LayerSpec(id=0, kind="flatten"),
             LayerSpec(id=1, kind="linear", in_channels=4, out_channels=2)],
            (4, 1, 1), 2)
        rep = pim_network_energy(arch, {1: 16})
        # a single tiny linear layer: energy equals its MAC count exactly
        assert rep.total_pj == pytest.approx(4 * 2 * 276.676 / 1e3)


class TestTrainingComplexity:
    def test_baseline_normalizes_to_one(self):
        assert training_complexity([(1.0, 100)], 100) == pytest.approx(1.0)

    def test_two_iteration_direct_formula(self):
        assert training_complexity([(1.0, 10), (2.0, 10)], 20) == \
            pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            training_complexity([], 100)

    def test_reduction_below_one_rejected(self):
        with pytest.raises(InputError):
            training_complexity([(0.5, 10)], 10)

    def test_any_reduction_beats_plain_epoch_ratio(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            iters = [(1.0, int(rng.integers(1, 200)))]
            iters += [(float(rng.uniform(1.0001, 20)),
                       int(rng.integers(1, 200))) for _ in range(3)]
            base = 300.0
            tc = training_complexity(iters, base)
            plain = sum(e for _, e in iters) / base
            assert tc < plain


def _resized(arch, channels):
    """`arch` rebuilt with its convs at `channels`, every in-channel and
    feature count carried through by hand (spatial sizes do not depend on
    channel counts)."""
    spatial = arch.infer_shapes()
    width = {-1: arch.input_shape[0]}
    layers = []
    for spec in arch.layers:
        src = arch.input_ids(spec.id)[0]
        if spec.kind == "conv2d":
            spec = replace(spec, in_channels=width[src],
                           out_channels=channels.get(spec.id, spec.out_channels))
        elif spec.kind == "linear":
            spec = replace(spec, in_channels=width[src])
        if spec.kind in ("conv2d", "linear"):
            width[spec.id] = spec.out_channels
        elif spec.kind == "flatten":
            width[spec.id] = width[src] * prod(spatial[src][1:])
        else:
            width[spec.id] = width[src]
        layers.append(spec)
    # full validation: residual-adds must see matching shapes
    return NetworkArch(layers, arch.input_shape, arch.num_classes)


class TestChannelOverrides:
    @pytest.mark.parametrize(
        "name", sorted(n for n, p in PRESETS.items() if p.channels))
    def test_overrides_match_the_resized_architecture(self, name):
        preset = PRESETS[name]
        arch = preset.build_arch()
        channels = preset.channel_assignment(arch)
        got = layer_shapes(arch, channels)
        assert got == layer_shapes(_resized(arch, channels))
        assert any(s.o != t.o for s, t in zip(got, layer_shapes(arch)))


# report strings and energies as the writer must escape or spell them
_TEXT = st.text() | st.sampled_from(
    ["pim", 'say "hi"', "two\nlines", "tab\t\\", "énergie", "能量 ⚡"])
_ENERGIES = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0])


class TestReportJson:
    """to_json is byte for byte json.dumps(to_dict(), indent=2)."""

    @pytest.mark.parametrize("model", ["analytical", "pim"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset(self, name, model):
        p = PRESETS[name]
        arch = p.build_arch()
        bits = p.bit_assignment(arch)
        if model == "pim" and max(bits.values()) > 16:
            with pytest.raises(InputError):  # beyond the PIM precisions
                pim_network_energy(arch, bits)
            return
        for channels in (None, p.channel_assignment(arch)):
            if model == "pim":
                rep = pim_network_energy(arch, bits, channels)
            else:
                rep = analytical_network_energy(
                    arch, bits, channels, baseline_bits=p.baseline_bits)
            assert rep.to_json() == json.dumps(rep.to_dict(), indent=2)

    def test_nan_inf_none_and_true(self, tmp_path):
        rows = [LayerEnergy(0, "conv", 1, None, 3, 4, 5, 6, float("nan"),
                            True),
                LayerEnergy(1, "linear", 16, 16, 4, 2, 8, 8, float("inf")),
                LayerEnergy(2, "linear", 2, 2, 2, 2, 1, 1, -0.0)]
        rep = EnergyReport("pim", rows, baseline_total_pj=float("-inf"))
        want = json.dumps(rep.to_dict(), indent=2)
        assert "NaN" in want and "Infinity" in want and "null" in want
        path = tmp_path / "r.json"
        assert rep.to_json() == want
        write_file(path, rep.to_json())
        assert path.read_text() == want

    @settings(max_examples=300, deadline=None)
    @given(st.builds(
        EnergyReport, model=_TEXT,
        rows=st.lists(st.builds(
            LayerEnergy, layer_id=st.integers(0, 99), kind=_TEXT,
            k=st.integers(1, 32), pim_k=st.none() | st.integers(2, 16),
            in_channels=st.integers(1, 10**6),
            out_channels=st.integers(1, 10**6),
            n_mem=st.integers(0, 10**15), n_mac=st.integers(0, 10**15),
            energy_pj=_ENERGIES, binary_flag=st.booleans()),
            min_size=1, max_size=6),
        baseline_total_pj=_ENERGIES, baseline_bits=st.integers(1, 32),
    ).filter(lambda rep: rep.total_pj != 0))  # else no efficiency ratio
    def test_writer_matches_the_indenting_encoder(self, rep):
        assert rep.to_json() == json.dumps(rep.to_dict(), indent=2)

    def test_unpruned_report_infers_shapes_once(self, monkeypatch):
        p = PRESETS["vgg19-cifar10-prune-iter2"]
        arch = p.build_arch()
        bits = p.bit_assignment(arch)
        calls = []
        real = energy.layer_shapes

        def counting_shapes(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(energy, "layer_shapes", counting_shapes)
        unpruned = pim_network_energy(arch, bits)
        assert len(calls) == 1
        pruned = pim_network_energy(arch, bits, p.channel_assignment(arch))
        assert len(calls) == 2  # its own shapes; the baseline is kept
        assert unpruned.baseline_total_pj == pruned.baseline_total_pj

    def test_cold_pruned_report_resolves_the_baseline_once(self,
                                                           monkeypatch):
        p = PRESETS["vgg19-cifar10-prune-iter2"]
        arch = p.build_arch()
        bits = p.bit_assignment(arch)
        channels = p.channel_assignment(arch)
        calls = []
        real = energy.layer_shapes

        def counting_shapes(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(energy, "layer_shapes", counting_shapes)
        first = pim_network_energy(arch, bits, channels)
        assert len(calls) == 2  # its own shapes, then the baseline's
        second = pim_network_energy(arch, bits, channels)
        assert len(calls) == 3  # its own shapes only
        assert first.baseline_total_pj == second.baseline_total_pj


def _preset_channels(p, arch):
    """The preset's channel counts, or every main-chain conv at half its
    width, so that each preset also has a pruned configuration."""
    return p.channel_assignment(arch) or channel_map(arch, [
        max(1, arch.layer(i).out_channels // 2)
        for i in main_chain_weighted_ids(arch)
        if arch.layer(i).kind == "conv2d"])


def _report_text(p, model, arch, pruned):
    """A preset's report as its JSON and CSV text, or the InputError's
    message when the model cannot cost it."""
    bits = p.bit_assignment(arch)
    channels = _preset_channels(p, arch) if pruned else None
    try:
        if model == "pim":
            rep = pim_network_energy(arch, bits, channels)
        else:
            rep = analytical_network_energy(arch, bits, channels,
                                            baseline_bits=p.baseline_bits)
    except InputError as exc:
        return str(exc)
    return rep.to_json() + rep.to_csv()


class TestResolvedOncePerArch:
    """layer_shapes(arch) and main_chain_weighted_ids(arch) are kept on the
    architecture after their first call."""

    @pytest.mark.parametrize("pruned_first", [False, True])
    @pytest.mark.parametrize("model", ["analytical", "pim"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_reused_arch_reports_match_fresh_ones(self, name, model,
                                                  pruned_first):
        p = PRESETS[name]
        reused = p.build_arch()
        order = (True, False) if pruned_first else (False, True)
        for pruned in order * 2:
            assert (_report_text(p, model, reused, pruned)
                    == _report_text(p, model, p.build_arch(), pruned))

    @pytest.mark.parametrize("build", [build_vgg19, build_resnet18])
    def test_editing_a_returned_list_changes_no_later_result(self, build):
        arch = build()
        bits = {i: 8 for i in arch.weighted_ids()}
        shapes = layer_shapes(arch)
        main = main_chain_weighted_ids(arch)
        want = (list(shapes), list(main),
                pim_network_energy(arch, bits).to_json())
        shapes.reverse()
        shapes.append(shp())
        main.pop()
        main.append(-5)
        for _ in range(2):
            assert layer_shapes(arch) == want[0]
            assert main_chain_weighted_ids(arch) == want[1]
            assert pim_network_energy(arch, bits).to_json() == want[2]
        fresh = build()
        assert layer_shapes(fresh) == want[0]
        assert main_chain_weighted_ids(fresh) == want[1]

    @pytest.mark.parametrize("k", [1, 3])
    def test_only_pruned_reports_walk_the_network(self, monkeypatch, k):
        p = PRESETS["resnet18-cifar100-prune-iter3"]
        arch = p.build_arch()  # validation walks it once
        bits = p.bit_assignment(arch)
        channels = p.channel_assignment(arch)
        walks, kept = [], []
        real = NetworkArch.infer_shapes

        def counting(self, channels=None):
            # a call walks unless it returns the shapes kept at validation
            if channels is None and "shapes" in self._memo:
                kept.append(self)
            else:
                walks.append(channels)
            return real(self, channels)

        monkeypatch.setattr(NetworkArch, "infer_shapes", counting)
        for _ in range(3):
            pim_network_energy(arch, bits)
            analytical_network_energy(arch, bits)
        assert walks == [] and len(kept) <= 1
        for _ in range(k):
            pim_network_energy(arch, bits, channels)
        assert walks == [channels] * k
        assert len(kept) <= 1


_FAMILIES = ("vgg19-cifar10-baseline", "resnet18-cifar100-baseline",
             "resnet18-tinyimagenet-baseline")
# (model, baseline bits, largest drawn bit-width)
_MODELS = (("pim", 16, 16), ("analytical", 16, 32), ("analytical", 32, 32))


@st.composite
def _report_calls(draw):
    """A preset family and a sequence of report calls on it: (model,
    baseline bits, main-chain bit list, main-chain conv channel list or
    None)."""
    name = draw(st.sampled_from(_FAMILIES))
    arch = PRESETS[name].build_arch()
    main = main_chain_weighted_ids(arch)
    widths = [arch.layer(i).out_channels for i in main
              if arch.layer(i).kind == "conv2d"]
    calls = []
    for _ in range(draw(st.integers(2, 6))):
        model, baseline_bits, top = draw(st.sampled_from(_MODELS))
        bits = draw(st.lists(st.integers(1, top), min_size=len(main),
                             max_size=len(main)))
        chans = draw(st.none() | st.tuples(
            *[st.integers(1, w) for w in widths]))
        calls.append((model, baseline_bits, bits, chans))
    return name, calls


def _maps(arch, bits_list, chans):
    return (assignment_map(arch, bits_list),
            None if chans is None else channel_map(arch, chans))


class TestReportOracle:
    """Reports equal an oracle written from the README's formulas
    (tests/oracles.py) byte for byte, whatever reports the same
    architecture built before."""

    @settings(max_examples=60, deadline=None)
    @given(_report_calls())
    def test_reused_and_fresh_archs_match_the_oracle(self, drawn):
        name, calls = drawn
        p = PRESETS[name]
        reused = p.build_arch()
        for model, baseline_bits, bits, chans in calls:
            arch = p.build_arch()
            want = json.dumps(oracles.energy_report_dict(
                model, arch, *_maps(arch, bits, chans), baseline_bits),
                indent=2)
            got = []
            for arch in (reused, p.build_arch()):
                bits_map, channels = _maps(arch, bits, chans)
                rep = (pim_network_energy(arch, bits_map, channels)
                       if model == "pim" else analytical_network_energy(
                           arch, bits_map, channels, baseline_bits))
                assert rep.to_json() == want
                got.append(rep.to_csv())
            assert got[0] == got[1]
