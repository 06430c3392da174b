"""Preset catalog integrity and the published-number reproductions."""

from dataclasses import FrozenInstanceError, astuple

import pytest

import golden
from adq import presets
from adq.energy import analytical_network_energy, pim_network_energy
from adq.errors import InputError
from adq.presets import (PRESETS, get_preset, preset_names,
                         resnet_bits_from_raw, vgg_bits_from_raw)
from adq.reproduce import compute_table
from adq.scheduler import main_chain_weighted_ids, skip_topology


class TestCatalogIntegrity:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_bit_list_matches_layer_count(self, name):
        p = get_preset(name)
        arch = p.build_arch()
        main = main_chain_weighted_ids(arch)
        assert len(p.main_bits()) == len(main)
        bits = p.bit_assignment(arch)
        assert set(bits) == set(arch.weighted_ids())

    @pytest.mark.parametrize("name", [n for n in sorted(PRESETS)
                                      if PRESETS[n].channels is not None])
    def test_channel_list_matches_conv_count(self, name):
        p = get_preset(name)
        arch = p.build_arch()
        main_convs = [i for i in main_chain_weighted_ids(arch)
                      if arch.layer(i).kind == "conv2d"]
        assert len(p.channels) == len(main_convs)

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(InputError, match="available"):
            get_preset("not-a-preset")
        assert "vgg19-cifar10-baseline" in preset_names()

    def test_resnet_triplet_entries_equal_destination(self):
        # the verbatim 26-entry lists duplicate the destination conv's width
        # as the per-block skip entry
        for name in ("resnet18-cifar100-iter2", "resnet18-cifar100-iter3",
                     "resnet18-tinyimagenet-iter2",
                     "resnet18-tinyimagenet-iter3",
                     "resnet18-tinyimagenet-iter4"):
            raw = get_preset(name).bits_raw
            assert len(raw) == 26
            for b in range(8):
                assert raw[3 + 3 * b] == raw[2 + 3 * b]

    def test_bit_parsers_reject_unknown_lengths(self):
        with pytest.raises(InputError):
            vgg_bits_from_raw([16] * 5)
        with pytest.raises(InputError):
            resnet_bits_from_raw([16] * 5)

    def test_exempt_ends_stay_initial_width(self):
        for name, p in PRESETS.items():
            if "tinyimagenet" in name and "baseline" in name:
                continue  # 32-bit uniform row
            bits = p.main_bits()
            assert bits[0] == 16 and bits[-1] == 16, name

    @pytest.mark.parametrize("name", [n for n in sorted(PRESETS)
                                      if PRESETS[n].arch_kind == "resnet18"])
    def test_projection_convs_inherit_destination_assignment(self, name):
        p = get_preset(name)
        arch = p.build_arch()
        bits = p.bit_assignment(arch)
        chans = p.channel_assignment(arch)
        for t in skip_topology(arch).values():
            for cid in t["skip_convs"]:
                assert bits[cid] == bits[t["destination"]]
                if chans is not None:
                    assert chans[cid] == chans[t["destination"]]


def _pim(name, bits_from=None, channels_from=None):
    base = get_preset(name)
    arch = base.build_arch()
    bits = get_preset(bits_from or name).bit_assignment(arch)
    channels = None
    if channels_from:
        channels = get_preset(channels_from).channel_assignment(arch)
    return pim_network_energy(arch, bits, channels)


class TestPublishedPimNumbers:
    def test_vgg19_baseline_within_5pct(self):
        rep = _pim("vgg19-cifar10-baseline")
        assert rep.total_uj == pytest.approx(110.154, rel=0.05)
        assert rep.efficiency == pytest.approx(1.0)

    def test_resnet18_baseline_within_10pct(self):
        rep = _pim("resnet18-cifar100-baseline")
        assert rep.total_uj == pytest.approx(159.501, rel=0.10)

    def test_vgg19_mixed_precision(self):
        rep = _pim("vgg19-cifar10-baseline",
                   bits_from="vgg19-cifar10-prune-iter2")
        assert rep.total_uj == pytest.approx(21.506, rel=0.10)
        assert rep.efficiency == pytest.approx(5.12, rel=0.10)

    def test_resnet18_mixed_precision(self):
        rep = _pim("resnet18-cifar100-baseline",
                   bits_from="resnet18-cifar100-iter3")
        assert rep.total_uj == pytest.approx(33.186, rel=0.10)
        assert rep.efficiency == pytest.approx(4.81, rel=0.10)

    def test_vgg19_quantized_and_pruned(self):
        rep = _pim("vgg19-cifar10-baseline", bits_from="vgg19-cifar10-iter2",
                   channels_from="vgg19-cifar10-prune-iter2")
        assert rep.total_uj == pytest.approx(0.558, rel=0.15)
        assert rep.efficiency == pytest.approx(197.55, rel=0.15)

    def test_resnet18_quantized_and_pruned(self):
        rep = _pim("resnet18-cifar100-baseline",
                   bits_from="resnet18-cifar100-prune-iter3",
                   channels_from="resnet18-cifar100-prune-iter3")
        assert rep.efficiency == pytest.approx(43.941, rel=0.15)


class TestPublishedAnalyticalNumbers:
    @pytest.mark.parametrize("name,published", [
        ("vgg19-cifar10-iter2", 4.16),
        ("vgg19-cifar10-iter2a", 4.19),
        ("resnet18-cifar100-iter2", 2.76),
        ("resnet18-cifar100-iter3", 3.19),
        ("resnet18-tinyimagenet-iter2", 2.73),
        ("resnet18-tinyimagenet-iter3", 4.14),
        ("resnet18-tinyimagenet-iter4", 4.50),
    ])
    def test_table_efficiencies_within_15pct(self, name, published):
        p = get_preset(name)
        arch = p.build_arch()
        rep = analytical_network_energy(arch, p.bit_assignment(arch),
                                        baseline_bits=p.baseline_bits)
        assert rep.efficiency == pytest.approx(published, rel=0.15)

    def test_baselines_are_exactly_one(self):
        for name in ("vgg19-cifar10-baseline", "resnet18-cifar100-baseline",
                     "resnet18-tinyimagenet-baseline"):
            p = get_preset(name)
            arch = p.build_arch()
            rep = analytical_network_energy(arch, p.bit_assignment(arch),
                                            baseline_bits=p.baseline_bits)
            assert rep.efficiency == pytest.approx(1.0, rel=1e-12)


class TestReproduceTables:
    @pytest.mark.parametrize("table", ["1", "4", "5"])
    def test_gated_tables_pass(self, table):
        cells = compute_table(table)
        assert cells
        for c in cells:
            if c.tolerance is not None:
                assert c.within, (c.row, c.metric, c.computed, c.published)

    def test_table2_cells_informational(self):
        cells = compute_table("2")
        assert cells
        assert all(c.tolerance is None for c in cells)
        # documented irreproducibility: recomputation lands far below
        for c in cells:
            assert c.computed < c.published

    def test_table4_has_published_reduction_rows(self):
        cells = compute_table("4")
        reds = {c.row: c.published for c in cells
                if c.metric == "energy_reduction"}
        assert reds == {"VGG19 on CIFAR-10": 5.12,
                        "ResNet18 on CIFAR-100": 4.81}

    def test_table5_has_published_reduction_rows(self):
        cells = compute_table("5")
        reds = {c.row: c.published for c in cells
                if c.metric == "energy_reduction"}
        assert reds == {"VGG19 on CIFAR-10": 197.55,
                        "ResNet18 on CIFAR-100": 43.941}

    def test_unknown_table_rejected(self):
        with pytest.raises(InputError):
            compute_table("3")

    def test_rerun_is_identical(self):
        a = [(c.row, c.metric, c.computed) for c in compute_table("4")]
        b = [(c.row, c.metric, c.computed) for c in compute_table("4")]
        assert a == b

    def test_one_build_per_distinct_arch_and_the_same_cells(self,
                                                            monkeypatch):
        want = golden.read_golden()
        built = []

        def counting(build):
            def counted(*args, **kwargs):
                built.append(build.__name__)
                return build(*args, **kwargs)
            return counted

        presets._preset_arch.cache_clear()  # every network cold
        for build in (presets.build_vgg19, presets.build_resnet18):
            monkeypatch.setattr(presets, build.__name__, counting(build))
        for _ in range(2):
            for table in ("1", "2", "4", "5"):
                assert ([repr(astuple(c)) for c in compute_table(table)]
                        == want[f"reproduce --table {table}"]["cells"])
        # VGG19 with and without its last conv, ResNet18 on CIFAR-100 and
        # on TinyImagenet: each built once, whichever table asks first
        assert sorted(built) == ["build_resnet18"] * 2 + ["build_vgg19"] * 2

    def test_presets_with_one_network_share_it_frozen(self):
        arch = get_preset("vgg19-cifar10-baseline").build_arch()
        assert get_preset("vgg19-cifar10-iter2").build_arch() is arch
        assert get_preset("vgg19-cifar10-iter2a").build_arch() is not arch
        with pytest.raises(FrozenInstanceError):
            arch.layers = ()
        with pytest.raises(FrozenInstanceError):
            arch.layers[0].out_channels = 1
