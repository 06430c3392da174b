"""End-to-end CLI behavior: artifacts, determinism, and exit codes."""

import json
import os
import re
import warnings

import numpy as np
import pytest

from adq.cli import main
from adq.energy import analytical_network_energy, pim_network_energy
from adq.errors import InputError
from adq.nn.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from adq.nn.engine import init_state
from adq.presets import build_toy_cnn, get_preset, preset_names

TOY_CONFIG = {
    "seed": 7,
    "arch": {"kind": "toy_cnn", "widths": [4, 4, 6, 6],
             "image_shape": [1, 8, 8], "num_classes": 10},
    "dataset": {"kind": "synthetic", "num_classes": 10,
                "image_shape": [1, 8, 8], "train_per_class": 12,
                "test_per_class": 6, "noise": 0.4},
    "schedule": {"max_iters": 2, "epoch_budget": 3, "saturation_window": 2,
                 "saturation_epsilon": 0.003, "final_convergence_epochs": 1},
    "optimizer": {"lr": 0.002},
    "energy_model": "both",
}


def _image_dir(tmp_path):
    """Two classes of three 1x8x8 images, as load_directory reads them."""
    for label in range(2):
        os.makedirs(tmp_path / "images" / str(label))
        for i in range(3):
            np.save(tmp_path / "images" / str(label) / f"{i}.npy",
                    np.full((1, 8, 8), label + i / 10))
    return str(tmp_path / "images")


def _write_config(tmp_path, overrides=None, name="config.json"):
    """A dict override updates the config's object, unless it names a
    kind: then it replaces it, and a directory dataset without a path
    reads _image_dir's images."""
    cfg = json.loads(json.dumps(TOY_CONFIG))
    cfg["output_dir"] = str(tmp_path / "run")
    for key, val in (overrides or {}).items():
        if isinstance(val, dict) and "kind" not in val:
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    if cfg["dataset"].get("kind") == "directory":
        cfg["dataset"].setdefault("path", _image_dir(tmp_path))
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path, cfg["output_dir"]


class TestTrain:
    def test_artifacts_written(self, tmp_path):
        cfg_path, outdir = _write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        names = set(os.listdir(outdir))
        assert {"schedule_log.json", "schedule_log.csv", "ad_history.csv",
                "checkpoint_final.ckpt"} <= names
        assert "checkpoint_iter1.ckpt" in names
        assert "energy_iter1_analytical.json" in names
        assert "energy_iter1_pim.csv" in names
        with open(os.path.join(outdir, "schedule_log.json")) as f:
            log = json.load(f)
        assert 1 <= len(log["iterations"]) <= 2

    def test_single_iteration_config_gives_one_row(self, tmp_path):
        cfg_path, outdir = _write_config(
            tmp_path, {"schedule": {"max_iters": 1}})
        assert main(["train", "-c", str(cfg_path)]) == 0
        with open(os.path.join(outdir, "schedule_log.json")) as f:
            log = json.load(f)
        assert len(log["iterations"]) == 1
        assert set(log["iterations"][0]["bits"].values()) == {16}

    def test_same_seed_byte_identical_logs(self, tmp_path):
        p1, out1 = _write_config(tmp_path, name="a.json")
        os.environ["ADQ_OUTPUT_DIR"] = str(tmp_path / "run_b")
        try:
            p2, _ = _write_config(tmp_path, name="b.json")
            assert main(["train", "-c", str(p1)]) == 0
        finally:
            del os.environ["ADQ_OUTPUT_DIR"]
        assert main(["train", "-c", str(p2)]) == 0
        for fn in ("schedule_log.csv", "ad_history.csv"):
            with open(os.path.join(str(tmp_path / "run_b"), fn), "rb") as f:
                b1 = f.read()
            with open(os.path.join(out1, fn), "rb") as f:
                b2 = f.read()
            assert b1 == b2, fn

    @pytest.mark.parametrize("from_initial", [True, False])
    def test_pruning_run_matches_channel_oracle(self, tmp_path, from_initial):
        import csv as csvmod
        import math
        cfg_path, outdir = _write_config(
            tmp_path, {"schedule": {"pruning_enabled": True, "max_iters": 3,
                                    "prune_from_initial": from_initial}})
        assert main(["train", "-c", str(cfg_path)]) == 0
        with open(os.path.join(outdir, "schedule_log.json")) as f:
            log = json.load(f)
        ad = {}
        with open(os.path.join(outdir, "ad_history.csv")) as f:
            for row in csvmod.DictReader(f):
                ad[(int(row["layer_id"]), int(row["epoch"]))] = float(row["ad"])
        rows = log["iterations"]
        initial = {lid: c for lid, c in rows[0]["channels"].items()}
        epoch_end = 0
        rules_differ = False
        for prev, cur in zip(rows, rows[1:]):
            epoch_end += prev["epochs"]
            for lid, c_prev in prev["channels"].items():
                want = {ref: max(1, min(c_prev, math.floor(
                    ref * ad[(int(lid), epoch_end)] + 0.5)))
                    for ref in (initial[lid], c_prev)}
                assert cur["channels"][lid] == \
                    want[initial[lid] if from_initial else c_prev]
                rules_differ |= len(set(want.values())) > 1
        # the run tells the two rules apart
        assert rules_differ

    def test_pruning_run_reports_against_the_unpruned_network(self,
                                                             tmp_path):
        cfg_path, outdir = _write_config(
            tmp_path, {"schedule": {"pruning_enabled": True, "max_iters": 3}})
        assert main(["train", "-c", str(cfg_path)]) == 0
        with open(os.path.join(outdir, "schedule_log.json")) as f:
            log = json.load(f)
        arch = build_toy_cnn(**{k: v for k, v in TOY_CONFIG["arch"].items()
                                if k != "kind"})
        costs = {"analytical": analytical_network_energy,
                 "pim": pim_network_energy}
        rows = log["iterations"]
        assert len(rows) >= 2 and rows[-1]["channels"] != rows[0]["channels"]
        ratios = {(r["iter"], r["model"]): r["ratio"]
                  for r in log["energy_efficiency"]}
        assert len(ratios) == 2 * len(rows)
        for rec in rows:
            bits = {int(i): k for i, k in rec["bits"].items()}
            channels = {int(i): c for i, c in rec["channels"].items()}
            for model, cost in costs.items():
                with open(os.path.join(
                        outdir, f"energy_iter{rec['iter']}_{model}.json")) as f:
                    report = json.load(f)
                with open(os.path.join(outdir,
                                       f"energy_iter1_{model}.json")) as f:
                    first = json.load(f)
                want = cost(arch, bits, channels)
                assert (report["baseline_total_pj"]
                        == first["baseline_total_pj"]
                        == want.baseline_total_pj)
                assert report["efficiency_ratio"] == want.efficiency
                assert ratios[rec["iter"], model] == want.efficiency

    @pytest.mark.parametrize("schedule", [
        {"batch_size": 0},
        {"network_ad_mode": "Mean"},
        {"act_range_mode": "median"},
        {"ema_decay": 1.5},
        {"batch_size": "8"},
        {"saturation_epsilon": "0.1"},
        {"epoch_budget": 6.5},
        {"pruning_enabled": "false"},
        {"strict_ad_pass": "no"},
        {"remove_layers": 3},
        {"remove_layers": ["a"]},
        {"remove_layers": [999]},
        {"remove_layers": [True]},
        {"max_iters": 0},
        {"initial_bits": 17},
        {"saturation_window": 1},
        {"epoch_budget": 2, "saturation_window": 3},
        {"final_convergence_epochs": -1},
    ])
    def test_bad_schedule_field_rejected_at_load(self, tmp_path, capsys,
                                                 schedule):
        cfg_path, outdir = _write_config(tmp_path, {"schedule": schedule})
        assert main(["train", "-c", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("overrides", [
        {"seed": "x"},
        {"seed": True},
        {"seed": -1},
        {"dataset": {"seed": -1}},
        {"baseline_epoch_total": "10"},
        {"optimizer": {"lr": "0.002"}},
        {"optimizer": {"lr": -1.0}},
        {"optimizer": {"lr": 0}},
        {"optimizer": {"beta1": 1.0}},
        {"optimizer": {"beta2": -0.1}},
        {"optimizer": {"eps": 0.0}},
        {"optimizer": {"weight_decay": -1e-4}},
        {"optimizer": {"weight_decay": False}},
        {"energy_modle": "pim"},
        {"dataset": {"train_per_class": "5"}},
        {"dataset": {"noise": "x"}},
        {"dataset": {"seed": None}},
        {"dataset": {"nosie": 0.9}},
        {"arch": {"widths": "ab"}},
        {"arch": {"image_shape": [1, 8.0, 8]}},
        {"arch": {"num_classes": True}},
        {"arch": {"width": [4, 4, 6, 6]}},
        {"dataset": {"train_per_class": -1}},
        {"dataset": {"train_per_class": 0}},
        {"dataset": {"test_per_class": 0}},
        {"dataset": {"num_classes": 0}},
        {"dataset": {"image_shape": [1, 8]}},
        {"dataset": {"image_shape": [1, 0, 8]}},
        {"arch": {"image_shape": [1, 8]}},
        {"arch": {"image_shape": [1, 8, -8]}},
        {"dataset": {"kind": "directory", "test_fraction": 0.0}},
        {"dataset": {"kind": "directory", "test_fraction": 1.0}},
        {"dataset": {"image_shape": [1, 6, 6]}},
        {"dataset": {"num_classes": 12}},
        {"schedule": {"nosie": 1}},
        {"optimizer": {"nosie": 1}},
        {"energy_model": "fast"},
        *({field: value} for field in ("schedule", "optimizer")
          for value in (None, 5, "ab", [1, 2])),
        # lists of pairs that dict() would read as an object
        {"schedule": [["max_iters", 1]]}, {"optimizer": [["lr", 0.002]]},
    ])
    def test_bad_top_level_or_optimizer_field_rejected_at_load(
            self, tmp_path, capsys, overrides):
        cfg_path, outdir = _write_config(tmp_path, overrides)
        assert main(["train", "-c", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("lr", [1e300, 1e306, 1e307])
    def test_divergence_prints_only_the_diagnostic(self, tmp_path, capsys,
                                                   lr):
        cfg_path, _ = _write_config(tmp_path, {"optimizer": {"lr": lr}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["train", "-c", str(cfg_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2, err
        assert err[0].startswith("training diverged: ")
        assert err[1].startswith("diagnostic checkpoint: ")

    def test_output_dir_under_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        cfg_path, _ = _write_config(
            tmp_path, {"output_dir": str(tmp_path / "f" / "x")})
        assert main(["train", "-c", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and str(tmp_path / "f" / "x") in err
        assert out == ""

    def test_config_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["train", "-c", str(bad)]) == 1

    def test_missing_field_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1}))
        assert main(["train", "-c", str(bad)]) == 1
        assert "output_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("case, named", [
        ("config-not-utf8", "config.json"),
        ("arch-path-is-a-directory", "arch_dir"),
        ("arch-file-is-a-directory", "arch_dir"),
        ("arch-path-not-json", "arch.json"),
        ("unreadable-image", "0.npy"),
    ])
    def test_unreadable_input_exits_1_before_the_output_dir(
            self, tmp_path, capsys, case, named):
        (tmp_path / "arch_dir").mkdir()
        (tmp_path / "arch.json").write_text("{ not json")
        cfg_path, outdir = _write_config(tmp_path, {
            "config-not-utf8": {},
            "arch-path-is-a-directory": {"arch": str(tmp_path / "arch_dir")},
            "arch-file-is-a-directory": {
                "arch": {"kind": "file", "path": str(tmp_path / "arch_dir")}},
            "arch-path-not-json": {"arch": str(tmp_path / "arch.json")},
            "unreadable-image": {"dataset": {"kind": "directory"}},
        }[case])
        if case == "config-not-utf8":
            cfg_path.write_bytes(b"\xff" + cfg_path.read_bytes())
        if case == "unreadable-image":  # an object array needs pickle
            np.save(tmp_path / "images" / "0" / "0.npy", np.array([{}]))
        assert main(["train", "-c", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and named in err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("form", ["file", "inline"])
    def test_arch_file_and_inline_forms_train(self, tmp_path, form):
        arch = build_toy_cnn(widths=(4, 4, 6, 6))
        arch.save(tmp_path / "toy_arch.json")
        spec = ({"kind": "file", "path": str(tmp_path / "toy_arch.json")}
                if form == "file" else arch.to_dict())
        cfg_path, outdir = _write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["arch"] = spec
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "-c", str(cfg_path)]) == 0
        ckpt_arch, _, _ = load_checkpoint(
            os.path.join(outdir, "checkpoint_iter1.ckpt"))
        assert ckpt_arch.to_dict() == arch.to_dict()


class TestEnergy:
    def test_preset_analytical_within_tolerance(self, capsys):
        assert main(["energy", "--preset", "vgg19-cifar10-iter2a",
                     "--model", "analytical"]) == 0
        out = capsys.readouterr().out
        ratio = float(out.split("efficiency:")[1].split("x")[0])
        assert abs(ratio / 4.19 - 1) <= 0.15

    def test_preset_pim_baseline(self, capsys, tmp_path):
        assert main(["energy", "--preset", "vgg19-cifar10-baseline",
                     "--model", "pim", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        uj = float(out.split("total energy:")[1].split("uJ")[0])
        assert abs(uj / 110.154 - 1) <= 0.05
        files = os.listdir(tmp_path)
        assert any(f.endswith(".json") for f in files)
        assert any(f.endswith(".csv") for f in files)

    @pytest.mark.parametrize("model", ["analytical", "pim"])
    @pytest.mark.parametrize("name", preset_names())
    def test_report_files_are_indent2_json(self, tmp_path, name, model):
        p = get_preset(name)
        arch = p.build_arch()
        bits = p.bit_assignment(arch)
        rc = main(["energy", "--preset", name, "--model", model,
                   "--out", str(tmp_path)])
        if model == "pim" and max(bits.values()) > 16:
            assert rc == 1  # beyond the PIM precisions
            return
        assert rc == 0
        channels = p.channel_assignment(arch)
        rep = (pim_network_energy(arch, bits, channels) if model == "pim"
               else analytical_network_energy(arch, bits, channels,
                                              baseline_bits=p.baseline_bits))
        text = (tmp_path / f"energy_{name}_{model}.json").read_text()
        assert text == json.dumps(rep.to_dict(), indent=2)

    def test_out_under_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        out_dir = str(tmp_path / "f" / "x")
        assert main(["energy", "--preset", "vgg19-cifar10-baseline",
                     "--out", out_dir]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and out_dir in err
        assert out == ""  # --out is checked before the report is printed

    def test_uniform_preset_ratio_exactly_one(self, capsys):
        assert main(["energy", "--preset", "resnet18-cifar100-baseline",
                     "--model", "pim"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("efficiency:")[1].split("x")[0]) == 1.0

    def test_unknown_preset_exit_1_lists_available(self, capsys):
        assert main(["energy", "--preset", "nope", "--model", "pim"]) == 1
        err = capsys.readouterr().err
        assert "available" in err and "vgg19-cifar10-baseline" in err

    def test_checkpoint_energy(self, tmp_path, capsys):
        cfg_path, outdir = _write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        capsys.readouterr()
        ckpt = os.path.join(outdir, "checkpoint_final.ckpt")
        assert main(["energy", "--checkpoint", ckpt, "--model", "pim"]) == 0
        assert "efficiency" in capsys.readouterr().out


def _small_checkpoint(path, **header):
    """A two-channel toy network saved with 8-bit weighted layers; `header`
    overrides save_checkpoint's keyword arguments."""
    arch = build_toy_cnn(widths=(2, 2, 2, 2))
    header.setdefault("bits", {str(i): 8 for i in arch.weighted_ids()})
    save_checkpoint(path, arch, init_state(arch, 0), **header)
    return path.read_bytes()


def _edited_checkpoint(tmp_path, edit):
    """bad.ckpt: _small_checkpoint with edit(header) applied."""
    data = _small_checkpoint(tmp_path / "whole.ckpt")
    hlen = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12:12 + hlen])
    edit(header)
    raw = json.dumps(header).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MAGIC + len(raw).to_bytes(4, "little") + raw
                    + data[12 + hlen:])
    return bad


def _blob(header, group, layer, name):
    """The header's index entry of one blob."""
    (ent,) = [b for b in header["blobs"]
              if (b["group"], b["layer"], b["name"]) == (group, layer, name)]
    return ent


class TestCorruptCheckpoint:
    def test_every_truncation_is_an_input_error(self, tmp_path):
        data = _small_checkpoint(tmp_path / "whole.ckpt")
        cut = tmp_path / "cut.ckpt"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(InputError, match="cut.ckpt"):
                load_checkpoint(cut)

    @pytest.mark.parametrize("where", [
        "empty", "short-magic", "short-length", "cut-header", "no-body",
        "cut-last-blob"])
    def test_energy_on_a_truncated_checkpoint_exits_1(self, tmp_path, capsys,
                                                      where):
        data = _small_checkpoint(tmp_path / "whole.ckpt")
        body = len(MAGIC) + 4 + int.from_bytes(data[8:12], "little")
        n = {"empty": 0, "short-magic": 4, "short-length": len(MAGIC) + 2,
             "cut-header": 100, "no-body": body,
             "cut-last-blob": len(data) - 1}[where]
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(data[:n])
        assert main(["energy", "--checkpoint", str(cut), "--model",
                     "pim"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "cut.ckpt" in err[0]

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        path = str(tmp_path / "absent.ckpt")
        assert main(["energy", "--checkpoint", path, "--model", "pim"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "absent.ckpt" in err[0]

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(blobs=h["blobs"][:1] + [dict(
            h["blobs"][1], shape=[h["blobs"][1]["shape"][0] + 1])]),
        lambda h: h["blobs"][0].update(offset=-8),
        lambda h: h.pop("rng_state"),
        lambda h: h["arch"].update(layers="none"),
    ], ids=["shape-disagrees", "before-the-body", "no-rng-state",
            "bad-arch"])
    def test_edited_header_is_an_input_error(self, tmp_path, edit):
        with pytest.raises(InputError, match="bad.ckpt"):
            load_checkpoint(_edited_checkpoint(tmp_path, edit))

    @pytest.mark.parametrize("edit, why", [
        (lambda h: h.update(arch_hash="deadbeef"),
         "arch_hash 'deadbeef' is not its architecture's"),
        (lambda h: h["blobs"].remove(_blob(h, "weights", 0, "w")),
         "weights blob 'w' of layer 0: none stored, shape [2, 1, 3, 3]"),
        (lambda h: _blob(h, "weights", 0, "w").update(shape=[1, 2, 3, 3]),
         "weights blob 'w' of layer 0: shape [1, 2, 3, 3] stored, "
         "shape [2, 1, 3, 3] expected"),
        (lambda h: h["blobs"].append(dict(_blob(h, "m", 0, "b"), layer=1)),
         "m blob 'b' of layer 1: shape [2] stored, none expected"),
        (lambda h: h.update(format=9),
         "format 9 is not 1, the one this code reads"),
        (lambda h: h.update(step="abc"),
         "step 'abc' is not an integer >= 0"),
        (lambda h: h.update(step=True), "step True is not an integer >= 0"),
        (lambda h: h.update(epoch=-3), "epoch -3 is not an integer >= 0"),
        (lambda h: h.update(rng_seed=True),
         "rng_seed True is not an integer >= 0"),
        (lambda h: h.update(ad_history="zz"),
         "ad_history 'zz' is not null or a list"),
        (lambda h: h.update(quant_state=3),
         "quant_state 3 is not null or an object"),
    ], ids=["foreign-arch-hash", "no-weight", "reshaped-weight",
            "moment-of-a-relu", "format-9", "step-abc", "step-true",
            "epoch-negative", "rng-seed-true", "ad-history-string",
            "quant-state-number"])
    def test_header_that_disagrees_with_its_arch_is_an_input_error(
            self, tmp_path, capsys, edit, why):
        bad = str(_edited_checkpoint(tmp_path, edit))
        with pytest.raises(InputError, match=re.escape(why)):
            load_checkpoint(bad)
        assert main(["energy", "--checkpoint", bad, "--model", "pim"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("header", [
        {"bits": [8, 8]}, {"bits": {"first": 8}}, {"bits": {"0": "8"}},
        {"channels": {"0": 2.5}}, {"channels": ["2"]},
        {"channels": dict.fromkeys(["0", "2", "5", "7"], -3)},
        {"channels": dict.fromkeys(["0", "2", "5", "7"], 0)},
        # ids that are not weighted layers (bits) or convs (channels): one
        # past the network, a relu and the linear layer
        {"bits": {**dict.fromkeys(["0", "2", "5", "7", "11"], 8), "99": 8}},
        {"channels": {"99": 1}}, {"channels": {"1": 1}},
        {"channels": {"11": 1}},
        # more channels than the two-channel conv has
        {"channels": {"0": 3}}, {"channels": {"0": 500}}])
    def test_bad_bits_or_channels_exit_1(self, tmp_path, capsys, header):
        path = tmp_path / "odd.ckpt"
        _small_checkpoint(path, **header)
        assert main(["energy", "--checkpoint", str(path), "--model",
                     "pim"]) == 1
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert out == ""  # checked before the report is printed


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["reproduce", "--table", "3"], ["bogus"], []],
        ids=["bad-table", "unknown-command", "no-command"])
    def test_usage_errors_exit_1(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: adq") and "error: " in err

    def test_help_exits_0(self, capsys):
        assert main(["-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: adq")


class TestReproduce:
    @pytest.mark.parametrize("table", ["1", "2", "4", "5"])
    def test_tables_exit_zero(self, table, capsys):
        assert main(["reproduce", "--table", table]) == 0
        out = capsys.readouterr().out
        assert "computed" in out

    def test_rerun_identical_output(self, capsys):
        main(["reproduce", "--table", "4"])
        first = capsys.readouterr().out
        main(["reproduce", "--table", "4"])
        assert capsys.readouterr().out == first

    def test_table4_reports_both_reductions(self, capsys):
        main(["reproduce", "--table", "4"])
        out = capsys.readouterr().out
        assert "5.12" in out and "4.81" in out

    def test_table5_reports_both_reductions(self, capsys):
        main(["reproduce", "--table", "5"])
        out = capsys.readouterr().out
        assert "197.55" in out and "43.941" in out


class TestPlotdata:
    def test_emits_csv_bundle(self, tmp_path):
        import csv as csvmod
        cfg_path, outdir = _write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert main(["plotdata", "--run", outdir]) == 0
        with open(os.path.join(outdir, "ad_vs_epoch.csv")) as f:
            ad_rows = list(csvmod.DictReader(f))
        with open(os.path.join(outdir, "accuracy_vs_epoch.csv")) as f:
            acc_rows = list(csvmod.DictReader(f))
        with open(os.path.join(outdir, "schedule_log.json")) as f:
            log = json.load(f)
        total_epochs = len(log["epoch_accuracy"])
        assert len(acc_rows) == total_epochs
        # every recorded layer appears once per epoch, values pass through
        with open(os.path.join(outdir, "ad_history.csv")) as f:
            hist_rows = list(csvmod.DictReader(f))
        assert len(ad_rows) == len(hist_rows)
        assert [r["ad"] for r in ad_rows] == [r["ad"] for r in hist_rows]

    def test_missing_artifacts_nonzero_exit(self, tmp_path):
        assert main(["plotdata", "--run", str(tmp_path)]) == 1

    @staticmethod
    def _corrupt_run(tmp_path, name, edit):
        """A trained run whose artifact name is replaced by edit(its text)."""
        cfg_path, outdir = _write_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        path = os.path.join(outdir, name)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(edit(text))
        return outdir

    @pytest.mark.parametrize("name, edit", [
        ("schedule_log.json", lambda text: text[:len(text) // 2]),
        ("ad_history.csv",
         lambda text: text.replace("layer_id,", "layer,", 1)),
        ("schedule_log.json",
         lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "epoch_accuracy"})),
    ], ids=["truncated-log", "no-layer-id-column", "no-epoch-accuracy"])
    def test_corrupt_artifact_is_an_input_error(self, tmp_path, capsys, name,
                                                edit):
        outdir = self._corrupt_run(tmp_path, name, edit)
        capsys.readouterr()
        assert main(["plotdata", "--run", outdir]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert name in err[0]
        for out in ("ad_vs_epoch.csv", "accuracy_vs_epoch.csv"):
            assert not os.path.exists(os.path.join(outdir, out))


class TestArtifactWrites:
    """Every file goes through adq.artifacts.write_file: whole or not at
    all, and a name that cannot be written exits 1 before any is."""

    @pytest.mark.parametrize("name", [
        "schedule_log.json", "schedule_log.csv", "ad_history.csv",
        "checkpoint_final.ckpt", "checkpoint_iter1.ckpt",
        "checkpoint_iter2.ckpt", "energy_iter1_analytical.json",
        "energy_iter1_pim.csv", "energy_iter2_analytical.csv",
        "energy_iter2_pim.json", "ad_history.csv.tmp"])
    def test_train_checks_every_name_before_training(self, tmp_path, capsys,
                                                     name):
        cfg_path, outdir = _write_config(tmp_path)
        os.makedirs(os.path.join(outdir, name))
        assert main(["train", "-c", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and name in err
        assert out == "" and os.listdir(outdir) == [name]  # nothing written

    @pytest.mark.parametrize("ext", ["json", "csv"])
    def test_energy_checks_both_reports_first(self, tmp_path, capsys, ext):
        name = f"energy_vgg19-cifar10-baseline_pim.{ext}"
        os.makedirs(tmp_path / "e2" / name)
        assert main(["energy", "--preset", "vgg19-cifar10-baseline",
                     "--model", "pim", "--out", str(tmp_path / "e2")]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and name in err
        assert out == "" and os.listdir(tmp_path / "e2") == [name]

    @pytest.fixture(scope="class")
    def trained_run(self, tmp_path_factory):
        cfg_path, outdir = _write_config(tmp_path_factory.mktemp("plot"))
        assert main(["train", "-c", str(cfg_path)]) == 0
        return outdir

    @pytest.mark.parametrize("name", ["ad_vs_epoch.csv",
                                      "accuracy_vs_epoch.csv"])
    def test_plotdata_checks_both_outputs_first(self, trained_run, capsys,
                                                name):
        before = set(os.listdir(trained_run))
        os.mkdir(os.path.join(trained_run, name))
        try:
            capsys.readouterr()
            assert main(["plotdata", "--run", trained_run]) == 1
            out, err = capsys.readouterr()
            assert set(os.listdir(trained_run)) == before | {name}
        finally:
            os.rmdir(os.path.join(trained_run, name))
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and name in err and out == ""

    def test_failed_replace_keeps_the_previous_file(self, tmp_path,
                                                    monkeypatch):
        from adq.artifacts import write_file
        path = str(tmp_path / "report.json")
        write_file(path, "old\n")

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(InputError, match="No space left") as err:
            write_file(path, b"new", "\n")
        assert path in str(err.value)
        assert os.listdir(tmp_path) == ["report.json"]  # no .tmp left
        with open(path, "rb") as f:
            assert f.read() == b"old\n"

    def test_divergence_without_a_checkpoint_still_exits_3(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        cfg_path, outdir = _write_config(tmp_path,
                                         {"optimizer": {"lr": 1e300}})

        def fail(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", fail)
        assert main(["train", "-c", str(cfg_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2, err
        assert err[0].startswith("training diverged: ")
        assert err[1].startswith("no diagnostic checkpoint: cannot write ")
        assert "diverged_epoch" in err[1] and "Permission denied" in err[1]
        assert os.listdir(outdir) == []

    def test_csv_bytes(self):
        from adq.admon import ADHistory, ADRecord
        from adq.cli import _log_csv
        from adq.energy import EnergyReport, LayerEnergy
        from adq.scheduler import IterationRecord, ScheduleLog
        hist = ADHistory()
        for rec in (ADRecord(3, 1, 2, 3), ADRecord(0, 2, 1, 8),
                    ADRecord(0, 1, 5, 7)):
            hist.records[(rec.layer_id, rec.epoch)] = rec
        assert hist.to_csv().encode() == (
            b"layer_id,epoch,nonzero,total,ad\r\n0,1,5,7,0.7142857143\r\n"
            b"0,2,1,8,0.125\r\n3,1,2,3,0.6666666667\r\n")
        rep = EnergyReport(
            "pim", [LayerEnergy(0, "conv2d", 3, 4, 1, 8, 100, 2000,
                                123.456789),
                    LayerEnergy(2, "linear", 1, None, 8, 10, 90, 80, 0.5,
                                True)],
            baseline_total_pj=1000.0, baseline_bits=16)
        assert rep.to_csv().encode() == (
            b"layer_id,kind,k,pim_k,channels,N_Mem,N_MAC,E_pJ\r\n"
            b"0,conv2d,3,4,8,100,2000,123.457\r\n2,linear,1,,10,90,80,0.5\r\n"
            b"total,,,,,,,123.957\r\nbaseline_total,,16,,,,,1000\r\n"
            b"efficiency_ratio,,,,,,,8.06733\r\n")
        log = ScheduleLog(iterations=[
            IterationRecord(1, {2: 16, 0: 16}, None, 3, 0.5, 0.25, 2.0),
            IterationRecord(2, {2: 7, 0: 16}, {0: 4, 2: 3}, 2, 0.123456789,
                            1.0, 1.5)])
        assert _log_csv(log).encode() == (
            b"iter,bits,channels,test_accuracy,total_ad,epochs\r\n"
            b"1,16|16,,0.250000,0.500000,3\r\n"
            b"2,16|7,4|3,1.000000,0.123457,2\r\n")
