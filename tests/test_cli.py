"""End-to-end CLI behavior: artifacts, determinism, and exit codes."""

import json
import os

import pytest

from adq.cli import main

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


def _write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(TOY_CONFIG))
    cfg["output_dir"] = str(tmp_path / "run")
    for key, val in (overrides or {}).items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
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
    ])
    def test_bad_schedule_field_rejected_at_load(self, tmp_path, capsys,
                                                 schedule):
        cfg_path, outdir = _write_config(tmp_path, {"schedule": schedule})
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("overrides", [
        {"seed": "x"},
        {"seed": True},
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
    ])
    def test_bad_top_level_or_optimizer_field_rejected_at_load(
            self, tmp_path, capsys, overrides):
        cfg_path, outdir = _write_config(tmp_path, overrides)
        assert main(["train", "-c", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not os.path.exists(outdir)

    def test_config_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["train", "-c", str(bad)]) == 1

    def test_missing_field_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1}))
        assert main(["train", "-c", str(bad)]) == 1
        assert "output_dir" in capsys.readouterr().err


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
