"""Schedule edge cases: divergence handling, layer removal, strict AD pass,
and the saturation break rule."""

import numpy as np
import pytest

import adq.reproduce as reproduce_mod
from adq.cli import main
from adq.errors import TrainingDiverged
from adq.nn.data import synthetic_dataset
from adq.presets import build_toy_cnn
from adq.scheduler import (ScheduleConfig, run_schedule,
                           save_schedule_checkpoint)

from oracles import naive_conv2d


def _dataset(**kw):
    args = dict(num_classes=10, image_shape=(1, 8, 8), train_per_class=15,
                test_per_class=5, noise=0.4, seed=3)
    args.update(kw)
    return synthetic_dataset(**args)


def test_divergence_aborts_with_diagnostic_checkpoint(tmp_path):
    ds = _dataset()
    ds.x_train[0, 0, 0, 0] = np.nan  # poisoned input -> non-finite loss
    arch = build_toy_cnn(widths=(4, 4, 6, 6))
    cfg = ScheduleConfig(max_iters=1, epoch_budget=2, saturation_window=2,
                         saturation_epsilon=0.01)
    with pytest.raises(TrainingDiverged) as err:
        run_schedule(arch, ds, cfg, seed=0)
    run = err.value.run
    assert run is not None and run.state.epoch == 0
    from adq.nn.checkpoint import load_checkpoint
    path = str(tmp_path / "diverged.ckpt")
    save_schedule_checkpoint(path, run)
    arch2, _, header = load_checkpoint(path)
    assert header["bits"]
    assert arch2.to_dict() == arch.to_dict()


def test_schedule_checkpoints_share_one_layout(tmp_path):
    """The diverged, per-iteration and final checkpoints key bits and
    channels by layer id, as strings; only the final one holds the
    quantizer's ranges."""
    import json
    from adq.nn.checkpoint import load_checkpoint
    cfg = {
        "seed": 1,
        "arch": {"kind": "toy_cnn", "widths": [4, 4, 6, 6],
                 "image_shape": [1, 8, 8], "num_classes": 10},
        "dataset": {"kind": "synthetic", "num_classes": 10,
                    "image_shape": [1, 8, 8], "train_per_class": 6,
                    "test_per_class": 3},
        "schedule": {"max_iters": 2, "epoch_budget": 2,
                     "saturation_window": 2, "pruning_enabled": True,
                     "final_convergence_epochs": 1},
        "energy_model": "none"}
    p = tmp_path / "cfg.json"

    diverged = tmp_path / "diverged"
    # the first step's weights overflow the second batch's loss, in epoch 1,
    # which the checkpoint has not finished
    p.write_text(json.dumps({
        **cfg, "output_dir": str(diverged), "optimizer": {"lr": 1e300},
        "schedule": {**cfg["schedule"], "batch_size": 16}}))
    assert main(["train", "-c", str(p)]) == 3
    assert [f.name for f in diverged.glob("diverged_epoch*.ckpt")] == [
        "diverged_epoch1.ckpt"]
    arch, _, header = load_checkpoint(str(diverged / "diverged_epoch1.ckpt"))
    assert header["epoch"] == 0
    assert header["bits"] == {str(i): 16 for i in arch.weighted_ids()}
    assert header["channels"] == {str(i): arch.layer(i).out_channels
                                  for i in arch.conv_ids()}
    assert header["quant_state"] is None

    run = tmp_path / "run"
    p.write_text(json.dumps({**cfg, "output_dir": str(run)}))
    assert main(["train", "-c", str(p)]) == 0
    log = json.loads((run / "schedule_log.json").read_text())
    for rec in log["iterations"]:
        _, _, header = load_checkpoint(
            str(run / f"checkpoint_iter{rec['iter']}.ckpt"))
        assert header["bits"] == rec["bits"]
        assert header["channels"] == rec["channels"]
        assert header["quant_state"] is None
    arch, _, header = load_checkpoint(str(run / "checkpoint_final.ckpt"))
    assert set(header["bits"]) == {str(i) for i in arch.weighted_ids()}
    assert header["channels"] == {str(i): arch.layer(i).out_channels
                                  for i in arch.conv_ids()}
    assert header["quant_state"]


def test_divergence_cli_exit_code(tmp_path):
    import json
    import numpy as np
    data_dir = tmp_path / "data"
    for label in range(2):
        d = data_dir / str(label)
        d.mkdir(parents=True)
        for i in range(4):
            arr = np.random.default_rng(label * 10 + i).normal(size=(1, 8, 8))
            if label == 0 and i == 0:
                arr[0, 0, 0] = np.inf
            np.save(d / f"x{i}.npy", arr)
    cfg = {
        "seed": 0, "output_dir": str(tmp_path / "run"),
        "arch": {"kind": "toy_cnn", "widths": [2, 2, 2, 2],
                 "num_classes": 2, "image_shape": [1, 8, 8]},
        "dataset": {"kind": "directory", "path": str(data_dir),
                    "test_fraction": 0.25},
        "schedule": {"max_iters": 1, "epoch_budget": 2,
                     "saturation_window": 2},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "-c", str(p)]) == 3
    assert [f.name for f in (tmp_path / "run").glob("diverged_*")] == [
        "diverged_epoch1.ckpt"]


def test_remove_layers_directive():
    arch = build_toy_cnn(widths=(4, 4, 8, 8))
    # drop the fourth conv (8 -> 8) and its relu; shapes stay consistent
    conv_ids = [l.id for l in arch.layers if l.kind == "conv2d"]
    doomed_conv = conv_ids[3]
    relu_after = arch.layers[arch.position(doomed_conv) + 1].id
    cfg = ScheduleConfig(max_iters=1, epoch_budget=2, saturation_window=2,
                         remove_layers=(doomed_conv, relu_after))
    res = run_schedule(arch, _dataset(), cfg, seed=0)
    assert doomed_conv not in res.assignment
    assert doomed_conv not in {l.id for l in res.arch.layers}


def test_strict_ad_pass_records_full_train_set():
    arch = build_toy_cnn(widths=(4, 4, 6, 6))
    ds = _dataset()
    cfg = ScheduleConfig(max_iters=1, epoch_budget=2, saturation_window=2,
                         strict_ad_pass=True)
    res = run_schedule(arch, ds, cfg, seed=0)
    n_train = len(ds.y_train)
    relu_sizes = {  # per-sample activation counts at each conv's observation
        0: 4 * 8 * 8, 2: 4 * 8 * 8, 5: 6 * 4 * 4, 7: 6 * 4 * 4}
    for lid, per_sample in relu_sizes.items():
        rec = res.ad_history.records[(lid, 1)]
        assert rec.total == n_train * per_sample


def test_running_and_strict_ad_see_same_data_volume():
    arch = build_toy_cnn(widths=(4, 4, 6, 6))
    ds = _dataset()
    base = ScheduleConfig(max_iters=1, epoch_budget=2, saturation_window=2)
    strict = ScheduleConfig(max_iters=1, epoch_budget=2, saturation_window=2,
                            strict_ad_pass=True)
    r1 = run_schedule(arch, ds, base, seed=0)
    r2 = run_schedule(arch, ds, strict, seed=0)
    for key, rec in r1.ad_history.records.items():
        assert r2.ad_history.records[key].total == rec.total


def test_early_saturation_break_obeys_window_rule():
    arch = build_toy_cnn(widths=(4, 4, 6, 6))
    cfg = ScheduleConfig(max_iters=1, epoch_budget=10, saturation_window=2,
                         saturation_epsilon=1e9)  # saturates immediately
    res = run_schedule(arch, _dataset(), cfg, seed=1)
    row = res.log.iterations[0]
    assert row.epochs == 2  # broke as soon as the window filled
    epochs = list(range(1, row.epochs + 1))
    for lid in res.ad_history.layers():
        tail = [res.ad_history.layer_ad(lid, e) for e in epochs[-2:]]
        assert (max(tail) - min(tail)) < 1e9


def test_reproduce_tolerance_failure_exit_code(monkeypatch, capsys):
    rigged = [(row, base, bits, 1e-9, pub_base, red)  # absurd published uJ
              for row, base, bits, _uj, pub_base, red in reproduce_mod.TABLE4]
    monkeypatch.setattr(reproduce_mod, "TABLE4", rigged)
    assert main(["reproduce", "--table", "4"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_conv_oracle_at_full_spec_size():
    # forward equivalence holds at the largest contracted size (2, 8, 16, 16)
    from adq.nn.layers import conv2d_forward
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 8, 16, 16))
    w = rng.normal(size=(4, 8, 3, 3))
    b = rng.normal(size=4)
    out, _ = conv2d_forward(x, w, b, 1, 1)
    assert np.abs(out - naive_conv2d(x, w, b, 1, 1)).max() <= 1e-10
