"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 9 exercises the full in-training schedule at desk scale with a
documented seed set {0, 1, 4}; the density-monotonicity claim is an
empirical trend, not a theorem, so the seeds are pinned.
"""

import math
import time

import numpy as np
import pytest

from adq.admon import ADHistory
from adq.energy import (pim_network_energy, training_complexity)
from adq.nn.data import synthetic_dataset
from adq.nn.engine import OptimConfig
from adq.presets import BASELINE_EPOCH_TOTALS, build_toy_cnn, get_preset
from adq.quant import QuantParams, fake_quant, quantize
from adq.reproduce import compute_table
from adq.scheduler import ScheduleConfig, run_schedule, update_bitwidths

from oracles import central_difference


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, detail


def test_criterion_1_pim_baselines():
    t0 = time.perf_counter()
    vgg = get_preset("vgg19-cifar10-baseline")
    arch = vgg.build_arch()
    vgg_uj = pim_network_energy(arch, vgg.bit_assignment(arch)).total_uj
    res = get_preset("resnet18-cifar100-baseline")
    arch = res.build_arch()
    res_uj = pim_network_energy(arch, res.bit_assignment(arch)).total_uj
    dt = time.perf_counter() - t0
    ok = (abs(vgg_uj / 110.154 - 1) <= 0.05
          and abs(res_uj / 159.501 - 1) <= 0.10 and dt < 1.0)
    _report(1, ok,
            f"VGG19 {vgg_uj:.3f} uJ (110.154 ±5%), "
            f"ResNet18 {res_uj:.3f} uJ (159.501 ±10%), runtime {dt:.3f}s")


def test_criterion_2_pim_mixed_precision():
    cells = {(c.row, c.metric): c for c in compute_table("4")}
    vgg_e = cells[("VGG19 on CIFAR-10", "mixed_energy_uJ")]
    vgg_r = cells[("VGG19 on CIFAR-10", "energy_reduction")]
    res_r = cells[("ResNet18 on CIFAR-100", "energy_reduction")]
    ok = all(c.within for c in (vgg_e, vgg_r, res_r))
    _report(2, ok,
            f"VGG19 {vgg_e.computed:.3f} uJ (21.506 ±10%), "
            f"{vgg_r.computed:.2f}x (5.12 ±10%); "
            f"ResNet18 {res_r.computed:.2f}x (4.81 ±10%)")


def test_criterion_3_pim_quantized_and_pruned():
    cells = {(c.row, c.metric): c for c in compute_table("5")}
    vgg = cells[("VGG19 on CIFAR-10", "energy_reduction")]
    res = cells[("ResNet18 on CIFAR-100", "energy_reduction")]
    ok = vgg.within and res.within
    _report(3, ok,
            f"VGG19 {vgg.computed:.2f}x (197.55 ±15%), "
            f"ResNet18 {res.computed:.2f}x (43.941 ±15%)")


def test_criterion_4_analytical_efficiencies():
    targets = {
        "vgg19-cifar10 iter 2": 4.16,
        "vgg19-cifar10 iter 2a": 4.19,
        "resnet18-cifar100 iter 2": 2.76,
        "resnet18-cifar100 iter 3": 3.19,
        "resnet18-tinyimagenet iter 2": 2.73,
        "resnet18-tinyimagenet iter 3": 4.14,
        "resnet18-tinyimagenet iter 4": 4.50,
    }
    cells = {c.row: c for c in compute_table("1")
             if c.metric == "energy_efficiency" and c.row in targets}
    assert set(cells) == set(targets)
    ok = all(abs(c.computed / targets[row] - 1) <= 0.15
             for row, c in cells.items())
    detail = ", ".join(f"{row}: {c.computed:.2f}x ({targets[row]})"
                       for row, c in sorted(cells.items()))
    _report(4, ok, detail + " — all ±15%")


def test_criterion_5_training_complexity():
    cells = {c.row: c for c in compute_table("1")
             if c.metric == "train_complexity"}
    vgg = cells["vgg19-cifar10 iter 2"]
    ok = abs(vgg.computed / 0.524 - 1) <= 0.20
    # structural property: any reduction > 1 beats the raw epoch ratio
    rng = np.random.default_rng(0)
    for _ in range(100):
        iters = [(1.0, int(rng.integers(1, 100)))]
        iters += [(float(rng.uniform(1.0 + 1e-9, 50)),
                   int(rng.integers(1, 100))) for _ in range(int(rng.integers(1, 4)))]
        base = float(rng.uniform(50, 400))
        if not training_complexity(iters, base) < sum(e for _, e in iters) / base:
            ok = False
            break
    _report(5, ok,
            f"VGG19 iter-2 complexity {vgg.computed:.3f} (0.524 ±20%, "
            f"baseline {BASELINE_EPOCH_TOTALS['vgg19-cifar10']} epochs); "
            "reduction property held on 100 random instances")


def test_criterion_6_bit_update_oracle():
    violations = 0
    for k in range(1, 17):
        for step in range(0, 101):
            ad = step / 100.0
            got = update_bitwidths({0: k}, {0: ad}, frozenset())[0]
            want = max(1, min(k, math.floor(k * ad + 0.5)))
            violations += got != want
    worked = update_bitwidths({0: 16, 1: 10, 2: 8}, {0: 0.9, 1: 0.3, 2: 0.5},
                              frozenset())
    example_ok = [worked[i] for i in range(3)] == [14, 3, 4]
    _report(6, violations == 0 and example_ok,
            f"grid 16x101 exact ({violations} violations); "
            f"{{16,10,8}} x {{0.9,0.3,0.5}} -> "
            f"{[worked[i] for i in range(3)]}")


def test_criterion_7_quantizer_suite():
    rng = np.random.default_rng(42)
    violations = {"monotone": 0, "idempotent": 0, "levels": 0, "roundtrip": 0}
    for k in (1, 2, 4, 8, 16):
        x = rng.normal(0.0, 2.0, 10_000)
        qp = QuantParams(k, float(x.min()), float(x.max()))
        xs = np.sort(x)
        if np.any(np.diff(quantize(xs, qp)) < 0):
            violations["monotone"] += 1
        fq = fake_quant(x, qp)
        if not np.array_equal(fake_quant(fq, qp), fq):
            violations["idempotent"] += 1
        if len(np.unique(fq)) > 2 ** k:
            violations["levels"] += 1
        bound = (qp.x_max - qp.x_min) / (2 * (2 ** k - 1))
        if np.abs(x - fq).max() > bound * (1 + 1e-12):
            violations["roundtrip"] += 1
    ok = not any(violations.values())
    _report(7, ok, f"10^4 values per k in {{1,2,4,8,16}}: "
                   f"violations {violations}")


def test_criterion_8_gradient_checks():
    from adq.nn.arch import LayerSpec, NetworkArch
    from adq.nn.engine import backward, forward, init_state, loss_softmax_xent

    t0 = time.perf_counter()
    nets = {
        "conv2d": [
            dict(kind="conv2d", in_channels=2, out_channels=3, kernel=3,
                 stride=2, padding=1),
            dict(kind="flatten"),
            dict(kind="linear", in_channels=3 * 9, out_channels=3)],
        "relu+linear": [
            dict(kind="flatten"),
            dict(kind="linear", in_channels=2 * 25, out_channels=6),
            dict(kind="relu"),
            dict(kind="linear", in_channels=6, out_channels=3)],
        "maxpool": [
            dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3,
                 padding=1),
            dict(kind="maxpool", kernel=2, stride=2),
            dict(kind="flatten"),
            dict(kind="linear", in_channels=2 * 4, out_channels=3)],
        "avgpool": [
            dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3,
                 padding=1),
            dict(kind="avgpool", kernel=0),
            dict(kind="flatten"),
            dict(kind="linear", in_channels=2, out_channels=3)],
        "batchnorm": [
            dict(kind="conv2d", in_channels=2, out_channels=3, kernel=3,
                 padding=1),
            dict(kind="batchnorm"),
            dict(kind="relu"),
            dict(kind="flatten"),
            dict(kind="linear", in_channels=3 * 25, out_channels=3)],
        "residual-add": [
            dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3,
                 padding=1),
            dict(kind="relu"),
            dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3,
                 padding=1),
            dict(kind="residual-add", skip_source=1),
            dict(kind="relu"),
            dict(kind="avgpool", kernel=0),
            dict(kind="flatten"),
            dict(kind="linear", in_channels=2, out_channels=3)],
    }
    worst = 0.0
    for idx, (name, specs) in enumerate(nets.items()):
        arch = NetworkArch(
            [LayerSpec(id=i, **kw) for i, kw in enumerate(specs)],
            (2, 5, 5) if "maxpool" not in name else (2, 4, 4), 3)
        rng = np.random.default_rng(1000 + idx)
        state = init_state(arch, 0)
        x = rng.normal(size=(3,) + tuple(arch.input_shape))
        y = rng.integers(0, 3, 3)

        def loss_fn():
            lg, _ = forward(arch, state, x)
            return loss_softmax_xent(lg, y)[0]

        logits, cache = forward(arch, state, x)
        _, lgrad = loss_softmax_xent(logits, y)
        grads, _ = backward(arch, state, cache, lgrad)
        for lid, pg in grads.items():
            for pname, g in pg.items():
                want = central_difference(loss_fn, state.weights[lid][pname])
                scale = max(np.abs(g).max(), np.abs(want).max())
                # atol floor covers mathematically-zero gradients (e.g. conv
                # bias under batchnorm), where relative error is undefined
                assert np.abs(g - want).max() <= 1e-7 + 1e-4 * scale, \
                    (name, lid, pname)
                if scale > 1e-6:
                    worst = max(worst, np.abs(g - want).max() / scale)
    dt = time.perf_counter() - t0
    _report(8, worst < 1e-4 and dt < 30.0,
            f"all layer kinds, worst relative error {worst:.2e} "
            f"(< 1e-4), runtime {dt:.1f}s (< 30s)")


SCHEDULE_SEEDS = (0, 1, 4)  # documented seed set for the soft AD trend


def _toy_schedule(seed):
    arch = build_toy_cnn(widths=(8, 8, 16, 16))
    ds = synthetic_dataset(num_classes=10, image_shape=(1, 8, 8),
                           train_per_class=50, test_per_class=30,
                           noise=0.35, seed=100 + seed)
    cfg = ScheduleConfig(max_iters=4, epoch_budget=6, saturation_window=3,
                         saturation_epsilon=0.02, final_convergence_epochs=8)
    optim = OptimConfig(lr=2e-3)
    res = run_schedule(arch, ds, cfg, seed=seed, optim=optim)
    budget = sum(r.epochs for r in res.log.iterations) + cfg.final_convergence_epochs
    base_cfg = ScheduleConfig(max_iters=1, epoch_budget=budget,
                              saturation_window=3, saturation_epsilon=0.0,
                              final_convergence_epochs=0)
    base = run_schedule(arch, ds, base_cfg, seed=seed, optim=optim)
    return res, base


def test_criterion_9_desk_scale_schedule():
    t0 = time.perf_counter()
    gaps, ad_ok, bits_ok, iters_ok = [], True, True, True
    for seed in SCHEDULE_SEEDS:
        res, base = _toy_schedule(seed)
        rows = res.log.iterations
        iters_ok &= 1 <= len(rows) <= 4
        for prev, cur in zip(rows, rows[1:]):
            bits_ok &= all(cur.bits[l] <= prev.bits[l] for l in prev.bits)
            ad_ok &= cur.network_ad >= prev.network_ad - 1e-12
        gaps.append(base.log.final_accuracy - res.log.final_accuracy)
    mean_gap_pp = 100 * float(np.mean(gaps))
    dt = time.perf_counter() - t0
    ok = iters_ok and bits_ok and ad_ok and mean_gap_pp <= 3.0 and dt < 600
    _report(9, ok,
            f"seeds {SCHEDULE_SEEDS}: <=4 iterations, bits non-increasing, "
            f"network AD non-decreasing, mean accuracy gap "
            f"{mean_gap_pp:.2f}pp (<= 3pp), runtime {dt:.0f}s (< 600s)")


def test_criterion_10_ad_metric():
    h = ADHistory()
    acts = np.zeros(512)
    acts[:100] = 1.0
    h.record(0, 1, acts)
    exact = h.layer_ad(0, 1) == 100 / 512
    rng = np.random.default_rng(7)
    pooled_ok = True
    for _ in range(20):
        hist = ADHistory()
        nz, tot = 0, 0
        for lid in range(int(rng.integers(2, 6))):
            for _b in range(int(rng.integers(1, 4))):
                x = np.maximum(rng.normal(size=int(rng.integers(10, 400))), 0)
                hist.record(lid, 1, x)
                nz += int((x > 0).sum())
                tot += x.size
        pooled_ok &= hist.network_ad(1) == nz / tot
    _report(10, exact and pooled_ok,
            f"100/512 = {100 / 512:.6f} exact; pooled network AD matched the "
            "pooled-count oracle on 20 random traces")
