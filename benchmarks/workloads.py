"""The benchmark's workloads.

Each workload builds its inputs from the run seed in ``setup`` (timed for
`setup_s`), one list entry per job key; ``job`` does the user-visible work
on one key's inputs (timed for `run_s`) and ``finish`` checks its outputs
(untimed). Every call into `adq` goes
through a module attribute of the namespace ``m`` returned by
``run.import_adq``, so the tracer's patches are seen.

Jobs cycle over the keys. The training workloads have two keys, schedule
seeds derived from the run seed, so one run averages out part of the
seed-to-seed spread in epoch counts; repeating a key is a rerun that must
reproduce the first job of that key bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import shutil

KEYS_PER_RUN = 2


@dataclasses.dataclass
class Outcome:
    """What `finish` learned from one job."""
    work: int                 # samples through optimizer steps, or reports
    accuracy: float           # see README: final_accuracy
    efficiency: float | None  # analytical efficiency of the final assignment
    digest: str               # must repeat when the key repeats
    operations: int = 1
    failures: list = dataclasses.field(default_factory=list)
    notes: dict = dataclasses.field(default_factory=dict)


def _weights_digest(state) -> str:
    h = hashlib.sha256()
    for lid in sorted(state.weights):
        for name in sorted(state.weights[lid]):
            h.update(f"{lid}/{name}".encode())
            h.update(state.weights[lid][name].tobytes())
    return h.hexdigest()


def _printed_totals(text) -> list:
    """The values of `adq energy`'s "total energy:" lines."""
    return [ln.split(":", 1)[1].split()[0] for ln in text.splitlines()
            if ln.strip().startswith("total energy:")]


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)


# ------------------------------------------------------------------ toy-quant

class ToyQuant:
    """Acceptance criterion 9's desk-scale job: the quantization-only
    schedule on the toy CNN, then the unquantized baseline on the same epoch
    budget."""

    name = "toy-quant"

    def __init__(self, seed: int, tmp: str):
        self.seed, self.tmp = seed, tmp

    def config(self, key: int) -> dict:
        s = self.seed * KEYS_PER_RUN + key
        return {
            "seed": s,
            "output_dir": os.path.join(self.tmp, "toy-unused"),
            "arch": {"kind": "toy_cnn", "widths": [8, 8, 16, 16],
                     "image_shape": [1, 8, 8], "num_classes": 10},
            "dataset": {"kind": "synthetic", "num_classes": 10,
                        "image_shape": [1, 8, 8], "train_per_class": 50,
                        "test_per_class": 30, "noise": 0.35, "seed": 100 + s},
            "schedule": {"initial_bits": 16, "max_iters": 4,
                         "epoch_budget": 6, "saturation_epsilon": 0.02,
                         "saturation_window": 3, "pruning_enabled": False,
                         "final_convergence_epochs": 8},
            "optimizer": {"lr": 0.002},
            "energy_model": "analytical",
        }

    def setup(self, m) -> list:
        inputs = []
        for key in range(KEYS_PER_RUN):
            path = os.path.join(self.tmp, f"toy-{key}.json")
            _write_json(path, self.config(key))
            cfg = m.config.ExperimentConfig.from_json(path)
            inputs.append((cfg, cfg.resolve_arch(), cfg.resolve_dataset()))
        return inputs

    def job(self, m, inputs):
        cfg, arch, ds = inputs
        res = m.scheduler.run_schedule(arch, ds, cfg.schedule, seed=cfg.seed,
                                       optim=cfg.optimizer)
        budget = (sum(r.epochs for r in res.log.iterations)
                  + cfg.schedule.final_convergence_epochs)
        base_cfg = dataclasses.replace(
            cfg.schedule, max_iters=1, epoch_budget=budget,
            saturation_epsilon=0.0, final_convergence_epochs=0)
        base = m.scheduler.run_schedule(arch, ds, base_cfg, seed=cfg.seed,
                                        optim=cfg.optimizer)
        return res, base

    def finish(self, m, inputs, result) -> Outcome:
        cfg, _arch, ds = inputs
        res, base = result
        rows = res.log.iterations
        epochs = (sum(r.epochs for r in rows) + res.log.final_epochs
                  + sum(r.epochs for r in base.log.iterations))
        out = Outcome(
            work=epochs * len(ds.y_train),
            accuracy=res.log.final_accuracy,
            efficiency=m.energy.analytical_network_energy(
                res.arch, res.assignment).efficiency,
            digest=_weights_digest(res.state))
        if not 1 <= len(rows) <= cfg.schedule.max_iters:
            out.failures.append(f"{len(rows)} iterations")
        for prev, cur in zip(rows, rows[1:]):
            if any(cur.bits[l] > prev.bits[l] for l in prev.bits):
                out.failures.append(f"bits rose in iteration {cur.iter}")
        # Criterion 9 asserts this trend on its pinned seeds only; on other
        # seeds the last iteration often lowers it, so it is recorded, not
        # counted as a failure.
        out.notes["ad_decreases"] = sum(
            cur.network_ad < prev.network_ad - 1e-12
            for prev, cur in zip(rows, rows[1:]))
        if not 0.0 <= res.log.final_accuracy <= 1.0:
            out.failures.append("final accuracy outside [0, 1]")
        return out


# --------------------------------------------------------------- resnet-prune

class ResnetPrune:
    """`adq train` with joint quantization and channel pruning on a residual
    CNN, then `adq energy --checkpoint` on the final checkpoint."""

    name = "resnet-prune"
    widths = ((8, 1), (16, 2), (32, 2))  # (channels, stride) per block

    def __init__(self, seed: int, tmp: str):
        self.seed, self.tmp = seed, tmp

    def arch_record(self) -> dict:
        layers = []

        def add(kind, **kw):
            layers.append({"id": len(layers), "kind": kind, **kw})
            return len(layers) - 1

        add("conv2d", in_channels=3, out_channels=8, kernel=3, stride=1,
            padding=1)
        add("batchnorm")
        prev, cin = add("relu"), 8
        for cout, stride in self.widths:
            add("conv2d", in_channels=cin, out_channels=cout, kernel=1,
                stride=stride, padding=0, skip_source=prev)
            skip = add("batchnorm")
            add("conv2d", in_channels=cin, out_channels=cout, kernel=3,
                stride=stride, padding=1, skip_source=prev)
            add("batchnorm")
            add("relu")
            add("conv2d", in_channels=cout, out_channels=cout, kernel=3,
                stride=1, padding=1)
            add("batchnorm")
            add("residual-add", skip_source=skip)
            prev, cin = add("relu"), cout
        add("avgpool", kernel=0)
        add("flatten")
        add("linear", in_channels=cin, out_channels=10)
        return {"input_shape": [3, 16, 16], "num_classes": 10,
                "layers": layers}

    def setup(self, m) -> list:
        arch_path = os.path.join(self.tmp, "resnet-arch.json")
        _write_json(arch_path, self.arch_record())
        arch = m.nn.arch.NetworkArch.load(arch_path)
        return [self._config(m, key, arch_path, arch)
                for key in range(KEYS_PER_RUN)]

    def _config(self, m, key, arch_path, arch):
        outdir = os.path.join(self.tmp, f"resnet-run-{key}")
        cfg_path = os.path.join(self.tmp, f"resnet-{key}.json")
        _write_json(cfg_path, {
            "seed": self.seed * KEYS_PER_RUN + key,
            "output_dir": outdir,
            "arch": arch_path,
            "dataset": {"kind": "synthetic", "num_classes": 10,
                        "image_shape": [3, 16, 16], "train_per_class": 30,
                        "test_per_class": 20, "noise": 0.35},
            # epsilon 0: every iteration trains its whole budget, so every
            # seed does the same work; two iterations keep the final
            # assignment at 4 bits, where the model still trains to 100 %
            "schedule": {"initial_bits": 16, "max_iters": 2,
                         "epoch_budget": 3, "saturation_epsilon": 0.0,
                         "saturation_window": 2, "pruning_enabled": True,
                         "final_convergence_epochs": 5, "batch_size": 32},
            "optimizer": {"lr": 0.005},
            "energy_model": "both",
        })
        return cfg_path, m.config.ExperimentConfig.from_json(cfg_path), arch

    def job(self, m, inputs):
        cfg_path, cfg, _arch = inputs
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
        ckpt = os.path.join(cfg.output_dir, "checkpoint_final.ckpt")
        train_out, energy_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(train_out):
            rc_train = m.cli.main(["train", "-c", cfg_path])
        with contextlib.redirect_stdout(energy_out):
            rc_energy = m.cli.main(["energy", "--checkpoint", ckpt,
                                    "--model", "pim"])
        return rc_train, rc_energy, energy_out.getvalue()

    def finish(self, m, inputs, result) -> Outcome:
        _cfg_path, cfg, arch = inputs
        rc_train, rc_energy, energy_text = result
        run = cfg.output_dir
        failures = []
        if rc_train != 0 or rc_energy != 0:
            failures.append(f"exit codes train={rc_train} energy={rc_energy}")
            return Outcome(0, 0.0, None, "", failures=failures)
        with open(os.path.join(run, "schedule_log.json")) as f:
            log = json.load(f)
        iters = log["iterations"]
        expected = ["schedule_log.json", "schedule_log.csv", "ad_history.csv",
                    "checkpoint_final.ckpt"]
        for it in range(1, len(iters) + 1):
            expected.append(f"checkpoint_iter{it}.ckpt")
            expected += [f"energy_iter{it}_{model}.{ext}"
                         for model in ("analytical", "pim")
                         for ext in ("json", "csv")]
        missing = [a for a in expected
                   if not os.path.isfile(os.path.join(run, a))]
        if missing:
            failures.append(f"missing artifacts {missing}")

        ckpt = os.path.join(run, "checkpoint_final.ckpt")
        _a, _s, header = m.nn.checkpoint.load_checkpoint(ckpt)
        bits = {int(k): v for k, v in header["bits"].items()}
        channels = {int(k): v for k, v in header["channels"].items()}
        if len(_printed_totals(energy_text)) != 1:
            failures.append("energy --checkpoint printed no total")
        # The final checkpoint carries the assignment after the last update,
        # which no in-run report costs unless the schedule reached its fixed
        # point; the last iteration's checkpoint carries the configuration of
        # the last in-run report, so `adq energy` on it must print its total.
        last = len(iters)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            m.cli.main(["energy", "--checkpoint",
                        os.path.join(run, f"checkpoint_iter{last}.ckpt"),
                        "--model", "pim"])
        with open(os.path.join(run, f"energy_iter{last}_pim.json")) as f:
            in_run = json.load(f)["total_uj"]
        if _printed_totals(text.getvalue()) != [f"{in_run:.6g}"]:
            failures.append(f"energy --checkpoint on iteration {last} printed "
                            f"{_printed_totals(text.getvalue())}, in-run PIM "
                            f"report {in_run:.6g} uJ")
        with open(ckpt, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        epochs = sum(r["epochs"] for r in iters) + log["final_epochs"]
        n_train = (cfg.dataset_spec["train_per_class"]
                   * cfg.dataset_spec["num_classes"])
        # cost the pruned configuration against the unpruned architecture
        efficiency = m.energy.analytical_network_energy(
            arch, bits, channels).efficiency
        shutil.rmtree(run, ignore_errors=True)
        return Outcome(epochs * n_train, log["final_accuracy"], efficiency,
                       digest, failures=failures)


# --------------------------------------------------------------- energy-sweep

class EnergySweep:
    """`reproduce` for tables 1, 2, 4 and 5, plus PIM and analytical reports
    for seeded random (bits, channels) assignments on the preset
    architectures."""

    name = "energy-sweep"
    # (baseline preset, energy models, largest bit-width)
    families = (
        ("vgg19-cifar10-baseline", ("pim", "analytical"), 16),
        ("resnet18-cifar100-baseline", ("pim", "analytical"), 16),
        # 32-bit baseline: beyond the PIM array's precisions
        ("resnet18-tinyimagenet-baseline", ("analytical",), 32),
    )
    keys = 8           # batches of assignments
    per_job = 8        # assignments per family and batch
    tables = ("1", "2", "4", "5")

    def __init__(self, seed: int, tmp: str):
        self.seed = seed

    def setup(self, m) -> list:
        rng = random.Random(self.seed)
        fams = []
        for preset_name, models, max_bits in self.families:
            preset = m.presets.get_preset(preset_name)
            arch = preset.build_arch()
            main = m.scheduler.main_chain_weighted_ids(arch)
            convs = [arch.layer(i).out_channels for i in main
                     if arch.layer(i).kind == "conv2d"]
            items = []
            for n in range(self.keys * self.per_job):
                bits = [rng.randint(1, max_bits) for _ in main]
                chans = None
                if n % 2:
                    chans = [rng.randint(max(1, c // 8), c) for c in convs]
                items.append((bits, chans))
            fams.append((arch, models, preset.baseline_bits, items))
        return [(fams, key * self.per_job) for key in range(self.keys)]

    def job(self, m, inputs):
        fams, start = inputs
        reports = []
        for arch, models, baseline_bits, items in fams:
            for bits_list, chans_list in items[start:start + self.per_job]:
                bits = m.presets.assignment_map(arch, bits_list)
                chans = (None if chans_list is None
                         else m.presets.channel_map(arch, chans_list))
                for model in models:
                    if model == "pim":
                        rep = m.energy.pim_network_energy(arch, bits, chans)
                    else:
                        rep = m.energy.analytical_network_energy(
                            arch, bits, chans, baseline_bits=baseline_bits)
                    reports.append((rep, rep.to_json()))
        cells = [m.reproduce.compute_table(t) for t in self.tables]
        return reports, cells

    def finish(self, m, inputs, result) -> Outcome:
        reports, cells = result
        failures = []
        h = hashlib.sha256()
        for rep, text in reports:
            doc = json.loads(text)
            if doc["total_pj"] != rep.total_pj or not rep.total_pj > 0:
                failures.append(f"{rep.model} report total {rep.total_pj}")
            # every swept assignment is at or below the baseline's bits and
            # channels, so it can cost no more than the baseline
            if not rep.efficiency >= 1.0 - 1e-12:
                failures.append(f"{rep.model} efficiency {rep.efficiency} < 1")
            h.update(text.encode())
        gated = [c for table in cells for c in table if c.tolerance is not None]
        bad = [f"table {c.table} {c.row} {c.metric}" for c in gated
               if not c.within]
        failures += bad
        for table in cells:
            for c in table:
                h.update(f"{c.row}|{c.metric}|{c.computed!r}".encode())
        return Outcome(work=len(reports),
                       accuracy=(len(gated) - len(bad)) / len(gated),
                       efficiency=None, digest=h.hexdigest(),
                       operations=len(reports) + len(cells),
                       failures=failures)


WORKLOADS = {w.name: w for w in (ToyQuant, ResnetPrune, EnergySweep)}
