"""Command-line front end.

    adq train -c config.json
    adq energy --preset NAME --model {analytical|pim} [--out DIR]
    adq energy --checkpoint FILE --model {analytical|pim} [--out DIR]
    adq reproduce --table {1|2|4|5}
    adq plotdata --run DIR

Exit codes: 0 success, 1 usage/config error, 2 reproduction-tolerance
failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from adq import energy as energy_mod
from adq.admon import ADHistory
from adq.config import ExperimentConfig
from adq.errors import AdqError, ConfigurationError, InputError, TrainingDiverged
from adq.nn.checkpoint import load_checkpoint, save_checkpoint
from adq.presets import get_preset, preset_names
from adq.reproduce import compute_table
from adq.scheduler import run_schedule

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adq",
        description="Activation-density driven quantization, pruning, and "
                    "energy estimation")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the compression schedule")
    p.add_argument("-c", "--config", required=True, help="experiment JSON")

    p = sub.add_parser("energy", help="cost a preset or checkpoint")
    p.add_argument("--preset", help="preset name (see --list)")
    p.add_argument("--checkpoint", help="checkpoint file to cost")
    p.add_argument("--model", choices=("analytical", "pim"),
                   default="analytical")
    p.add_argument("--out", help="directory for report files")
    p.add_argument("--list", action="store_true", help="list presets")

    p = sub.add_parser("reproduce", help="recompute a published table")
    p.add_argument("--table", required=True, choices=("1", "2", "4", "5"))

    p = sub.add_parser("plotdata", help="emit plot-ready CSVs from a run")
    p.add_argument("--run", required=True, help="training output directory")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "energy":
            return cmd_energy(args)
        if args.command == "reproduce":
            return cmd_reproduce(args)
        if args.command == "plotdata":
            return cmd_plotdata(args)
    except (ConfigurationError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(f"diagnostic checkpoint: {exc.checkpoint_path}",
                  file=sys.stderr)
        return EXIT_RUNTIME
    except AdqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_USAGE


# ---------------------------------------------------------------------- train

def cmd_train(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    arch = cfg.resolve_arch()
    dataset = cfg.resolve_dataset()
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)

    energy_rows = []

    def on_iteration(it, it_arch, it_state, assignment, prune_state, history,
                     record):
        save_checkpoint(
            os.path.join(outdir, f"checkpoint_iter{it}.ckpt"),
            it_arch, it_state, bits=_strkey(assignment.k),
            channels=None if prune_state is None
            else _strkey(prune_state.channels),
            ad_history=history.to_rows())
        for model in _models(cfg.energy_model):
            rep = _energy_report(model, it_arch, assignment, prune_state)
            rep.to_json(os.path.join(outdir, f"energy_iter{it}_{model}.json"))
            rep.to_csv(os.path.join(outdir, f"energy_iter{it}_{model}.csv"))
            energy_rows.append((it, model, rep.efficiency))

    result = run_schedule(arch, dataset, cfg.schedule, seed=cfg.seed,
                          optim=cfg.optimizer, diagnostics_dir=outdir,
                          iteration_callback=on_iteration)

    result.ad_history.to_csv(os.path.join(outdir, "ad_history.csv"))
    log = result.log.to_dict()
    log["energy_efficiency"] = [
        {"iter": it, "model": m, "ratio": r} for it, m, r in energy_rows]
    with open(os.path.join(outdir, "schedule_log.json"), "w") as f:
        json.dump(log, f, indent=2, sort_keys=True)
    _write_log_csv(os.path.join(outdir, "schedule_log.csv"), result)
    save_checkpoint(
        os.path.join(outdir, "checkpoint_final.ckpt"), result.arch,
        result.state, bits=_strkey(result.assignment.k),
        channels=None if result.prune_state is None
        else _strkey(result.prune_state.channels),
        ad_history=result.ad_history.to_rows(),
        quant_state=result.quantizer.state_dict())
    print(f"completed {len(result.log.iterations)} iteration(s); "
          f"final test accuracy {result.log.final_accuracy:.4f}")
    print(f"artifacts in {outdir}")
    return EXIT_OK


def _strkey(d):
    return {str(k): v for k, v in d.items()}


def _models(selection):
    if selection == "both":
        return ("analytical", "pim")
    if selection == "none":
        return ()
    return (selection,)


def _energy_report(model, arch, assignment, prune_state):
    if model == "pim":
        return energy_mod.pim_network_energy(arch, assignment, prune_state)
    return energy_mod.analytical_network_energy(arch, assignment, prune_state)


def _write_log_csv(path, result):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iter", "bits", "channels", "test_accuracy", "total_ad",
                    "epochs"])
        for rec in result.log.iterations:
            bits = "|".join(str(rec.bits[k]) for k in sorted(rec.bits))
            chans = "" if rec.channels is None else "|".join(
                str(rec.channels[k]) for k in sorted(rec.channels))
            w.writerow([rec.iter, bits, chans, f"{rec.test_accuracy:.6f}",
                        f"{rec.network_ad:.6f}", rec.epochs])


# --------------------------------------------------------------------- energy

def cmd_energy(args) -> int:
    if args.list:
        for name in preset_names():
            print(name)
        return EXIT_OK
    if bool(args.preset) == bool(args.checkpoint):
        print("error: provide exactly one of --preset / --checkpoint",
              file=sys.stderr)
        return EXIT_USAGE

    if args.preset:
        preset = get_preset(args.preset)
        arch = preset.build_arch()
        bits = preset.bit_assignment(arch)
        channels = preset.channel_assignment(arch)
        baseline_bits = preset.baseline_bits
        label = preset.name
    else:
        arch, _state, header = load_checkpoint(args.checkpoint)
        if not header.get("bits"):
            raise InputError("checkpoint carries no bit-width assignment")
        bits = {int(k): v for k, v in header["bits"].items()}
        channels = None
        if header.get("channels"):
            channels = {int(k): v for k, v in header["channels"].items()}
        baseline_bits = 16
        label = os.path.basename(args.checkpoint)

    if args.model == "pim":
        rep = energy_mod.pim_network_energy(arch, bits, channels)
    else:
        rep = energy_mod.analytical_network_energy(
            arch, bits, channels, baseline_bits=baseline_bits)

    print(f"{label} [{args.model}]")
    print(f"  total energy:    {rep.total_uj:.6g} uJ")
    print(f"  baseline energy: {rep.baseline_total_pj / 1e6:.6g} uJ "
          f"(uniform {rep.baseline_bits}-bit)")
    print(f"  efficiency:      {rep.efficiency:.4g}x")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = os.path.join(args.out, f"energy_{label}_{args.model}")
        rep.to_json(base + ".json")
        rep.to_csv(base + ".csv")
        print(f"  report files:    {base}.json / .csv")
    return EXIT_OK


# ------------------------------------------------------------------ reproduce

def cmd_reproduce(args) -> int:
    cells = compute_table(args.table)
    width = max(len(c.row) for c in cells)
    failed = False
    print(f"table {args.table}: computed vs published")
    for c in cells:
        dev = f"{100 * c.rel_dev:+.2f}%" if c.rel_dev is not None else "n/a"
        if c.tolerance is None:
            status = "info"
        elif c.within:
            status = "ok"
        else:
            status = "FAIL"
            failed = True
        tol = "--" if c.tolerance is None else f"{100 * c.tolerance:.0f}%"
        print(f"  {c.row:<{width}}  {c.metric:<20} "
              f"computed={c.computed:<12.6g} published={c.published:<10g} "
              f"dev={dev:<9} tol={tol:<4} [{status}]")
    if failed:
        print("one or more cells exceeded their tolerance", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# ------------------------------------------------------------------- plotdata

def cmd_plotdata(args) -> int:
    run = args.run
    ad_csv = os.path.join(run, "ad_history.csv")
    log_json = os.path.join(run, "schedule_log.json")
    if not (os.path.isfile(ad_csv) and os.path.isfile(log_json)):
        raise InputError(
            f"{run!r} does not contain run artifacts "
            "(ad_history.csv, schedule_log.json)")
    hist = ADHistory.from_csv(ad_csv)
    with open(log_json) as f:
        log = json.load(f)

    out_ad = os.path.join(run, "ad_vs_epoch.csv")
    with open(out_ad, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer_id", "epoch", "ad"])
        for row in hist.to_rows():
            w.writerow([row["layer_id"], row["epoch"], f"{row['ad']:.10g}"])

    out_acc = os.path.join(run, "accuracy_vs_epoch.csv")
    with open(out_acc, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "test_accuracy"])
        for epoch, acc in log["epoch_accuracy"]:
            w.writerow([epoch, f"{acc:.6f}"])
    print(out_ad)
    print(out_acc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
