"""Command-line front end.

    adq train -c config.json
    adq energy --preset NAME --model {analytical|pim} [--out DIR]
    adq energy --checkpoint FILE --model {analytical|pim} [--out DIR]
    adq reproduce --table {1|2|4|5}
    adq plotdata --run DIR

Exit codes: 0 success, 1 usage/config/input error (a bad command line, a
corrupt input file or an output file that cannot be written included), 2
reproduction-tolerance failure, 3 runtime failure. Every artifact name lives
here; ``adq.artifacts.write_file`` writes each file whole or not at all.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from adq import energy as energy_mod
from adq.admon import ADHistory
from adq.artifacts import check_targets, csv_text, make_dir, write_file
from adq.config import ExperimentConfig
from adq.errors import AdqError, ConfigurationError, InputError, TrainingDiverged
from adq.nn.checkpoint import load_checkpoint
from adq.presets import get_preset, preset_names
from adq.reproduce import compute_table
from adq.scheduler import run_schedule, save_schedule_checkpoint

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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (0) or the usage and an error (2)
        return EXIT_OK if exc.code == EXIT_OK else EXIT_USAGE
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
    except AdqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_USAGE


# ---------------------------------------------------------------------- train

def cmd_train(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    arch = cfg.resolve_arch()
    dataset = cfg.resolve_dataset()
    models = _models(cfg.energy_model)
    out = functools.partial(os.path.join, cfg.output_dir)
    make_dir(cfg.output_dir)
    iters = range(1, cfg.schedule.max_iters + 1)
    # every name but a diverged checkpoint's, before the first epoch
    check_targets(map(out, (
        "schedule_log.json", "schedule_log.csv", "ad_history.csv",
        "checkpoint_final.ckpt",
        *(f"checkpoint_iter{it}.ckpt" for it in iters),
        *(f"energy_iter{it}_{model}.{ext}" for it in iters
          for model in models for ext in ("json", "csv")))))

    energy_rows = []

    def on_iteration(run, record):
        it = record.iter
        save_schedule_checkpoint(out(f"checkpoint_iter{it}.ckpt"), run)
        for model in models:  # against uniform 16-bit on the unpruned
            # network; its rebuilds keep its layer ids
            rep = _energy_report(model, run.unpruned, run.assignment,
                                 run.channels, 16)
            _write_report(rep, out(f"energy_iter{it}_{model}"))
            energy_rows.append((it, model, rep.efficiency))

    try:
        result = run_schedule(arch, dataset, cfg.schedule, seed=cfg.seed,
                              optim=cfg.optimizer,
                              iteration_callback=on_iteration)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        run = exc.run  # the failing epoch is the one after state.epoch
        path = out(f"diverged_epoch{run.state.epoch + 1}.ckpt")
        try:
            save_schedule_checkpoint(path, run)
            print(f"diagnostic checkpoint: {path}", file=sys.stderr)
        except InputError as err:
            print(f"no diagnostic checkpoint: {err}", file=sys.stderr)
        return EXIT_RUNTIME

    write_file(out("ad_history.csv"), result.ad_history.to_csv())
    log = result.log.to_dict()
    log["energy_efficiency"] = [
        {"iter": it, "model": m, "ratio": r} for it, m, r in energy_rows]
    write_file(out("schedule_log.json"),
               json.dumps(log, indent=2, sort_keys=True))
    write_file(out("schedule_log.csv"), _log_csv(result.log))
    save_schedule_checkpoint(out("checkpoint_final.ckpt"), result,
                             result.quantizer)
    print(f"completed {len(result.log.iterations)} iteration(s); "
          f"final test accuracy {result.log.final_accuracy:.4f}")
    print(f"artifacts in {cfg.output_dir}")
    return EXIT_OK


def _models(selection):
    if selection == "both":
        return ("analytical", "pim")
    if selection == "none":
        return ()
    return (selection,)


def _energy_report(model, arch, bits, channels, baseline_bits):
    """The report of one energy model. baseline_bits sets the analytical
    baseline; the PIM baseline is always 16-bit."""
    if model == "pim":
        return energy_mod.pim_network_energy(arch, bits, channels)
    return energy_mod.analytical_network_energy(
        arch, bits, channels, baseline_bits=baseline_bits)


def _write_report(rep, base):
    """Write `rep` to base.json and base.csv."""
    write_file(base + ".json", rep.to_json())
    write_file(base + ".csv", rep.to_csv())


def _log_csv(log) -> str:
    """schedule_log.csv: one row per IterationRecord of the ScheduleLog."""
    rows = [["iter", "bits", "channels", "test_accuracy", "total_ad",
             "epochs"]]
    for rec in log.iterations:
        bits = "|".join(str(rec.bits[k]) for k in sorted(rec.bits))
        chans = "" if rec.channels is None else "|".join(
            str(rec.channels[k]) for k in sorted(rec.channels))
        rows.append([rec.iter, bits, chans, f"{rec.test_accuracy:.6f}",
                     f"{rec.network_ad:.6f}", rec.epochs])
    return csv_text(rows)


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
        bits = _layer_map(header, "bits", args.checkpoint,
                          dict.fromkeys(arch.weighted_ids(), math.inf),
                          "weighted")
        channels = None
        if header.get("channels"):
            channels = _layer_map(
                header, "channels", args.checkpoint,
                {i: arch.layer(i).out_channels for i in arch.conv_ids()},
                "conv")
        baseline_bits = 16
        label = os.path.basename(args.checkpoint)

    rep = _energy_report(args.model, arch, bits, channels, baseline_bits)
    if args.out:
        base = os.path.join(args.out, f"energy_{label}_{args.model}")
        make_dir(args.out)
        check_targets((f"{base}.json", f"{base}.csv"))
    print(f"{label} [{args.model}]")
    print(f"  total energy:    {rep.total_uj:.6g} uJ")
    print(f"  baseline energy: {rep.baseline_total_pj / 1e6:.6g} uJ "
          f"(uniform {rep.baseline_bits}-bit)")
    print(f"  efficiency:      {rep.efficiency:.4g}x")
    if args.out:
        _write_report(rep, base)
        print(f"  report files:    {base}.json / .csv")
    return EXIT_OK


def _layer_map(header, key, path, limits, kind) -> dict:
    """header[key] with int keys: a JSON object that maps ids of the
    checkpoint's `kind` layers, the keys of limits, to integers from 1 to
    limits[id]."""
    value = header[key]
    try:
        out = ({int(k): v for k, v in value.items()}
               if isinstance(value, dict) else None)
    except ValueError:  # a key that is not an integer
        out = None
    if out is None or not all(type(v) is int and v >= 1
                              for v in out.values()):
        raise InputError(f"checkpoint {path!r}: {key} must be an object of "
                         "layer id -> integer >= 1")
    for lid, v in out.items():
        if lid not in limits:
            raise InputError(f"checkpoint {path!r}: {key} names layer {lid}, "
                             f"which is not a {kind} layer of its network")
        if v > limits[lid]:
            raise InputError(f"checkpoint {path!r}: {key} gives layer {lid} "
                             f"{v}, more than its {limits[lid]}")
    return out


# ------------------------------------------------------------------ reproduce

def cmd_reproduce(args) -> int:
    cells = compute_table(args.table)
    width = max(len(c.row) for c in cells)
    failed = False
    print(f"table {args.table}: computed vs published")
    for c in cells:
        dev = f"{100 * c.rel_dev:+.2f}%"
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
    # read and check both artifacts before writing either output
    ad_rows = [[row["layer_id"], row["epoch"], f"{row['ad']:.10g}"]
               for row in ADHistory.from_csv(ad_csv).to_rows()]
    try:
        with open(log_json) as f:
            acc_rows = [[epoch, f"{acc:.6f}"]
                        for epoch, acc in json.load(f)["epoch_accuracy"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{log_json!r} is not a schedule log with an "
                         f"epoch_accuracy list ({exc!r})") from None

    out_ad = os.path.join(run, "ad_vs_epoch.csv")
    out_acc = os.path.join(run, "accuracy_vs_epoch.csv")
    check_targets((out_ad, out_acc))
    write_file(out_ad, csv_text([["layer_id", "epoch", "ad"], *ad_rows]))
    write_file(out_acc, csv_text([["epoch", "test_accuracy"], *acc_rows]))
    print(out_ad)
    print(out_acc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
