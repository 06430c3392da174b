"""adq benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload {toy-quant,resnet-prune,energy-sweep}
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/``; the
run writes only below ``.bench_tmp/`` and removes what it wrote. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics; the last line of standard output is a
JSON object {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"  # the engine's determinism promise is single-threaded
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5     # set-ups before the first job
SETUP_INTERVAL = 1.0  # seconds between further set-ups during the run
TRACE_MIN_UNITS = 2
ADQ_MODULES = ("adq", "adq.cli", "adq.config", "adq.energy", "adq.presets",
               "adq.reproduce", "adq.scheduler", "adq.nn.arch",
               "adq.nn.checkpoint")

# spans each workload must exercise; a traced run fails if one records no call
_TRAINING_SPANS = (
    "layers.conv2d_forward", "layers.conv2d_backward",
    "layers.avgpool_forward", "layers.avgpool_backward",
    "layers.linear_forward", "layers.linear_backward",
    "layers.relu_forward", "layers.relu_backward",
    "engine.forward", "engine.backward", "engine.optimizer_step",
    "engine.loss_softmax_xent", "engine.accuracy",
    "arch.arch_hash", "arch.infer_shapes",
    "quant.fake_quant", "quant.ste_mask", "quant.RangeTracker.observe",
    "admon.ADHistory.record", "admon.ADHistory.is_saturated",
    "scheduler.run_schedule", "scheduler.propagate_skip_bitwidths",
    "data.synthetic_dataset", "config.ExperimentConfig.from_json",
)
_ENERGY_SPANS = ("energy.layer_shapes", "energy.pim_network_energy",
                 "energy.analytical_network_energy",
                 "energy.EnergyReport.to_json")
EXPECTED_SPANS = {
    "toy-quant": _TRAINING_SPANS + ("layers.maxpool_forward",
                                    "layers.maxpool_backward"),
    "resnet-prune": _TRAINING_SPANS + _ENERGY_SPANS + (
        "layers.batchnorm_forward", "layers.batchnorm_backward",
        "scheduler.rebuild_pruned", "scheduler.select_pruned_channels",
        "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
        "cli.main"),
    "energy-sweep": _ENERGY_SPANS + ("arch.infer_shapes",
                                     "presets.Preset.build_arch",
                                     "reproduce.compute_table"),
}

clock = time.perf_counter


def import_adq():
    """Import the program afresh and return the `adq` package, whose
    submodule attributes (`m.cli`, `m.nn.checkpoint`, ...) the workloads
    call through."""
    for name in [n for n in sys.modules if n == "adq" or n.startswith("adq.")]:
        del sys.modules[name]
    for name in ADQ_MODULES:
        importlib.import_module(name)
    return sys.modules["adq"]


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except Exception:  # the layout of numpy's build report varies by version
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, operations: int, failures: list, label: str):
        self.attempted += operations
        self.failed += min(len(failures), operations)
        for msg in failures:
            print(f"FAILED {label}: {msg}", file=sys.stderr)


def run_unit(wl, m, inputs, tally, label):
    """One timed job and its untimed checks: (start, end, outcome), where
    outcome is None when the job raised."""
    t0 = clock()
    try:
        result = wl.job(m, inputs)
        t1 = clock()
        return t0, t1, wl.finish(m, inputs, result)
    except Exception:
        traceback.print_exc()
        tally.add(1, ["raised"], label)
        return t0, clock(), None


def check_reruns(outcomes_by_key: dict, tally: Tally):
    for key, outs in outcomes_by_key.items():
        first = outs[0]
        for later in outs[1:]:
            same = (later.digest == first.digest
                    and later.accuracy == first.accuracy)
            tally.add(1, [] if same else ["rerun differs from first job"],
                      f"key {key}")


def measure(wl, seconds: float, tally: Tally) -> dict:
    from speed import REFERENCE_S, SpeedProbe

    setups, jobs = [], {}  # (start, end); key -> [(start, end, outcome)]
    with SpeedProbe() as probe:
        def set_up():
            t0 = clock()
            m = import_adq()
            inputs = wl.setup(m)
            setups.append((t0, clock()))
            return m, inputs

        for _ in range(SETUP_REPEATS):
            m, inputs = set_up()
        deadline = clock() + seconds
        n, last = 0, 0.0
        # every key once plus a rerun of the first, then as time allows
        while n <= len(inputs) or clock() + last <= deadline:
            if clock() - setups[-1][1] >= SETUP_INTERVAL:
                # set-ups spread over the run see the box's slow and fast spells
                m, inputs = set_up()
            key = n % len(inputs)
            label = f"job {n} (key {key})"
            t0, t1, out = run_unit(wl, m, inputs[key], tally, label)
            n, last = n + 1, t1 - t0
            if out is not None:
                tally.add(out.operations, out.failures, label)
                jobs.setdefault(key, []).append((t0, t1, out))
    check_reruns({k: [j[2] for j in v] for k, v in jobs.items()}, tally)

    notes = collections.Counter()
    for v in jobs.values():
        notes.update(v[0][2].notes)
    if notes:
        print("notes (first job of each key): "
              + ", ".join(f"{k}={v}" for k, v in notes.items()))
    values = {}
    for name, span in (("wall", lambda t0, t1: t1 - t0),
                       ("scaled", probe.scaled)):
        times = {k: [span(t0, t1) for t0, t1, _ in v] for k, v in jobs.items()}
        values[name] = {
            "setup_s": statistics.median(span(*s) for s in setups),
            "run_s": statistics.fmean(statistics.median(t)
                                      for t in times.values()),
            "work_per_s": sum(j[2].work for v in jobs.values() for j in v)
            / sum(sum(t) for t in times.values()),
        }
    print(f"jobs {n}, set-ups {len(setups)}; box speed: median loop "
          f"{statistics.median(probe.loop) * 1e3:.3f} ms (reference "
          f"{REFERENCE_S * 1e3:.3f} ms); unscaled wall time: " + ", ".join(
              f"{k}={v:.6g}" for k, v in values["wall"].items()))
    return {
        **values["scaled"],
        "final_accuracy": statistics.fmean(v[0][2].accuracy
                                           for v in jobs.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def trace(wl, seconds: float, tally: Tally, names: list) -> dict:
    from spans import Tracer

    m = import_adq()
    start = clock()
    plain, outcomes = [], []
    while not plain or clock() + plain[-1] <= start + seconds / 3:
        t0, t1, out = run_unit(wl, m, wl.setup(m)[0], tally, "untraced job")
        if out is None:
            return {}
        tally.add(out.operations, out.failures, "untraced job")
        plain.append(t1 - t0)
        outcomes.append(out)

    tracer = Tracer()
    tracer.install()
    for name, where in tracer.bindings.items():
        print(f"traced {name}: {', '.join(where)}")
    units = []  # (job seconds, stats, counters, attributed seconds, outcome)
    while (len(units) < TRACE_MIN_UNITS
           or clock() + units[-1][0] <= start + seconds):
        tracer.begin_unit()
        t0, t1, out = run_unit(wl, m, wl.setup(m)[0], tally, "traced job")
        if out is None:
            break
        tally.add(out.operations, out.failures, "traced job")
        units.append((t1 - t0,) + tracer.end_unit(t0, t1) + (out,))
    if not units:
        return {}
    # tracing must not change what the job computes
    check_reruns({0: outcomes + [u[4] for u in units]}, tally)

    first_stats, first_counters = units[0][1], units[0][2]
    for u in units[1:]:
        same = ({k: s["calls"] for k, s in u[1].items()}
                == {k: s["calls"] for k, s in first_stats.items()}
                and u[2] == first_counters)
        tally.add(1, [] if same else ["call counts differ between units"],
                  "traced job")
    missing = [s for s in EXPECTED_SPANS[wl.name]
               if first_stats.get(s, {}).get("calls", 0) == 0]
    tally.add(1, [f"spans with no calls: {missing}"] if missing else [],
              "traced run")

    traced_s = statistics.median(u[0] for u in units)
    untraced_s = statistics.median(plain)
    print(f"traced units {len(units)}, untraced jobs {len(plain)}; job "
          f"{traced_s:.3f}s traced vs {untraced_s:.3f}s untraced")
    values = {
        "layers.conv2d.gflop": first_counters["layers.conv2d.flop"] / 1e9,
        "checkpoint.save_checkpoint.bytes":
            first_counters["checkpoint.save_checkpoint.bytes"],
        "scheduler.final_efficiency": units[0][4].efficiency or 0.0,
        "trace.unattributed_s": statistics.median(u[0] - u[3] for u in units),
        "trace.overhead_s": traced_s - untraced_s,
    }
    for name in names:
        span, _, field = name.rpartition(".")
        if name in values:
            continue
        if field == "calls":
            values[name] = first_stats.get(span, {}).get("calls", 0)
        else:  # self_s or total_s
            values[name] = statistics.median(
                u[1].get(span, {}).get(field, 0.0) for u in units)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    os.environ.pop("ADQ_OUTPUT_DIR", None)  # artifacts go to the temp dir
    if not os.path.isfile(os.path.join(SRC, "adq", "__init__.py")):
        print(f"error: no adq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    from workloads import WORKLOADS  # noqa: E402 (needs the path above)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            listed = spec["per_layer"]
            values = trace(wl, args.seconds, tally,
                           [e["name"] for e in listed])
        else:
            values, listed = measure(wl, args.seconds, tally), spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it
    if not values:
        return 1

    metrics = {}
    for entry in listed:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<42} {value:>14.6g} {entry['unit']}")
    print(f"error_rate {tally.failed}/{tally.attempted}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
