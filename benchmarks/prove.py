"""Run the benchmark on several seeds and summarise its steadiness.

    python3 benchmarks/prove.py --workload toy-quant --seeds 0-9 [--trace]
        [--out benchmarks/results/baseline.json]

Runs ``benchmarks/run.py`` once per seed, one run at a time, from the
repository root. For every metric it prints the median, the quartiles and
the spread (Q3 - Q1 as a share of the median, from
``statistics.quantiles(values, n=4)``) next to a third of the metric's bound
in BENCHMARK.json. With --out it merges the runs into that JSON file under
the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {e["name"]: e.get("bound") for e in spec["end_to_end"]}

    runs, env = [], None
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "1" if args.trace else "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if k in bounds or args.trace), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        if name in bounds:
            print(f"{name:<16} median {med:<12.6g} spread {spread:.4f} "
                  f"(a third of the bound: {bounds[name] / 3:.4f})")
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        key = args.workload + (" --trace 1" if args.trace else "")
        doc[key] = {"env": env, "run_seconds": spec["run_seconds"],
                    "all_correct": all(r["correct"] for r in runs),
                    "summary": summary, "runs": runs}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
