"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1,2,3 | --heldout] [--seconds S]
    python3 perfbench/sweep.py --layer-split [--workloads a,b] [--seeds 1]

For each workload and end-to-end metric it prints the median over the
seeds, the quartiles, and the spread (third minus first quartile over the
median, as `statistics.quantiles(values, n=4)` gives them) next to the
metric's bound from BENCHMARK.json.  Runs go one at a time.

Seeds 1-10 were used while this benchmark was written; `--heldout` runs
seeds that were not, so a claim can be re-checked on inputs nobody tuned
against.  `--layer-split` makes one traced run per workload and writes
each module's share of self time, with the tracing overhead, to
layer_split.json beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TUNING_SEEDS = list(range(1, 11))
HELDOUT_SEEDS = [7919, 104729, 1299709, 15485863, 179424673]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    for ln in lines:
        if "machine speed scale=" in ln:
            fields = dict(f.split("=") for f in ln.replace(",", "").split() if "=" in f)
            result["measured"] = {k: float(v) for k, v in fields.items()}
    return result


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def sweep(spec, workloads, seeds, seconds) -> None:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for w in workloads:
        runs = [run_once(w, s, seconds, 0) for s in seeds]
        print(f"{w}: {len(runs)} runs, seeds {seeds}, attempted "
              f"{[r['attempted'] for r in runs]}, failed {sum(r['failed'] for r in runs)}, "
              f"wall {max(r['wall_s'] for r in runs):.1f} s at most")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            print(f"  {name:22s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {sp:7.4f}  bound {bounds.get(name)}")
            raw = [r.get("measured", {}).get(name) for r in runs]
            if all(x is not None for x in raw):
                print(f"  {'  as measured':22s} spread {spread(raw)[3]:7.4f}")
        if all("measured" in r for r in runs):
            print(f"  machine speed scale {[r['measured']['scale'] for r in runs]}")
        sys.stdout.flush()


def layer_split(workloads, seed, seconds) -> None:
    out = {"seed": seed, "seconds": seconds, "workloads": {}}
    for w in workloads:
        metrics = run_once(w, seed, seconds, 1)["metrics"]
        shares = {k.rsplit(".", 1)[0]: round(v["value"], 4)
                  for k, v in metrics.items() if k.endswith(".self_share")}
        out["workloads"][w] = {"self_share": shares,
                               "trace_overhead": round(metrics["trace.overhead"]["value"], 4)}
        print(w, out["workloads"][w])
    (HERE / "layer_split.json").write_text(json.dumps(out, indent=2) + "\n")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(map(str, TUNING_SEEDS)))
    parser.add_argument("--heldout", action="store_true", help="use the held-out seeds")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--layer-split", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = HELDOUT_SEEDS if args.heldout else [int(s) for s in args.seeds.split(",")]
    if args.layer_split:
        layer_split(workloads, seeds[0], args.seconds)
    else:
        sweep(spec, workloads, seeds, args.seconds)


if __name__ == "__main__":
    main()
