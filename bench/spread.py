"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workload campaign ...] [--json out.json]

For every workload and end-to-end metric it prints the median over the
seeds, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (Q3 - Q1) / median next to the metric's bound from
``BENCHMARK.json``.  Runs go one at a time.

It also prints the spread of the same runs' unscaled times, before
``hostspeed.scale`` takes out the host's speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
UNSCALED = ("items_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread_of(vals: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return q1, median, q3, (q3 - q1) / median


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--json", help="also write the values and summary here")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {}
    raw: dict[str, dict[str, list[float]]] = {}
    failed = 0
    for workload in workloads:
        values[workload] = {name: [] for name in bounds}
        raw[workload] = {name: [] for name in UNSCALED}
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            report = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace0.json")
                                .read_text())
            for name in UNSCALED:
                raw[workload][name].append(report["unscaled"][name])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {m['value']:.5g}" for n, m in result["metrics"].items()),
                flush=True)

    summary = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q1, median, q3, spread = spread_of(vals)
            summary[f"{workload}.{name}"] = {"median": median, "q1": q1, "q3": q3,
                                             "spread": spread, "bound": bounds[name]}
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:12s} {name:16s} median {median:12.5g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]}{flag}")
        for name, vals in raw[workload].items():
            q1, median, q3, spread = spread_of(vals)
            summary[f"{workload}.{name}.unscaled"] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload:12s} {name:16s} median {median:12.5g}  "
                  f"spread {spread:7.4f}  (unscaled)")
    print(f"failed items over all runs: {failed}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seeds": args.seeds, "values": values, "unscaled": raw,
             "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
