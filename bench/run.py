"""majorkit's benchmark: three closed-loop workloads, timed end to end.

Usage, from the root of a checkout::

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # the three, one after another
    python3 bench/run.py --self-test               # tiny sizes, a few seconds
    python3 bench/spread.py --seeds 1-10           # median and spread over seeds

Workloads (one client, one thread, the next item once the last is done):

* ``campaign``: ``verify_statements`` over seeded matrix pools at n = 4
  (isotone, small-n numerics and majorization kernels);
* ``construct``: ``majorizes``, ``witness_ds`` then ``birkhoff`` at
  n = 20 (doubly_stochastic, dense Mat @ Mat);
* ``cli_queries``: in-process ``majorkit.cli.main`` ``check`` (n = 256)
  and ``extremizers`` (n = 7) queries on JSON files (cli, rearrangement).

Every run happens in a fresh subprocess (``worker.py``) with
``PYTHONHASHSEED=0``, importing majorkit from this checkout's ``src/``.
The inputs come from the benchmark's own seeded generators
(``workloads.py``), and every result is checked by its own exact oracle
(``oracle.py``) outside the timed path.

``--trace 0`` prints the end-to-end metrics: ``items_per_s``,
``latency_p50_ms``, ``latency_tail_ms`` (the highest order statistic
with ten items beyond it; its percentile and the item count are in the
report), ``setup_s`` and ``peak_rss_mb``.  The worker runs its fixed
pool of items pass after pass for ``--seconds``, with a fixed reference
kernel after each item, and each item's latency is the mean of its runs;
``items_per_s`` is the pool's size over the sum of those latencies.
``setup_s`` is the time from starting a fresh interpreter to its first
timed item, the import of majorkit and the generation of the inputs
included: the median of eleven starts, five before the measured run,
its own, and five after.  Every time metric is scaled to a reference
host speed by the reference kernel's mean time over the measured run
(see ``hostspeed.py``); the report also keeps the unscaled values.  The
kernel's time around a single start follows it too loosely to scale that
start alone, but the run's mean follows the host's slow drift, which
moves the median of the starts by up to 1.5x between runs minutes apart.
The error rate is ``failed / attempted``; it is printed, and carried by
those two fields of the result line.
``--trace 1`` prints the per-layer metrics from the outside-in tracer
(``tracer.py``), per traced item, and writes its spans to
``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report, with the git
sha, the Python version and ``nproc``, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 120
SETUP_PROBES = 5  # set-up-only starts before and after the measured run

sys.path.insert(0, str(BENCH))
from worker import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git_sha() -> str | None:
    """HEAD's sha read from ``.git`` directly; ``None`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count()}


def start_worker(cmd: list[str]) -> tuple[float, str, str]:
    """Run ``worker.py`` with ``cmd``'s arguments in a fresh interpreter.

    Returns the seconds from the start of the process to its ``ready``
    line (the end of its set-up), the inputs digest on that line and the
    rest of its standard output.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *cmd],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"worker {' '.join(cmd)}: timed out")
    if proc.returncode != 0 or not ready.startswith("ready "):
        sys.stderr.write(ready + err)
        raise SystemExit(f"worker {' '.join(cmd)}: exited with {proc.returncode}")
    return setup_s, ready.split()[1], out


def run_child(workload: str, seed: int, seconds: float, trace: int,
              quick: bool = False, tamper: bool = False) -> dict:
    """Run one workload in a fresh interpreter and return its report."""
    stem = f"{workload}-seed{seed}-trace{trace}{'-quick' if quick else ''}"
    cmd = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    probes = 0 if trace else SETUP_PROBES
    setups = [start_worker([*cmd, "--setup-only"]) for _ in range(probes)]
    extra = ["--tamper"] if tamper else []
    if trace:
        extra += ["--spans-out", str(OUT / f"{stem}-spans.json")]
    setups.append(start_worker(cmd + extra))
    digest, out = setups[-1][1:]
    report = json.loads(out.strip().splitlines()[-1])
    setups += [start_worker([*cmd, "--setup-only"]) for _ in range(probes)]
    if {d for _, d, _ in setups} != {digest}:
        raise SystemExit(f"{workload}: input generation is not deterministic")
    report["setup_runs_s"] = [s for s, _, _ in setups]
    if not trace:
        report["unscaled"]["setup_s"] = statistics.median(report["setup_runs_s"])
        report["metrics"]["setup_s"] = report["unscaled"]["setup_s"] * report["host_scale"]
        report["metrics"] = {name: report["metrics"][name] for name in END_TO_END}
    report["environment"] = environment()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def show(report: dict) -> None:
    units = PER_LAYER if report["trace"] else END_TO_END
    env = report["environment"]
    print(f"{report['workload']}: seed {report['seed']}, trace {report['trace']}, "
          f"git {env['git_sha'] or 'unknown'}, python {env['python']}, "
          f"nproc {env['nproc']}, inputs sha256 {report['inputs_sha256'][:16]}")
    for name, value in report["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{report['tail_percentile']:.1f} of {report['samples']}"
                    f" items, mean of {report['passes']} runs each)")
        print(f"  {name:42s} {value:14.6g} {units[name]}{note}")
    if not report["trace"]:
        print(f"  host scale {report['host_scale']:.4f} (reference kernel "
              f"{report['kernel_mean_ms']:.4g} ms); unscaled: " + ", ".join(
                  f"{name} {value:.6g}" for name, value in report["unscaled"].items()))
    rate = report["failed"] / report["attempted"]
    print(f"  {'error_rate':42s} {rate:14.6g} ({report['failed']}/{report['attempted']})")
    for failure in report["failures"]:
        print(f"  failure: {failure}")
    if report["trace"]:
        top = list(report["exclusive_pct"].items())[:4]
        print("  largest spans (exclusive % of traced time): "
              + ", ".join(f"{name} {pct:.1f}" for name, pct in top))


def result_line(reports: list[dict], prefix: bool) -> str:
    metrics = {}
    for report in reports:
        units = PER_LAYER if report["trace"] else END_TO_END
        for name, value in report["metrics"].items():
            key = f"{report['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def self_test() -> int:
    """Tiny sizes: every declared metric is printed with its unit, and tampering is caught."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key, table in ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)):
        expected = {m["name"]: m["unit"] for m in declared[key]}
        if expected != table:
            problems.append(f"BENCHMARK.json {key} differs from the benchmark's metrics")
        for workload in WORKLOADS:
            report = run_child(workload, 1, 1.0, trace, quick=True)
            got = json.loads(result_line([report], prefix=False))
            names = {n: m["unit"] for n, m in got["metrics"].items()}
            if names != expected:
                problems.append(f"{workload} trace {trace}: metrics {sorted(names)}")
            if got["failed"] or not got["correct"]:
                problems.append(f"{workload} trace {trace}: {report['failures']}")
    for workload in WORKLOADS:
        report = run_child(workload, 1, 0.5, 0, quick=True, tamper=True)
        if report["failed"] < 1:
            problems.append(f"{workload}: a tampered result was not counted")
    for problem in problems:
        print(f"self-test: {problem}")
    print(f"self-test: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "majorkit" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'majorkit'} not found; run from a "
              "majorkit checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        reports.append(run_child(name, args.seed, args.seconds, args.trace))
        show(reports[-1])
    print(result_line(reports, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
