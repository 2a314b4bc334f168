"""One workload run in its own process; ``run.py`` starts it.

The worker first sets up: it imports majorkit from the checkout's
``src/`` and generates the inputs, then prints ``ready <digest>`` so that
``run.py`` can time the set-up from process start.  With
``--setup-only`` it stops there.  Otherwise it runs the items and prints
one JSON line with everything it measured.

The item set is fixed per workload (``strata`` in ``workloads.py``),
never by how fast the host runs.

With ``--trace 0`` the worker runs the whole pool again and again, one
pass after another, until ``--seconds`` have passed (at least
``MIN_PASSES`` passes).  After every item it runs the reference kernel of
``hostspeed.py`` once.  An item's latency is the mean of its runs, scaled
by ``hostspeed.scale`` of this run's kernel times: the host's load comes
and goes within every run, and the scale takes out how much of it a run
happened to meet.  Only the first run of an item is checked by the
oracle; every later run must give a result equal to the first.

With ``--trace 1`` one untraced pass is followed by one pass under the
outside-in tracer, which gives the per-layer metrics and the tracing
overhead, each pass with its kernel runs, so that the overhead is taken
at the same host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
TAIL_BEYOND = 10

# name -> unit; setup_s is timed by run.py from process start.
END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; calls, counts and times are per traced item.
PER_LAYER = {
    "numerics.matvec.calls": "calls/item",
    "numerics.matvec.time_s": "s/item",
    "numerics.perm_apply.calls": "calls/item",
    "numerics.matmat.calls": "calls/item",
    "numerics.matmat.time_s": "s/item",
    "numerics.perm_matrix.calls": "calls/item",
    "numerics.enumerate_perms.calls": "calls/item",
    "numerics.perms_enumerated": "perms/item",
    "majorization.prefix_sums.calls": "calls/item",
    "majorization.prefix_sums.time_s": "s/item",
    "majorization.first_violation.time_s": "s/item",
    "majorization.sort_desc.time_s": "s/item",
    "doubly_stochastic.witness_ds.time_s": "s/item",
    "doubly_stochastic.transforms": "count/item",
    "doubly_stochastic.birkhoff.time_s": "s/item",
    "doubly_stochastic.birkhoff_terms": "count/item",
    "doubly_stochastic.check_ds.time_s": "s/item",
    "rearrangement.extremizer_sets.time_s": "s/item",
    "rearrangement.extremizers_out": "perms/item",
    "rearrangement.useful_ratio": "ratio",
    **{f"isotone.{p}.{m}": u
       for p in ("equiv", "left", "right", "point", "global_sampled",
                 "classify_global")
       for m, u in (("calls", "calls/item"), ("time_s", "s/item"),
                    ("matvecs", "calls/item"))},
    "isotone.verify_statements.self_time_s": "s/item",
    "cli.load.time_s": "s/item",
    "cli.self_time_s": "s/item",
    "cli.report_bytes": "bytes/item",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_pct": "%",
}


class Loop:
    """Closed loop, one client: the next item starts when the last one is checked."""

    def __init__(self, workload, mk, pool, tamper: bool):
        self.workload = workload
        self.mk = mk
        self.pool = pool
        self.tamper = tamper
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[int, object] = {}  # index -> checked result of its first run

    def one(self, index: int, tracer=None) -> int:
        """Run, time and check one item; return its latency in ns."""
        wl = self.workload
        item = self.pool[index]
        span = tracer.open("bench.item", index) if tracer else None
        t0 = perf_counter_ns()
        try:
            out, error = wl.run(self.mk, item), None
        except Exception as exc:  # a failed item is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter_ns() - t0
        if span is not None:
            if error is None and hasattr(wl, "counters"):
                for name, k in wl.counters(out).items():
                    tracer.count(name, k)
            tracer.close(span)
        if error is None:
            try:
                rec = wl.extract(out)
                if self.tamper and self.attempted == 0:
                    rec = wl.tamper(rec)
                if index in self.first:
                    if rec != self.first[index]:
                        error = "result differs from the item's first run"
                else:
                    error = wl.check(item, rec)
                    self.first[index] = rec
            except Exception as exc:  # malformed output is a failure too
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"item {index}: {error}")
        self.attempted += 1
        return dt

    def one_pass(self, tracer=None) -> tuple[list[int], list[int]]:
        """Every item once, each followed by one reference-kernel run; both in ns."""
        times, ref = [], []
        for index in range(len(self.pool)):
            times.append(self.one(index, tracer))
            ref.append(hostspeed.sample())
        return times, ref


def tail(ms: list[float]) -> tuple[float, float]:
    """The highest order statistic with ``TAIL_BEYOND`` samples beyond it.

    Returns the latency and its percentile (inclusive interpolation).  A
    pool too small for that, as in the self-test, gives its maximum.
    """
    ordered = sorted(ms)
    rank = len(ordered) - 1
    if rank > TAIL_BEYOND:
        rank -= TAIL_BEYOND
    return ordered[rank], 100.0 * rank / max(1, len(ordered) - 1)


def end_to_end(latencies_ms: list[float]) -> tuple[dict, float]:
    tail_ms, tail_pct = tail(latencies_ms)
    return {
        "items_per_s": len(latencies_ms) / (sum(latencies_ms) / 1e3),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, tail_pct


def per_layer(summary: dict, items: int, traced_ns: int, overhead: float) -> dict:
    """The PER_LAYER metrics from a tracer summary of ``items`` traced items."""
    def seconds(ns):
        return ns / 1e9 / items

    kernels: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    for row in summary.values():
        for name, (calls, ns) in row["kernels"].items():
            tally = kernels.setdefault(name, [0, 0])
            tally[0] += calls
            tally[1] += ns
        for name, k in row["counters"].items():
            counters[name] = counters.get(name, 0) + k

    def calls(kernel):
        return kernels.get(kernel, [0, 0])[0] / items

    def kernel_s(kernel):
        return seconds(kernels.get(kernel, [0, 0])[1])

    def per_item(counter):
        return counters.get(counter, 0) / items

    def span(name):
        return summary.get(name, {"calls": 0, "incl_ns": 0, "excl_ns": 0,
                                  "self_ns": 0, "kernels": {}, "counters": {}})

    out = {
        "numerics.matvec.calls": calls("numerics.matvec"),
        "numerics.matvec.time_s": kernel_s("numerics.matvec"),
        "numerics.perm_apply.calls": calls("numerics.perm_apply"),
        "numerics.matmat.calls": calls("numerics.matmat"),
        "numerics.matmat.time_s": kernel_s("numerics.matmat"),
        "numerics.perm_matrix.calls": calls("numerics.perm_matrix"),
        "numerics.enumerate_perms.calls": calls("numerics.enumerate_perms"),
        "numerics.perms_enumerated": per_item("numerics.perms_enumerated"),
        "majorization.prefix_sums.calls": calls("majorization.prefix_sums"),
        "majorization.prefix_sums.time_s": kernel_s("majorization.prefix_sums"),
        "doubly_stochastic.transforms": per_item("doubly_stochastic.transforms"),
        "doubly_stochastic.birkhoff_terms": per_item("doubly_stochastic.birkhoff_terms"),
        "rearrangement.extremizers_out": per_item("rearrangement.extremizers_out"),
        "isotone.verify_statements.self_time_s":
            seconds(span("isotone.verify_statements")["self_ns"]),
        "cli.self_time_s": seconds(span("cli.main")["self_ns"]),
        "cli.report_bytes": per_item("cli.report_bytes"),
        "trace.overhead_ratio": overhead,
        "trace.coverage_pct":
            100.0 * (traced_ns - span("bench.item")["excl_ns"]) / traced_ns,
    }
    for name in ("majorization.first_violation", "majorization.sort_desc",
                 "doubly_stochastic.witness_ds", "doubly_stochastic.birkhoff",
                 "doubly_stochastic.check_ds", "rearrangement.extremizer_sets",
                 "cli.load"):
        out[f"{name}.time_s"] = seconds(span(name)["incl_ns"])
    scanned = span("rearrangement.extremizer_sets")["counters"].get(
        "numerics.perms_enumerated", 0)
    out["rearrangement.useful_ratio"] = (
        counters.get("rearrangement.extremizers_out", 0) / scanned if scanned else 0.0)
    for p in ("equiv", "left", "right", "point", "global_sampled", "classify_global"):
        row = span(f"isotone.{p}")
        out[f"isotone.{p}.calls"] = row["calls"] / items
        out[f"isotone.{p}.time_s"] = seconds(row["incl_ns"])
        out[f"isotone.{p}.matvecs"] = row["kernels"].get("numerics.matvec", [0, 0])[0] / items
    return {name: out[name] for name in PER_LAYER}


def measure(loop: Loop, seconds: float, trace: int, spans_out: str | None) -> dict:
    """The timed part of a run: the report fields besides the set-up's."""
    items = len(loop.pool)
    if trace == 0:
        runs: list[list[int]] = [[] for _ in range(items)]
        ref: list[int] = []
        passes = 0
        deadline = perf_counter_ns() + int(seconds * 1e9)
        while passes < MIN_PASSES or perf_counter_ns() < deadline:
            times, kernel = loop.one_pass()
            for index, ns in enumerate(times):
                runs[index].append(ns)
            ref += kernel
            passes += 1
        mean_ms = [statistics.fmean(ns) / 1e6 for ns in runs]
        factor = hostspeed.scale(ref)
        metrics, tail_pct = end_to_end([ms * factor for ms in mean_ms])
        unscaled, _ = end_to_end(mean_ms)
        return {"metrics": metrics, "samples": items, "tail_percentile": tail_pct,
                "passes": passes, "host_scale": factor,
                "kernel_mean_ms": statistics.fmean(ref) / 1e6,
                "unscaled": {name: unscaled[name] for name in
                             ("items_per_s", "latency_p50_ms", "latency_tail_ms")}}

    from tracer import Tracer
    untraced_ns, untraced_ref = map(sum, loop.one_pass())
    tracer = Tracer()
    tracer.install(loop.mk)
    try:
        traced_ns, traced_ref = map(sum, loop.one_pass(tracer))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    ranked = sorted(((row["excl_ns"], name) for name, row in summary.items()
                     if name != "bench.item"), reverse=True)
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        Path(spans_out).write_text(json.dumps(
            {"summary": summary, "spans": [s.as_json() for s in tracer.spans]}) + "\n")
    overhead = (traced_ns / traced_ref) / (untraced_ns / untraced_ref)
    return {"metrics": per_layer(summary, items, traced_ns, overhead),
            "traced_items": items, "passes": 2,
            "exclusive_pct": {name: 100.0 * ns / traced_ns for ns, name in ranked},
            "span_ms_per_item": {name: row["incl_ns"] / 1e6 / items
                                 for name, row in summary.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    import majorkit
    import majorkit.cli  # noqa: F401  (cli_queries calls it; imported in set-up)

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.quick)
    workdir = BENCH / ".work" / str(os.getpid())
    try:
        pool, digest = workload.setup(majorkit, workdir)
        print(f"ready {digest}", flush=True)
        if args.setup_only:
            return 0
        loop = Loop(workload, majorkit, pool, args.tamper)
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "inputs_sha256": digest,
                  **measure(loop, args.seconds, args.trace, args.spans_out),
                  "attempted": loop.attempted, "failed": len(loop.failures),
                  "failures": loop.failures[:5]}
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
