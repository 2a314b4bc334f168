"""Per-layer timings of majorkit swept over n, next to deterministic work counters.

Usage, from the root of a checkout::

    python tools/sweep.py            # every point, 9 runs each: BENCH_<sha>.json
    python tools/sweep.py --quick    # each layer's smallest n, 1 run: JSON to stdout

Each point times one layer on fixed seeded inputs: the median of its
runs in ms, with the host scale of ``bench/hostspeed.py`` (its reference
kernel runs once after every timed run, and ``scaled_median_ms`` reads as
the time on a host where the kernel takes ``hostspeed.REF_MS``).  A
library point builds fresh ``Vec``, ``Mat`` and ``AnchorPoint`` inputs
from plain rows before each run, outside the timed window, so no run
reads a frame an earlier run cached: each time is what a one-shot caller
pays.  The counters come from one more, untimed run under
``bench/tracer.py``: the calls of every kernel it times (prefix sums,
mat-vecs, ..., 0 when never called) and the result counters it records
(transforms, terms, extremizers, ...), plus what it does not see, the
orbit images read, the ``getrandbits`` words drawn, the ``augments``,
calls of ``doubly_stochastic._augment`` (one augmenting-path search of the
Birkhoff peel each), the ``clears``, calls of
``numerics._clear_denominators``, the ``perm_checks``, calls of
``Perm.__init__``, which checks its image, and
what the point's result reports (draws, reported-sum characters, report
bytes, extremizer and verify counts), so a reader can tell less work
from faster work.  The sweep runs in this process, importing majorkit from
this checkout's ``src/``, and is not one of the benchmark's gated
workloads.  Every point is cheap enough to time in seconds: ``check``'s
prime denominators come from a pool of eight, so its LCM stays near 56
bits.

The full sweep writes ``BENCH_<short sha>.json`` at the repo root,
``BENCH_<short sha>-dirty.json`` when ``src/`` differs from that commit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import hostspeed  # noqa: E402
import majorkit as mk  # noqa: E402
from majorkit import cli, doubly_stochastic, isotone, numerics  # noqa: E402
from tracer import Tracer  # noqa: E402

PRIMES = (101, 103, 107, 109, 113, 127, 131, 137)
RUNS = 9  # timed runs per point; one under --quick
# Every kernel bench/tracer.py times; each point reports all of their calls.
KERNELS = ("majorization.prefix_sums", "numerics.enumerate_perms", "numerics.matvec",
           "numerics.matmat", "numerics.perm_apply", "numerics.perm_matrix")


def _expect(holds: bool, what: str) -> None:
    if not holds:
        raise RuntimeError(f"sweep input broken: expected {what}")


def _cli(argv: list[str]) -> tuple[int, str]:
    """``majorkit.cli.main(argv)``'s exit code and report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _counted(run) -> tuple[object, dict]:
    """``run()`` once under the tracer: its kernel calls and counters, summed
    over every span, with the orbit images, ``getrandbits`` words, augmenting-path
    searches, clears and permutation checks; each kernel and extra reads 0
    when never called."""
    extra = {"images": 0, "words": 0, "augments": 0}
    orbit, rng_class = isotone._orbit, random.Random
    augment = doubly_stochastic._augment
    clear, clears = numerics._clear_denominators, [0]
    perm_init, perm_checks = numerics.Perm.__init__, [0]
    holders = [module for name, module in sys.modules.items()
               if name.startswith("majorkit")
               and getattr(module, "_clear_denominators", None) is clear]

    def counted_clear(rows):
        clears[0] += 1
        return clear(rows)

    def counted_perm_init(self, image):
        perm_checks[0] += 1
        perm_init(self, image)

    def counted_augment(*search):
        extra["augments"] += 1
        return augment(*search)

    def counted_orbit(*args):
        for image in orbit(*args):
            extra["images"] += 1
            yield image

    class Counting(rng_class):
        def getrandbits(self, k):
            extra["words"] += 1
            return super().getrandbits(k)

    tracer = Tracer()
    isotone._orbit, random.Random = counted_orbit, Counting
    doubly_stochastic._augment = counted_augment
    numerics.Perm.__init__ = counted_perm_init
    for module in holders:
        module._clear_denominators = counted_clear
    tracer.install(mk)
    try:
        result = run()
    finally:
        tracer.uninstall()
        isotone._orbit, random.Random = orbit, rng_class
        doubly_stochastic._augment = augment
        numerics.Perm.__init__ = perm_init
        for module in holders:
            module._clear_denominators = clear
    counters = {f"{name}.calls": 0 for name in KERNELS}
    for row in tracer.summary().values():
        for name, (calls, _) in row["kernels"].items():
            if name not in KERNELS:
                raise RuntimeError(f"tracer kernel {name} is missing from KERNELS")
            counters[f"{name}.calls"] += calls
        for name, k in row["counters"].items():
            counters[name] = counters.get(name, 0) + k
    return result, {**counters, **extra,
                    "clears": clears[0], "perm_checks": perm_checks[0]}


def _planted(n: int):
    """A seeded scaled permutation plus constant and a strict anchor, as
    plain rows of ``Fraction``s."""
    rng = random.Random(f"sweep:planted:{n}")
    image = list(range(n))
    rng.shuffle(image)
    form = mk.PermScaled(Fraction(rng.randint(1, 5)),
                         Fraction(rng.randint(-3, 3), rng.randint(1, 4)), mk.Perm(image))
    den = rng.randint(1, 4)
    alpha = sorted(rng.sample(range(-20, 21), n), reverse=True)
    return form.as_matrix().rows, [Fraction(v, den) for v in alpha]


def right_isotone(n: int):
    rows, alpha = _planted(n)

    def make():
        a, anchor = mk.Mat(rows), mk.AnchorPoint(mk.Vec(alpha))
        return lambda: mk.is_right_isotone_at(a, anchor, trials=50, seed=1)

    def read(verdict):
        _expect(verdict.holds, f"the planted form at n = {n} holds")
        return {"draws": verdict.trials}  # asked for; words tell what was read
    return make, read


def right_isotone_drawn(n: int):
    """``is_right_isotone_at`` at the all-equal anchor on ``random_ds(n,
    seed).matrix`` for seeds 0..7: the orbit is one image and the rows
    decline, so every trial draws a vector above the anchor, and holds."""
    cells = [mk.random_ds(n, seed).matrix.rows for seed in range(8)]

    def make():
        pool, anchor = [mk.Mat(rows) for rows in cells], mk.AnchorPoint(mk.Vec([1] * n))
        return lambda: [mk.is_right_isotone_at(a, anchor, trials=50, seed=i)
                        for i, a in enumerate(pool)]

    def read(verdicts):
        _expect(all(verdicts), f"every doubly stochastic cell at n = {n} holds")
        return {"cells": len(verdicts), "draws": sum(v.trials for v in verdicts)}
    return make, read


def global_sampled(n: int):
    rows, _ = _planted(n)

    def make():
        a = mk.Mat(rows)
        return lambda: mk.is_global_isotone_sampled(a, trials=10, seed=1)

    def read(verdict):
        _expect(verdict.holds, f"the planted form at n = {n} holds")
        return {}
    return make, read


def global_sampled_drawn(n: int):
    """``is_global_isotone_sampled`` on ``random_ds(n, seed).matrix`` for seeds
    0..7, ``trials=20``: the rows decline, so the sampler draws, and every
    cell is refuted."""
    cells = [mk.random_ds(n, seed).matrix.rows for seed in range(8)]

    def make():
        pool = [mk.Mat(rows) for rows in cells]
        return lambda: [mk.is_global_isotone_sampled(a, trials=20, seed=i)
                        for i, a in enumerate(pool)]

    def read(verdicts):
        _expect(not any(verdicts), f"every doubly stochastic cell at n = {n} is refuted")
        return {"cells": len(verdicts)}
    return make, read


def classify(n: int):
    rows, _ = _planted(n)

    def make():
        a = mk.Mat(rows)
        return lambda: mk.classify_global(a)

    def read(form):
        _expect(isinstance(form, mk.PermScaled), f"the planted form at n = {n} is found")
        return {}
    return make, read


def campaign(n: int):
    """The seeded pool ``campaign_matrices(n, 8, 1)`` at a strict integer
    anchor, each cell through ``verify_statements``: random cells failing
    at an early image, planted forms the rows certify at the second, and
    perturbed ones, one of which at n = 8 fails past image 5000."""
    cells = [a.rows for _, a in isotone.campaign_matrices(n, 8, 1)]
    alpha = list(range(n, 0, -1))

    def make():
        pool, anchor = [mk.Mat(rows) for rows in cells], mk.AnchorPoint(mk.Vec(alpha))
        return lambda: [mk.verify_statements(a, anchor, trials=20, seed=i)
                        for i, a in enumerate(pool)]

    def read(checks):
        _expect(all(check.consistent for check in checks),
                f"every cell at n = {n} is consistent")
        return {"cells": len(checks),
                "all_true": sum(check.all_hold for check in checks),
                "all_false": sum(not any(check.bits) for check in checks)}
    return make, read


def _pair(n: int, primes: bool) -> tuple[list[Fraction], list[Fraction]]:
    """``x`` majorized by ``y``: ``y`` seeded, ``x`` averages disjoint pairs of it."""
    rng = random.Random(f"sweep:check:{n}:{primes}")
    y = [Fraction(rng.randint(-50, 50),
                  rng.choice(PRIMES) if primes else rng.randint(1, 6)) for _ in range(n)]
    x = list(y)
    order = list(range(n))
    rng.shuffle(order)
    for i, j in zip(order[0::4], order[1::4]):
        x[i] = x[j] = (y[i] + y[j]) / 2
    return x, y


def _vector_files(x, y) -> tuple[tempfile.TemporaryDirectory, list[str]]:
    """A scratch directory holding ``x.json`` and ``y.json``, and their paths.
    Entries are written as the CLI's users write them: an integer as a JSON
    int, any other value as a ``"p/q"`` string."""
    work = tempfile.TemporaryDirectory(prefix="majorkit-sweep-")
    paths = [str(Path(work.name) / name) for name in ("x.json", "y.json")]
    for path, v in zip(paths, (x, y)):
        entries = [e.numerator if e.denominator == 1 else str(e) for e in map(Fraction, v)]
        Path(path).write_text(json.dumps(entries), encoding="utf-8")
    return work, paths


def _check(primes: bool):
    def make(n: int):
        x, y = _pair(n, primes)
        work, paths = _vector_files(x, y)

        def run():
            return _cli(["check", *paths])
        run.work = work  # the files live as long as the run

        def read(out):
            code, text = out
            _expect(code == 0, f"check at n = {n} exits 0")
            sums = json.loads(text)["counts"].values()
            scale = math.lcm(*(v.denominator for v in x + y))
            return {"sum_chars": sum(len(v) for vs in sums for v in vs),
                    "scale_bits": scale.bit_length()}
        return (lambda: run), read
    return make


def _construct_pair(n: int):
    """``x = D y`` for a seeded doubly stochastic ``D``, as plain entries."""
    rng = random.Random(f"sweep:construct:{n}")
    y = mk.Vec(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(n))
    return (mk.random_ds(n, n, steps=4).matrix @ y).entries, y.entries


def _no_reads(result) -> dict:
    return {}


def witness(n: int):
    xs, ys = _construct_pair(n)

    def make():
        x, y = mk.Vec(xs), mk.Vec(ys)
        return lambda: mk.witness_ds(x, y)
    return make, _no_reads


def birkhoff(n: int):
    rows = mk.witness_ds(*map(mk.Vec, _construct_pair(n))).matrix.matrix.rows

    def make():  # the check clears the fresh matrix here, untimed
        d = mk.DoublyStochastic(mk.Mat(rows))
        return lambda: mk.birkhoff(d)
    return make, _no_reads


def extremizers(n: int):
    """Each value of ``x`` twice (the last once at odd n); ``y`` distinct."""
    rng = random.Random(f"sweep:extremizers:{n}")
    values = rng.sample(range(-12, 13), (n + 1) // 2)
    xs = [v for v in values for _ in range(2)][:n]
    ys = rng.sample(range(-40, 41), n)

    def make():
        x, y = mk.Vec(xs), mk.Vec(ys)
        return lambda: mk.extremizer_sets(x, y, guard=n)
    return make, _no_reads


def cli_extremizers(n: int):
    """``extremizers`` on an (n-1)+1 split of ``x`` against a distinct ``y``:
    (n-1)! extremizers a side, the report writer's worst case at n."""
    rng = random.Random(f"sweep:cli.extremizers:{n}")
    a, b = rng.sample(range(-12, 13), 2)
    x = [a] * (n - 1) + [b]
    rng.shuffle(x)
    work, paths = _vector_files(x, rng.sample(range(-40, 41), n))

    def run():
        return _cli(["extremizers", *paths])
    run.work = work

    def read(out):
        code, text = out
        counts = json.loads(text)["counts"]
        _expect(code == 0 and counts["n_maximizers"] == math.factorial(n - 1),
                f"extremizers at n = {n} exits 0 with (n-1)! maximizers")
        return {"report_bytes": len(text),
                **{k: counts[k] for k in ("n_maximizers", "n_minimizers")}}
    return (lambda: run), read


def verify(n: int):
    argv = ["verify", "--n", str(n), "--matrices", "16", "--trials", "20", "--seed", "3"]

    def run():
        return _cli(argv)

    def read(out):
        code, text = out
        _expect(code == 0, f"verify at n = {n} exits 0")
        counts = json.loads(text)["counts"]
        return {k: counts[k] for k in ("matrices", "all_true", "all_false")}
    return (lambda: run), read


# (layer, sizes, builder): the builder sets a point up and returns what
# makes a timed run, called untimed before each one (a library point builds
# fresh inputs there), and what to read off the run's result as counters.
LAYERS = (
    ("isotone.right", (4, 5, 6, 7, 8), right_isotone),
    ("isotone.right.drawn", (4, 6), right_isotone_drawn),
    ("isotone.global_sampled", (5, 6, 7, 8), global_sampled),
    ("isotone.global_sampled.drawn", (4, 6), global_sampled_drawn),
    ("isotone.classify_global", (4, 8, 16), classify),
    ("isotone.verify_statements", (4, 6, 8), campaign),
    ("cli.check.small_den", (256, 1024, 4096), _check(primes=False)),
    ("cli.check.prime_den", (256, 1024, 4096), _check(primes=True)),
    ("doubly_stochastic.witness_ds", (20, 40, 80), witness),
    ("doubly_stochastic.birkhoff", (20, 40, 80), birkhoff),
    ("rearrangement.extremizer_sets", (8, 10, 12), extremizers),
    ("cli.extremizers", (7, 8), cli_extremizers),
    ("cli.verify", (6, 7, 8), verify),
)


def points(quick: bool) -> list[tuple[str, int]]:
    """The ``(layer, n)`` points a sweep reports; quick takes each layer's smallest n."""
    return [(layer, n) for layer, sizes, _ in LAYERS
            for n in (sizes[:1] if quick else sizes)]


def measure(builder, n: int, runs: int) -> dict:
    make, read = builder(n)
    make()()  # warm-up: imports, caches and first-call set-up stay out of the runs
    times, kernel = [], []
    for _ in range(runs):
        run = make()
        t0 = perf_counter_ns()
        run()
        times.append(perf_counter_ns() - t0)
        kernel.append(hostspeed.sample())
    median_ms = statistics.median(times) / 1e6
    scale = hostspeed.scale(kernel)
    result, counters = _counted(make())
    return {"median_ms": round(median_ms, 4), "host_scale": round(scale, 4),
            "scaled_median_ms": round(median_ms * scale, 4), "runs": runs,
            "counters": {**counters, **read(result)}}


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="the smallest n of every layer, one run, JSON to stdout")
    args = parser.parse_args(argv)
    runs = 1 if args.quick else RUNS
    builders = {layer: builder for layer, _, builder in LAYERS}
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "points": [{"layer": layer, "n": n, **measure(builders[layer], n, runs)}
                   for layer, n in points(args.quick)],
    }
    if args.quick:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    sha = _git("rev-parse", "--short", "HEAD")
    name = sha + ("-dirty" if _git("status", "--porcelain", "--", "src") else "")
    report["sha"] = name
    out = ROOT / f"BENCH_{name}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
