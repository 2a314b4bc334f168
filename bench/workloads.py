"""The three workloads: seeded inputs, the timed call, and the exact check.

Each workload class offers

* ``setup(mk, workdir)``: build the input pool from the seed with this
  file's own generators (never majorkit's ``random_*`` helpers), and
  return it with a sha256 digest of the generated inputs;
* ``run(mk, item)``: the timed call into majorkit's public API;
* ``extract(out)``: copy the result into plain Fractions and tuples;
* ``check(item, rec)``: the oracle, ``None`` when the result is right,
  else a one-line reason;
* ``tamper(rec)``: corrupt one result, so the self-test can see the
  oracle count it as a failure.

Inputs come in strata: every stratum of the pool holds each input kind
in fixed proportions, in a seeded order, and a run's pool is a fixed
number of strata (``strata``; two in the self-test's quick mode), so
every run sees the same mix whatever the seed or the host's speed.
Each pool is small enough that ``worker.py`` can run it eight times or
more within a 30 s run (Python 3.11 on a 2-vCPU Xeon VM whose cores
are shared), and large enough that ten items lie beyond its tail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _frac(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _shuffled(rng: random.Random, n: int) -> list[int]:
    image = list(range(n))
    rng.shuffle(image)
    return image


def _mix_scaled(rng: random.Random, y: list[Fraction], perms: int):
    """``x = D y`` for ``D`` a convex combination of ``perms`` random permutations.

    Returns x and y as integers over one common scale, with the scale:
    exact, and far cheaper to build and sort than Fractions.
    """
    n = len(y)
    den = math.lcm(*(v.denominator for v in y))
    nums = [v.numerator * (den // v.denominator) for v in y]
    weights = [rng.randint(1, 9) for _ in range(perms)]
    acc = [0] * n
    for w in weights:
        image = _shuffled(rng, n)
        for j in range(n):
            acc[image[j]] += w * nums[j]
    total = sum(weights)
    return acc, [a * total for a in nums], total * den


def _mix(rng: random.Random, y: list[Fraction], perms: int) -> list[Fraction]:
    xs, _, scale = _mix_scaled(rng, y, perms)
    return [Fraction(a, scale) for a in xs]


# -- campaign -------------------------------------------------------------

@dataclass
class Cell:
    index: int
    label: str
    rows: list[list[Fraction]]
    matrix: object


class Campaign:
    """``verify_statements`` over a seeded matrix pool, as ``majorkit verify`` does.

    Each block of seven cells holds four random integer matrices, one
    planted trace map, one planted scaled permutation plus constant and
    one single-entry perturbation of a planted matrix.  n is 4, not the
    5 of ``majorkit verify --n 5``: at n = 5 a planted cell takes about
    4 s (Python 3.11 on a 2-vCPU VM), so a run would hold too few of them
    for a steady throughput or a tail percentile with ten samples beyond.
    Six blocks give 42 cells, of which the 12 planted ones (about 0.2 s
    each) are the slowest: the tail, ten cells from the top, is always
    the second fastest planted cell, and the median a negative one.
    """

    name = "campaign"
    strata = 6
    trials = 50

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.n = 3 if quick else 4
        self.blocks = 2 if quick else self.strata
        self.anchor_values = [Fraction(v) for v in range(self.n, 0, -1)]

    def _random(self, rng):
        return [[Fraction(rng.randint(-5, 5)) for _ in range(self.n)]
                for _ in range(self.n)]

    def _trace_map(self, rng):
        return [[c] * self.n for c in
                (_frac(rng, -6, 6, 4) for _ in range(self.n))]

    def _perm_scaled(self, rng):
        image = _shuffled(rng, self.n)
        alpha = Fraction(rng.choice([v for v in range(-6, 7) if v]),
                         rng.randint(1, 4))
        beta = _frac(rng, -6, 6, 4)
        return [[beta + (alpha if image[j] == i else 0) for j in range(self.n)]
                for i in range(self.n)]

    def _perturbed(self, rng):
        rows = self._trace_map(rng) if rng.random() < 0.5 else self._perm_scaled(rng)
        i, j = rng.randrange(self.n), rng.randrange(self.n)
        rows[i][j] += rng.choice([Fraction(1), Fraction(-1), Fraction(2),
                                  Fraction(-2), Fraction(1, 2), Fraction(-1, 2)])
        return rows

    def setup(self, mk, workdir: Path):
        rng = random.Random(f"campaign:{self.seed}")
        makers = {"random": self._random, "trace_map": self._trace_map,
                  "perm_scaled": self._perm_scaled, "perturbed": self._perturbed}
        pool = []
        for _ in range(self.blocks):
            labels = ["random"] * 4 + ["trace_map", "perm_scaled", "perturbed"]
            rng.shuffle(labels)
            for label in labels:
                rows = makers[label](rng)
                pool.append(Cell(len(pool), label, rows, mk.Mat(rows)))
        self.anchor = mk.AnchorPoint(mk.Vec(self.anchor_values))
        digest = _digest(f"{c.label} {c.rows}" for c in pool)
        return pool, digest

    def run(self, mk, cell: Cell):
        return mk.verify_statements(cell.matrix, self.anchor, trials=self.trials,
                                    seed=f"{self.seed}:{cell.index}")

    @staticmethod
    def _plain(value):
        if hasattr(value, "image"):
            return tuple(value.image)
        if hasattr(value, "entries"):
            return list(value.entries)
        return value

    def extract(self, out) -> dict:
        witnesses = {}
        for name in ("left", "right", "point", "equiv", "global_sampled"):
            verdict = getattr(out, name)
            if not verdict.holds:
                witnesses[name] = {k: self._plain(v)
                                   for k, v in (verdict.witness or {}).items()}
        form = out.global_form
        if form is None:
            plain_form = None
        elif type(form).__name__ == "TraceMap":
            plain_form = ("trace_map", list(form.a.entries))
        else:
            plain_form = ("perm_scaled", form.alpha, form.beta, tuple(form.perm.image))
        return {"bits": tuple(out.bits), "consistent": out.consistent,
                "advisory": tuple(out.advisory_disagreement),
                "form": plain_form, "witnesses": witnesses}

    def _form_error(self, rows, form) -> str | None:
        n = self.n
        if form[0] == "trace_map":
            a = form[1]
            ok = all(rows[i][j] == a[i] for i in range(n) for j in range(n))
        else:
            _, alpha, beta, image = form
            ok = alpha != 0 and oracle.is_permutation(image, n) and all(
                rows[i][j] == beta + (alpha if image[j] == i else 0)
                for i in range(n) for j in range(n))
        return None if ok else f"global form {form[0]} does not rebuild the matrix"

    def _witness_holds(self, rows, name: str, w: dict) -> bool:
        alpha = self.anchor_values
        def image(v):
            return oracle.matvec(rows, v)

        def orbit_image(perm):
            return image(oracle.permute(perm, alpha))

        if name == "equiv":
            return (oracle.prefix_desc(orbit_image(w["perm"]))
                    != oracle.prefix_desc(image(alpha)))
        if name == "left":
            return not oracle.majorized(orbit_image(w["source_perm"]),
                                        orbit_image(w["target_perm"]))
        if name == "right":
            return (oracle.majorized(alpha, w["y"])
                    and not oracle.majorized(orbit_image(w["perm"]), image(w["y"])))
        if name == "point":
            if "perm" in w:
                return not oracle.majorized(orbit_image(w["perm"]), image(alpha))
            return (oracle.majorized(alpha, w["y"])
                    and not oracle.majorized(image(alpha), image(w["y"])))
        y = w["y"]
        return not oracle.majorized(image(oracle.permute(w["perm"], y)), image(y))

    def check(self, cell: Cell, rec: dict) -> str | None:
        bits = rec["bits"]
        if cell.label in ("trace_map", "perm_scaled") and not all(bits):
            return f"planted {cell.label} gave bits {bits}"
        if len(set(bits)) != 1:
            return f"statements disagree at a strict anchor: {bits}"
        if not rec["consistent"] or rec["advisory"]:
            return "inconsistent cell or advisory disagreement"
        if rec["form"] is None:
            if bits[3]:
                return "equivalence preserving without a global form"
        else:
            error = self._form_error(cell.rows, rec["form"])
            if error:
                return error
        for name, w in rec["witnesses"].items():
            if not self._witness_holds(cell.rows, name, w):
                return f"{name} witness does not re-verify"
        return None

    def tamper(self, rec: dict) -> dict:
        if "equiv" in rec["witnesses"]:
            rec["witnesses"]["equiv"]["perm"] = tuple(range(self.n))
        else:
            rec["form"] = None
        return rec


# -- construct ------------------------------------------------------------

@dataclass
class Pair:
    x: list[Fraction]
    y: list[Fraction]
    vx: object
    vy: object


class Construct:
    """``majorizes`` then ``witness_ds`` then ``birkhoff`` on majorizing pairs.

    ``x = D y`` with ``D`` a convex combination of four random
    permutations with integer weights; ``y`` has denominators up to 6.
    n is 20: at n = 32 an item takes about 0.5 s (Python 3.11 on a
    2-vCPU VM), and the 36 items that a tail with ten beyond needs would
    fit in a 30 s run only twice; at n = 20 an item takes about 0.1 s.
    """

    name = "construct"
    strata = 36

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.n = 6 if quick else 20
        self.count = 2 if quick else self.strata

    def setup(self, mk, workdir: Path):
        rng = random.Random(f"construct:{self.seed}")
        pool = []
        for _ in range(self.count):
            y = [_frac(rng, -20, 20, 6) for _ in range(self.n)]
            x = _mix(rng, y, 4)
            pool.append(Pair(x, y, mk.Vec(x), mk.Vec(y)))
        return pool, _digest(f"{p.x} {p.y}" for p in pool)

    def run(self, mk, pair: Pair):
        holds = mk.majorizes(pair.vx, pair.vy)
        witness = mk.witness_ds(pair.vx, pair.vy)
        return holds, witness, mk.birkhoff(witness.matrix)

    def extract(self, out) -> dict:
        holds, witness, dec = out
        return {"majorizes": holds,
                "matrix": [list(row) for row in witness.matrix.matrix.rows],
                "transforms": len(witness.transforms),
                "terms": [(w, tuple(p.image)) for w, p in dec.terms]}

    def check(self, pair: Pair, rec: dict) -> str | None:
        n = self.n
        d = rec["matrix"]
        if rec["majorizes"] is not True:
            return "majorizes() rejected a majorizing pair"
        if rec["transforms"] > n - 1:
            return f"{rec['transforms']} T-transforms, more than n - 1"
        if not oracle.is_doubly_stochastic(d):
            return "witness is not doubly stochastic"
        if oracle.matvec(d, pair.y) != pair.x:
            return "witness D does not map y to x"
        terms = rec["terms"]
        if not 1 <= len(terms) <= (n - 1) ** 2 + 1:
            return f"{len(terms)} Birkhoff terms, outside 1..(n-1)^2+1"
        total = Fraction(0)
        recomposed: dict[tuple[int, int], Fraction] = {}
        for w, image in terms:
            if w <= 0 or not oracle.is_permutation(image, n):
                return "Birkhoff term with a non-positive weight or bad permutation"
            total += w
            for j in range(n):
                key = (image[j], j)
                recomposed[key] = recomposed.get(key, Fraction(0)) + w
        if total != 1:
            return "Birkhoff weights do not sum to 1"
        if any(d[i][j] != recomposed.get((i, j), 0)
               for i in range(n) for j in range(n)):
            return "Birkhoff terms do not recompose the witness"
        return None

    def tamper(self, rec: dict) -> dict:
        rec["matrix"][0][0] += 1
        return rec


# -- cli_queries ----------------------------------------------------------

@dataclass
class Query:
    kind: str
    argv: list[str]
    x: list[Fraction]
    y: list[Fraction]


def _json_vector(v: list[Fraction]) -> str:
    return json.dumps([int(a) if a.denominator == 1 else str(a) for a in v])


class CliQueries:
    """In-process ``majorkit.cli.main`` calls on JSON files written at set-up.

    Each block is three ``check`` queries at n = 256 (alternately a pair
    that holds and one that fails at a prefix sum) then one
    ``extremizers`` query at n = 7.  Three to one, not one to one, so
    that the median falls among the checks and the tail among the
    extremizer scans instead of on the edge between them.  The
    extremizer inputs cycle through every count k = 2..7 of distinct
    values of x in a seeded order, with seeded block sizes, except that
    k = 2 is always the tie-heaviest split 6 + 1: every stratum then
    holds the largest report (720 extremizers a side), so the peak
    memory of a run does not hinge on whether the seed drew it.

    n is 7, not 8: an 8! scan takes about 0.8 s, so the eleven or more
    scans that a tail with ten samples beyond needs would take most of a
    run each time the pool is run; a 7! scan takes about 0.1 s.  Three
    strata give 72 queries: the median falls among the 54 checks and the
    tail among the 18 scans.
    """

    name = "cli_queries"
    checks_per_scan = 3
    strata = 3

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.n_check = 16 if quick else 256
        self.n_scan = 5 if quick else 7
        self.count = 2 if quick else self.strata

    def _check_pair(self, rng, holds: bool):
        n = self.n_check
        y = [_frac(rng, -50, 50, 6) for _ in range(n)]
        xs, ys, scale = _mix_scaled(rng, y, 4)
        if not holds:
            # Push the top-k sum of x above that of y, keeping the total.
            order = sorted(range(n), key=xs.__getitem__, reverse=True)
            k = rng.randint(1, n - 1)
            gap = (sum(sorted(ys, reverse=True)[:k]) - sum(xs[i] for i in order[:k])
                   + rng.randint(1, scale))
            xs[order[k - 1]] += gap
            xs[order[-1]] -= gap
        return [Fraction(a, scale) for a in xs], y

    def _scan_pair(self, rng, k: int):
        n = self.n_scan
        den = rng.randint(1, 4)
        y = [Fraction(v, den) for v in sorted(rng.sample(range(-40, 41), n),
                                              reverse=True)]
        sizes = [1] * k
        for _ in range(n - k):
            sizes[0 if k == 2 else rng.randrange(k)] += 1
        den = rng.randint(1, 4)
        values = [Fraction(v, den) for v in rng.sample(range(-12, 13), k)]
        x = [v for v, c in zip(values, sizes) for _ in range(c)]
        rng.shuffle(x)
        return x, y

    def setup(self, mk, workdir: Path):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        rng = random.Random(f"cli_queries:{self.seed}")
        pool = []
        parts = []
        checks = 0
        for _ in range(self.count):
            ks = list(range(2, self.n_scan + 1))
            rng.shuffle(ks)
            for k in ks:
                specs = []
                for _ in range(self.checks_per_scan):
                    specs.append(("check", self._check_pair(rng, checks % 2 == 0)))
                    checks += 1
                specs.append(("extremizers", self._scan_pair(rng, k)))
                for kind, (x, y) in specs:
                    paths = []
                    for tag, v in (("x", x), ("y", y)):
                        path = workdir / f"{len(pool)}_{tag}.json"
                        text = _json_vector(v)
                        path.write_text(text, encoding="utf-8")
                        paths.append(str(path))
                        parts.append(f"{kind} {tag} {text}")
                    pool.append(Query(kind, [kind, *paths], x, y))
        return pool, _digest(parts)

    def run(self, mk, query: Query):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mk.cli.main(query.argv)
        return code, out.getvalue()

    def counters(self, out) -> dict:
        """Counts the loop records on the traced item's span."""
        return {"cli.report_bytes": len(out[1])}

    def extract(self, out) -> dict:
        code, text = out
        report = json.loads(text) if text else None
        if report is not None:
            report.pop("elapsed_ms", None)  # wall time, not part of the answer
        return {"code": code, "report": report}

    def check(self, query: Query, rec: dict) -> str | None:
        report = rec["report"]
        if report is None:
            return f"no report, exit code {rec['code']}"
        if query.kind == "check":
            return self._check_check(query, rec["code"], report)
        return self._check_scan(query, rec["code"], report)

    @staticmethod
    def _check_check(query: Query, code: int, report: dict) -> str | None:
        violation = oracle.first_violation(query.x, query.y)
        holds = violation is None
        if code != (0 if holds else 1) or report["verdict"] is not holds:
            return f"check verdict {report['verdict']} / exit {code}, oracle says {holds}"
        px, py = oracle.prefix_desc(query.x), oracle.prefix_desc(query.y)
        counts = report["counts"]
        if (counts["x_sorted_prefix_sums"] != [str(v) for v in px]
                or counts["y_sorted_prefix_sums"] != [str(v) for v in py]):
            return "reported prefix sums differ from the oracle's"
        if not holds:
            kind, index = violation
            w = report["witness"]
            if (w["kind"], w["index"], w["lhs"], w["rhs"]) != (
                    kind, index, str(px[index - 1]), str(py[index - 1])):
                return f"witness {w} is not the first violation {violation}"
        return None

    def _check_scan(self, query: Query, code: int, report: dict) -> str | None:
        n = self.n_scan
        if code != 0:
            return f"extremizers exited with {code}"
        counts = report["counts"]
        yd = sorted(query.y, reverse=True)
        best = oracle.dot(sorted(query.x, reverse=True), yd)
        worst = oracle.dot(sorted(query.x), yd)
        if (counts["max_value"], counts["min_value"]) != (str(best), str(worst)):
            return "extreme values differ from the sorted dot products"
        multiplicity: dict[Fraction, int] = {}
        for v in query.x:
            multiplicity[v] = multiplicity.get(v, 0) + 1
        expected = 1
        for c in multiplicity.values():
            expected *= oracle.factorial(c)
        k = len(multiplicity)
        if counts["distinct_count"] != k or counts["bound"] != oracle.factorial(n - k + 1):
            return "distinct count or bound differ from the oracle's"
        for side, value in (("maximizers", best), ("minimizers", worst)):
            perms = [tuple(p) for p in counts[side]]
            if len(perms) != expected or counts[f"n_{side}"] != expected:
                return f"{len(perms)} {side}, expected {expected}"
            if len(set(perms)) != expected:
                return f"repeated {side}"
            for image in perms:
                if not oracle.is_permutation(image, n):
                    return f"{side} entry {image} is not a permutation"
                acc = Fraction(0)
                for j in range(n):
                    acc += query.x[image[j]] * yd[j]
                if acc != value:
                    return f"{side} entry {image} does not attain {value}"
        return None

    def tamper(self, rec: dict) -> dict:
        rec["code"] = 1 - rec["code"]
        return rec


WORKLOADS = {cls.name: cls for cls in (Campaign, Construct, CliQueries)}
