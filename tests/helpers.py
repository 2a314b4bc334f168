"""Shared seeded generators and tiny oracles for the suite."""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from operator import mul
from pathlib import Path

from hypothesis import strategies as st

from majorkit import (
    DEFAULT_GUARD,
    BirkhoffDecomposition,
    DimensionMismatch,
    DoublyStochastic,
    IsotoneVerdict,
    MajorizationWitness,
    Mat,
    Perm,
    Rational,
    StatementCheck,
    ExtremizerReport,
    PermScaled,
    SortedView,
    TraceMap,
    Vec,
    enumerate_perms,
    first_violation,
    random_ds,
)
from majorkit import doubly_stochastic, numerics


# Signed, zero-padded digit strings "p/q", zero denominators and parts
# either side of CPython's 4300-digit int-string limit included.
_digits = st.one_of(
    st.builds(lambda pad, n: "0" * pad + str(n),
              st.integers(0, 3), st.integers(0, 10**40)),
    st.integers(4298, 4302).map(lambda k: "7" * k),
)
plain_ratios = st.builds(lambda sign, p, q: f"{sign}{p}/{q}",
                         st.sampled_from(["", "+", "-"]), _digits, _digits)


def count_clears(monkeypatch) -> list[int]:
    """Count every ``_clear_denominators`` call the package makes from now
    on, in the one entry of the returned list: the first reads of ``Vec``
    and ``Mat`` frames, and the decomposition's weight check."""
    calls = [0]
    clear = numerics._clear_denominators

    def counted(rows):
        calls[0] += 1
        return clear(rows)

    for module in (numerics, doubly_stochastic):
        monkeypatch.setattr(module, "_clear_denominators", counted)
    return calls


def rand_fraction(rng: random.Random, lo: int = -10, hi: int = 10,
                  max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_vec(rng: random.Random, n: int, lo: int = -10, hi: int = 10,
             max_den: int = 6) -> Vec:
    return Vec(rand_fraction(rng, lo, hi, max_den) for _ in range(n))


def rand_strictly_decreasing(rng: random.Random, n: int) -> Vec:
    values = rng.sample(range(-20, 21), n)
    den = rng.randint(1, 4)
    return Vec(Fraction(v, den) for v in sorted(values, reverse=True))


def rand_perm(rng: random.Random, n: int) -> Perm:
    image = list(range(n))
    rng.shuffle(image)
    return Perm(image)


def majorizing_pair(rng: random.Random, n: int) -> tuple[Vec, Vec]:
    """A pair (x, y) with x majorized by y, built as x = D y."""
    y = rand_vec(rng, n)
    d = random_ds(n, seed=rng.getrandbits(32), steps=rng.randint(1, 6))
    return d.matrix @ y, y


def naive_mat_vec(a: Mat, x: Vec) -> Vec:
    """Independent matrix application: plain double loop, no shortcuts."""
    out = []
    for i in range(a.n_rows):
        acc = Fraction(0)
        for j in range(a.n_cols):
            acc += a.rows[i][j] * x[j]
        out.append(acc)
    return Vec(out)


# Dense matrix algebra that the package no longer needs, kept for the
# oracles and the permutation-matrix tests.

def mat_mul(a: Mat, b: Mat) -> Mat:
    """Dense product; zero terms are skipped, which keeps the products of
    permutation and T-transform matrices cheap."""
    if a.n_cols != b.n_rows:
        raise ValueError("inner matrix dimensions differ")
    cols = tuple(zip(*b.rows))
    return Mat([[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
                 for col in cols] for row in a.rows])


def transpose(a: Mat) -> Mat:
    return Mat(zip(*a.rows))


def t_matrix(step, n: int) -> Mat:
    """The dense matrix ``(1-t)I + t Q`` of a :class:`TTransform`."""
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    s = 1 - step.t
    rows[step.i][step.i] = rows[step.j][step.j] = s
    rows[step.i][step.j] = rows[step.j][step.i] = step.t
    return Mat(rows)


# Fraction samplers kept as oracles for the integer draws in
# majorkit.isotone: the same rng calls in the same order.

def oracle_sample_above(alpha: Vec, rng: random.Random) -> Vec:
    n = len(alpha)
    if n == 1:
        return alpha
    vals = list(alpha)
    for _ in range(rng.randint(1, 3 * n)):
        order = sorted(range(n), key=vals.__getitem__, reverse=True)
        si, sj = sorted(rng.sample(range(n), 2))
        t = Fraction(rng.randint(1, 12), rng.randint(1, 8))
        vals[order[si]] += t
        vals[order[sj]] -= t
    rng.shuffle(vals)
    return Vec(vals)


def oracle_random_distinct_vec(n: int, rng: random.Random) -> Vec:
    nums = rng.sample(range(-24, 25), n)
    den = rng.randint(1, 6)
    return Vec(Fraction(v, den) for v in nums)


# Fraction profiles and pairwise orbit loops on Fraction matvecs kept as
# oracles for the integer order test in majorkit.majorization and the
# one-scan integer predicates in majorkit.isotone: each orbit loop
# checks every orbit image against every target.

def oracle_prefix_sums(x) -> tuple[Rational, ...]:
    """Prefix sums of the decreasing rearrangement, one Fraction at a time."""
    acc = Fraction(0)
    out = []
    for v in sorted(x, reverse=True):
        acc += v
        out.append(acc)
    return tuple(out)


def oracle_check_report(x_path: str, y_path: str, elapsed_ms: int
                        ) -> tuple[int, str]:
    """The exit code and JSON report of ``majorkit check x_path y_path``,
    built from Fractions: every entry read by ``Fraction``, the verdict
    and witness from ``first_violation`` on ``Vec``s, and the profiles
    printed from :func:`oracle_prefix_sums`."""
    inputs, vecs, warnings = {}, [], []
    for tag, path in (("x", x_path), ("y", y_path)):
        data = Path(path).read_bytes()
        inputs[tag] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
        doc = json.loads(data)
        vecs.append(Vec(Fraction(v) for v in doc))
        warnings += [f"{path}[{i}]: float {v!r} converted to the exact binary64 "
                     f"rational {Fraction(v)}"
                     for i, v in enumerate(doc) if isinstance(v, float)]
    violation = first_violation(*vecs)
    witness = None if violation is None else {
        "kind": violation.kind, "index": violation.index,
        "lhs": str(violation.lhs), "rhs": str(violation.rhs)}
    report = {
        "command": "check", "inputs": inputs, "seed": 0, "trials": 50,
        "verdict": violation is None, "witness": witness,
        "counts": {f"{tag}_sorted_prefix_sums":
                   [str(v) for v in oracle_prefix_sums(vec)]
                   for tag, vec in zip("xy", vecs)},
        "warnings": warnings, "elapsed_ms": elapsed_ms,
    }
    code = 0 if violation is None else 1
    return code, json.dumps(report, indent=2, sort_keys=True) + "\n"


def oracle_ser(value):
    """A report tree copied into plain JSON values, one recursive call per
    node: the CLI's path before its writer read library leaves itself."""
    if isinstance(value, str):
        return value
    if isinstance(value, Perm):
        return list(value.image)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Vec):
        return [str(v) for v in value]
    if isinstance(value, Mat):
        return [[str(v) for v in row] for row in value.rows]
    if isinstance(value, dict):
        return {k: oracle_ser(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [oracle_ser(v) for v in value]
    return value


def _maj(pa, pb) -> bool:
    return pa[-1] == pb[-1] and all(a <= b for a, b in zip(pa, pb))


def oracle_first_violation(x, y) -> tuple[str, int, Rational, Rational] | None:
    """``(kind, index, lhs, rhs)`` of the first failing Fraction prefix sum."""
    px, py = oracle_prefix_sums(x), oracle_prefix_sums(y)
    if px[-1] != py[-1]:
        return "total", len(px), px[-1], py[-1]
    for k, (a, b) in enumerate(zip(px, py)):
        if a > b:
            return "prefix", k + 1, a, b
    return None


def oracle_orbit(alpha: Vec, guard=DEFAULT_GUARD) -> list[tuple[Perm, Vec]]:
    """Distinct rearrangements of ``alpha``, each with the first perm giving it."""
    seen: set[Vec] = set()
    out: list[tuple[Perm, Vec]] = []
    for p in enumerate_perms(len(alpha), guard):
        v = p.apply(alpha)
        if v not in seen:
            seen.add(v)
            out.append((p, v))
    return out


def oracle_equiv(a, anchor, guard=DEFAULT_GUARD) -> IsotoneVerdict:
    base = oracle_prefix_sums(a @ anchor.alpha)
    for p, v in oracle_orbit(anchor.alpha, guard):
        if oracle_prefix_sums(a @ v) != base:
            return IsotoneVerdict(False, {"perm": p})
    return IsotoneVerdict(True)


def oracle_left(a, anchor, guard=DEFAULT_GUARD) -> IsotoneVerdict:
    images = [(p, oracle_prefix_sums(a @ v))
              for p, v in oracle_orbit(anchor.alpha, guard)]
    for pt, target in images:
        for ps, source in images:
            if not _maj(source, target):
                return IsotoneVerdict(False, {"source_perm": ps, "target_perm": pt})
    return IsotoneVerdict(True)


def _oracle_pool_above(anchor, trials, rng, guard):
    pool = [v for _, v in oracle_orbit(anchor.alpha, guard)]
    pool.extend(oracle_sample_above(anchor.alpha, rng) for _ in range(trials))
    return pool


def oracle_right(a, anchor, trials, seed, guard=DEFAULT_GUARD) -> IsotoneVerdict:
    rng = random.Random(f"{seed}:right")
    orbit_images = [(p, oracle_prefix_sums(a @ v))
                    for p, v in oracle_orbit(anchor.alpha, guard)]
    for y in _oracle_pool_above(anchor, trials, rng, guard):
        target = oracle_prefix_sums(a @ y)
        for p, source in orbit_images:
            if not _maj(source, target):
                return IsotoneVerdict(False, {"perm": p, "y": y}, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def oracle_point(a, anchor, trials, seed, guard=DEFAULT_GUARD) -> IsotoneVerdict:
    base = oracle_prefix_sums(a @ anchor.alpha)
    for q, v in oracle_orbit(anchor.alpha, guard):
        if not _maj(oracle_prefix_sums(a @ v), base):
            return IsotoneVerdict(False, {"perm": q})
    rng = random.Random(f"{seed}:point")
    for y in _oracle_pool_above(anchor, trials, rng, guard):
        if not _maj(base, oracle_prefix_sums(a @ y)):
            return IsotoneVerdict(False, {"y": y}, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def oracle_global(a, trials, seed, guard=DEFAULT_GUARD,
                  extra_targets=()) -> IsotoneVerdict:
    n = a.n_rows
    rng = random.Random(f"{seed}:global")
    targets = list(extra_targets)
    targets.extend(oracle_random_distinct_vec(n, rng) for _ in range(trials))
    for y in targets:
        target = oracle_prefix_sums(a @ y)
        for q in enumerate_perms(n, guard):
            if not _maj(oracle_prefix_sums(a @ q.apply(y)), target):
                return IsotoneVerdict(False, {"perm": q, "y": y}, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def oracle_verify(a, anchor, trials, seed, guard=DEFAULT_GUARD) -> StatementCheck:
    """The joint verifier with every statement checked in full, orbit included."""
    equiv = oracle_equiv(a, anchor, guard)
    left = oracle_left(a, anchor, guard)
    right = oracle_right(a, anchor, trials, seed, guard)
    point = oracle_point(a, anchor, trials, seed, guard)
    form = oracle_classify_global(a)
    orbit = tuple(v for _, v in oracle_orbit(anchor.alpha, guard))
    global_sampled = oracle_global(a, trials, seed, guard, extra_targets=orbit)
    exact_bits = [left.holds, equiv.holds, form is not None]
    definitive = list(exact_bits)
    sampled = {"right": right, "point": point, "global_sampled": global_sampled}
    definitive.extend(False for v in sampled.values() if not v.holds)
    consistent = not (True in definitive and False in definitive)
    advisory = tuple(name for name, v in sampled.items()
                     if v.holds and not all(exact_bits))
    return StatementCheck(left, right, point, equiv, form, global_sampled,
                          consistent, advisory)


# The all-rows row certificate, the composed global witness and the
# checked witness vector, kept as oracles for the moved-rows test, the
# witness read off the identity image and the samplers' ``isotone._vec``.

def oracle_rows_symmetric(rows) -> bool:
    """Whether the sorted rows of ``A tau_m`` equal A's for every adjacent
    column swap ``tau_m``, all rows sorted."""
    ranked = sorted(rows)
    return all(sorted(row[:m] + (row[m + 1], row[m]) + row[m + 2:] for row in rows)
               == ranked for m in range(len(rows) - 1))


def oracle_global_perm(left_witness) -> Perm:
    """The orbit scan's global witness perm, ``source target^-1``, from the
    ``left`` witness's pair."""
    return left_witness["source_perm"].compose(left_witness["target_perm"].inverse())


def oracle_vec(nums, den: int) -> Vec:
    """``nums / den`` through the checked ``Vec`` constructor."""
    return Vec(Fraction(v, den) for v in nums)


# The two-candidate-rule classify_global and the running-extreme
# extremizer scan, kept as oracles for the one-rule classify_global and
# for extremizer_sets, which takes its extreme values from extremes().

def oracle_classify_global(a: Mat) -> TraceMap | PermScaled | None:
    n = a.n_rows
    rows = a.rows
    if all(len(set(row)) == 1 for row in rows):
        return TraceMap(Vec(row[0] for row in rows))
    first = rows[0]
    if n == 2:
        candidates = [first[1], first[0]]
    else:
        counts: dict[Rational, int] = {}
        for v in first:
            counts[v] = counts.get(v, 0) + 1
        candidates = [v for v in dict.fromkeys(first) if counts[v] == n - 1]
    for beta in candidates:
        shifted = [[v - beta for v in row] for row in rows]
        positions = []
        values = []
        ok = True
        for row in shifted:
            nz = [j for j, v in enumerate(row) if v != 0]
            if len(nz) != 1:
                ok = False
                break
            positions.append(nz[0])
            values.append(row[nz[0]])
        if not ok or len(set(positions)) != n:
            continue
        if len(set(values)) != 1 or values[0] == 0:
            continue
        return PermScaled(values[0], beta, Perm(positions).inverse())
    return None


def oracle_extremizer_sets(x: Vec, y: Vec, guard=DEFAULT_GUARD) -> ExtremizerReport:
    n = len(x)
    yd = oracle_sort_desc(y).descending
    prod = [[xi * yj for yj in yd] for xi in x]
    best: Rational | None = None
    worst: Rational | None = None
    maximizers: list[Perm] = []
    minimizers: list[Perm] = []
    for p in enumerate_perms(n, guard):
        value = sum((prod[p(j)][j] for j in range(n)), Fraction(0))
        if best is None or value > best:
            best = value
            maximizers = [p]
        elif value == best:
            maximizers.append(p)
        if worst is None or value < worst:
            worst = value
            minimizers = [p]
        elif value == worst:
            minimizers.append(p)
    assert best is not None and worst is not None
    return ExtremizerReport(best, worst, tuple(maximizers), tuple(minimizers),
                            oracle_distinct_count(x))


# The Fraction bodies of the public functions that now decide on the
# integer frame, kept as oracles for them: each sorts, compares or hashes
# the Fraction entries themselves.  classify_global's oracle is
# oracle_classify_global and extremizer_sets' is oracle_extremizer_sets.

def oracle_sort_desc(x: Vec) -> SortedView:
    order = sorted(range(len(x)), key=x.__getitem__, reverse=True)
    descending = Vec(x[i] for i in order)
    ascending = Vec(reversed(descending.entries))
    return SortedView(descending, ascending, Perm(order).inverse())


def oracle_permutohedron_vertices(alpha: Vec, guard=DEFAULT_GUARD) -> list[Vec]:
    return [v for _, v in oracle_orbit(alpha, guard)]


def oracle_extremes(x: Vec, y: Vec) -> tuple[Rational, Rational]:
    xd, yd = sorted(x, reverse=True), sorted(y, reverse=True)
    return (sum(map(mul, xd, yd), Fraction(0)),
            sum(map(mul, reversed(xd), yd), Fraction(0)))


def oracle_permuted_dot(x: Vec, p: Perm, y: Vec) -> Rational:
    yd = sorted(y, reverse=True)
    return sum((x[p(j)] * yd[j] for j in range(len(x))), Fraction(0))


def oracle_distinct_count(x: Vec) -> int:
    return len(set(x))


def oracle_column_sums_equal(a: Mat) -> IsotoneVerdict:
    sums = [sum(row[j] for row in a.rows) for j in range(a.n_cols)]
    for j, s in enumerate(sums[1:], start=1):
        if s != sums[0]:
            return IsotoneVerdict(False, {
                "column_a": 0, "column_b": j, "sum_a": sums[0], "sum_b": s,
            })
    return IsotoneVerdict(True)


def oracle_choose_positive_shift(a: Mat) -> int:
    lowest = min(v for row in a.rows for v in row)
    return math.floor(-lowest) + 1


# Dense, recursive and Fraction-loop constructions kept as oracles for
# the integer T-chain in witness_ds, the repaired integer peel in
# birkhoff and the integer check_ds.

def oracle_check_ds(a: Mat) -> bool:
    """Row and column sums one Fraction at a time."""
    if not a.is_square:
        raise DimensionMismatch("doubly stochastic matrices are square")
    one = Fraction(1)
    for row in a.rows:
        if any(v < 0 for v in row):
            return False
        if sum(row) != one:
            return False
    for j in range(a.n_cols):
        if sum(row[j] for row in a.rows) != one:
            return False
    return True


def oracle_witness_matrix(w: MajorizationWitness, n: int) -> Mat:
    """``unsort.matrix() @ T_k @ ... @ T_1 @ presort.matrix()``, densely."""
    chain = Mat.identity(n)
    for step in w.transforms:
        chain = mat_mul(t_matrix(step, n), chain)
    return mat_mul(mat_mul(w.unsort.matrix(), chain), w.presort.matrix())


def _oracle_try_row(support: list[list[bool]], match_col: list[int], r: int,
                    seen: list[bool]) -> bool:
    """Kuhn's recursive augmenting path from row ``r``, columns ascending."""
    for c, positive in enumerate(support[r]):
        if positive and not seen[c]:
            seen[c] = True
            if match_col[c] < 0 or _oracle_try_row(support, match_col,
                                                   match_col[c], seen):
                match_col[c] = r
                return True
    return False


def oracle_birkhoff(d: DoublyStochastic) -> BirkhoffDecomposition:
    """Fraction peeling that rebuilds the support on every peel and
    rematches, in ascending order, the rows whose matched cell emptied."""
    n = d.n
    work = [list(row) for row in d.matrix.rows]
    match_col = [-1] * n  # column -> row
    rows = list(range(n))  # rows to rematch
    terms: list[tuple[Rational, Perm]] = []
    while any(v != 0 for row in work for v in row):
        support = [[v != 0 for v in row] for row in work]
        for r in rows:
            if not _oracle_try_row(support, match_col, r, [False] * n):
                raise RuntimeError("no permutation inside the support; input invalid")
        weight = min(work[r][c] for c, r in enumerate(match_col))
        terms.append((weight, Perm(match_col)))
        for c, r in enumerate(match_col):
            work[r][c] -= weight
        rows = sorted(r for c, r in enumerate(match_col) if work[r][c] == 0)
        match_col = [-1 if work[r][c] == 0 else r for c, r in enumerate(match_col)]
    return BirkhoffDecomposition(tuple(terms))
