"""Shared seeded generators and tiny oracles for the suite."""

from __future__ import annotations

import random
from fractions import Fraction

from majorkit import (
    DEFAULT_GUARD,
    BirkhoffDecomposition,
    DoublyStochastic,
    IsotoneVerdict,
    MajorizationWitness,
    Mat,
    Perm,
    Rational,
    StatementCheck,
    Vec,
    classify_global,
    desc_prefix_sums,
    enumerate_perms,
    permutohedron_vertices,
    random_ds,
)
from majorkit.isotone import _random_distinct_vec, _sample_above
from majorkit.majorization import _orbit


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


# Pairwise orbit loops kept as oracles for the one-scan predicates in
# majorkit.isotone: each checks every orbit image against every target.

def _maj(pa, pb) -> bool:
    return pa[-1] == pb[-1] and all(a <= b for a, b in zip(pa, pb))


def oracle_equiv(a, anchor, guard=DEFAULT_GUARD) -> IsotoneVerdict:
    base = desc_prefix_sums(a @ anchor.alpha)
    for p, v in _orbit(anchor.alpha, guard):
        if desc_prefix_sums(a @ v) != base:
            return IsotoneVerdict(False, {"perm": p})
    return IsotoneVerdict(True)


def oracle_left(a, anchor, guard=DEFAULT_GUARD) -> IsotoneVerdict:
    images = [(p, desc_prefix_sums(a @ v)) for p, v in _orbit(anchor.alpha, guard)]
    for pt, target in images:
        for ps, source in images:
            if not _maj(source, target):
                return IsotoneVerdict(False, {"source_perm": ps, "target_perm": pt})
    return IsotoneVerdict(True)


def _oracle_pool_above(anchor, trials, rng, guard):
    pool = permutohedron_vertices(anchor.alpha, guard)
    pool.extend(_sample_above(anchor.alpha, rng) for _ in range(trials))
    return pool


def oracle_right(a, anchor, trials, seed, guard=DEFAULT_GUARD) -> IsotoneVerdict:
    rng = random.Random(f"{seed}:right")
    orbit_images = [(p, desc_prefix_sums(a @ v))
                    for p, v in _orbit(anchor.alpha, guard)]
    for y in _oracle_pool_above(anchor, trials, rng, guard):
        target = desc_prefix_sums(a @ y)
        for p, source in orbit_images:
            if not _maj(source, target):
                return IsotoneVerdict(False, {"perm": p, "y": y}, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def oracle_point(a, anchor, trials, seed, guard=DEFAULT_GUARD) -> IsotoneVerdict:
    base = desc_prefix_sums(a @ anchor.alpha)
    for q, v in _orbit(anchor.alpha, guard):
        if not _maj(desc_prefix_sums(a @ v), base):
            return IsotoneVerdict(False, {"perm": q})
    rng = random.Random(f"{seed}:point")
    for y in _oracle_pool_above(anchor, trials, rng, guard):
        if not _maj(base, desc_prefix_sums(a @ y)):
            return IsotoneVerdict(False, {"y": y}, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def oracle_global(a, trials, seed, guard=DEFAULT_GUARD,
                  extra_targets=()) -> IsotoneVerdict:
    n = a.n_rows
    rng = random.Random(f"{seed}:global")
    targets = list(extra_targets)
    targets.extend(_random_distinct_vec(n, rng) for _ in range(trials))
    for y in targets:
        target = desc_prefix_sums(a @ y)
        for q in enumerate_perms(n, guard):
            if not _maj(desc_prefix_sums(a @ q.apply(y)), target):
                return IsotoneVerdict(False, {"perm": q, "y": y}, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def oracle_verify(a, anchor, trials, seed, guard=DEFAULT_GUARD) -> StatementCheck:
    """The joint verifier with every statement checked in full, orbit included."""
    equiv = oracle_equiv(a, anchor, guard)
    left = oracle_left(a, anchor, guard)
    right = oracle_right(a, anchor, trials, seed, guard)
    point = oracle_point(a, anchor, trials, seed, guard)
    form = classify_global(a)
    orbit = tuple(permutohedron_vertices(anchor.alpha, guard))
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


# Dense and recursive constructions kept as oracles for the two-row
# T-chain in witness_ds and the integer peel in birkhoff.

def oracle_witness_matrix(w: MajorizationWitness, n: int) -> Mat:
    """``unsort.matrix() @ T_k @ ... @ T_1 @ presort.matrix()``, densely."""
    chain = Mat.identity(n)
    for step in w.transforms:
        chain = step.as_matrix(n) @ chain
    return w.unsort.matrix() @ chain @ w.presort.matrix()


def _oracle_perfect_matching(support: list[list[bool]]) -> list[int] | None:
    n = len(support)
    match_col = [-1] * n  # column -> row

    def try_row(r: int, seen: list[bool]) -> bool:
        for c in range(n):
            if support[r][c] and not seen[c]:
                seen[c] = True
                if match_col[c] < 0 or try_row(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        if not try_row(r, [False] * n):
            return None
    cols = [-1] * n
    for c, r in enumerate(match_col):
        cols[r] = c
    return cols


def oracle_birkhoff(d: DoublyStochastic) -> BirkhoffDecomposition:
    """Fraction peeling that rebuilds the support and recurses to match."""
    n = d.n
    work = [list(row) for row in d.matrix.rows]
    terms: list[tuple[Rational, Perm]] = []
    while any(v != 0 for row in work for v in row):
        support = [[v != 0 for v in row] for row in work]
        cols = _oracle_perfect_matching(support)
        if cols is None:
            raise RuntimeError("no permutation inside the support; input invalid")
        weight = min(work[i][cols[i]] for i in range(n))
        terms.append((weight, Perm(cols).inverse()))
        for i in range(n):
            work[i][cols[i]] -= weight
    return BirkhoffDecomposition(tuple(terms))
