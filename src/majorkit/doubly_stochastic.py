"""Doubly stochastic matrices: recognition, witnesses, and decomposition.

A doubly stochastic matrix is nonnegative with every row and column
summing to one.  This module recognises them exactly, constructs one
mapping ``y`` to ``x`` whenever ``x`` is majorized by ``y`` (a chain of
at most ``n - 1`` T-transforms between two permutations), decomposes any
of them into a convex combination of permutation matrices, and generates
seeded random instances for test campaigns.  The decomposition is a
greedy peel within ``(n-1)**2 + 1`` terms: each peel empties a cell, so
the rescaled residual drops to a face of strictly lower dimension.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress

from .majorization import Violation, _profile_violation, sort_desc
from .numerics import DimensionMismatch, Mat, Perm, Rational, Vec


class NotMajorized(ValueError):
    """Witness construction was asked for a pair with ``x`` not majorized by ``y``."""

    def __init__(self, violation: Violation):
        super().__init__(
            f"x is not majorized by y: {violation.kind} sum at index "
            f"{violation.index} gives {violation.lhs} vs {violation.rhs}"
        )
        self.violation = violation


@dataclass(frozen=True)
class DoublyStochastic:
    """A matrix checked exactly against the doubly stochastic invariants."""

    matrix: Mat

    def __post_init__(self):
        if not check_ds(self.matrix):
            raise ValueError("matrix is not doubly stochastic")

    @property
    def n(self) -> int:
        return self.matrix.n_rows


def check_ds(a: Mat) -> bool:
    """Exactly decide whether ``a`` is doubly stochastic.

    Raises :class:`DimensionMismatch` for non-square input; a rectangular
    matrix cannot satisfy the definition at all.
    """
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


@dataclass(frozen=True)
class TTransform:
    """One averaging step ``(1-t)I + t Q`` for the transposition ``Q`` of ``i, j``."""

    i: int
    j: int
    t: Rational


@dataclass(frozen=True)
class MajorizationWitness:
    """A doubly stochastic ``D`` with ``D y = x``, plus how it was built.

    ``matrix`` equals ``unsort.matrix() @ T_k ... T_1 @ presort.matrix()``
    where the T-transforms act on the sorted frame.  At most ``n - 1``
    transforms are ever needed.
    """

    matrix: DoublyStochastic
    transforms: tuple[TTransform, ...]
    presort: Perm
    unsort: Perm


def witness_ds(x: Vec, y: Vec) -> MajorizationWitness:
    """Build a doubly stochastic witness for ``x`` majorized by ``y``.

    Works on the decreasing rearrangements: at each step the largest
    sorted position where the current vector still exceeds the target
    donates mass to the first later position where it falls short.  That
    keeps the working vector sorted, keeps the target majorized by it,
    and pins at least one more coordinate per step, so the chain length
    is at most ``n - 1``.  Raises :class:`NotMajorized` otherwise.

    Each T-transform changes only the two rows of the chain that it
    mixes, so it is applied as a two-row update in O(n); the sorting
    permutations are applied by re-indexing rows and columns.  No matrix
    product is formed.
    """
    if len(x) != len(y):
        raise DimensionMismatch("witness requires vectors of equal length")
    sx = sort_desc(x)
    sy = sort_desc(y)
    violation = _profile_violation(tuple(accumulate(sx.descending)),
                                   tuple(accumulate(sy.descending)))
    if violation is not None:
        raise NotMajorized(violation)

    n = len(x)
    xs = list(sx.descending)
    vs = list(sy.descending)

    transforms: list[TTransform] = []
    zero, one = Fraction(0), Fraction(1)
    chain = [[one if r == c else zero for c in range(n)] for r in range(n)]
    while xs != vs:
        j = max(i for i in range(n) if xs[i] < vs[i])
        k = min(i for i in range(j + 1, n) if xs[i] > vs[i])
        delta = min(vs[j] - xs[j], xs[k] - vs[k])
        t = delta / (vs[j] - vs[k])
        transforms.append(TTransform(j, k, t))
        s = one - t
        row_j, row_k = chain[j], chain[k]
        chain[j] = [s * a + t * b if a or b else zero
                    for a, b in zip(row_j, row_k)]
        chain[k] = [s * b + t * a if a or b else zero
                    for a, b in zip(row_j, row_k)]
        vs[j] -= delta
        vs[k] += delta

    # D = unsort.matrix() @ chain @ presort.matrix(): row i of D is the
    # chain's row unsort^-1(i) = sx.sort_perm(i), read at columns presort(c).
    presort = sy.sort_perm
    unsort = sx.sort_perm.inverse()
    d = Mat([chain[m][c] for c in presort.image] for m in sx.sort_perm.image)
    return MajorizationWitness(DoublyStochastic(d), tuple(transforms),
                               presort, unsort)


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutation matrices reproducing a source matrix."""

    terms: tuple[tuple[Rational, Perm], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("decomposition needs at least one term")
        n = len(self.terms[0][1])
        if any(w <= 0 for w, _ in self.terms):
            raise ValueError("weights must be positive")
        if sum(w for w, _ in self.terms) != 1:
            raise ValueError("weights must sum to one")
        if len(self.terms) > (n - 1) ** 2 + 1:
            raise ValueError("too many terms for a minimal-style decomposition")

    @property
    def n(self) -> int:
        return len(self.terms[0][1])

    def recompose(self) -> Mat:
        return _weighted_perm_sum(self.terms)


def _weighted_perm_sum(terms: Iterable[tuple[Rational, Perm]]) -> Mat:
    """``sum(w * p.matrix())`` over at least one ``(w, p)`` pair, in order."""
    scaled = (p.matrix().scale(w) for w, p in terms)
    return sum(scaled, next(scaled))


def _perfect_matching(support: list[list[bool]]) -> list[int] | None:
    """Row-to-column perfect matching on a square support, or ``None``.

    Augmenting-path search with rows processed in order and columns tried
    in ascending index, so the result is deterministic: the first
    augmenting path a depth-first search finds is taken.  The search
    keeps its path on an explicit stack, so a path through every row of
    a large support cannot exhaust the interpreter's recursion limit.
    """
    n = len(support)
    adjacent = [list(compress(range(n), row)) for row in support]
    match_col = [-1] * n  # column -> row

    for root in range(n):
        seen = [False] * n
        path = [root]  # rows on the search path
        via: list[int] = []  # via[d] leads from path[d] to path[d + 1]
        untried = [iter(adjacent[root])]  # per path row: columns not yet tried
        while untried:
            for c in untried[-1]:
                if not seen[c]:
                    break
            else:  # dead end: back up to the previous row
                untried.pop()
                path.pop()
                if via:
                    via.pop()
                continue
            seen[c] = True
            via.append(c)
            if match_col[c] < 0:  # free column: flip the whole path
                for row, col in zip(path, via):
                    match_col[col] = row
                break
            path.append(match_col[c])
            untried.append(iter(adjacent[match_col[c]]))
        else:
            return None
    cols = [-1] * n
    for c, r in enumerate(match_col):
        cols[r] = c
    return cols


def birkhoff(d: DoublyStochastic | Mat) -> BirkhoffDecomposition:
    """Decompose a doubly stochastic matrix into permutation matrices.

    Greedy peeling: find a permutation inside the nonzero pattern,
    subtract the minimal entry along it, repeat.  The recomposition is
    exact.  Each peel empties a cell of the peeled permutation, so the
    rescaled residual moves to a proper face of the Birkhoff polytope
    face that held it, and a proper face has strictly lower dimension.
    The polytope has dimension ``(n-1)**2``, so the peel stops within
    ``(n-1)**2 + 1`` terms.

    Denominators are cleared once: with ``L`` the least common multiple
    of the entries' denominators, the peel runs on the integer matrix
    ``L * d`` and each weight is emitted as ``Fraction(w, L)``.  The
    support is kept across peels and loses only the cells a peel empties.
    """
    if isinstance(d, Mat):
        d = DoublyStochastic(d)
    n = d.n
    rows = d.matrix.rows
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    work = [[v.numerator * (scale // v.denominator) for v in row]
            for row in rows]
    support = [[v != 0 for v in row] for row in work]
    remaining = sum(map(sum, support))
    terms: list[tuple[Rational, Perm]] = []
    while remaining:
        cols = _perfect_matching(support)
        if cols is None:
            raise RuntimeError("no permutation inside the support; input invalid")
        weight = min(work[i][cols[i]] for i in range(n))
        terms.append((Fraction(weight, scale), Perm(cols).inverse()))
        for i, c in enumerate(cols):
            work[i][c] -= weight
            if not work[i][c]:
                support[i][c] = False
                remaining -= 1
    return BirkhoffDecomposition(tuple(terms))


def random_ds(n: int, seed: int, steps: int = 8,
              max_weight: int = 1000) -> DoublyStochastic:
    """Seeded random convex combination of ``steps`` permutation matrices.

    Weights are integers up to ``max_weight`` normalised exactly, so the
    denominators stay small; the same seed always yields the same matrix.
    """
    if n < 1 or steps < 1:
        raise ValueError("n and steps must be positive")
    rng = random.Random(seed)
    raw = []
    for _ in range(steps):
        image = list(range(n))
        rng.shuffle(image)
        raw.append((rng.randint(1, max_weight), Perm(image)))
    total = sum(w for w, _ in raw)
    return DoublyStochastic(
        _weighted_perm_sum((Fraction(w, total), p) for w, p in raw))
