"""Doubly stochastic matrices: recognition, witnesses, and decomposition.

A doubly stochastic matrix is nonnegative with every row and column
summing to one.  This module recognises them exactly, constructs one
mapping ``y`` to ``x`` whenever ``x`` is majorized by ``y`` (a chain of
at most ``n - 1`` T-transforms between two permutations), decomposes any
of them into a convex combination of permutation matrices, and generates
seeded random instances for test campaigns.  The decomposition is a
greedy peel within ``(n-1)**2 + 1`` terms: each peel empties a cell, so
the rescaled residual drops to a face of strictly lower dimension.

The check, the witness's precheck and T-chain, the peel and the
decomposition's weight check all run in an integer frame: the
entries are scaled once by the least common multiple ``L`` of their
denominators, every comparison, sum and update is on Python ints, and
only the results become ``Fraction``s again.  A matrix's frame is its cached
``Mat._frame``: :func:`witness_ds` hands its matrix the T-chain's own, and
the check and :func:`birkhoff`'s peel (on a copy) read it.  The peel hands
its decomposition the weights as ints over that ``L``, so its weight check
clears nothing; a decomposition built from outside clears its weights.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .majorization import Violation, first_violation
from .numerics import (
    DimensionMismatch,
    Mat,
    Perm,
    Rational,
    Vec,
    _clear_denominators,
    _joint_frame,
)


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
    """A matrix checked exactly against the doubly stochastic invariants, on
    the matrix's cached integer frame ``matrix._frame``."""

    matrix: Mat

    def __post_init__(self):
        if not check_ds(self.matrix):
            raise ValueError("matrix is not doubly stochastic")

    @property
    def n(self) -> int:
        return self.matrix.n_rows


def check_ds(a: Mat) -> bool:
    """Whether ``a`` is doubly stochastic, decided on its frame ``(L, L * a)``:
    every row of the int matrix is nonnegative and sums to ``L``, and every
    column sums to ``L``.  Raises :class:`DimensionMismatch` for non-square
    input; a rectangular matrix cannot satisfy the definition at all."""
    if not a.is_square:
        raise DimensionMismatch("doubly stochastic matrices are square")
    scale, rows = a._frame
    return (all(min(row) >= 0 and sum(row) == scale for row in rows)
            and all(sum(col) == scale for col in zip(*rows)))


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

    The precheck and the chain run on integers.  The precheck is
    :func:`~majorkit.majorization.first_violation`; the chain sorts ``x`` and
    ``y``, scaled by one common denominator, as ints, keeping every tie, so
    the entries, the mass moved and the gaps are ints, and each step's ``t``
    is one ``Fraction(delta, gap)``.  Each chain row is kept as int numerators
    over one denominator of its own; a T-transform changes only the two
    rows it mixes, so it is applied as a two-row update in O(n), reduced
    by one ``gcd`` per row.  The sorting permutations are applied by
    re-indexing rows and columns, and the entries become ``Fraction``s
    once, at the end.  No matrix product is formed.

    The witness's matrix is built by ``Mat._of`` with the chain's own
    frame, which its doubly stochastic check reads.  Each chain row is in
    lowest terms (its numerators and denominator share no factor), so its
    entries' denominators have ``dens[r]`` as their least common
    multiple, and ``L = lcm(dens)`` with the rows ``nums[r] * (L //
    dens[r])`` is exactly the frame the matrix would clear.
    """
    if len(x) != len(y):
        raise DimensionMismatch("witness requires vectors of equal length")
    violation = first_violation(x, y)
    if violation is not None:
        raise NotMajorized(violation)
    n = len(x)
    _, xn, yn = _joint_frame(x, y)
    order_x, order_y = (sorted(range(n), key=v.__getitem__, reverse=True)
                        for v in (xn, yn))
    xs, vs = [xn[i] for i in order_x], [yn[i] for i in order_y]

    transforms: list[TTransform] = []
    # chain row r is nums[r] / dens[r]
    nums = [[0] * n for _ in range(n)]
    for r, row in enumerate(nums):
        row[r] = 1
    dens = [1] * n
    while xs != vs:
        j = max(i for i in range(n) if xs[i] < vs[i])
        k = min(i for i in range(j + 1, n) if xs[i] > vs[i])
        delta = min(vs[j] - xs[j], xs[k] - vs[k])
        t = Fraction(delta, vs[j] - vs[k])
        transforms.append(TTransform(j, k, t))
        # rows j, k <- (1-t) rows j, k + t rows k, j, over q * lcm(dens)
        p, q = t.numerator, t.denominator
        dj, dk = dens[j], dens[k]
        m = math.lcm(dj, dk)
        fj, fk = m // dj, m // dk
        stay_j, move_j = (q - p) * fj, p * fj
        stay_k, move_k = (q - p) * fk, p * fk
        row_j, row_k = nums[j], nums[k]
        new_j = [stay_j * a + move_k * b for a, b in zip(row_j, row_k)]
        new_k = [stay_k * b + move_j * a for a, b in zip(row_j, row_k)]
        for r, row in ((j, new_j), (k, new_k)):
            g = math.gcd(q * m, *row)
            nums[r] = [v // g for v in row]
            dens[r] = q * m // g
        vs[j] -= delta
        vs[k] += delta

    # D = unsort.matrix() @ chain @ presort.matrix(): row i of D is the
    # chain's row unsort^-1(i), read at columns presort(c).
    unsort = Perm._of(tuple(order_x))
    presort = Perm._of(tuple(order_y)).inverse()
    cols = presort.image
    chain = [(nums[r], dens[r]) for r in unsort.inverse().image]
    zero = Fraction(0)
    grid = tuple(tuple([Fraction(row[c], den) if row[c] else zero for c in cols])
                 for row, den in chain)
    scale = math.lcm(*dens)
    frame = tuple(tuple([row[c] * up for c in cols])
                  for row, up in [(row, scale // den) for row, den in chain])
    return MajorizationWitness(DoublyStochastic(Mat._of(grid, (scale, frame))),
                               tuple(transforms), presort, unsort)


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutation matrices reproducing a source matrix.

    It needs at least one term, permutations of one size, positive weights
    summing to one and at most ``(n-1)**2 + 1`` terms, checked on the
    weights as ints over their least common denominator.
    """

    terms: tuple[tuple[Rational, Perm], ...]

    def __post_init__(self):
        scale, (weights,) = _clear_denominators([[w for w, _ in self.terms]])
        self._check(scale, weights)

    @classmethod
    def _of(cls, terms: tuple[tuple[Rational, Perm], ...], scale: int,
            weights: list[int]) -> "BirkhoffDecomposition":
        """:func:`birkhoff`'s constructor: ``terms[k]``'s weight is
        ``weights[k] / scale``, so the checks read these ints and no weight
        is cleared again."""
        dec = cls.__new__(cls)
        object.__setattr__(dec, "terms", terms)
        dec._check(scale, weights)
        return dec

    def _check(self, scale: int, weights) -> None:
        """The class's checks, ``terms[k]``'s weight being ``weights[k] / scale``."""
        if not self.terms:
            raise ValueError("decomposition needs at least one term")
        n = len(self.terms[0][1])
        if any(len(p) != n for _, p in self.terms):
            raise DimensionMismatch("every term's permutation needs the same size")
        if min(weights) <= 0:
            raise ValueError("weights must be positive")
        if sum(weights) != scale:
            raise ValueError("weights must sum to one")
        if len(self.terms) > (n - 1) ** 2 + 1:
            raise ValueError("too many terms for a minimal-style decomposition")

    @property
    def n(self) -> int:
        return len(self.terms[0][1])

    def recompose(self) -> Mat:
        return _weighted_perm_sum(self.n, self.terms)


def _weighted_perm_sum(n: int, terms: Iterable[tuple[Rational, Perm]]) -> Mat:
    """``sum(w * p.matrix())``: each weight goes into the n cells ``(p(j), j)``."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for w, p in terms:
        for j, i in enumerate(p.image):
            rows[i][j] += w
    return Mat(rows)


def _augment(adjacent: list[list[int]], match_col: list[int], root: int,
             seen: list[int], stamp: int) -> list[int] | None:
    """The columns of an augmenting path from ``root``, in path order, or
    ``None`` if there is none.

    ``match_col`` maps each column to its row (``-1`` if free) and is only
    read: the caller flips the path.  Depth-first search from ``root``,
    trying each row's columns in ascending index; the first augmenting
    path found is returned.  ``via[0]`` is a column of ``root``, the last
    one is free, and each other ``via[d]`` is matched to the row that
    ``via[d + 1]`` leads from, so the path's rows are ``root`` and
    ``match_col[via[d]]``.  Column ``c`` counts as tried in this search
    when ``seen[c] == stamp``, so one ``seen`` list serves every search
    that is given a new ``stamp``.  The search keeps one iterator per path
    row on an explicit stack, so a path through every row of a large
    support cannot exhaust the interpreter's recursion limit.
    """
    via: list[int] = []  # via[d] leads from the path's row d to row d + 1
    untried = [iter(adjacent[root])]  # per path row: columns not yet tried
    while True:
        for c in untried[-1]:
            if seen[c] != stamp:
                break
        else:  # dead end: back up to the previous row
            if not via:
                return None
            untried.pop()
            via.pop()
            continue
        seen[c] = stamp
        via.append(c)
        row = match_col[c]
        if row < 0:
            return via
        untried.append(iter(adjacent[row]))


def birkhoff(d: DoublyStochastic | Mat) -> BirkhoffDecomposition:
    """Decompose a doubly stochastic matrix into permutation matrices.

    Greedy peeling: find a permutation inside the nonzero pattern,
    subtract the minimal entry along it, repeat.  The recomposition is
    exact.  Each peel empties a cell of the peeled permutation, so the
    rescaled residual moves to a proper face of the Birkhoff polytope
    face that held it, and a proper face has strictly lower dimension.
    The polytope has dimension ``(n-1)**2``, so the peel stops within
    ``(n-1)**2 + 1`` terms.

    With ``L`` the least common multiple of the entries' denominators, the
    peel runs on a copy of the matrix's cached frame ``L * d`` and emits each
    weight as ``Fraction(w, L)``.  It keeps the ints ``w`` and builds its
    decomposition through ``BirkhoffDecomposition._of``, which checks them
    against ``L`` without clearing the weights again.

    The matching is repaired, not rebuilt: a peel unmatches only the rows
    whose matched cell it emptied, and the next peel rematches them in
    ascending order, one augmenting path each.  The residual is a scaled
    doubly stochastic matrix, so it holds a perfect matching, and an
    augmenting path starts at every unmatched row (Berge, 1957).  Every
    search of one decomposition shares one ``seen`` list and takes the
    next stamp.

    A peel subtracts lazily.  Matched column ``c`` keeps a key, and its
    cell ``(match_col[c], c)`` holds ``key[c] - offset``; a peel's weight
    is ``min(key) - offset``, after which ``offset`` is ``min(key)`` and
    the emptied cells are the columns whose key equals it.  So a peel
    touches only the cells it empties and the columns an augmenting path
    moves.  Flipping a path moves each of its columns in one step, from
    its old row ``o`` to its new row ``r``: the old cell takes back its
    value, ``work[o][c] = key[c] - offset``, the column is matched to
    ``r``, and its key becomes ``work[r][c] + offset``.
    """
    if isinstance(d, Mat):
        d = DoublyStochastic(d)
    n = d.n
    scale, rows = d.matrix._frame
    work = [list(row) for row in rows]  # exact off the matching; stale on it
    adjacent = [list(compress(range(n), row)) for row in work]
    remaining = sum(map(len, adjacent))
    match_col = [-1] * n  # column -> row
    key = [0] * n  # matched column -> its cell's value plus offset
    offset = 0
    seen = [0] * n  # seen[c] == stamp: column c tried by the current search
    stamp = 0
    unmatched = list(range(n))  # rows to match before the next peel
    terms: list[tuple[Rational, Perm]] = []
    weights: list[int] = []  # terms' weights, times scale
    while remaining:
        for root in sorted(unmatched):
            stamp += 1
            via = _augment(adjacent, match_col, root, seen, stamp)
            if not via:
                raise RuntimeError("no permutation inside the support; input invalid")
            r = root
            for col in via:  # col moves from row o to row r
                o = match_col[col]
                if o >= 0:
                    work[o][col] = key[col] - offset
                match_col[col] = r
                key[col] = work[r][col] + offset
                r = o
        low = min(key)
        w = low - offset
        weights.append(w)
        terms.append((Fraction(w, scale), Perm._of(tuple(match_col))))
        offset = low
        unmatched = []
        c = -1
        for _ in range(key.count(low)):
            c = key.index(low, c + 1)
            r = match_col[c]
            work[r][c] = 0
            adjacent[r].remove(c)
            match_col[c] = -1
            unmatched.append(r)
        remaining -= len(unmatched)
    return BirkhoffDecomposition._of(tuple(terms), scale, weights)


def random_ds(n: int, seed: int, steps: int = 8) -> DoublyStochastic:
    """Seeded random convex combination of ``steps`` permutation matrices.

    Weights are integers from 1 to 1000 normalised exactly, so the
    denominators stay small; the same seed always yields the same matrix.
    """
    if n < 1 or steps < 1:
        raise ValueError("n and steps must be positive")
    rng = random.Random(seed)
    raw = []
    for _ in range(steps):
        image = list(range(n))
        rng.shuffle(image)
        raw.append((rng.randint(1, 1000), Perm._of(tuple(image))))
    total = sum(w for w, _ in raw)
    return DoublyStochastic(
        _weighted_perm_sum(n, ((Fraction(w, total), p) for w, p in raw)))
