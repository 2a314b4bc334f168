"""Rearrangement extremes of the bilinear form ``x^T P y`` over permutations.

For fixed ``x`` and ``y`` the dot product of ``x`` against a permuted
copy of the decreasing rearrangement of ``y`` is maximised by aligning
both decreasingly and minimised by opposing the orders (the classical
rearrangement inequality).  This module computes the two extreme values,
enumerates exactly which permutations attain them, and provides the
factorial counting bound those sets obey.  It sorts, ties and counts the
ints of ``x._frame`` and ``y._frame`` and returns a value as ``Fraction(v, Lx * Ly)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul, ne

from .numerics import (
    DEFAULT_GUARD,
    DimensionMismatch,
    Perm,
    Rational,
    Vec,
    _perm_images,
)


def extremes(x: Vec, y: Vec) -> tuple[Rational, Rational]:
    """Exact (maximum, minimum) of ``x``-against-``y`` rearrangement products.

    The maximum pairs both decreasing rearrangements; the minimum pairs
    the increasing rearrangement of ``x`` with the decreasing one of ``y``.
    """
    if len(x) != len(y):
        raise DimensionMismatch("rearrangement extremes need equal lengths")
    return _extremes(x, y)[:2]


def _extremes(x: Vec, y: Vec) -> tuple[Rational, Rational, list[int], list[int]]:
    """(maximum, minimum) and the decreasing sorts ``xd`` and ``yd`` of the
    ints of ``x._frame`` and ``y._frame`` that they pair."""
    (lx, xs), (ly, ys) = x._frame, y._frame
    xd, yd = sorted(xs, reverse=True), sorted(ys, reverse=True)
    return (Fraction(sum(map(mul, xd, yd)), lx * ly),
            Fraction(sum(map(mul, reversed(xd), yd)), lx * ly), xd, yd)


def permuted_dot(x: Vec, p: Perm, y: Vec) -> Rational:
    """Exact ``x^T P y_desc``: entry ``x[p(j)]`` pairs with the j-th largest of ``y``."""
    if len(x) != len(y) or len(p) != len(x):
        raise DimensionMismatch("permuted dot needs matching lengths")
    (lx, xs), (ly, ys) = x._frame, y._frame
    yd = sorted(ys, reverse=True)
    return Fraction(sum(xs[i] * v for i, v in zip(p.image, yd)), lx * ly)


@dataclass(frozen=True)
class ExtremizerReport:
    """The extreme values and every permutation attaining each of them."""

    max_value: Rational
    min_value: Rational
    maximizers: tuple[Perm, ...]
    minimizers: tuple[Perm, ...]
    distinct_count: int


def extremizer_sets(x: Vec, y: Vec, guard: int = DEFAULT_GUARD) -> ExtremizerReport:
    """Enumerate every permutation attaining each extreme, in lexicographic order.

    ``p`` attains the maximum iff ``x∘p`` is similarly ordered with the
    decreasing rearrangement ``yd`` of ``y``: on each block of tied
    entries of ``yd`` it takes exactly the values that the decreasing
    sort of ``x`` puts there.  The minimum is the same with the
    increasing sort.  The attaining permutations are built directly,
    never sampled, because the counting statements the report feeds are
    about exact cardinalities; the cost is O(n²) per permutation
    returned.  The values come from the same sorted lists, with the
    rule :func:`extremes` uses.

    Either set can hold all n! permutations, so :class:`GuardExceeded`
    is raised for ``n`` above ``guard`` before any work.
    """
    if len(x) != len(y):
        raise DimensionMismatch("extremizer scan needs equal lengths")
    _perm_images(len(x), guard)  # the guard trips before any work
    best, worst, xd, yd = _extremes(x, y)
    xs = x._frame[1]
    ids = {v: c for c, v in enumerate(dict.fromkeys(xs))}
    classes = [ids[v] for v in xs]
    # block[j]: which run of tied entries of yd position j lies in
    block = list(accumulate(map(ne, yd, yd[1:]), initial=0))
    desc = [ids[v] for v in xd]
    return ExtremizerReport(best, worst,
                            _block_rearrangements(classes, desc, block),
                            _block_rearrangements(classes, desc[::-1], block),
                            len(ids))


def _block_rearrangements(classes: list[int], want: list[int],
                          block: list[int]) -> tuple[Perm, ...]:
    """Every ``p``, in lexicographic image order, that gives each block the
    classes ``want`` gives it.

    Over the positions ``j`` of one block, the ``classes[p(j)]`` are a
    rearrangement of the ``want[j]``.  Backtracks over positions:
    position ``j`` takes the smallest unused index whose class its block
    still owes, found by a plain ``while`` scan of ``owes[j]``, the
    counters of ``j``'s block.  Every partial assignment extends to a
    full one, so there are no dead ends.  The backtrack is a loop, not a
    recursion, because the guard bounds n and the recursion limit does
    not.
    """
    n = len(classes)
    owed = [[0] * n for _ in range(block[-1] + 1)]
    for b, c in zip(block, want):
        owed[b][c] += 1
    owes = [owed[b] for b in block]
    used = [False] * n
    image: list[int] = []
    found: list[Perm] = []
    j = i = 0  # position j tries the indices from i on
    while True:
        if j == n:
            found.append(Perm._of(tuple(image)))
        else:
            owe = owes[j]
            while i < n and (used[i] or not owe[classes[i]]):
                i += 1
            if i < n:
                image.append(i)
                used[i] = True
                owe[classes[i]] -= 1
                j += 1
                i = 0
                continue
        if not j:
            return tuple(found)
        j -= 1
        i = image.pop()
        used[i] = False
        owes[j][classes[i]] += 1
        i += 1


def distinct_count(x: Vec) -> int:
    """Number of distinct values among the entries, the ints of ``x._frame``."""
    return len(set(x._frame[1]))


def extremizer_bound(n: int, k: int) -> int:
    """The bound ``(n - k + 1)!`` on either extremizer set.

    Valid whenever ``x`` has at least ``k`` distinct entries and the
    second vector is strictly decreasing; ``k = 1`` gives the trivial
    ``n!`` and ``k = n`` forces a unique extremizer.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    return math.factorial(n - k + 1)
