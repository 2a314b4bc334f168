"""Rearrangement extremes of the bilinear form ``x^T P y`` over permutations.

For fixed ``x`` and ``y`` the dot product of ``x`` against a permuted
copy of the decreasing rearrangement of ``y`` is maximised by aligning
both decreasingly and minimised by opposing the orders (the classical
rearrangement inequality).  This module computes the two extreme values,
enumerates exactly which permutations attain them, and provides the
factorial counting bound those sets obey.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .majorization import sort_desc
from .numerics import (
    DEFAULT_GUARD,
    DimensionMismatch,
    Perm,
    Rational,
    Vec,
    enumerate_perms,
)


def extremes(x: Vec, y: Vec) -> tuple[Rational, Rational]:
    """Exact (maximum, minimum) of ``x``-against-``y`` rearrangement products.

    The maximum pairs both decreasing rearrangements; the minimum pairs
    the increasing rearrangement of ``x`` with the decreasing one of ``y``.
    """
    if len(x) != len(y):
        raise DimensionMismatch("rearrangement extremes need equal lengths")
    sx = sort_desc(x)
    yd = sort_desc(y).descending
    return sx.descending.dot(yd), sx.ascending.dot(yd)


def permuted_dot(x: Vec, p: Perm, y: Vec) -> Rational:
    """Exact ``x^T P y_desc``: entry ``x[p(j)]`` pairs with the j-th largest of ``y``."""
    if len(x) != len(y) or len(p) != len(x):
        raise DimensionMismatch("permuted dot needs matching lengths")
    yd = sort_desc(y).descending
    return sum((x[p(j)] * yd[j] for j in range(len(x))), Fraction(0))


@dataclass(frozen=True)
class ExtremizerReport:
    """Exhaustive scan result: the extreme values and every attaining permutation."""

    max_value: Rational
    min_value: Rational
    maximizers: tuple[Perm, ...]
    minimizers: tuple[Perm, ...]
    distinct_count: int


def extremizer_sets(x: Vec, y: Vec, guard: int = DEFAULT_GUARD) -> ExtremizerReport:
    """Scan every permutation and collect those attaining the extremes.

    The extreme values come from :func:`extremes`; the scan is exhaustive,
    never sampled, because the counting statements the report feeds are
    about exact cardinalities.
    """
    if len(x) != len(y):
        raise DimensionMismatch("extremizer scan needs equal lengths")
    n = len(x)
    best, worst = extremes(x, y)
    yd = sorted(y, reverse=True)
    prod = [[xi * yj for yj in yd] for xi in x]
    maximizers: list[Perm] = []
    minimizers: list[Perm] = []
    for p in enumerate_perms(n, guard):
        value = sum((prod[p(j)][j] for j in range(n)), Fraction(0))
        if value == best:
            maximizers.append(p)
        if value == worst:
            minimizers.append(p)
    return ExtremizerReport(best, worst, tuple(maximizers), tuple(minimizers),
                            distinct_count(x))


def distinct_count(x: Vec) -> int:
    """Number of distinct values among the entries."""
    return len(set(x))


def extremizer_bound(n: int, k: int) -> int:
    """The bound ``(n - k + 1)!`` on either extremizer set.

    Valid whenever ``x`` has at least ``k`` distinct entries and the
    second vector is strictly decreasing; ``k = 1`` gives the trivial
    ``n!`` and ``k = n`` forces a unique extremizer.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    return math.factorial(n - k + 1)
