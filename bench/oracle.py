"""Exact reference computations in plain loops over ``Fraction`` lists.

The checks use none of majorkit's kernels, so a fault in the library
cannot hide itself, and none of them sit on the timed path.
"""

from __future__ import annotations

from fractions import Fraction


def matvec(rows, v) -> list[Fraction]:
    out = []
    for row in rows:
        acc = Fraction(0)
        for a, b in zip(row, v):
            acc += a * b
        out.append(acc)
    return out


def permute(image, v) -> list:
    """Move the entry at position ``j`` to position ``image[j]``."""
    out = [None] * len(v)
    for j, value in enumerate(v):
        out[image[j]] = value
    return out


def is_permutation(image, n: int) -> bool:
    return sorted(image) == list(range(n))


def prefix_desc(v) -> list[Fraction]:
    acc = Fraction(0)
    out = []
    for value in sorted(v, reverse=True):
        acc += value
        out.append(acc)
    return out


def first_violation(x, y) -> tuple[str, int] | None:
    """Why ``x`` is not majorized by ``y``: unequal totals first, then prefixes."""
    px, py = prefix_desc(x), prefix_desc(y)
    if px[-1] != py[-1]:
        return ("total", len(px))
    for k in range(len(px) - 1):
        if px[k] > py[k]:
            return ("prefix", k + 1)
    return None


def majorized(x, y) -> bool:
    return first_violation(x, y) is None


def is_doubly_stochastic(rows) -> bool:
    n = len(rows)
    if any(len(row) != n for row in rows):
        return False
    for row in rows:
        total = Fraction(0)
        for v in row:
            if v < 0:
                return False
            total += v
        if total != 1:
            return False
    for j in range(n):
        total = Fraction(0)
        for row in rows:
            total += row[j]
        if total != 1:
            return False
    return True


def dot(x, y) -> Fraction:
    acc = Fraction(0)
    for a, b in zip(x, y):
        acc += a * b
    return acc


def factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out
