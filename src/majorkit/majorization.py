"""The majorization preorder and its equivalence on rational vectors.

``x`` is majorized by ``y`` (x ≺ y) when every prefix sum of the
decreasing rearrangement of ``x`` is at most the corresponding prefix
sum for ``y`` and the totals agree.  Because the boundary cases are
equalities of sums, all decisions are exact.  They run on integers: ``x``
and ``y`` are scaled together by the least common multiple ``L`` of
their denominators, which keeps every order and every tie, so the
profiles are sorted and summed as Python ints.  Only a violation's two
sums become ``Fraction``s again, as ``Fraction(v, L)``.  ``majorkit
check`` decides with the same integer profiles and prints every sum it
reports from ``v`` and ``L``, building no ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from operator import le
from typing import Iterable, Iterator, Literal, TypeVar

from .numerics import (
    DEFAULT_GUARD,
    DimensionMismatch,
    Perm,
    Rational,
    Vec,
    _joint_frame,
    _perm_images,
)

T = TypeVar("T")


@dataclass(frozen=True)
class SortedView:
    """Both rearrangements of a vector plus the witnessing permutation.

    ``sort_perm.apply(source) == descending``; ties are broken stably, so
    equal values keep their original relative order and the permutation is
    deterministic.
    """

    descending: Vec
    ascending: Vec
    sort_perm: Perm


def sort_desc(x: Vec) -> SortedView:
    """Sort ``x`` into decreasing and increasing order with a stable witness."""
    order = sorted(range(len(x)), key=x._frame[1].__getitem__, reverse=True)
    descending = Vec(x[i] for i in order)
    ascending = Vec(reversed(descending.entries))
    return SortedView(descending, ascending, Perm._of(tuple(order)).inverse())


def trace(x: Vec) -> Rational:
    """Exact sum of the entries."""
    return sum(x, Fraction(0))


def desc_prefix_sums(x: Iterable[Rational]) -> tuple[Rational, ...]:
    """Prefix sums of the decreasing rearrangement of exact numbers; the
    last entry is the trace.  Every order decision in the package passes
    ints, numerators over one common denominator."""
    return tuple(accumulate(sorted(x, reverse=True)))


@dataclass(frozen=True)
class Violation:
    """Where the partial-sum criterion first fails.

    ``kind`` is ``"prefix"`` with a 1-based prefix length, or ``"total"``
    (then ``index == n``).  ``lhs``/``rhs`` are the offending sums.
    """

    kind: Literal["prefix", "total"]
    index: int
    lhs: Rational
    rhs: Rational


def _profile_violation(px: tuple, py: tuple) -> Violation | None:
    """The first reason why profile ``px`` is not majorized by profile ``py``."""
    if len(px) != len(py):
        raise DimensionMismatch("majorization compares vectors of equal length")
    n = len(px)
    if px[-1] != py[-1]:
        return Violation("total", n, px[-1], py[-1])
    if all(map(le, px, py)):
        return None
    k = next(k for k in range(n - 1) if px[k] > py[k])
    return Violation("prefix", k + 1, px[k], py[k])


def _int_profiles(x: Vec, y: Vec) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``(L, px, py)``: the decreasing prefix profiles of ``L x`` and ``L y``,
    with ``L`` the least common multiple of both vectors' denominators."""
    scale, xs, ys = _joint_frame(x, y)
    return scale, desc_prefix_sums(xs), desc_prefix_sums(ys)


def first_violation(x: Vec, y: Vec) -> Violation | None:
    """Return the first reason why ``x`` is not majorized by ``y``, if any."""
    scale, px, py = _int_profiles(x, y)
    violation = _profile_violation(px, py)
    if violation is None:
        return None
    return replace(violation, lhs=Fraction(violation.lhs, scale),
                   rhs=Fraction(violation.rhs, scale))


def majorizes(x: Vec, y: Vec) -> bool:
    """True iff ``x`` is majorized by ``y``.

    Argument order matters and is a classic source of bugs:
    ``majorizes(x, y)`` means ``x ≺ y``, i.e. ``y`` is the dominating
    vector.  Equivalently ``x = D y`` for some doubly stochastic ``D``
    (see :func:`majorkit.doubly_stochastic.witness_ds`).
    """
    return first_violation(x, y) is None


def equivalent(x: Vec, y: Vec) -> bool:
    """True iff ``x ≺ y`` and ``y ≺ x``: the prefix profiles are equal."""
    _, px, py = _int_profiles(x, y)
    return _profile_violation(px, py) is None and px == py


def _orbit(values: tuple[T, ...], guard: int = DEFAULT_GUARD
           ) -> Iterator[tuple[tuple[int, ...], tuple[T, ...]]]:
    """Distinct rearrangements of ``values``, each with the first perm image
    ``p`` giving it: entry ``j`` of ``values`` moves to place ``p[j]``.

    The images come from :func:`_perm_images`, so the identity comes first
    and :class:`GuardExceeded` is raised on the call.  An image is the first
    to give its rearrangement iff it keeps every two tied entries in order,
    so the scan keeps O(n) state and builds no :class:`Perm`.  Lazy, so a
    scan can stop at its first hit.
    """
    images = _perm_images(len(values), guard)
    last: dict[T, int] = {}
    ties = []  # consecutive indices of equal entries
    for j, v in enumerate(values):
        if v in last:
            ties.append((last[v], j))
        last[v] = j

    def rearrangements():
        for p in images:
            if ties and not all(p[i] < p[j] for i, j in ties):
                continue
            out = list(values)
            for j, i in enumerate(p):
                out[i] = values[j]
            yield p, tuple(out)
    return rearrangements()


def permutohedron_vertices(alpha: Vec, guard: int = DEFAULT_GUARD) -> list[Vec]:
    """All distinct permutations of ``alpha``, in first-seen lexicographic order.

    These are the vertices of the permutohedron of ``alpha``, whose convex
    hull is exactly the set of vectors majorized by ``alpha``.
    """
    return [Perm._of(p).apply(alpha) for p, _ in _orbit(alpha._frame[1], guard)]
