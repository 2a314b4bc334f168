"""Exact rational scalars, vectors, matrices, and permutations.

Everything in this package computes over arbitrary-precision rationals
(`fractions.Fraction`), so every comparison, partial sum, and equality
test downstream is decided exactly.  Decimal strings and binary64 floats
are converted losslessly at the boundary; no operation ever rounds.
Every decision runs in an integer frame: a :class:`Vec` or :class:`Mat`
caches its ``_frame``, its entries scaled by the LCM of their denominators
to ints, and a ``Fraction`` is built only for a value returned.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Union

Rational = Fraction

RationalLike = Union[Fraction, int, float, str]

#: Largest size for which factorial-cost enumeration runs without an
#: explicit override.  8! = 40320 permutations is still sub-second; the
#: orbit predicates in :mod:`majorkit.isotone` read the anchor's orbit
#: once, and its global sampler reads a trial's orbit only when A's rows
#: do not certify the matrix.
DEFAULT_GUARD = 8

# CPython's default int-string digit limit; without a cap on exponents,
# ``Fraction("1e999999999")`` builds a 10**999999999 integer up front.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


class DimensionMismatch(ValueError):
    """Operands have incompatible sizes."""


class GuardExceeded(ValueError):
    """A factorial-cost enumeration was requested above the guard size."""

    def __init__(self, n: int, guard: int):
        super().__init__(
            f"enumeration over size {n} exceeds the guard {guard}; "
            "pass a larger guard explicitly to override"
        )
        self.n = n
        self.guard = guard


def as_rational(value: RationalLike) -> Rational:
    """Convert ``value`` to an exact rational.

    Strings use the ``Fraction`` grammar ("7", "3/4", "0.25") and are read
    exactly as written, except that decimal exponents beyond 4300 in
    magnitude are rejected.  Finite floats convert to the exact binary64
    value they hold.  Booleans are rejected to catch accidental truth values.
    """
    kind = type(value)  # isinstance against the Fraction ABC is slow
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite float {value!r} is not a rational scalar")
    if isinstance(value, str) and (exponent := _EXPONENT.search(value)):
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if (len(digits) > len(str(_MAX_EXPONENT))
                or int(digits or "0") > _MAX_EXPONENT):
            raise ValueError(f"decimal exponent exceeds {_MAX_EXPONENT}")
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational scalar")


def _clear_denominators(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(L, L * rows)``, with ``L`` the least common multiple of every
    entry's denominator, so the scaled rows are tuples of ints."""
    scale = math.lcm(*[v.denominator for row in rows for v in row])
    return scale, tuple([tuple([v.numerator * (scale // v.denominator) for v in row])
                         for row in rows])


class Vec:
    """Immutable vector of exact rationals, length at least 1.  ``_frame``, the
    canonical ``(L, L * entries)`` over the LCM ``L`` of the denominators, is cached."""

    __slots__ = ("_entries", "_cleared")

    def __init__(self, entries: Iterable[RationalLike]):
        tup = tuple(as_rational(v) for v in entries)
        if not tup:
            raise ValueError("a vector needs at least one entry")
        self._entries, self._cleared = tup, None

    @property
    def entries(self) -> tuple[Rational, ...]:
        return self._entries

    @property
    def _frame(self) -> tuple[int, tuple[int, ...]]:
        if self._cleared is None:
            scale, (nums,) = _clear_denominators((self._entries,))
            self._cleared = scale, nums
        return self._cleared

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Rational]:
        return iter(self._entries)

    def __getitem__(self, i: int) -> Rational:
        return self._entries[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vec):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"Vec({', '.join(map(str, self._entries))})"

    def __add__(self, other: "Vec") -> "Vec":
        if not isinstance(other, Vec):
            return NotImplemented
        if len(other) != len(self):
            raise DimensionMismatch("vector lengths differ")
        return Vec(a + b for a, b in zip(self._entries, other._entries))

    def __sub__(self, other: "Vec") -> "Vec":
        if not isinstance(other, Vec):
            return NotImplemented
        if len(other) != len(self):
            raise DimensionMismatch("vector lengths differ")
        return Vec(a - b for a, b in zip(self._entries, other._entries))

    def scale(self, c: RationalLike) -> "Vec":
        c = as_rational(c)
        return Vec(c * v for v in self._entries)

    def dot(self, other: "Vec") -> Rational:
        if len(other) != len(self):
            raise DimensionMismatch("vector lengths differ")
        return sum((a * b for a, b in zip(self._entries, other._entries)),
                   Fraction(0))


class Mat:
    """Immutable rectangular matrix of exact rationals; ``_frame`` as :class:`Vec`'s."""

    __slots__ = ("_rows", "_cleared")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        grid = tuple(tuple(as_rational(v) for v in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("a matrix needs at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("matrix rows must all have the same length")
        self._rows, self._cleared = grid, None

    @classmethod
    def _of(cls, grid: tuple, frame: tuple) -> "Mat":
        """A ``Mat`` of a ``Fraction`` grid and its ``_frame``, trusted as in ``Perm._of``."""
        m = cls.__new__(cls)
        m._rows, m._cleared = grid, frame
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def ones(cls, n: int, m: int | None = None) -> "Mat":
        m = n if m is None else m
        return cls([[1] * m for _ in range(n)])

    @property
    def rows(self) -> tuple[tuple[Rational, ...], ...]:
        return self._rows

    @property
    def _frame(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        if self._cleared is None:
            self._cleared = _clear_denominators(self._rows)
        return self._cleared

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._rows[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, ij: tuple[int, int]) -> Rational:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self._rows)
        return f"Mat[{body}]"

    def __add__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise DimensionMismatch("matrix shapes differ")
        return Mat(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)
        )

    def scale(self, c: RationalLike) -> "Mat":
        c = as_rational(c)
        return Mat(tuple(c * v for v in row) for row in self._rows)

    def __matmul__(self, other: Vec) -> Vec:
        if isinstance(other, Vec):
            if self.n_cols != len(other):
                raise DimensionMismatch(
                    f"cannot apply {self.n_rows}x{self.n_cols} matrix "
                    f"to a vector of length {len(other)}"
                )
            return Vec(
                sum((a * b for a, b in zip(row, other)), Fraction(0))
                for row in self._rows
            )
        return NotImplemented


def _joint_frame(x: Vec, y: Vec) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``(L, L * x, L * y)`` over the LCM ``L`` of both vectors' denominators,
    rescaled from their cached frames."""
    (lx, nx), (ly, ny) = x._frame, y._frame
    if lx == ly:
        return lx, nx, ny
    scale = math.lcm(lx, ly)
    fx, fy = scale // lx, scale // ly
    return scale, tuple([v * fx for v in nx]), tuple([v * fy for v in ny])


class Perm:
    """Permutation of ``{0..n-1}`` in one-line (image) notation.

    ``p.image[i]`` is where index ``i`` is sent.  Applied to a vector,
    the entry at position ``j`` moves to position ``p(j)``, so that
    ``p.apply(x) == p.matrix() @ x``.
    """

    __slots__ = ("_image",)

    def __init__(self, image: Iterable[int]):
        img = tuple(map(operator.index, image))
        if sorted(img) != list(range(len(img))):
            raise ValueError(f"{img!r} is not a permutation of 0..{len(img) - 1}")
        self._image = img

    @classmethod
    def _of(cls, image: tuple[int, ...]) -> "Perm":
        """The package's internal constructor: a ``Perm`` of an int tuple that
        is a permutation by construction, which is not checked again."""
        p = cls.__new__(cls)
        p._image = image
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls._of(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Perm":
        img = list(range(n))
        img[i], img[j] = img[j], img[i]
        return cls._of(tuple(img))

    @property
    def image(self) -> tuple[int, ...]:
        return self._image

    def __len__(self) -> int:
        return len(self._image)

    def __call__(self, i: int) -> int:
        return self._image[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self._image == other._image

    def __hash__(self) -> int:
        return hash(self._image)

    def __repr__(self) -> str:
        return f"Perm{list(self._image)!r}"

    def compose(self, other: "Perm") -> "Perm":
        """Return ``self`` after ``other``: ``(self.compose(other))(i) == self(other(i))``."""
        if len(other) != len(self):
            raise DimensionMismatch("permutation sizes differ")
        return Perm._of(tuple([self._image[j] for j in other._image]))

    def inverse(self) -> "Perm":
        return Perm._of(tuple(sorted(range(len(self._image)),
                                     key=self._image.__getitem__)))

    def matrix(self) -> Mat:
        """0/1 matrix with a 1 at ``(p(j), j)``; ``matrix() @ x == apply(x)``."""
        n = len(self._image)
        rows = [[0] * n for _ in range(n)]
        for j, i in enumerate(self._image):
            rows[i][j] = 1
        return Mat(rows)

    def apply(self, x: Vec) -> Vec:
        if len(x) != len(self._image):
            raise DimensionMismatch("permutation size differs from vector length")
        out: list[Rational | None] = [None] * len(x)
        for j, v in enumerate(x):
            out[self._image[j]] = v
        return Vec(out)  # type: ignore[arg-type]


def _perm_images(n: int, guard: int = DEFAULT_GUARD) -> Iterator[tuple[int, ...]]:
    """Image tuples of all n! permutations of ``{0..n-1}`` in lexicographic
    order, the one source of every permutation scan and the guard's one
    owner, which every library caller calls to refuse a size: it raises
    :class:`GuardExceeded` on the call (not on first iteration) when ``n``
    is above ``guard``, so runaway enumerations fail fast and reproducibly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > guard:
        raise GuardExceeded(n, guard)
    return itertools.permutations(range(n))


def enumerate_perms(n: int, guard: int = DEFAULT_GUARD) -> Iterator[Perm]:
    """Stream all n! permutations of ``{0..n-1}`` in lexicographic image
    order; raises :class:`GuardExceeded` on the call, as :func:`_perm_images`."""
    return map(Perm._of, _perm_images(n, guard))
