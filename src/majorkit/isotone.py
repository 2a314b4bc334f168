"""Isotonicity of linear maps under majorization, locally and globally.

A square rational matrix ``A`` acts as the linear map ``x -> A x``.  The
map is *globally* isotone when it preserves majorization everywhere; the
classical characterisation says this happens exactly for trace maps
``x -> (tr x) a`` and for scaled permutations plus a trace term
``x -> c P x + b (tr x) 1``.  Locally, four predicates pin the behaviour
at a fixed anchor vector:

* left isotone: images of everything below the anchor stay below the
  images of the anchor's rearrangements;
* right isotone: images of the anchor's rearrangements stay below the
  image of everything above the anchor;
* isotone at the point: both directions against the anchor itself;
* equivalence preserving: rearrangements of the anchor map to mutually
  equivalent vectors.

For a strictly decreasing anchor all four coincide with global
isotonicity; :func:`verify_statements` machine-checks that equivalence
and :func:`isotone_point_campaign` hunts for counterexamples.

Decidability notes.  Everything quantified over vectors *below* the
anchor reduces to the anchor's permutation orbit, because the set of
vectors majorized by a fixed vector is the convex hull of its
rearrangements and the preorder's lower sets are convex.  The region
*above* the anchor is unbounded, so the right-sided predicates are
refuted by sampling instead: a ``False`` verdict carries a concrete
counterexample and is definitive, a ``True`` verdict is only "no
violation found", unless A's rows certify it exactly, which skips the
draws and reports the same verdict: when every adjacent column swap only
permutes them (:func:`_rows_symmetric`), A is globally isotone, which
passes the global sampler and both upward predicates at once.
One forward scan of the orbit decides every orbit quantifier: it stops
at the image that decides a failure, and at the second image of an orbit
whose rows certify A, as every image is then a rearrangement of
``A alpha``; a holding orbit the rows decline is read to its last image.
The samplers run it first (the orbit lies above the anchor too), so when
equivalence fails they fail too, even at 0 trials.

Every image is evaluated by one integer kernel on the frames that ``Mat``
and ``Vec`` cache, so A and the anchor are cleared at most once, whatever
reads them; images, sorts and prefix profiles are Python ints.  An orbit
witness is the anchor's own vector or a rearrangement of it, and only a
sampler's drawn witness is turned back into exact rationals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from operator import gt, mul
from typing import Any, Iterator, Mapping, Sequence

from .majorization import _orbit, _profile_violation, desc_prefix_sums
from .numerics import (
    DEFAULT_GUARD,
    DimensionMismatch,
    Mat,
    Perm,
    Rational,
    Vec,
    _perm_images,
)

DEFAULT_TRIALS = 50


@dataclass(frozen=True)
class AnchorPoint:
    """An anchor vector with its strict-decrease status cached.

    The local-to-global equivalence holds for strictly decreasing
    anchors; the type admits any vector so the degenerate regime can be
    probed through the individual predicates.  The cached frame
    ``alpha._frame``, ``(L, L * alpha)``, decides the strict decrease and
    is what every orbit scan reads.
    """

    alpha: Vec
    strictly_decreasing: bool = field(init=False)

    def __post_init__(self):
        nums = self.alpha._frame[1]
        object.__setattr__(self, "strictly_decreasing", all(map(gt, nums, nums[1:])))

    @property
    def n(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class IsotoneVerdict:
    """Outcome of one predicate.

    ``witness`` re-verifies against the exact predicate whenever
    ``holds`` is false.  ``trials`` is set when the verdict came from a
    sampler, in which case a positive verdict may mean only "no violation
    found" rather than a proof; a sampler's pass certified from A's rows
    (:func:`_rows_symmetric`) is a proof and reads the same.
    """

    holds: bool
    witness: Mapping[str, Any] | None = None
    trials: int | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class TraceMap:
    """Global form ``x -> (tr x) a``: every column of the matrix equals ``a``."""

    a: Vec


@dataclass(frozen=True)
class PermScaled:
    """Global form ``alpha * P + beta * J`` with ``alpha != 0``."""

    alpha: Rational
    beta: Rational
    perm: Perm

    def as_matrix(self) -> Mat:
        n = len(self.perm)
        return self.perm.matrix().scale(self.alpha) + Mat.ones(n).scale(self.beta)


GlobalForm = TraceMap | PermScaled


def _require_square(a: Mat, anchor: AnchorPoint | None = None) -> int:
    if not a.is_square:
        raise DimensionMismatch("isotonicity is defined for square matrices")
    n = a.n_rows
    if anchor is not None and anchor.n != n:
        raise DimensionMismatch(f"cannot apply {n}x{n} matrix "
                                f"to a vector of length {anchor.n}")
    return n


# The image kernel.  A's frame scales it by the LCM of its denominators
# and each vector's frame by the LCM of its own, so images, their
# decreasing sorts and prefix profiles are Python ints, built and compared
# by majorization's desc_prefix_sums and _profile_violation.  Two profiles
# are compared only when their vectors share a scale: an orbit shares its
# anchor's, and the samplers put the draws and A alpha on one.  Fractions
# are built for a sampler's drawn witness only.

def _vec(nums: Sequence[int], den: int) -> Vec:
    """A sampler's drawn witness ``nums / den``."""
    return Vec(Fraction(v, den) for v in nums)


def _profile(rows: Sequence[Sequence[int]], v: tuple[int, ...]) -> tuple[int, ...]:
    """Prefix sums of the decreasing rearrangement of the integer image ``rows v``."""
    return desc_prefix_sums([sum(map(mul, row, v)) for row in rows])


def _images(rows, v, guard):
    """``(perm image, profile of its A-image)`` over the distinct
    rearrangements of ``v``, lazily; the first row is ``v``'s own."""
    return ((p, _profile(rows, w)) for p, w in _orbit(v, guard))


def _first_below(images, base):
    """The first image row whose profile is not majorized by ``base``."""
    return next((row for row in images
                 if _profile_violation(row[1], base) is not None), None)


def _orbit_scan(a: Mat, anchor: AnchorPoint, trials: int | None, guard: int
                ) -> tuple[tuple[int, ...] | None, dict[str, IsotoneVerdict] | None]:
    """The profile of ``A alpha`` on A's frame and, unless every orbit image
    is equivalent to ``A alpha``, the failing orbit-half verdicts keyed by
    their :class:`StatementCheck` field; ``(None, None)`` when A's rows
    certify global isotonicity.  A is square and the anchor as long: each
    caller runs :func:`_require_square` first.

    Mutually majorizing images have equal profiles, so two rows decide all,
    found in one forward pass: ``moved``, the first image with another
    profile, then ``below``, the first not majorized by ``A alpha`` (every
    image before ``moved`` has its profile).  Each is tested on the image
    in hand before the rest are read.  A pairwise (target, source) scan
    first fails on ``(below, anchor)``, else on ``(anchor, moved)``, so one
    of the two witness perms is the identity, the anchor's own image: the
    global witness ``source target^-1`` is ``below``'s perm, else the
    inverse of ``moved``'s, and the witness ``y`` is ``alpha`` itself, else
    ``moved``'s rearrangement of it, so a failing scan builds no
    ``Fraction``.  Unless the second image is ``moved``, A's rows are read
    once (:func:`_rows_symmetric`), before the third: when they certify,
    every image is a rearrangement of ``A alpha`` and no ``moved`` exists,
    so the scan stops there; when they decline, it reads on in the same
    order, so a holding ``(base, None)`` means they declined and no caller
    reads them again.  The guard trips on the call, before the rows are
    read.
    """
    alpha, rows = anchor.alpha, a._frame[1]
    images = _images(rows, alpha._frame[1], guard)
    first = next(images)
    base = first[1]
    moved = next(images, first)
    if moved[1] == base:
        if _rows_symmetric(rows):
            return None, None
        moved = next((row for row in images if row[1] != base), None)
        if moved is None:
            return base, None
    pm = Perm._of(moved[0])
    below = (moved if _profile_violation(moved[1], base) is not None
             else _first_below(images, base))
    if below:  # the pair (below, anchor)
        ps = pm if below is moved else Perm._of(below[0])
        pt, y, perm = Perm._of(first[0]), alpha, ps
    else:  # the pair (anchor, moved)
        ps, pt, y, perm = Perm._of(first[0]), pm, pm.apply(alpha), pm.inverse()
    return base, {
        "left": IsotoneVerdict(False, {"source_perm": ps, "target_perm": pt}),
        "right": IsotoneVerdict(False, {"perm": ps, "y": y}, trials=trials),
        "point": IsotoneVerdict(False, {"perm": ps}) if below
        else IsotoneVerdict(False, {"y": y}, trials=trials),
        "equiv": IsotoneVerdict(False, {"perm": pm}),
        "global_sampled": IsotoneVerdict(False, {"perm": perm, "y": y}, trials=trials),
    }


def is_equiv_preserving_at(a: Mat, anchor: AnchorPoint,
                           guard: int = DEFAULT_GUARD) -> IsotoneVerdict:
    """Decide exactly whether rearranging the anchor leaves the image class fixed.

    Holds iff ``A (P alpha)`` is equivalent to ``A alpha`` for every
    permutation ``P``; the witness on failure is the offending ``P``.
    """
    _require_square(a, anchor)
    _, failed = _orbit_scan(a, anchor, None, guard)
    return failed["equiv"] if failed else IsotoneVerdict(True)


def is_left_isotone_at(a: Mat, anchor: AnchorPoint,
                       guard: int = DEFAULT_GUARD) -> IsotoneVerdict:
    """Decide exactly whether everything below the anchor maps below its orbit images.

    The quantifier over ``y`` majorized by the anchor collapses to the
    anchor's rearrangements: they are the vertices of the region and the
    image region below any fixed target is convex; so it agrees with
    :func:`is_equiv_preserving_at`.  Failure carries the pair of
    permutations ``(source, target)`` with ``A (source alpha)`` not
    majorized by ``A (target alpha)``.
    """
    _require_square(a, anchor)
    _, failed = _orbit_scan(a, anchor, None, guard)
    return failed["left"] if failed else IsotoneVerdict(True)


# Every spreading step of _draws_above moves t = i/j with j drawn from
# 1.._STEP_DEN, so its draws are integral at _STEP_SCALE times the anchor's
# own scale.
_STEP_DEN = 8
_STEP_SCALE = math.lcm(*range(1, _STEP_DEN + 1))  # 840


def _draws_above(nums: Sequence[int], den: int,
                 rng: random.Random) -> Iterator[tuple[int, ...]]:
    """Endless draws of vectors that majorize ``nums / den``, each as
    numerators over ``den * _STEP_SCALE``.

    A draw applies a short chain of spreading steps to the anchor, each
    moving positive mass from a smaller entry to a larger one (which
    preserves the total and pushes the vector up the order), then
    shuffles the coordinates.  No word is read before a draw is asked for.
    """
    n = len(nums)
    start = [v * _STEP_SCALE for v in nums]
    if n == 1:
        while True:
            yield tuple(start)
    while True:
        vals = start[:]
        for _ in range(rng.randint(1, 3 * n)):
            order = sorted(range(n), key=vals.__getitem__, reverse=True)
            si, sj = sorted(rng.sample(range(n), 2))
            num, step_den = rng.randint(1, 12), rng.randint(1, _STEP_DEN)
            t = num * den * (_STEP_SCALE // step_den)
            vals[order[si]] += t
            vals[order[sj]] -= t
        rng.shuffle(vals)
        yield tuple(vals)


def _upward_verdict(a: Mat, anchor: AnchorPoint, base: tuple[int, ...],
                    trials: int, seed: int | str, side: str) -> IsotoneVerdict:
    """Check ``A alpha``, whose profile over A's frame is ``base``, against
    ``trials`` draws above the anchor (none when ``trials <= 0``).

    ``side``, ``"right"`` or ``"point"``, names the generator stream and
    the failure witness: ``(perm, y)`` with the identity ``perm``, or ``y``.
    """
    den, nums = anchor.alpha._frame
    base = tuple(v * _STEP_SCALE for v in base)  # the draws' scale
    draws = _draws_above(nums, den, random.Random(f"{seed}:{side}"))
    rows = a._frame[1]
    for y in islice(draws, max(trials, 0)):
        if _profile_violation(base, _profile(rows, y)) is not None:
            y = _vec(y, den * _STEP_SCALE)
            witness = ({"perm": Perm.identity(len(nums)), "y": y}
                       if side == "right" else {"y": y})
            return IsotoneVerdict(False, witness, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def _rows_symmetric(rows: Sequence[tuple[int, ...]]) -> bool:
    """Whether swapping any two adjacent columns of the integer ``rows``
    of A only permutes them, which makes A globally isotone.

    For each adjacent swap ``tau_m``, ``m < n - 1``, it compares only the
    rows ``tau_m`` moves, those whose entries at ``m`` and ``m + 1``
    differ, sorted, with their swapped images, sorted.  That is the whole
    multiset test: a row with equal entries there is fixed by the swap,
    and a moved row keeps its two entries unequal, so it never becomes a
    fixed row; the fixed rows are on both sides and cancel.  A trace map
    moves no row and a scaled permutation plus constant two per swap, so
    both forms take O(n^2) work; any A takes at most O(n^3 log n), and no
    ``2^n`` or ``n!`` term.  Proof: when it holds, ``A tau_m = P_m A``
    for a row permutation ``P_m``, and the adjacent swaps generate every
    permutation ``Q``, so ``A Q = P_Q A``.  If ``x`` is majorized by
    ``y``, then ``x = sum_Q lambda_Q Q y`` with convex weights
    ``lambda_Q`` (Birkhoff), so ``A x = sum_Q lambda_Q P_Q (A y)`` is a
    doubly stochastic image of ``A y`` and is majorized by it
    (Hardy-Littlewood-Polya; Marshall, Olkin & Arnold, *Inequalities*,
    2nd ed., 2011, ch. 2).  So every global trial passes, ``right``
    holds (``P alpha`` below ``y`` gives ``A P alpha`` below ``A y``) and
    so does ``point``'s upward half.  Each orbit image ``A Q alpha =
    P_Q (A alpha)`` is a rearrangement of ``A alpha``, so ``left`` and
    ``equiv`` hold at every anchor, tied ones included, and the orbit
    scan stops at its second image.  Equal column sums follow (each swap
    fixes their vector), and no global form is assumed:
    :func:`classify_global` is never read, so the joint verifier's global
    bit still tests the classification.
    """
    for m in range(len(rows) - 1):
        moved = [row for row in rows if row[m] != row[m + 1]]
        if sorted(moved) != sorted([row[:m] + (row[m + 1], row[m]) + row[m + 2:]
                                    for row in moved]):
            return False
    return True


def _sampled_at(a: Mat, anchor: AnchorPoint, trials: int, seed: int | str,
                guard: int, side: str) -> IsotoneVerdict:
    """The orbit scan's ``side`` verdict, else the pass it certified from
    A's rows, else :func:`_upward_verdict`'s."""
    _require_square(a, anchor)
    base, failed = _orbit_scan(a, anchor, trials, guard)
    if failed:
        return failed[side]
    if base is None:
        return IsotoneVerdict(True, trials=trials)
    return _upward_verdict(a, anchor, base, trials, seed, side)


def is_right_isotone_at(a: Mat, anchor: AnchorPoint, trials: int = DEFAULT_TRIALS,
                        seed: int | str = 0,
                        guard: int = DEFAULT_GUARD) -> IsotoneVerdict:
    """Sampled refuter for: orbit images stay below the image of anything above.

    The region above the anchor is unbounded, so past the orbit it draws
    ``trials`` vectors above the anchor and checks ``A alpha`` against
    each.  A failure witness ``(perm, y)`` re-verifies exactly; a pass
    means no violation found, or that none exists when A's rows certify
    global isotonicity (:func:`_rows_symmetric`).  A certified pass draws
    nothing and reads the same.
    """
    return _sampled_at(a, anchor, trials, seed, guard, "right")


def is_isotone_at(a: Mat, anchor: AnchorPoint, trials: int = DEFAULT_TRIALS,
                  seed: int | str = 0, guard: int = DEFAULT_GUARD) -> IsotoneVerdict:
    """Point isotonicity: below the anchor exactly, above it by sampling.

    The downward half (everything majorized by the anchor maps below the
    anchor's own image) reduces to the orbit as in :func:`is_left_isotone_at`
    but against the single target ``A alpha``; its witness is ``perm``.
    The upward half samples, or is certified from A's rows, as in
    :func:`is_right_isotone_at`; witness ``y``.
    """
    return _sampled_at(a, anchor, trials, seed, guard, "point")


def _random_distinct_vec(n: int, rng: random.Random) -> tuple[tuple[int, ...], int]:
    """Distinct numerators in ``[-24, 24]`` and one common denominator."""
    return tuple(rng.sample(range(-24, 25), n)), rng.randint(1, 6)


def is_global_isotone_sampled(a: Mat, trials: int = DEFAULT_TRIALS,
                              seed: int | str = 0,
                              guard: int = DEFAULT_GUARD) -> IsotoneVerdict:
    """Sampled refuter for global isotonicity.

    When A's rows certify global isotonicity (:func:`_rows_symmetric`),
    the pass draws nothing and reads as a clean run's,
    ``IsotoneVerdict(True, trials=trials)``; ``trials <= 0`` returns
    before anything is read, and the guard trips before the rows are.
    Otherwise, for each drawn ``y`` (distinct-entry rationals) it
    suffices to check the rearrangements of ``y`` against ``y`` itself,
    since the vectors below ``y`` form the convex hull of those
    rearrangements.  Each trial runs the orbit scan's ``below`` search
    with anchor ``y``, reading its orbit in lexicographic order, so a
    failure witness ``(y, perm)`` is the first such perm and re-verifies
    exactly.
    """
    n = _require_square(a)
    if trials <= 0:  # no draws: no enumeration, at any n
        return IsotoneVerdict(True, trials=trials)
    _perm_images(n, guard)  # the guard trips before A's rows are read
    if _rows_symmetric(a._frame[1]):
        return IsotoneVerdict(True, trials=trials)
    return _global_draws(a, trials, seed, guard)


def _global_draws(a: Mat, trials: int, seed: int | str,
                  guard: int) -> IsotoneVerdict:
    """:func:`is_global_isotone_sampled`'s ``trials > 0`` draws, past the
    guard and a declined row certificate: each trial profiles the drawn
    ``y``'s orbit once, ``y`` first, for an image not majorized by ``A y``."""
    rows = a._frame[1]
    rng = random.Random(f"{seed}:global")
    for _ in range(trials):
        nums, den = _random_distinct_vec(len(rows), rng)
        images = _images(rows, nums, guard)
        below = _first_below(images, next(images)[1])
        if below:
            return IsotoneVerdict(False, {"perm": Perm._of(below[0]),
                                          "y": _vec(nums, den)}, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def classify_global(a: Mat) -> GlobalForm | None:
    """Match ``a`` against the two shapes of globally isotone maps.

    Trace maps (all rows constant, i.e. all columns equal) are reported
    first; multiples of the all-ones matrix fit both shapes and land
    there.  Otherwise a scaled permutation plus constant is recovered by
    subtracting a candidate constant and checking for an exact scaled
    permutation pattern.  The candidates are the entries that fill all
    but one place of the first row, tried last-seen first: past ``n = 2``
    there is at most one, and at ``n = 2`` both entries qualify and the
    off-diagonal one wins, so the identity-patterned form is the one
    reported.  Returns ``None`` when neither shape fits, which by the
    classical characterisation means the map is not globally isotone.
    It tests the ints of ``a._frame``, ``(L, L * a)``; a trace map keeps
    ``a``'s own entries, and a form's ``alpha`` and ``beta`` are ints over ``L``.
    """
    n = _require_square(a)
    scale, rows = a._frame
    if all(len(set(row)) == 1 for row in rows):
        return TraceMap(Vec(row[0] for row in a.rows))

    first = rows[0]
    for beta in reversed(dict.fromkeys(first)):
        if first.count(beta) != n - 1:
            continue
        moved = [[j for j, v in enumerate(row) if v != beta] for row in rows]
        if any(len(js) != 1 for js in moved):
            continue
        positions = [j for j, in moved]
        scales = {row[j] - beta for row, j in zip(rows, positions)}
        if len(set(positions)) == n and len(scales) == 1:
            return PermScaled(Fraction(scales.pop(), scale), Fraction(beta, scale),
                              Perm._of(tuple(positions)).inverse())
    return None


def column_sums_equal(a: Mat) -> IsotoneVerdict:
    """Exactly check that all column sums agree; witness is the first unequal pair."""
    _require_square(a)
    scale, rows = a._frame
    first, *rest = map(sum, zip(*rows))
    unequal = next(((j, s) for j, s in enumerate(rest, start=1) if s != first), None)
    if unequal is None:
        return IsotoneVerdict(True)
    j, s = unequal
    return IsotoneVerdict(False, {
        "column_a": 0, "column_b": j,
        "sum_a": Fraction(first, scale), "sum_b": Fraction(s, scale),
    })


def shift_by_J(a: Mat, lam: Rational) -> Mat:
    """Add ``lam`` to every entry.

    The shift moves every image by a constant vector times the trace of
    the input, which is invariant on rearrangement orbits, so the
    point-wise predicates are unaffected.
    """
    n = _require_square(a)
    return a + Mat.ones(n).scale(lam)


def choose_positive_shift(a: Mat) -> int:
    """Smallest integer ``lam`` making every entry of ``a + lam * J`` positive."""
    _require_square(a)
    scale, rows = a._frame
    return -min(map(min, rows)) // scale + 1


def classify_at_point(a: Mat, anchor: AnchorPoint,
                      guard: int = DEFAULT_GUARD) -> GlobalForm:
    """Global form of a matrix that preserves equivalence at a strict anchor.

    At such an anchor preserving equivalence is global isotonicity, so the
    form is the one :func:`classify_global` recovers.  When no shape fits, the
    error states whether the input simply was not equivalence preserving
    or (should it ever happen) genuinely escapes both forms.  Raises
    :class:`DimensionMismatch` unless A is square and the anchor as long.
    """
    _require_square(a, anchor)
    if not anchor.strictly_decreasing:
        raise ValueError("classification requires a strictly decreasing anchor")
    form = classify_global(a)
    if form is not None:
        return form
    verdict = is_equiv_preserving_at(a, anchor, guard)
    if not verdict.holds:
        raise ValueError(
            "matrix is not equivalence preserving at the anchor; "
            f"witness permutation {verdict.witness['perm']!r}"
        )
    raise RuntimeError(
        "equivalence-preserving matrix fits neither canonical form; "
        "this would refute the classification this package verifies"
    )


@dataclass(frozen=True)
class StatementCheck:
    """Joint evaluation of the five isotonicity statements for one matrix.

    ``bits`` orders them (left, right, point, equiv, global).  A false
    verdict is always definitive; a true verdict from a sampler is
    advisory.  ``consistent`` means no definitive truth value conflicts
    with another, and ``advisory_disagreement`` lists sampled statements
    whose advisory pass contradicts a definitive failure elsewhere.
    """

    left: IsotoneVerdict
    right: IsotoneVerdict
    point: IsotoneVerdict
    equiv: IsotoneVerdict
    global_form: GlobalForm | None
    global_sampled: IsotoneVerdict
    consistent: bool
    advisory_disagreement: tuple[str, ...]

    @property
    def bits(self) -> tuple[bool, bool, bool, bool, bool]:
        return (self.left.holds, self.right.holds, self.point.holds,
                self.equiv.holds, self.global_form is not None)

    @property
    def all_hold(self) -> bool:
        return all(self.bits)


def verify_statements(a: Mat, anchor: AnchorPoint, trials: int = DEFAULT_TRIALS,
                      seed: int | str = 0,
                      guard: int = DEFAULT_GUARD) -> StatementCheck:
    """Evaluate all five statements and cross-check their agreement.

    Requires a strictly decreasing anchor, the regime in which the five
    statements are provably equivalent; probing degenerate anchors goes
    through the individual predicates instead.  One orbit scan decides
    the orbit half of every statement; when it fails, all five verdicts
    come from it (the global witness is a pair of orbit points) and the
    samplers run only when it holds.  The scan reads A's rows once
    (:func:`_rows_symmetric`) unless its second image fails; when they
    certify, ``right``, ``point`` and ``global_sampled`` all pass without
    a draw, as a clean sampler run would.  When they decline, the
    ``right``, ``point`` and global streams draw.
    """
    _require_square(a, anchor)
    if not anchor.strictly_decreasing:
        raise ValueError("the joint verifier requires a strictly decreasing anchor")
    base, failed = _orbit_scan(a, anchor, trials, guard)
    form = classify_global(a)
    if failed:
        left, right, point, equiv, global_sampled = (
            failed[k] for k in ("left", "right", "point", "equiv", "global_sampled"))
    else:
        left = equiv = IsotoneVerdict(True)
        if trials <= 0 or base is None:  # nothing to draw, or to refute
            right = point = global_sampled = IsotoneVerdict(True, trials=trials)
        else:
            right = _upward_verdict(a, anchor, base, trials, seed, "right")
            point = _upward_verdict(a, anchor, base, trials, seed, "point")
            global_sampled = _global_draws(a, trials, seed, guard)

    exact_bits = [left.holds, equiv.holds, form is not None]
    definitive = list(exact_bits)
    sampled = {"right": right, "point": point, "global_sampled": global_sampled}
    for verdict in sampled.values():
        if not verdict.holds:
            definitive.append(False)
    consistent = not (True in definitive and False in definitive)
    advisory = tuple(
        name for name, verdict in sampled.items()
        if verdict.holds and not all(exact_bits)
    )
    return StatementCheck(left, right, point, equiv, form, global_sampled,
                          consistent, advisory)


def random_matrix(n: int, rng: random.Random, lo: int = -5, hi: int = 5) -> Mat:
    """Uniform integer entries in ``[lo, hi]``."""
    return Mat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def _random_nonzero(rng: random.Random) -> Rational:
    num = rng.choice([v for v in range(-6, 7) if v != 0])
    return Fraction(num, rng.randint(1, 4))


def random_trace_map(n: int, rng: random.Random) -> Mat:
    """Random trace map: constant rows with rational constants."""
    consts = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
    return Mat([[c] * n for c in consts])


def random_perm_scaled(n: int, rng: random.Random) -> Mat:
    """Random scaled permutation plus constant, with nonzero scale."""
    image = list(range(n))
    rng.shuffle(image)
    scale = _random_nonzero(rng)
    shiftv = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return PermScaled(scale, shiftv, Perm._of(tuple(image))).as_matrix()


def perturb_entry(a: Mat, rng: random.Random) -> Mat:
    """Bump a single entry by a nonzero amount; breaks both global forms."""
    n = a.n_rows
    i = rng.randrange(n)
    j = rng.randrange(a.n_cols)
    bump = rng.choice([Fraction(1), Fraction(-1), Fraction(2),
                       Fraction(-2), Fraction(1, 2), Fraction(-1, 2)])
    rows = [list(row) for row in a.rows]
    rows[i][j] += bump
    return Mat(rows)


def campaign_matrices(n: int, count: int, seed: int) -> Iterator[tuple[str, Mat]]:
    """Deterministic labelled matrix pool: randoms plus structured positives.

    The cells are yielded one at a time, so a campaign holds only the
    cell it checks.  Each cell derives its own generator from
    ``(seed, index)``, so a parallel run partitioned any way produces
    the identical pool.
    """
    for i in range(count):
        yield "random", random_matrix(n, random.Random(f"{seed}:random:{i}"))
    for i in range(max(2, count // 8)):
        yield "trace_map", random_trace_map(n, random.Random(f"{seed}:trace:{i}"))
        yield "perm_scaled", random_perm_scaled(
            n, random.Random(f"{seed}:scaled:{i}"))
        rng = random.Random(f"{seed}:perturbed:{i}")
        base = random_trace_map(n, rng) if i % 2 else random_perm_scaled(n, rng)
        yield "perturbed", perturb_entry(base, rng)


@dataclass(frozen=True)
class CampaignReport:
    """Counterexample hunt summary for one anchor."""

    anchor: AnchorPoint
    total: int
    equiv_preserving: int
    violations: tuple[tuple[str, Mat], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def isotone_point_campaign(anchor: AnchorPoint, matrices: int = 200,
                           seed: int = 0,
                           guard: int = DEFAULT_GUARD) -> CampaignReport:
    """Search for an equivalence-preserving matrix that is not globally isotone.

    Any hit would refute the local-to-global claim this package checks;
    the report records every one found.  Degenerate anchors (repeated
    entries) are allowed here precisely so that regime can be explored.
    Raises :class:`GuardExceeded` before building the pool when the
    anchor's orbit scan would.
    """
    _perm_images(anchor.n, guard)
    total = equiv_count = 0
    violations: list[tuple[str, Mat]] = []
    for label, a in campaign_matrices(anchor.n, matrices, seed):
        total += 1
        if is_equiv_preserving_at(a, anchor, guard).holds:
            equiv_count += 1
            if classify_global(a) is None:
                violations.append((label, a))
    return CampaignReport(anchor, total, equiv_count, tuple(violations))
