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
violation found".  One scan of the orbit's images decides every orbit
quantifier, and the samplers run it before drawing anything (the orbit
lies above the anchor too), so whenever the exact equivalence predicate
fails the sampled ones fail too, deterministically, even with no samples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .majorization import _orbit, desc_prefix_sums
from .numerics import (
    DEFAULT_GUARD,
    DimensionMismatch,
    Mat,
    Perm,
    Rational,
    Vec,
    enumerate_perms,
)

DEFAULT_TRIALS = 50


@dataclass(frozen=True)
class AnchorPoint:
    """An anchor vector with its strict-decrease status cached.

    The local-to-global equivalence holds for strictly decreasing
    anchors; the type admits any vector so the degenerate regime can be
    probed through the individual predicates.
    """

    alpha: Vec
    strictly_decreasing: bool = field(init=False)

    def __post_init__(self):
        dec = all(a > b for a, b in zip(self.alpha, self.alpha.entries[1:]))
        object.__setattr__(self, "strictly_decreasing", dec)

    @property
    def n(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class IsotoneVerdict:
    """Outcome of one predicate.

    ``witness`` re-verifies against the exact predicate whenever
    ``holds`` is false.  ``trials`` is set when the verdict came from a
    sampler, in which case a positive verdict means "no violation found"
    rather than a proof.
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


def _require_square(a: Mat) -> int:
    if not a.is_square:
        raise DimensionMismatch("isotonicity is defined for square matrices")
    return a.n_rows


def _maj(pa: tuple[Rational, ...], pb: tuple[Rational, ...]) -> bool:
    """Majorization on precomputed prefix profiles: pa below pb."""
    return pa[-1] == pb[-1] and all(a <= b for a, b in zip(pa, pb))


def _orbit_scan(a: Mat, anchor: AnchorPoint, trials: int | None, guard: int
                ) -> tuple[tuple[Rational, ...], dict[str, IsotoneVerdict] | None]:
    """Profile of ``A alpha`` and, unless every orbit image is equivalent
    to it, the failing orbit-half verdicts in :class:`StatementCheck` order.

    Mutually majorizing images have equal profiles, so two rows decide all:
    ``below``, the first image not majorized by ``A alpha``, and ``moved``,
    the first with another profile.  A pairwise (target, source) scan
    first fails on ``(below, anchor)``, else on ``(anchor, moved)``.
    """
    rows = [(p, v, desc_prefix_sums(a @ v)) for p, v in _orbit(anchor.alpha, guard)]
    base = rows[0][2]  # enumerate_perms yields the identity first
    moved = next((row for row in rows if row[2] != base), None)
    if moved is None:
        return base, None
    below = next((row for row in rows if not _maj(row[2], base)), None)
    (ps, _, _), (pt, y, _) = (below, rows[0]) if below else (rows[0], moved)
    return base, {
        "left": IsotoneVerdict(False, {"source_perm": ps, "target_perm": pt}),
        "right": IsotoneVerdict(False, {"perm": ps, "y": y}, trials=trials),
        "point": IsotoneVerdict(False, {"perm": below[0]}) if below
        else IsotoneVerdict(False, {"y": moved[1]}, trials=trials),
        "equiv": IsotoneVerdict(False, {"perm": moved[0]}),
        "global_sampled": IsotoneVerdict(
            False, {"perm": ps.compose(pt.inverse()), "y": y}, trials=trials),
    }


def is_equiv_preserving_at(a: Mat, anchor: AnchorPoint,
                           guard: int = DEFAULT_GUARD) -> IsotoneVerdict:
    """Decide exactly whether rearranging the anchor leaves the image class fixed.

    Holds iff ``A (P alpha)`` is equivalent to ``A alpha`` for every
    permutation ``P``; the witness on failure is the offending ``P``.
    """
    _require_square(a)
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
    _require_square(a)
    _, failed = _orbit_scan(a, anchor, None, guard)
    return failed["left"] if failed else IsotoneVerdict(True)


def _sample_above(alpha: Vec, rng: random.Random) -> Vec:
    """Draw a vector that majorizes ``alpha``.

    Applies a short chain of spreading steps, each moving positive mass
    from a smaller entry to a larger one (which preserves the total and
    pushes the vector up the order), then shuffles the coordinates.
    """
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


def _upward_verdict(a: Mat, anchor: AnchorPoint, base: tuple[Rational, ...],
                    trials: int, seed: int | str, side: str) -> IsotoneVerdict:
    """Check ``A alpha`` (profile ``base``) against ``trials`` draws above the anchor.

    ``side``, ``"right"`` or ``"point"``, names the generator stream and
    the failure witness: ``(perm, y)`` with the identity ``perm``, or ``y``.
    """
    rng = random.Random(f"{seed}:{side}")
    for _ in range(trials):
        y = _sample_above(anchor.alpha, rng)
        if not _maj(base, desc_prefix_sums(a @ y)):
            witness = ({"perm": Perm.identity(anchor.n), "y": y}
                       if side == "right" else {"y": y})
            return IsotoneVerdict(False, witness, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def is_right_isotone_at(a: Mat, anchor: AnchorPoint, trials: int = DEFAULT_TRIALS,
                        seed: int | str = 0,
                        guard: int = DEFAULT_GUARD) -> IsotoneVerdict:
    """Sampled refuter for: orbit images stay below the image of anything above.

    The region above the anchor is unbounded, so this cannot decide; past
    the orbit it draws ``trials`` vectors above the anchor and checks
    ``A alpha`` against each.  A failure witness ``(perm, y)``
    re-verifies exactly; a pass means no violation found.
    """
    _require_square(a)
    base, failed = _orbit_scan(a, anchor, trials, guard)
    if failed:
        return failed["right"]
    return _upward_verdict(a, anchor, base, trials, seed, "right")


def is_isotone_at(a: Mat, anchor: AnchorPoint, trials: int = DEFAULT_TRIALS,
                  seed: int | str = 0, guard: int = DEFAULT_GUARD) -> IsotoneVerdict:
    """Point isotonicity: below the anchor exactly, above it by sampling.

    The downward half (everything majorized by the anchor maps below the
    anchor's own image) reduces to the orbit as in :func:`is_left_isotone_at`
    but against the single target ``A alpha``; its witness is ``perm``.
    The upward half samples as in :func:`is_right_isotone_at`; witness ``y``.
    """
    _require_square(a)
    base, failed = _orbit_scan(a, anchor, trials, guard)
    if failed:
        return failed["point"]
    return _upward_verdict(a, anchor, base, trials, seed, "point")


def _random_distinct_vec(n: int, rng: random.Random) -> Vec:
    nums = rng.sample(range(-24, 25), n)
    den = rng.randint(1, 6)
    return Vec(Fraction(v, den) for v in nums)


def is_global_isotone_sampled(a: Mat, trials: int = DEFAULT_TRIALS,
                              seed: int | str = 0,
                              guard: int = DEFAULT_GUARD) -> IsotoneVerdict:
    """Sampled refuter for global isotonicity.

    For each drawn ``y`` (distinct-entry rationals) it suffices to check
    the rearrangements of ``y`` against ``y`` itself, since the vectors
    below ``y`` form the convex hull of those rearrangements: ``trials *
    n!`` matvecs.  A failure witness ``(y, perm)`` re-verifies exactly.
    """
    n = _require_square(a)
    rng = random.Random(f"{seed}:global")
    for _ in range(trials):
        y = _random_distinct_vec(n, rng)
        target = desc_prefix_sums(a @ y)
        for q in enumerate_perms(n, guard):
            if not _maj(desc_prefix_sums(a @ q.apply(y)), target):
                return IsotoneVerdict(False, {"perm": q, "y": y}, trials=trials)
    return IsotoneVerdict(True, trials=trials)


def classify_global(a: Mat) -> GlobalForm | None:
    """Match ``a`` against the two shapes of globally isotone maps.

    Trace maps (all rows constant, i.e. all columns equal) are reported
    first; multiples of the all-ones matrix fit both shapes and land
    there.  Otherwise a scaled permutation plus constant is recovered by
    subtracting the candidate constant and checking for an exact scaled
    permutation pattern.  At ``n = 2`` both representations exist for
    every candidate; the off-diagonal constant is tried first so the
    identity-patterned one wins deterministically.  Returns ``None``
    when neither shape fits, which by the classical characterisation
    means the map is not globally isotone.
    """
    n = _require_square(a)
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


def column_sums_equal(a: Mat) -> IsotoneVerdict:
    """Exactly check that all column sums agree; witness is the first unequal pair."""
    _require_square(a)
    sums = [sum(row[j] for row in a.rows) for j in range(a.n_cols)]
    for j, s in enumerate(sums[1:], start=1):
        if s != sums[0]:
            return IsotoneVerdict(False, {
                "column_a": 0, "column_b": j, "sum_a": sums[0], "sum_b": s,
            })
    return IsotoneVerdict(True)


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
    lowest = min(v for row in a.rows for v in row)
    return math.floor(-lowest) + 1


def classify_at_point(a: Mat, anchor: AnchorPoint,
                      guard: int = DEFAULT_GUARD) -> GlobalForm:
    """Global form of a matrix that preserves equivalence at a strict anchor.

    At such an anchor preserving equivalence is global isotonicity, so the
    form is the one :func:`classify_global` recovers.  When no shape fits, the
    error states whether the input simply was not equivalence preserving
    or (should it ever happen) genuinely escapes both forms.
    """
    _require_square(a)
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
    samplers run only when it holds.
    """
    _require_square(a)
    if not anchor.strictly_decreasing:
        raise ValueError("the joint verifier requires a strictly decreasing anchor")
    base, failed = _orbit_scan(a, anchor, trials, guard)
    form = classify_global(a)
    if failed:
        left, right, point, equiv, global_sampled = failed.values()
    else:
        left = equiv = IsotoneVerdict(True)
        right = _upward_verdict(a, anchor, base, trials, seed, "right")
        point = _upward_verdict(a, anchor, base, trials, seed, "point")
        global_sampled = is_global_isotone_sampled(a, trials, seed, guard)

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
    return PermScaled(scale, shiftv, Perm(image)).as_matrix()


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


def campaign_matrices(n: int, count: int, seed: int) -> list[tuple[str, Mat]]:
    """Deterministic labelled matrix pool: randoms plus structured positives.

    Each cell derives its own generator from ``(seed, index)``, so a
    parallel run partitioned any way produces the identical pool.
    """
    cells: list[tuple[str, Mat]] = []
    for i in range(count):
        rng = random.Random(f"{seed}:random:{i}")
        cells.append(("random", random_matrix(n, rng)))
    planted = max(2, count // 8)
    for i in range(planted):
        rng = random.Random(f"{seed}:trace:{i}")
        cells.append(("trace_map", random_trace_map(n, rng)))
        rng = random.Random(f"{seed}:scaled:{i}")
        cells.append(("perm_scaled", random_perm_scaled(n, rng)))
        rng = random.Random(f"{seed}:perturbed:{i}")
        base = random_trace_map(n, rng) if i % 2 else random_perm_scaled(n, rng)
        cells.append(("perturbed", perturb_entry(base, rng)))
    return cells


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
    """
    cells = campaign_matrices(anchor.n, matrices, seed)
    equiv_count = 0
    violations: list[tuple[str, Mat]] = []
    for label, a in cells:
        if is_equiv_preserving_at(a, anchor, guard).holds:
            equiv_count += 1
            if classify_global(a) is None:
                violations.append((label, a))
    return CampaignReport(anchor, len(cells), equiv_count, tuple(violations))
