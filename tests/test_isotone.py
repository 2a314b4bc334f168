"""Point-wise predicates, global classification, and the joint verifier."""

import dataclasses
import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings, strategies as st

from majorkit import (
    AnchorPoint,
    DimensionMismatch,
    GuardExceeded,
    IsotoneVerdict,
    Mat,
    Perm,
    PermScaled,
    TraceMap,
    Vec,
    choose_positive_shift,
    classify_at_point,
    classify_global,
    column_sums_equal,
    equivalent,
    is_equiv_preserving_at,
    is_global_isotone_sampled,
    is_isotone_at,
    is_left_isotone_at,
    is_right_isotone_at,
    isotone_point_campaign,
    majorizes,
    permutohedron_vertices,
    random_ds,
    shift_by_J,
    verify_statements,
)
from majorkit import isotone, majorization, numerics
from majorkit.majorization import _orbit
from majorkit.numerics import _clear_denominators
from majorkit.isotone import (
    _STEP_SCALE,
    _draws_above,
    _first_below,
    _images,
    _orbit_scan,
    _profile,
    _random_distinct_vec,
    _rows_symmetric,
    _vec,
    campaign_matrices,
    perturb_entry,
    random_matrix,
    random_perm_scaled,
    random_trace_map,
)
from helpers import (
    count_clears,
    oracle_classify_global,
    oracle_equiv,
    oracle_first_violation,
    oracle_global,
    oracle_global_perm,
    oracle_left,
    oracle_orbit,
    oracle_point,
    oracle_random_distinct_vec,
    oracle_right,
    oracle_rows_symmetric,
    oracle_sample_above,
    oracle_vec,
    oracle_verify,
    rand_strictly_decreasing,
    rand_vec,
)

DIAG12 = Mat([[1, 0], [0, 2]])
SYM31 = Mat([[3, 1], [1, 3]])
ANCHOR21 = AnchorPoint(Vec([2, 1]))
DIAG8 = Mat([[i + 1 if i == j else 0 for j in range(8)] for i in range(8)])


@pytest.fixture
def perms_read(monkeypatch):
    """Every perm image tuple the orbit reads, in the order read."""
    read = []

    def counting(n, guard):
        images = numerics._perm_images(n, guard)  # the guard trips on the call

        def reading():
            for p in images:
                read.append(p)
                yield p
        return reading()

    monkeypatch.setattr(majorization, "_perm_images", counting)
    return read


class TestClassifyGlobal:
    def test_perm_scaled_with_recomposition(self):
        form = classify_global(SYM31)
        assert form == PermScaled(Fraction(2), Fraction(1), Perm.identity(2))
        assert form.as_matrix() == SYM31

    def test_all_ones_is_a_trace_map(self):
        assert classify_global(Mat([[1, 1], [1, 1]])) == TraceMap(Vec([1, 1]))

    def test_diagonal_is_not_isotone(self):
        assert classify_global(DIAG12) is None

    def test_one_by_one_is_always_a_trace_map(self):
        assert classify_global(Mat([[7]])) == TraceMap(Vec([7]))

    def test_recovers_random_planted_forms(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(2, 5)
            planted = random_perm_scaled(n, rng)
            form = classify_global(planted)
            assert form is not None
            if isinstance(form, PermScaled):
                assert form.as_matrix() == planted
            else:
                # alpha * P + beta * J degenerates to a trace map only
                # when the rows are constant, which random_perm_scaled
                # never produces (alpha != 0).
                raise AssertionError("perm-scaled plant classified as trace map")
            tm = random_trace_map(n, rng)
            got = classify_global(tm)
            assert isinstance(got, TraceMap)
            assert Mat([[v] * n for v in got.a]) == tm

    def test_perturbed_forms_fall_out(self):
        rng = random.Random(103)
        for _ in range(60):
            n = rng.randint(2, 4)
            base = random_perm_scaled(n, rng) if rng.random() < 0.5 \
                else random_trace_map(n, rng)
            assert classify_global(perturb_entry(base, rng)) is None

    def test_matches_the_two_rule_oracle(self):
        # Every 2x2 with entries -2..2, every 3x3 with entries 0..2, and
        # seeded planted, perturbed and small-entry matrices up to n = 5.
        cells = [Mat([e[:2], e[2:]]) for e in product(range(-2, 3), repeat=4)]
        cells += [Mat([e[:3], e[3:6], e[6:]]) for e in product(range(3), repeat=9)]
        rng = random.Random(107)
        for _ in range(400):
            n = rng.randint(1, 5)
            scaled, trace = random_perm_scaled(n, rng), random_trace_map(n, rng)
            cells += [scaled, trace, perturb_entry(scaled, rng),
                      perturb_entry(trace, rng), random_matrix(n, rng, -1, 1)]
        for a in cells:
            assert classify_global(a) == oracle_classify_global(a), a


class TestEquivPreserving:
    def test_symmetric_example_holds(self):
        assert SYM31 @ Vec([2, 1]) == Vec([7, 5])
        assert SYM31 @ Vec([1, 2]) == Vec([5, 7])
        assert is_equiv_preserving_at(SYM31, ANCHOR21).holds

    def test_diagonal_fails_with_swap_witness(self):
        verdict = is_equiv_preserving_at(DIAG12, ANCHOR21)
        assert not verdict.holds
        p = verdict.witness["perm"]
        assert p == Perm([1, 0])
        # The witness re-verifies against the exact predicate.
        assert not equivalent(DIAG12 @ p.apply(ANCHOR21.alpha),
                              DIAG12 @ ANCHOR21.alpha)

    def test_identity_holds_everywhere(self):
        rng = random.Random(107)
        for _ in range(10):
            n = rng.randint(1, 5)
            anchor = AnchorPoint(rand_vec(rng, n))
            assert is_equiv_preserving_at(Mat.identity(n), anchor).holds


class TestLeftIsotone:
    def test_identity_holds(self):
        rng = random.Random(109)
        for _ in range(8):
            anchor = AnchorPoint(rand_vec(rng, rng.randint(1, 5)))
            assert is_left_isotone_at(Mat.identity(anchor.n), anchor).holds

    def test_trace_map_holds(self):
        rng = random.Random(113)
        for _ in range(8):
            n = rng.randint(2, 4)
            anchor = AnchorPoint(rand_vec(rng, n))
            assert is_left_isotone_at(random_trace_map(n, rng), anchor).holds

    def test_diagonal_fails_and_witness_reverifies(self):
        verdict = is_left_isotone_at(DIAG12, ANCHOR21)
        assert not verdict.holds
        src = verdict.witness["source_perm"].apply(ANCHOR21.alpha)
        tgt = verdict.witness["target_perm"].apply(ANCHOR21.alpha)
        assert not majorizes(DIAG12 @ src, DIAG12 @ tgt)

    def test_vertex_reduction_is_sound(self):
        # Raw definition on hull points: when the vertex check passes,
        # every y = D alpha (a point of the hull) maps below every orbit image.
        rng = random.Random(127)
        for _ in range(200):
            n = rng.randint(2, 4)
            a = random_matrix(n, rng, -3, 3)
            anchor = AnchorPoint(rand_vec(rng, n, lo=-5, hi=5, max_den=3))
            if not is_left_isotone_at(a, anchor).holds:
                continue
            d = random_ds(n, seed=rng.getrandbits(32), steps=3)
            y = d.matrix @ anchor.alpha
            for v in permutohedron_vertices(anchor.alpha):
                assert majorizes(a @ y, a @ v)


class TestRightIsotone:
    def test_identity_holds(self):
        verdict = is_right_isotone_at(Mat.identity(3),
                                      AnchorPoint(Vec([3, 2, 1])),
                                      trials=30, seed=5)
        assert verdict.holds
        assert verdict.trials == 30

    def test_positive_perm_scaled_holds(self):
        rng = random.Random(131)
        for i in range(10):
            n = rng.randint(2, 4)
            form = PermScaled(Fraction(rng.randint(1, 5)),
                              Fraction(rng.randint(-3, 3)),
                              Perm.identity(n))
            anchor = AnchorPoint(rand_strictly_decreasing(rng, n))
            assert is_right_isotone_at(form.as_matrix(), anchor,
                                       trials=25, seed=i).holds

    def test_diagonal_fails_with_reverifying_pair(self):
        verdict = is_right_isotone_at(DIAG12, ANCHOR21, trials=20, seed=1)
        assert not verdict.holds
        p, y = verdict.witness["perm"], verdict.witness["y"]
        assert majorizes(ANCHOR21.alpha, y)  # y really lies above the anchor
        assert not majorizes(DIAG12 @ p.apply(ANCHOR21.alpha), DIAG12 @ y)

    def test_sampled_pool_contains_the_orbit(self):
        # Whenever the exact equivalence predicate fails, the samplers must
        # fail too, even with no samples: the orbit is decided before any
        # draw.
        rng = random.Random(137)
        for i in range(60):
            n = rng.randint(2, 4)
            a = random_matrix(n, rng)
            anchor = AnchorPoint(rand_strictly_decreasing(rng, n))
            if is_equiv_preserving_at(a, anchor).holds:
                continue
            assert not is_right_isotone_at(a, anchor, trials=3, seed=i).holds
            assert not is_isotone_at(a, anchor, trials=0, seed=i).holds
            assert not verify_statements(a, anchor, trials=0,
                                         seed=i).global_sampled.holds


class TestIsotoneAtPoint:
    def test_identity_and_all_ones_hold(self):
        assert is_isotone_at(Mat.identity(2), ANCHOR21, trials=15, seed=2).holds
        assert is_isotone_at(Mat.ones(2), ANCHOR21, trials=15, seed=2).holds

    def test_diagonal_fails_on_the_exact_half(self):
        verdict = is_isotone_at(DIAG12, ANCHOR21, trials=15, seed=2)
        assert not verdict.holds
        q = verdict.witness["perm"]
        assert DIAG12 @ q.apply(ANCHOR21.alpha) == Vec([1, 4])
        assert not majorizes(Vec([1, 4]), Vec([2, 2]))


class TestGlobalSampled:
    def test_identity_holds(self):
        assert is_global_isotone_sampled(Mat.identity(3), trials=25, seed=3).holds

    def test_classified_forms_never_violate(self):
        # Cross-validation of the classifier: a violation here would be a
        # build-stopping bug.
        rng = random.Random(139)
        for i in range(40):
            n = rng.randint(2, 4)
            base = random_perm_scaled(n, rng) if i % 2 else random_trace_map(n, rng)
            assert classify_global(base) is not None
            assert is_global_isotone_sampled(base, trials=20, seed=i).holds

    def test_unclassified_random_matrices_fail_fast(self):
        rng = random.Random(149)
        found = 0
        for i in range(60):
            n = rng.randint(2, 4)
            a = random_matrix(n, rng)
            if classify_global(a) is not None:
                continue
            found += 1
            verdict = is_global_isotone_sampled(a, trials=200, seed=i)
            assert not verdict.holds
            q, y = verdict.witness["perm"], verdict.witness["y"]
            assert not majorizes(a @ q.apply(y), a @ y)
        assert found > 30

    def test_negative_trials_enumerate_nothing(self):
        # As with trials=0: no draw, so the guard is never consulted.
        verdict = is_global_isotone_sampled(Mat.identity(3), trials=-2, guard=2)
        assert verdict.holds and verdict.trials == -2

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_run_no_draws(self, monkeypatch, perms_read, trials):
        # The guard allows n = 12 here, and A's rows do not certify the
        # diagonal: with no draws neither the trials nor the perms may run.
        def unreachable(*args):
            raise AssertionError("trials drawn with no trials")

        monkeypatch.setattr(isotone, "_global_draws", unreachable)
        diagonal = Mat([[i + 1 if i == j else 0 for j in range(12)] for i in range(12)])
        verdict = is_global_isotone_sampled(diagonal, trials, guard=12)
        assert verdict.holds and verdict.trials == trials
        assert perms_read == []

    def test_guard_trips_before_the_draws(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("trials drawn above the guard")

        monkeypatch.setattr(isotone, "_global_draws", unreachable)
        with pytest.raises(GuardExceeded):
            is_global_isotone_sampled(Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]]),
                                      trials=5, guard=2)

    def test_the_guard_and_no_trials_read_no_row(self, monkeypatch):
        # The guard trips before A's rows are read, and with no draws
        # nothing is read at all, at any n.
        def unreachable(rows):
            raise AssertionError("A's rows were read")

        monkeypatch.setattr(isotone, "_rows_symmetric", unreachable)
        with pytest.raises(GuardExceeded):
            is_global_isotone_sampled(Mat.identity(3), trials=5, guard=2)
        for trials in (0, -2):
            assert is_global_isotone_sampled(Mat.identity(12), trials, guard=2) == \
                IsotoneVerdict(True, trials=trials)

    def test_failing_first_trial_reads_few_perms(self, perms_read):
        # The perms are built lazily: a refutation in the first trial at
        # n = 8 must not pay for all 40,320 of them.
        a = DIAG8
        verdict = is_global_isotone_sampled(a, trials=50, seed=0, guard=8)
        assert not verdict.holds
        q, y = verdict.witness["perm"], verdict.witness["y"]
        assert not majorizes(a @ q.apply(y), a @ y)
        assert 0 < len(perms_read) < 100

    def test_survivors_of_long_campaigns_are_classified(self):
        # Desk-scale necessity: an integer matrix the sampler cannot refute
        # in 2000 trials always matches one of the two global forms.
        rng = random.Random(151)
        for i in range(40):
            n = rng.choice([2, 3])
            a = random_matrix(n, rng)
            if is_global_isotone_sampled(a, trials=2000, seed=i).holds:
                assert classify_global(a) is not None


def _scan_and_oracle(rows, v):
    """The perm image of the first rearrangement of ``v`` whose A-image is
    not majorized by ``A v``, from a global trial's ordered scan and from
    the Fraction oracle; ``None`` when every image is below."""
    scan = _first_below(_images(rows, v, guard=len(rows)), _profile(rows, v))
    a, y = Mat(rows), Vec(v)
    oracle = next((p for p, w in oracle_orbit(y)
                   if oracle_first_violation(a @ w, a @ y) is not None), None)
    return (None if scan is None else scan[0],
            None if oracle is None else tuple(oracle.image))


def _balanced(rows, total):
    """``rows`` plus a last row that makes every column sum to ``total``."""
    n = len(rows) + 1
    return [*rows, [total - sum(row[j] for row in rows) for j in range(n)]]


@st.composite
def _scan_cases(draw):
    n = draw(st.integers(1, 6))
    ints = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                         min_size=n - 1, max_size=n - 1))
    last = draw(st.one_of(st.none(), st.lists(ints, min_size=n, max_size=n)))
    rows = _balanced(rows, draw(ints)) if last is None else [*rows, last]
    v = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))  # ties likely
    return rows, tuple(v)


class TestOrderedScan:
    """A global trial reads the orbit of ``y`` in lexicographic order: its
    witness is the oracle's first rearrangement not below ``A y``."""

    @settings(max_examples=300, deadline=None)
    @given(_scan_cases())
    def test_matches_the_fraction_oracle(self, case):
        scan, oracle = _scan_and_oracle(*case)
        assert scan == oracle

    @pytest.mark.parametrize("kind", ["balanced", "perm_scaled", "trace_map"])
    def test_seeded_cases_match_the_fraction_oracle(self, kind):
        rng = random.Random(f"scan:{kind}")
        outcomes = set()
        for i in range(60):
            n = 1 + i % 6
            if kind == "balanced":  # equal column sums, almost never a form
                rows = _balanced([[rng.randint(-4, 4) for _ in range(n)]
                                  for _ in range(n - 1)], rng.randint(-5, 5))
            else:
                make = random_perm_scaled if kind == "perm_scaled" else random_trace_map
                rows = make(n, rng)._frame[1]
            distinct = tuple(rng.sample(range(-24, 25), n))
            tied = tuple(rng.choice([-1, 0, 2]) for _ in range(n))
            for v in (distinct, tied, (rng.randint(-5, 5),) * n):
                scan, oracle = _scan_and_oracle(rows, v)
                assert scan == oracle
                outcomes.add(scan is None)
        # Planted forms are globally isotone: every image stays below A v.
        assert outcomes == ({True, False} if kind == "balanced" else {True})

    @pytest.mark.parametrize("rows, v, below", [
        ([[5]], (3,), True),
        ([[1, 0], [0, 1]], (2, 1), True),
        ([[2, 1], [1, 2]], (1, 1), True),  # constant y: one image
        ([[1, 2], [1, 0]], (2, 1), False),  # (1, 2) maps to (5, 1), not below (4, 2)
        ([[1, 2], [1, 0]], (-1, -1), True),
        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], (1, 1, 0), True),  # J - P: a form
        ([[2, 0, 0], [0, 1, 1], [0, 1, 1]], (1, 1, 0), False),  # tied y, no form
    ], ids=["n1", "n2-identity", "n2-constant-y", "n2-fails",
            "n2-constant-y-non-form", "n3-tied-form", "n3-tied-non-form"])
    def test_small_and_tied_cases(self, rows, v, below):
        scan, oracle = _scan_and_oracle(rows, v)
        assert scan == oracle
        assert (scan is None) == below


class TestAnchorLength:
    # A 2x2 matrix at a length-3 anchor is a size error, not a verdict.
    ANCHOR3 = AnchorPoint(Vec([3, 2, 1]))

    @pytest.mark.parametrize("predicate", [
        is_equiv_preserving_at, is_left_isotone_at, is_right_isotone_at,
        is_isotone_at, verify_statements, classify_at_point,
    ])
    def test_mismatched_anchor_raises(self, predicate):
        # SYM31 and the identity are global forms, so classify_at_point
        # has a form to return; the length is checked first, before the
        # anchor's strictness, whatever the anchor.
        with pytest.raises(DimensionMismatch,
                           match=r"^cannot apply 2x2 matrix to a vector of length 3$"):
            predicate(SYM31, self.ANCHOR3)
        with pytest.raises(DimensionMismatch,
                           match=r"^cannot apply 3x3 matrix to a vector of length 2$"):
            predicate(Mat.identity(3), ANCHOR21)
        with pytest.raises(DimensionMismatch,
                           match=r"^cannot apply 2x2 matrix to a vector of length 3$"):
            predicate(SYM31, AnchorPoint(Vec([1, 1, 0])))

    @pytest.mark.parametrize("call", [
        lambda a: is_equiv_preserving_at(a, ANCHOR21),
        lambda a: is_left_isotone_at(a, ANCHOR21),
        lambda a: is_right_isotone_at(a, ANCHOR21),
        lambda a: is_isotone_at(a, ANCHOR21),
        lambda a: verify_statements(a, ANCHOR21),
        is_global_isotone_sampled,
        classify_global,
    ], ids=["equiv", "left", "right", "point", "verify", "global_sampled",
            "classify_global"])
    def test_non_square_matrix_raises(self, call):
        with pytest.raises(DimensionMismatch, match="square matrices"):
            call(Mat([[1, 0, 2], [0, 1, 2]]))

    def test_failing_verdict_is_falsy(self):
        assert bool(IsotoneVerdict(False)) is False
        assert bool(IsotoneVerdict(True)) is True


_orbit_values = st.integers(1, 6).flatmap(lambda n: st.one_of(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),  # ties likely
    st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
             min_size=n, max_size=n),
))


class TestOrbit:
    @settings(max_examples=200, deadline=None)
    @given(_orbit_values)
    @example([5, -1, 7, 2])  # distinct: all 24 images, each applying its perm
    def test_matches_the_first_seen_oracle(self, values):
        # Same image tuples, same rearrangements, same order as the oracle
        # that applies every Perm and keeps the first of each vector.
        expected = [(p.image, v.entries) for p, v in oracle_orbit(Vec(values))]
        assert list(_orbit(tuple(values))) == expected

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_guard_trips_on_the_call(self, n):
        with pytest.raises(GuardExceeded):
            _orbit(tuple(range(n)), guard=n - 1)


class TestColumnSumsAndShift:
    def test_examples(self):
        assert column_sums_equal(SYM31).holds
        assert column_sums_equal(Mat.ones(3)).holds
        verdict = column_sums_equal(DIAG12)
        assert not verdict.holds
        assert (verdict.witness["column_a"], verdict.witness["column_b"]) == (0, 1)
        assert (verdict.witness["sum_a"], verdict.witness["sum_b"]) == (1, 2)

    def test_equiv_preserving_implies_equal_column_sums(self):
        rng = random.Random(157)
        for label, a in campaign_matrices(3, 60, seed=5):
            anchor = AnchorPoint(rand_strictly_decreasing(rng, 3))
            if is_equiv_preserving_at(a, anchor).holds:
                assert column_sums_equal(a).holds

    def test_shift_examples(self):
        a = Mat([[-1, 0], [0, -1]])
        assert shift_by_J(a, Fraction(0)) == a
        shifted = shift_by_J(a, Fraction(2))
        assert shifted == Mat([[1, 2], [2, 1]])
        assert all(v > 0 for row in shifted.rows for v in row)

    def test_choose_positive_shift_is_minimal(self):
        rng = random.Random(163)
        assert choose_positive_shift(Mat([[-1, 0], [0, -1]])) == 2
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_matrix(n, rng, -9, 9)
            lam = choose_positive_shift(a)
            assert all(v > 0 for row in shift_by_J(a, lam).rows for v in row)
            assert any(v <= 0 for row in shift_by_J(a, lam - 1).rows for v in row)

    def test_shift_preserves_equivalence_status(self):
        rng = random.Random(167)
        for _ in range(120):
            n = rng.randint(2, 4)
            a = random_matrix(n, rng)
            lam = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            anchor = AnchorPoint(rand_vec(rng, n))
            assert is_equiv_preserving_at(a, anchor).holds == \
                is_equiv_preserving_at(shift_by_J(a, lam), anchor).holds


class TestClassifyAtPoint:
    def test_row_constant(self):
        assert classify_at_point(Mat([[1, 1], [1, 1]]), ANCHOR21) == \
            TraceMap(Vec([1, 1]))

    def test_permuted_shift_with_recomposition(self):
        form = classify_at_point(SYM31, ANCHOR21)
        assert form == PermScaled(Fraction(2), Fraction(1), Perm.identity(2))
        assert form.as_matrix() == SYM31

    def test_recomposition_on_random_forms(self):
        rng = random.Random(173)
        for _ in range(40):
            n = rng.randint(2, 5)
            anchor = AnchorPoint(rand_strictly_decreasing(rng, n))
            planted = random_perm_scaled(n, rng)
            form = classify_at_point(planted, anchor)
            assert isinstance(form, PermScaled)
            assert form.as_matrix() == planted
            tm = random_trace_map(n, rng)
            got = classify_at_point(tm, anchor)
            assert isinstance(got, TraceMap)
            assert Mat([[v] * n for v in got.a]) == tm

    def test_positive_equiv_preserving_2x2_is_symmetric(self):
        # Every equivalence-preserving positive 2x2 matrix with
        # non-constant rows has equal diagonal and equal off-diagonal
        # entries.
        rng = random.Random(179)
        seen = 0
        for _ in range(60):
            a = random_perm_scaled(2, rng)
            a = shift_by_J(a, choose_positive_shift(a))
            assert is_equiv_preserving_at(a, ANCHOR21).holds
            rows = a.rows
            if rows[0][0] != rows[0][1]:
                seen += 1
                assert rows[0][0] == rows[1][1]
                assert rows[0][1] == rows[1][0]
        assert seen > 20

    def test_exhaustive_2x2_equiv_preservers_have_the_two_shapes(self):
        # Desk-scale exhaustion: every integer 2x2 matrix with entries in
        # [-2, 2] that preserves equivalence at (2, 1) is either
        # row-constant or symmetric with equal diagonal entries, and
        # conversely those shapes always preserve equivalence.
        values = range(-2, 3)
        found = 0
        for a00 in values:
            for a01 in values:
                for a10 in values:
                    for a11 in values:
                        a = Mat([[a00, a01], [a10, a11]])
                        preserves = is_equiv_preserving_at(a, ANCHOR21).holds
                        shaped = (a00 == a01 and a10 == a11) or \
                            (a00 == a11 and a01 == a10)
                        assert preserves == shaped, a
                        found += preserves
        # 25 symmetric + 25 row-constant shapes minus the 5 constant
        # matrices counted twice.
        assert found == 45

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            classify_at_point(SYM31, AnchorPoint(Vec([1, 2])))
        with pytest.raises(ValueError, match="not equivalence preserving"):
            classify_at_point(DIAG12, ANCHOR21)

    def test_an_unclassified_preserver_raises_the_refutation(self, monkeypatch):
        # Were classify_global to miss a form, the equivalence preserver
        # would refute the classification: a RuntimeError, not a
        # precondition's ValueError.
        monkeypatch.setattr(isotone, "classify_global", lambda a: None)
        with pytest.raises(RuntimeError, match="fits neither canonical form"):
            classify_at_point(SYM31, ANCHOR21)

    def test_succeeds_exactly_on_equiv_preservers(self):
        # The point classification succeeds exactly when the exact
        # equivalence predicate holds, and the recovered parameters
        # describe the same matrix.
        rng = random.Random(197)
        cells = [(n, cell) for n in (2, 3, 4)
                 for cell in campaign_matrices(n, 40, seed=11 + n)]
        for n, (label, a) in cells:
            anchor = AnchorPoint(rand_strictly_decreasing(rng, n))
            try:
                form = classify_at_point(a, anchor)
            except ValueError:
                form = None
            assert (form is not None) == \
                is_equiv_preserving_at(a, anchor).holds, (label, a)
            if isinstance(form, PermScaled):
                assert form.as_matrix() == a
            elif isinstance(form, TraceMap):
                assert Mat([[v] * n for v in form.a]) == a


class TestVerifyStatements:
    def test_planted_forms_pass_all_statements(self):
        rng = random.Random(181)
        for i in range(12):
            n = rng.randint(2, 4)
            anchor = AnchorPoint(Vec(range(n, 0, -1)))
            planted = random_perm_scaled(n, rng) if i % 2 \
                else random_trace_map(n, rng)
            check = verify_statements(planted, anchor, trials=12, seed=i)
            assert check.bits == (True,) * 5
            assert check.consistent
            assert not check.advisory_disagreement

    def test_random_matrices_are_consistently_false_or_true(self):
        rng = random.Random(191)
        for i in range(40):
            n = rng.randint(2, 4)
            anchor = AnchorPoint(Vec(range(n, 0, -1)))
            check = verify_statements(random_matrix(n, rng), anchor,
                                      trials=10, seed=i)
            assert check.consistent
            assert not check.advisory_disagreement
            assert check.bits in ((True,) * 5, (False,) * 5)

    def test_diagonal_has_exact_statement4_witness(self):
        check = verify_statements(DIAG12, ANCHOR21, trials=10, seed=0)
        assert check.bits == (False,) * 5
        p = check.equiv.witness["perm"]
        assert not equivalent(DIAG12 @ p.apply(ANCHOR21.alpha),
                              DIAG12 @ ANCHOR21.alpha)

    def test_rejects_degenerate_anchor(self):
        with pytest.raises(ValueError):
            verify_statements(SYM31, AnchorPoint(Vec([1, 1])), trials=5, seed=0)

    def test_one_sided_implications(self):
        # Left, right, or point holding implies equivalence preserved.
        for i, (label, a) in enumerate(campaign_matrices(3, 30, seed=7)):
            anchor = AnchorPoint(Vec([3, 2, 1]))
            equiv = is_equiv_preserving_at(a, anchor).holds
            if is_left_isotone_at(a, anchor).holds:
                assert equiv
            if is_right_isotone_at(a, anchor, trials=6, seed=i).holds:
                assert equiv
            if is_isotone_at(a, anchor, trials=6, seed=i).holds:
                assert equiv


def _oracle_cells():
    # Campaign pools plus small-entry matrices, which often have tied
    # image profiles; anchors are strict, strict with gaps, and tied.
    rng = random.Random(199)
    for n in (1, 2, 3, 4):
        cells = [a for _, a in campaign_matrices(n, 12, seed=n)]
        cells += [random_matrix(n, rng, -1, 1) for _ in range(12)]
        for i, a in enumerate(cells):
            anchors = [Vec(range(n, 0, -1)), rand_strictly_decreasing(rng, n),
                       Vec(rng.choice([0, 1, 2]) for _ in range(n))]
            for alpha in anchors:
                yield i, a, AnchorPoint(alpha)


class TestOrbitScanMatchesPairwiseOracles:
    def test_public_predicates_match(self):
        for i, a, anchor in _oracle_cells():
            assert is_equiv_preserving_at(a, anchor) == oracle_equiv(a, anchor)
            assert is_left_isotone_at(a, anchor) == oracle_left(a, anchor)
            for trials in (0, 4):
                assert is_right_isotone_at(a, anchor, trials, seed=i) == \
                    oracle_right(a, anchor, trials, seed=i)
                assert is_isotone_at(a, anchor, trials, seed=i) == \
                    oracle_point(a, anchor, trials, seed=i)

    def test_joint_verifier_matches(self):
        cells = [(i, a, anchor) for i, a, anchor in _oracle_cells()
                 if anchor.strictly_decreasing]
        for i, a, anchor in cells:
            for trials in (0, 3):
                got = verify_statements(a, anchor, trials, seed=i)
                want = oracle_verify(a, anchor, trials, seed=i)
                assert got.bits == want.bits
                assert got.consistent == want.consistent
                assert got.advisory_disagreement == want.advisory_disagreement
                assert got.global_form == want.global_form
                for name in ("left", "right", "point", "equiv"):
                    assert getattr(got, name) == getattr(want, name), name
                g, w = got.global_sampled, want.global_sampled
                assert (g.holds, g.trials) == (w.holds, w.trials)
                if not g.holds:
                    q, y = g.witness["perm"], g.witness["y"]
                    assert not majorizes(a @ q.apply(y), a @ y)
                    # The failing target is the same orbit point; against
                    # the anchor itself the first failing perm is too.
                    assert y == w.witness["y"]
                    if y == anchor.alpha:
                        assert q == w.witness["perm"]

    def test_moved_path_pairs_anchor_with_moved_image(self):
        # A(2, 1) = (5, 1) and A(1, 2) = (4, 2): the swapped image lies
        # strictly below the anchor's, so no image escapes A alpha and the
        # first failing pair is (anchor, swap).
        a = Mat([[2, 1], [0, 1]])
        identity, swap = Perm.identity(2), Perm([1, 0])
        left = is_left_isotone_at(a, ANCHOR21)
        assert left == oracle_left(a, ANCHOR21)
        assert (left.witness["source_perm"], left.witness["target_perm"]) == \
            (identity, swap)
        check = verify_statements(a, ANCHOR21, trials=5, seed=0)
        assert check.bits == (False,) * 5
        assert check.point.witness == {"y": swap.apply(ANCHOR21.alpha)}
        assert check.global_sampled.witness == \
            {"perm": swap, "y": Vec([1, 2])}
        assert check == oracle_verify(a, ANCHOR21, trials=5, seed=0)

    def test_below_path_global_witness_is_a_three_cycle(self):
        # The first image not majorized by A alpha comes from a 3-cycle,
        # so the global witness tells source * target^-1 from its inverse.
        a = Mat([[0, 0, 2], [1, 1, -1], [2, 2, 2]])
        anchor = AnchorPoint(Vec([3, 2, 1]))
        check = verify_statements(a, anchor, trials=0, seed=0)
        assert check.global_sampled.witness == \
            {"perm": Perm([2, 0, 1]), "y": anchor.alpha}
        assert check == oracle_verify(a, anchor, trials=0, seed=0)


class TestOrbitScanIsOneForwardPass:
    @pytest.mark.parametrize("name, predicate", [
        ("equiv", is_equiv_preserving_at),
        ("left", is_left_isotone_at),
        ("point", is_isotone_at),
    ], ids=["equiv", "left", "point"])
    def test_failing_orbit_stops_early_at_n8(self, perms_read, name, predicate):
        # diag(1..8) fails at the second image of (8, .., 1), so the scan
        # must not pay for the other 40,318 perms.
        anchor = AnchorPoint(Vec(range(8, 0, -1)))
        verdict = predicate(DIAG8, anchor, guard=8)
        assert not verdict.holds
        _assert_reverifies(name, DIAG8, anchor.alpha, verdict.witness)
        assert 0 < len(perms_read) < 100

    @pytest.mark.parametrize("alpha", [range(8, 0, -1), (3, 3, 2, 2, 1, 1, 0, 0)],
                             ids=["strict", "tied"])
    def test_holding_orbit_builds_no_perm_and_keeps_no_memo(self, monkeypatch,
                                                            rows_declined, alpha):
        # A planted form holds at every anchor, and with A's rows declined
        # the scan reads every one of the 8! images.  It may build no Perm,
        # checked or trusted (a Perm is built only for a witness) and hold
        # nothing that grows with the orbit.
        a = PermScaled(Fraction(3, 2), Fraction(-1, 3),
                       Perm([3, 0, 7, 5, 1, 6, 2, 4])).as_matrix()
        anchor = AnchorPoint(Vec(alpha))
        built = []
        init, trusted = Perm.__init__, Perm._of

        def counting_init(self, image):
            built.append(image)
            init(self, image)

        def counting_of(cls, image):
            built.append(image)
            return trusted(image)

        monkeypatch.setattr(Perm, "__init__", counting_init)
        monkeypatch.setattr(Perm, "_of", classmethod(counting_of))
        tracemalloc.start()
        try:
            verdict = is_equiv_preserving_at(a, anchor, guard=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds
        assert built == []
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("rows, alpha, moved, source, target", [
        # below: the first image not majorized by A alpha; moved: the first
        # with another profile.  Failing pairs are (below, anchor), else
        # (anchor, moved).
        ([[-4, 5, -1, 3], [-1, -3, 5, 4], [5, -3, 5, 0], [-5, 4, 3, 5]],
         (8, 2, 1, 0), [0, 1, 3, 2], [0, 2, 1, 3], [0, 1, 2, 3]),
        ([[3, -1], [-4, 0]], (2, 1), [1, 0], [0, 1], [1, 0]),
        (DIAG12.rows, (2, 1), [1, 0], [1, 0], [0, 1]),
    ], ids=["below-after-moved", "moved-without-below", "below-is-moved"])
    def test_each_branch_matches_the_fraction_oracles(self, rows, alpha, moved,
                                                      source, target):
        # Random cells rarely reach the first two branches, so each is
        # pinned here by its witnesses.
        a, anchor = Mat(rows), AnchorPoint(Vec(alpha))
        equiv = is_equiv_preserving_at(a, anchor)
        left = is_left_isotone_at(a, anchor)
        assert equiv == oracle_equiv(a, anchor)
        assert left == oracle_left(a, anchor)
        assert equiv.witness == {"perm": Perm(moved)}
        assert left.witness == {"source_perm": Perm(source),
                                "target_perm": Perm(target)}
        for trials in (0, 3):
            assert is_right_isotone_at(a, anchor, trials, seed=1) == \
                oracle_right(a, anchor, trials, seed=1)
            assert is_isotone_at(a, anchor, trials, seed=1) == \
                oracle_point(a, anchor, trials, seed=1)
            assert verify_statements(a, anchor, trials, seed=1) == \
                oracle_verify(a, anchor, trials, seed=1)


# Entries with mixed denominators, zeros and negatives.
_entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 7]))


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "trace", "scaled", "perturbed",
                                 "rescaled"]))
    if kind == "trace":
        consts = draw(st.lists(_entries, min_size=n, max_size=n))
        rows = [[c] * n for c in consts]
    elif kind != "random":
        image = draw(st.permutations(range(n)))
        scale = draw(_entries.filter(bool))
        shift = draw(_entries)
        rows = [[shift + (scale if image[j] == i else 0) for j in range(n)]
                for i in range(n)]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "perturbed":
            rows[i][j] += draw(_entries.filter(bool))
        elif kind == "rescaled":  # rows on different denominators
            factor = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3),
                                           Fraction(2, 7)]))
            rows[i] = [v * factor for v in rows[i]]
    else:
        rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        rows[i] = [0] * n  # zero rows
    alpha = draw(st.one_of(
        st.lists(_entries, min_size=n, max_size=n),  # ties likely
        st.lists(st.integers(-9, 9), min_size=n, max_size=n, unique=True)
        .map(lambda v: sorted(v, reverse=True)),
    ))
    return (Mat(rows), AnchorPoint(Vec(alpha)), draw(st.integers(0, 6)),
            draw(st.integers(0, 2**32)))


def _assert_reverifies(name, a, alpha, witness):
    """Re-verify a failure witness through the exact Fraction predicates."""
    if name == "equiv":
        assert not equivalent(a @ witness["perm"].apply(alpha), a @ alpha)
    elif name == "left":
        assert not majorizes(a @ witness["source_perm"].apply(alpha),
                             a @ witness["target_perm"].apply(alpha))
    elif name == "global":
        q, y = witness["perm"], witness["y"]
        assert not majorizes(a @ q.apply(y), a @ y)
    elif "y" not in witness:  # point, downward half
        assert not majorizes(a @ witness["perm"].apply(alpha), a @ alpha)
    else:
        source = witness.get("perm", Perm.identity(len(alpha))).apply(alpha)
        assert majorizes(alpha, witness["y"])
        assert not majorizes(a @ source, a @ witness["y"])


class TestIntegerKernelMatchesFractionOracles:
    def test_integer_draws_equal_the_fraction_draws(self):
        # Same vectors from the same rng calls in the same order; n >= 6
        # reaches random.sample's pool path, n <= 5 its set path.
        for seed in range(3000):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            alpha = rand_vec(rng, n, -4, 4, max_den=7)  # ties and mixed dens
            ours, theirs = random.Random(seed), random.Random(seed)
            den, (nums,) = _clear_denominators((alpha,))
            draws = _draws_above(nums, den, ours)
            for _ in range(2):
                y = _vec(next(draws), den * _STEP_SCALE)
                assert y == oracle_sample_above(alpha, theirs)
            assert _vec(*_random_distinct_vec(n, ours)) == \
                oracle_random_distinct_vec(n, theirs)
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n", range(9, 33))
    def test_sample_above_equals_the_oracle_past_the_pool_bound(self, n):
        # random.sample(range(n), 2) takes its pool path up to n = 21 and
        # its set path past it.
        for seed in range(12):
            alpha = rand_vec(random.Random(seed), n, -4, 4, max_den=7)
            den, (nums,) = _clear_denominators((alpha,))
            ours, theirs = random.Random(seed), random.Random(seed)
            draws = _draws_above(nums, den, ours)
            for _ in range(2):
                y = _vec(next(draws), den * _STEP_SCALE)
                assert y == oracle_sample_above(alpha, theirs)
                assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n", range(6, 51))
    def test_random_distinct_vec_equals_the_oracle_on_the_pool_path(self, n):
        # n = 50 is more entries than [-24, 24] holds: both raise the same
        # error before any draw.
        for seed in range(12):
            ours, theirs = random.Random(seed), random.Random(seed)
            if n > 49:
                with pytest.raises(ValueError) as got:
                    _random_distinct_vec(n, ours)
                with pytest.raises(ValueError) as want:
                    oracle_random_distinct_vec(n, theirs)
                assert str(got.value) == str(want.value)
                assert ours.getstate() == random.Random(seed).getstate()
            else:
                for _ in range(3):
                    assert _vec(*_random_distinct_vec(n, ours)) == \
                        oracle_random_distinct_vec(n, theirs)
            assert ours.getstate() == theirs.getstate()

    @settings(max_examples=400)
    @given(case=_kernel_cases())
    def test_verdicts_equal_the_pairwise_fraction_oracles(self, case):
        a, anchor, trials, seed = case
        got = {
            "equiv": is_equiv_preserving_at(a, anchor),
            "left": is_left_isotone_at(a, anchor),
            "right": is_right_isotone_at(a, anchor, trials, seed),
            "point": is_isotone_at(a, anchor, trials, seed),
            "global": is_global_isotone_sampled(a, trials, seed),
        }
        assert got == {
            "equiv": oracle_equiv(a, anchor),
            "left": oracle_left(a, anchor),
            "right": oracle_right(a, anchor, trials, seed),
            "point": oracle_point(a, anchor, trials, seed),
            "global": oracle_global(a, trials, seed),
        }
        for name, verdict in got.items():
            if not verdict.holds:
                _assert_reverifies(name, a, anchor.alpha, verdict.witness)


# sha256 of repr of the draws below, taken when both samplers still called
# random.Random.randint, sample and shuffle.  The pytest job runs on every
# CI Python, so each of them must draw the same streams.
SAMPLER_STREAMS_SHA256 = \
    "3f710b42f5ad2796f9650721e675ceb757569d9847a4682786bbc6f1e0607842"


def _raise_on_call(*args, **kwargs):
    raise AssertionError("called where no call may happen")


@pytest.fixture
def words(monkeypatch):
    """The number of getrandbits words drawn through isotone's generators."""
    count = [0]

    class Counting(random.Random):
        def getrandbits(self, k):
            count[0] += 1
            return super().getrandbits(k)

    monkeypatch.setattr(isotone.random, "Random", Counting)
    return count


@pytest.fixture
def rows_declined(monkeypatch):
    """The row certificate declines every matrix, so the draws run as they
    do for a matrix it does not certify."""
    monkeypatch.setattr(isotone, "_rows_symmetric", lambda rows: False)


def _tied_anchors():
    """``(nums, den)`` at n = 1..8 whose rank order rests on ties: all
    equal, two-valued in both orders, and seeded draws from three values."""
    for n in range(1, 9):
        yield [3] * n, 1 + n % 4
        for split in range(1, n):
            yield [5] * split + [-2] * (n - split), 2
            yield [-2] * split + [5] * (n - split), 3
        rng = random.Random(n)
        for _ in range(20):
            yield [rng.choice((-1, 0, 4)) for _ in range(n)], rng.randint(1, 7)


def _assert_draws_match_the_oracle(nums, den, seed, count):
    """``count`` draws of one ``_draws_above`` stream equal the Fraction
    oracle's, with the generator states equal after every draw."""
    alpha = Vec(Fraction(v, den) for v in nums)
    ours, theirs = random.Random(seed), random.Random(seed)
    draws = _draws_above(nums, den, ours)
    for _ in range(count):
        assert _vec(next(draws), den * _STEP_SCALE) == oracle_sample_above(alpha, theirs)
        assert ours.getstate() == theirs.getstate()


class TestSamplerStreams:
    @pytest.mark.parametrize("n", range(1, 131))
    def test_draws_above_equal_the_oracle_at_every_length(self, n):
        # A draw's step count randint(1, 3n) meets every power-of-two bound
        # up to 390, where _randbelow rejects about half of its words, and
        # shuffle draws below every length up to n.
        rng = random.Random(n)
        nums = [rng.randint(-9, 9) for _ in range(n)]
        for seed in range(2):
            _assert_draws_match_the_oracle(nums, 1 + n % 7, 97 * n + seed, 1)

    def test_streams_match_the_pinned_hash(self):
        draws = []
        for seed in range(50):
            for n in range(1, 9):
                above = random.Random(f"{seed}:right")
                distinct = random.Random(f"{seed}:global")
                nums, den = tuple(range(n, 0, -1)), 1 + seed % 5
                above_draws = _draws_above(nums, den, above)
                draws.append([next(above_draws) for _ in range(20)])
                draws.append([_random_distinct_vec(n, distinct) for _ in range(20)])
        digest = hashlib.sha256(repr(draws).encode()).hexdigest()
        assert digest == SAMPLER_STREAMS_SHA256

    def test_a_holding_cell_draws_the_pinned_word_counts(self, words, rows_declined):
        # Every draw here is at most 6 bits, one getrandbits word each, read
        # through random.Random._randbelow.  The row certificate declines
        # here, so every stream draws.
        anchor = AnchorPoint(Vec(["7/2", "4/3", 1, "-5/6"]))
        a = PermScaled(Fraction(2), Fraction(1, 3), Perm([1, 0, 3, 2])).as_matrix()
        assert verify_statements(a, anchor, trials=50, seed=1).all_hold
        assert words == [5515]  # right, point and global streams
        words[0] = 0
        assert is_right_isotone_at(a, anchor, trials=50, seed=1).holds
        assert words == [2673]

    def test_a_row_certified_cell_draws_no_word(self, words):
        anchor = AnchorPoint(Vec(["7/2", "4/3", 1, "-5/6"]))
        a = PermScaled(Fraction(2), Fraction(1, 3), Perm([1, 0, 3, 2])).as_matrix()
        held = IsotoneVerdict(True, trials=50)
        check = verify_statements(a, anchor, trials=50, seed=1)
        assert check.all_hold
        assert check.right == check.point == check.global_sampled == held
        assert is_global_isotone_sampled(a, trials=50, seed=1) == held
        assert is_right_isotone_at(a, anchor, trials=50, seed=1) == held
        assert is_isotone_at(a, anchor, trials=50, seed=1) == held
        assert words == [0]

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_hold_and_draw_no_word(self, words, trials):
        # A non-positive count reads no draw from the stream: the verdicts
        # hold, echo trials, and no getrandbits word is drawn.
        anchor = AnchorPoint(Vec(["7/2", "4/3", 1, "-5/6"]))
        a = PermScaled(Fraction(2), Fraction(1, 3), Perm([1, 0, 3, 2])).as_matrix()
        held = IsotoneVerdict(True, trials=trials)
        assert is_right_isotone_at(a, anchor, trials=trials, seed=1) == held
        assert is_isotone_at(a, anchor, trials=trials, seed=1) == held
        check = verify_statements(a, anchor, trials=trials, seed=1)
        assert check.all_hold
        assert check.right == check.point == check.global_sampled == held
        assert words == [0]

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_draw_nothing_past_declined_rows(self, monkeypatch,
                                                       rows_declined, trials):
        def unreachable(*args):
            raise AssertionError("trials drawn with no trials")

        monkeypatch.setattr(isotone, "_global_draws", unreachable)
        anchor = AnchorPoint(Vec(["7/2", "4/3", 1, "-5/6"]))
        a = PermScaled(Fraction(2), Fraction(1, 3), Perm([1, 0, 3, 2])).as_matrix()
        check = verify_statements(a, anchor, trials=trials, seed=1)
        assert check.right == check.point == check.global_sampled == \
            IsotoneVerdict(True, trials=trials)

    def test_draws_above_equal_the_oracle_at_tied_anchors(self):
        # Ties are where the rank order rests on sorted's stability: equal
        # values keep their index order, in the oracle and in the sampler.
        for index, (nums, den) in enumerate(_tied_anchors()):
            for seed in range(4):
                _assert_draws_match_the_oracle(nums, den, 31 * index + seed, 8)

    @given(nums=st.lists(st.integers(-4, 4), min_size=1, max_size=8),
           den=st.integers(1, 12), seed=st.integers(0, 2**32))
    def test_draws_above_equal_the_oracle(self, nums, den, seed):
        _assert_draws_match_the_oracle(nums, den, seed, 6)

    def test_more_entries_than_the_range_is_a_value_error(self):
        # As random.sample(range(-24, 25), 50) is, at a guard that lets
        # n = 50 through; A's rows do not certify this matrix, so it draws.
        a = Mat([[int(i == j == 0) for j in range(50)] for i in range(50)])
        with pytest.raises(ValueError, match="Sample larger than population"):
            is_global_isotone_sampled(a, trials=1, guard=50)


def _row_multisets(n, values):
    """One row order for each row multiset of the box of :func:`_box`:
    permuting A's rows changes no profile and no witness."""
    return combinations_with_replacement(product(values, repeat=n), n)


# The predicates that run the orbit scan, keyed by the verdict each
# reports, and every public call that runs it: they and the joint verifier,
# which takes strict anchors only.
_PREDICATES = {
    "equiv": lambda a, anchor: is_equiv_preserving_at(a, anchor),
    "left": lambda a, anchor: is_left_isotone_at(a, anchor),
    "right": lambda a, anchor: is_right_isotone_at(a, anchor, trials=5, seed=7),
    "point": lambda a, anchor: is_isotone_at(a, anchor, trials=5, seed=7),
}
_SCAN_CALLS = {**_PREDICATES, "verify": lambda a, anchor: verify_statements(
    a, anchor, trials=5, seed=7)}


def _holds(result):
    """A verdict's ``holds``, or whether all five statements of a joint check do."""
    return result.all_hold if isinstance(result, isotone.StatementCheck) else result.holds


def _reports(cells):
    """The ``repr`` of every scan call on every ``(a, anchor)`` cell, the
    joint verifier's at strict anchors only."""
    return [repr(call(a, anchor)) for a, anchor in cells
            for call in (_SCAN_CALLS if anchor.strictly_decreasing
                         else _PREDICATES).values()]


def _seeded_forms(n):
    """Seeded trace maps and scaled permutations, each followed by a
    one-entry perturbation of it."""
    rng = random.Random(f"settle:{n}")
    for _ in range(2):
        for form in (random_trace_map(n, rng), random_perm_scaled(n, rng)):
            yield form
            yield perturb_entry(form, rng)


@pytest.fixture
def images_read(monkeypatch):
    """The perm image of every orbit image the scans read, in order."""
    read, orbit = [], isotone._orbit

    def counting(values, guard):
        images = orbit(values, guard)  # the guard trips on the call

        def reading():
            for image in images:
                read.append(image[0])
                yield image
        return reading()

    monkeypatch.setattr(isotone, "_orbit", counting)
    return read


@pytest.fixture
def rows_read(monkeypatch):
    """The answer of every read of the row certificate, in order."""
    reads, rows_symmetric = [], isotone._rows_symmetric

    def counting(rows):
        reads.append(rows_symmetric(rows))
        return reads[-1]

    monkeypatch.setattr(isotone, "_rows_symmetric", counting)
    return reads


# The exhaustive boxes (n, entry values) with the number of their
# matrices that fit a global form.
_ROW_BOXES = {(2, tuple(range(-2, 3))): 45, (3, (-1, 0, 1)): 63, (4, (0, 1)): 64}


def _box(n, values):
    """Every n x n matrix with entries in ``values``, as integer rows."""
    for e in product(values, repeat=n * n):
        yield tuple(e[i:i + n] for i in range(0, n * n, n))


@st.composite
def _row_cases(draw):
    """Integer rows, a planted form about half the time, and whether they are."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return tuple(tuple(draw(st.integers(0, 1)) for _ in range(n))
                     for _ in range(n)), False
    if draw(st.booleans()):
        return tuple((draw(st.integers(-4, 4)),) * n for _ in range(n)), True
    image = draw(st.permutations(range(n)))
    c, b = draw(st.integers(-3, 3).filter(bool)), draw(st.integers(-3, 3))
    return tuple(tuple(b + c * (image[i] == j) for j in range(n))
                 for i in range(n)), True


class TestRowCertificate:
    """``_rows_symmetric`` certifies exactly the globally isotone matrices,
    and a pass it certifies is the one the draws give."""

    @pytest.mark.parametrize("box", _ROW_BOXES, ids=["n2", "n3", "n4"])
    def test_it_agrees_with_classify_global_on_the_box(self, box):
        held = 0
        for rows in _box(*box):
            certified = _rows_symmetric(rows)
            assert certified == (classify_global(Mat(rows)) is not None), rows
            held += certified
        assert held == _ROW_BOXES[box]

    def test_no_draw_refutes_a_certified_box_matrix(self, monkeypatch):
        # The row certificate declines in the samplers, so each predicate
        # draws its 500 trials.  Permuting A's rows leaves every profile, so
        # each row multiset is drawn for once.
        certified = {box: [rows for rows in _box(*box) if _rows_symmetric(rows)]
                     for box in _ROW_BOXES}
        assert {box: len(held) for box, held in certified.items()} == _ROW_BOXES
        monkeypatch.setattr(isotone, "_rows_symmetric", lambda rows: False)
        refuted = []
        for (n, _), held in certified.items():
            anchors = [AnchorPoint(Vec(range(n, 0, -1))),
                       AnchorPoint(Vec((1, 1, 0, 0)[:n]))]  # strict, tied
            for rows in {tuple(sorted(rows)) for rows in held}:
                a = Mat(rows)
                if not is_global_isotone_sampled(a, trials=500, seed=n).holds:
                    refuted.append((rows, "global"))
                for anchor in anchors:
                    for predicate in (is_right_isotone_at, is_isotone_at):
                        if not predicate(a, anchor, trials=500, seed=n).holds:
                            refuted.append((rows, anchor.alpha, predicate.__name__))
        assert refuted == []

    @pytest.mark.parametrize("alpha", [(3, 2, 1), (1, 0, 0), (1, 1, 0), (2, 1, 1),
                                       (1, 1, 1)])
    def test_no_certified_cell_of_the_n3_box_is_refuted(self, alpha, monkeypatch):
        # At strict, tied and constant anchors, every matrix of the n = 3
        # box that the rows certify holds its orbit, read in full once the
        # certificate declines, and no draw above the anchor refutes it.
        # Permuting A's rows leaves every profile, so each row multiset is
        # drawn for once.
        anchor = AnchorPoint(Vec(alpha))
        held = [rows for rows in _box(3, (-1, 0, 1)) if _rows_symmetric(rows)]
        assert len(held) == _ROW_BOXES[3, (-1, 0, 1)]
        monkeypatch.setattr(isotone, "_rows_symmetric", lambda rows: False)
        assert [rows for rows in held
                if _orbit_scan(Mat(rows), anchor, None, 3)[1] is not None] == []
        refuted = [(rows, predicate.__name__)
                   for rows in sorted({tuple(sorted(rows)) for rows in held})
                   for predicate in (is_right_isotone_at, is_isotone_at)
                   if not predicate(Mat(rows), anchor, trials=500, seed=3).holds]
        assert refuted == []

    @pytest.mark.parametrize("n", range(2, 7))
    def test_planted_forms_at_strict_anchors_are_certified(self, n, words):
        # Forms with Fraction entries are certified on their cleared rows,
        # so the joint verifier passes them without a draw.
        rng = random.Random(f"planted:{n}")
        cells = [(a, anchor) for anchor in (AnchorPoint(rand_strictly_decreasing(rng, n))
                                            for _ in range(4))
                 for a in (random_trace_map(n, rng), random_perm_scaled(n, rng))]
        words[0] = 0  # the fixture counts the words drawn for the cells too
        for a, anchor in cells:
            assert _rows_symmetric(a._frame[1])
            assert verify_statements(a, anchor, trials=50, seed=n).all_hold
        assert words == [0]

    @pytest.mark.parametrize("predicate", [is_right_isotone_at, is_isotone_at],
                             ids=["right", "point"])
    def test_a_declined_certificate_leaves_every_upward_verdict_as_drawn(
            self, predicate, monkeypatch):
        # Certified or drawn, an upward predicate reports the same verdict
        # on every campaign cell, at strict and tied anchors.
        rng = random.Random(223)
        runs = [(a, anchor, i) for n in (2, 3, 4)
                for anchor in (AnchorPoint(rand_strictly_decreasing(rng, n)),
                               AnchorPoint(Vec([1] * (n - 1) + [0])))
                for i, (_, a) in enumerate(campaign_matrices(n, 4, n))]
        certified = [predicate(a, anchor, trials=20, seed=i) for a, anchor, i in runs]
        assert any(verdict.holds for verdict in certified)
        monkeypatch.setattr(isotone, "_rows_symmetric", lambda rows: False)
        assert certified == [predicate(a, anchor, trials=20, seed=i)
                             for a, anchor, i in runs]

    def test_a_planted_cycle_is_certified_in_flat_memory(self):
        # A's rows certify the planted 14-cycle before any trial reads an
        # orbit of 14! rearrangements, so the sampler's peak stays flat.
        n = 14
        a = PermScaled(Fraction(3, 2), Fraction(-1, 3),
                       Perm([*range(1, n), 0])).as_matrix()
        tracemalloc.start()
        try:
            verdict = is_global_isotone_sampled(a, trials=1, guard=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == IsotoneVerdict(True, trials=1)
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("n", range(2, 7))
    def test_reading_it_changes_no_verdict(self, n, words, monkeypatch):
        # The orbit scan reads the row test only when its second image keeps
        # the anchor's profile, and it certifies only planted forms; the
        # global sampler reads it on every cell.  A planted form draws no
        # word when it is read.
        rng = random.Random(f"rows:{n}")
        anchor = AnchorPoint(rand_strictly_decreasing(rng, n))
        cells = list(campaign_matrices(n, 4, 5))
        runs = [(trials, i, label, a) for trials in (0, 1, 20)
                for i, (label, a) in enumerate(cells)]

        def outcomes(read):
            out = []
            for trials, i, label, a in runs:
                words[0] = 0
                out.append((verify_statements(a, anchor, trials, seed=i),
                            is_global_isotone_sampled(a, trials, seed=i)))
                if read and label in ("trace_map", "perm_scaled"):
                    assert words == [0], (label, trials)
            return out

        read = outcomes(read=True)
        monkeypatch.setattr(isotone, "_rows_symmetric", lambda rows: False)
        assert outcomes(read=False) == read

    @pytest.mark.parametrize("declines", [False, True])
    def test_each_public_call_reads_the_rows_at_most_once(self, monkeypatch, declines):
        # Every scan call reads them once, in the orbit scan; declined, no
        # caller and not the joint verifier's global stream reads them
        # again.  An orbit failing at its second image reads them not at all.
        reads, rows_symmetric = [], isotone._rows_symmetric
        monkeypatch.setattr(isotone, "_rows_symmetric", lambda rows: (
            reads.append(1) or (not declines and rows_symmetric(rows))))
        anchor = AnchorPoint(Vec(["7/2", "4/3", 1, "-5/6"]))
        planted = PermScaled(Fraction(2), Fraction(1, 3), Perm([1, 0, 3, 2])).as_matrix()
        failing = Mat([[1, 2, 0, 0], [0, 1, 3, 0], [2, 0, 1, 0], [0, 0, 0, 1]])
        for a, read in ((planted, [1]), (failing, [])):
            for name, call in _SCAN_CALLS.items():
                reads.clear()
                call(a, anchor)
                assert reads == read, (name, a)
            reads.clear()
            is_global_isotone_sampled(a, trials=20, seed=1)
            assert reads == [1]

    @settings(max_examples=300, deadline=None)
    @given(case=_row_cases(), data=st.data())
    def test_a_certified_matrix_keeps_its_rows_under_every_column_permutation(
            self, case, data):
        rows, planted = case
        certified = _rows_symmetric(rows)
        assert certified or not planted
        if certified:
            q = data.draw(st.permutations(range(len(rows))))
            moved = [tuple(row[j] for j in q) for row in rows]
            assert sorted(moved) == sorted(rows)


class TestRowsSettleAHoldingOrbit:
    """The orbit scan reads A's rows when its second image keeps the
    anchor's profile and stops there when they certify; every verdict
    equals the full scan's, kept behind a declined certificate
    (``rows_declined``) as the oracle."""

    @pytest.mark.parametrize("alpha, held", [
        ((3, 2, 1), 16), ((1, 0, 0), 69), ((1, 1, 0), 24), ((2, 1, 1), 18)])
    def test_the_n3_box_matches_the_full_scan(self, alpha, held, request):
        # ``held`` counts the multisets whose orbit holds, as the full scan
        # read them before the rows could settle an orbit: a certificate
        # that passed a failing orbit would change it on both sides.
        anchor = AnchorPoint(Vec(alpha))
        cells = [(Mat(rows), anchor) for rows in _row_multisets(3, (-1, 0, 1))]
        assert len(cells) == 3654
        settled = _reports(cells)
        request.getfixturevalue("rows_declined")
        assert settled == _reports(cells)
        assert sum(is_equiv_preserving_at(a, anchor).holds for a, _ in cells) == held

    @pytest.mark.parametrize("n", range(4, 8))
    def test_seeded_forms_and_perturbations_match_the_full_scan(self, n, request):
        rng = random.Random(f"settle:anchors:{n}")
        strict = AnchorPoint(rand_strictly_decreasing(rng, n))
        tied = AnchorPoint(Vec(sorted((rng.choice((-2, 1, 3)) for _ in range(n)),
                                      reverse=True)))
        cells = [(a, anchor) for a in _seeded_forms(n) for anchor in (strict, tied)]
        settled = _reports(cells)
        request.getfixturevalue("rows_declined")
        assert settled == _reports(cells)

    @pytest.mark.parametrize("n", range(5, 9))
    @pytest.mark.parametrize("make", [random_trace_map, random_perm_scaled],
                             ids=["trace", "scaled"])
    @pytest.mark.parametrize("name", _SCAN_CALLS)
    def test_a_planted_form_reads_two_images_and_the_rows_once(
            self, n, make, name, images_read, rows_read, words):
        # The certified scan tells its caller so, and nothing is drawn.
        rng = random.Random(f"settle:count:{n}")
        a, anchor = make(n, rng), AnchorPoint(rand_strictly_decreasing(rng, n))
        words[0] = 0  # the fixture counts the words drawn for the cell too
        assert _holds(_SCAN_CALLS[name](a, anchor))
        assert images_read == [tuple(range(n)), (*range(n - 2), n - 1, n - 2)]
        assert rows_read == [True]
        assert words == [0]

    @pytest.mark.parametrize("name, alpha, images", [
        *((name, (5, 4, 3, 2, 1), 120) for name in _SCAN_CALLS),
        *((name, (5, 4, 4, 2, 1), 60) for name in _PREDICATES),
    ])
    def test_declined_rows_are_read_once_and_every_image_after(
            self, name, alpha, images, images_read, monkeypatch):
        # The scan reads every distinct rearrangement, in the order of the
        # first perm giving each; the joint verifier's global draws then
        # read the orbits of their own vectors.
        reads = []
        monkeypatch.setattr(isotone, "_rows_symmetric",
                            lambda rows: reads.append(rows) and False)
        a = random_perm_scaled(5, random.Random("settle:declined"))
        assert _holds(_SCAN_CALLS[name](a, AnchorPoint(Vec(alpha))))
        assert reads == [a._frame[1]]
        scan = images_read[:images]
        assert len(set(scan)) == images and scan == sorted(scan)
        assert len(images_read) > images if name == "verify" else \
            len(images_read) == images

    @pytest.mark.parametrize("name", _SCAN_CALLS)
    def test_the_guard_trips_before_the_rows_are_read(self, name, monkeypatch):
        monkeypatch.setattr(isotone, "_rows_symmetric", _raise_on_call)
        n = numerics.DEFAULT_GUARD + 1
        a = random_perm_scaled(n, random.Random("settle:guard"))
        with pytest.raises(GuardExceeded):
            _SCAN_CALLS[name](a, AnchorPoint(Vec(range(n, 0, -1))))

    def test_a_certified_cell_with_no_global_form_reads_inconsistent(
            self, monkeypatch, rows_read):
        # The certificate never reads classify_global, so were it to miss
        # a form, the joint verifier would still report the conflict.
        monkeypatch.setattr(isotone, "classify_global", lambda a: None)
        a = random_perm_scaled(4, random.Random("settle:unclassified"))
        check = verify_statements(a, AnchorPoint(Vec([4, 3, 2, 1])), trials=5, seed=1)
        assert rows_read == [True]
        assert check.bits == (True, True, True, True, False)
        assert not check.consistent
        assert check.advisory_disagreement == ("right", "point", "global_sampled")


@st.composite
def _int_rows(draw):
    """Integer rows at n <= 6: a planted form, perhaps with one entry
    bumped, or entries from a small box, where ties are common."""
    n = draw(st.integers(1, 6))
    values = draw(st.sampled_from([(0, 1), (-1, 0, 1), tuple(range(-9, 10))]))
    rows = [[draw(st.sampled_from(values)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        image = draw(st.permutations(range(n)))
        c, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows = [[b + c * (image[i] == j) for j in range(n)] for i in range(n)]
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += 1
    return tuple(map(tuple, rows))


def _one_row_of_ones(n):
    """``I + e_k 1^T`` for each k: equal column sums, rows the certificate
    declines, and at many anchors a failing orbit with every image below
    ``A alpha``, so the scan's witness pair is ``(anchor, moved)``."""
    for k in range(n):
        yield Mat([[int(i == j) + (i == k) for j in range(n)] for i in range(n)])


class TestCellFixedWork:
    """A cell's fixed work, each fast form against its kept oracle: the
    row certificate reads only the rows a swap moves, the global witness
    is read off the identity image, an orbit witness is the anchor's own
    vector, and a sampler's witness vector is the checked one."""

    @pytest.mark.parametrize("box", [(3, (-1, 0, 1)), (4, (0, 1))], ids=["n3", "n4"])
    def test_moved_rows_decide_as_all_rows_on_the_box(self, box):
        certified = 0
        for rows in _box(*box):
            got = _rows_symmetric(rows)
            assert got == oracle_rows_symmetric(rows), rows
            certified += got
        assert certified == _ROW_BOXES[box]

    @settings(max_examples=400, deadline=None)
    @given(rows=_int_rows())
    def test_moved_rows_decide_as_all_rows(self, rows):
        assert _rows_symmetric(rows) == oracle_rows_symmetric(rows)

    def test_the_global_witness_is_source_after_target_inverse(self):
        # Through the joint verifier at strict anchors and the scan itself
        # at tied ones, over seeded pools and cells whose failing orbit has
        # no image above A alpha; both witness pairs occur.
        pairs = set()
        for n in range(2, 8):
            rng = random.Random(f"witness:{n}")
            strict = AnchorPoint(rand_strictly_decreasing(rng, n))
            tied = AnchorPoint(Vec(sorted((rng.choice((-2, 1, 3)) for _ in range(n)),
                                          reverse=True)))
            cells = [a for _, a in campaign_matrices(n, 8, n)]
            cells += _one_row_of_ones(n)
            for i, a in enumerate(cells):
                check = verify_statements(a, strict, trials=5, seed=i)
                _, failed = _orbit_scan(a, tied, 5, n)
                verdicts = [(check.left, check.right, check.global_sampled)]
                if failed:
                    verdicts.append((failed["left"], failed["right"],
                                     failed["global_sampled"]))
                for left, right, global_sampled in verdicts:
                    if left.holds:
                        continue
                    assert global_sampled.witness == {
                        "perm": oracle_global_perm(left.witness),
                        "y": right.witness["y"]}
                    identity = Perm.identity(n)
                    pairs.add((left.witness["source_perm"] == identity,
                               left.witness["target_perm"] == identity))
        assert pairs == {(False, True), (True, False)}

    def test_an_orbit_witness_is_the_anchor_or_its_rearrangement(self, monkeypatch):
        # A failing scan builds no Fraction: the (below, anchor) pair reports
        # alpha itself, and the (anchor, moved) pair alpha's own entries
        # moved by the target perm.  Each witness re-verifies on Fractions.
        def unbuilt(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        kinds = set()
        for n in range(2, 6):
            rng = random.Random(f"anchor-witness:{n}")
            anchor = AnchorPoint(rand_strictly_decreasing(rng, n))
            alpha = anchor.alpha
            cells = [a for _, a in campaign_matrices(n, 8, n)]
            cells += _one_row_of_ones(n)
            for i, a in enumerate(cells):
                if _orbit_scan(a, anchor, 5, n)[1] is None:
                    continue
                with monkeypatch.context() as m:
                    m.setattr(Fraction, "__new__", unbuilt)
                    check = verify_statements(a, anchor, trials=5, seed=i)
                y, target = check.right.witness["y"], check.left.witness["target_perm"]
                if target == Perm.identity(n):
                    assert y is alpha
                else:
                    assert y == Perm(target.image).apply(alpha)
                    assert all(y[target(j)] is v for j, v in enumerate(alpha))
                kinds.add(target == Perm.identity(n))
                assert check.point.witness.get("y", y) is y
                assert check.global_sampled.witness["y"] is y
                source = check.right.witness["perm"].apply(alpha)
                q = check.global_sampled.witness["perm"]
                for x, z in ((source, y), (q.apply(y), y)):
                    assert not majorizes(a @ x, a @ z)
                    assert oracle_first_violation(a @ x, a @ z) is not None
                want = oracle_verify(a, anchor, 5, seed=i)
                for name in ("left", "right", "point", "equiv"):
                    assert getattr(check, name) == getattr(want, name), name
        assert kinds == {True, False}

    @settings(max_examples=300)
    @given(nums=st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=8),
           den=st.one_of(st.just(1), st.integers(2, 12), st.integers(1, 10**6)),
           as_tuple=st.booleans())
    @example(nums=[0, -3, 6], den=1, as_tuple=True)
    @example(nums=[0, -3, 6], den=6, as_tuple=False)
    @example(nums=[1, -3], den=2, as_tuple=True)
    def test_the_witness_vector_is_the_checked_one(self, nums, den, as_tuple):
        nums = tuple(nums) if as_tuple else nums
        got, want = _vec(nums, den), oracle_vec(nums, den)
        assert got == want and repr(got) == repr(want)
        assert [type(v) for v in got] == [Fraction] * len(nums)
        assert type(got.entries) is tuple
        assert got._frame == want._frame

    def test_a_cell_checks_its_shape_twice(self, monkeypatch):
        # Once in the joint verifier, once in classify_global; the scan's
        # body trusts the first.  A misshapen cell is still refused.
        calls, require = [], isotone._require_square
        monkeypatch.setattr(isotone, "_require_square",
                            lambda *args: calls.append(args) or require(*args))
        anchor = AnchorPoint(Vec([4, 3, 2, 1]))
        for i, (_, a) in enumerate(campaign_matrices(4, 8, 1)):
            calls.clear()
            verify_statements(a, anchor, trials=5, seed=i)
            assert calls == [(a, anchor), (a,)]
        with pytest.raises(DimensionMismatch):
            verify_statements(Mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), anchor)
        with pytest.raises(DimensionMismatch):
            verify_statements(Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]), anchor)


_tie_pool = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                             Fraction(1, 2), Fraction(-7, 3)])
_coprime = st.builds(Fraction, st.integers(-10**30, 10**30),
                     st.sampled_from([2**61 - 1, 10**9 + 7, 3**40, 998244353]))


@st.composite
def _anchor_values(draw):
    values = draw(st.lists(st.one_of(_tie_pool, _coprime), min_size=1, max_size=8))
    return sorted(values, reverse=True) if draw(st.booleans()) else values


class TestAnchorFrame:
    """An :class:`AnchorPoint` clears ``alpha`` once; its strictness and
    every orbit scan read that integer frame."""

    @given(values=_anchor_values())
    @example(values=[Fraction(5, 3)])
    @example(values=[Fraction(2), Fraction(1), Fraction(1), Fraction(0)])
    @example(values=[Fraction(1, 2**61 - 1), Fraction(1, 10**9 + 7)])
    def test_strictly_decreasing_matches_the_fraction_oracle(self, values):
        anchor = AnchorPoint(Vec(values))
        assert anchor.strictly_decreasing == all(
            a > b for a, b in zip(values, values[1:]))
        den, nums = anchor.alpha._frame
        assert [Fraction(v, den) for v in nums] == values

    def test_the_frame_is_no_field(self):
        anchor = AnchorPoint(Vec(["7/2", "4/3", 1]))
        assert [f.name for f in dataclasses.fields(anchor)] == [
            "alpha", "strictly_decreasing"]
        assert repr(anchor) == ("AnchorPoint(alpha=Vec(7/2, 4/3, 1), "
                                "strictly_decreasing=True)")
        twin = AnchorPoint(Vec(["7/2", "4/3", 1]))
        assert anchor == twin and hash(anchor) == hash(twin)

    def test_a_holding_verify_clears_a_once(self, monkeypatch):
        anchor = AnchorPoint(Vec(["7/2", "4/3", 1, "-5/6"]))
        a = PermScaled(Fraction(2), Fraction(1, 3), Perm([1, 0, 3, 2])).as_matrix()
        calls = count_clears(monkeypatch)
        assert verify_statements(a, anchor, trials=5, seed=1).all_hold
        # A's rows, read by the orbit scan, both upward streams and the
        # global sampler; the anchor was cleared when it was built.
        assert calls == [1]
        assert verify_statements(a, anchor, trials=5, seed=2).all_hold
        assert calls == [1]

    def test_every_predicate_reads_the_cached_frames(self, monkeypatch):
        anchor = AnchorPoint(Vec(["7/2", "4/3", 1, "-5/6"]))
        a = Mat([[1, "1/2", 0, 3], [2, 0, "-1/3", 1], [0, 1, 1, 1], [5, 0, 0, "1/4"]])
        calls = count_clears(monkeypatch)
        is_equiv_preserving_at(a, anchor)
        assert calls == [1]
        for verdict in (is_left_isotone_at(a, anchor),
                        is_right_isotone_at(a, anchor, trials=5),
                        is_isotone_at(a, anchor, trials=5),
                        is_global_isotone_sampled(a, trials=5),
                        verify_statements(a, anchor, trials=5)):
            assert verdict is not None
        assert calls == [1]

    @staticmethod
    def _run(values, tied):
        anchor = AnchorPoint(Vec(values))
        out = []
        for i, (_, a) in enumerate(campaign_matrices(4, 40, 3)):
            out += [verify_statements(a, anchor, trials=5, seed=i),
                    is_equiv_preserving_at(a, anchor),
                    is_left_isotone_at(a, anchor),
                    is_right_isotone_at(a, anchor, trials=5, seed=i),
                    is_isotone_at(a, anchor, trials=5, seed=i),
                    is_global_isotone_sampled(a, trials=5, seed=i),
                    classify_global(a)]
        return out, isotone_point_campaign(AnchorPoint(Vec(tied)), matrices=40, seed=3)

    def test_no_fraction_is_compared_by_order(self, monkeypatch):
        values, tied = ["7/2", "4/3", 1, "-5/6"], [2, 1, 1, 0]
        expected = self._run(values, tied)
        assert {c.all_hold for c in expected[0][::7]} == {True, False}

        def unordered(self, other):
            raise AssertionError("two Fractions compared by order")

        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Fraction, name, unordered)
        got = self._run(values, tied)
        monkeypatch.undo()
        assert got == expected


class TestCampaign:
    def test_matrix_pool_is_deterministic(self):
        a = list(campaign_matrices(3, 20, seed=9))
        b = list(campaign_matrices(3, 20, seed=9))
        assert a == b
        assert list(campaign_matrices(3, 20, seed=10)) != a

    def test_no_violations_at_small_sizes(self):
        report = isotone_point_campaign(ANCHOR21, matrices=200, seed=1)
        assert report.passed
        assert report.total > 200
        assert report.equiv_preserving > 0  # the planted forms at least

    def test_structured_positives_at_n4(self):
        anchor = AnchorPoint(Vec([4, 3, 2, 1]))
        report = isotone_point_campaign(anchor, matrices=40, seed=2)
        assert report.passed

    def test_unclassified_preservers_are_recorded(self, monkeypatch):
        # Were classify_global to miss every form, each equivalence
        # preserver of the pool, the planted forms, would be a violation,
        # recorded as (label, matrix) in pool order.
        anchor = AnchorPoint(Vec([3, 2, 1]))
        preservers = tuple((label, a) for label, a in campaign_matrices(3, 16, seed=5)
                           if is_equiv_preserving_at(a, anchor).holds)
        assert {label for label, _ in preservers} == {"trace_map", "perm_scaled"}
        monkeypatch.setattr(isotone, "classify_global", lambda a: None)
        report = isotone_point_campaign(anchor, matrices=16, seed=5)
        assert report.violations == preservers
        assert report.equiv_preserving == len(preservers)
        assert not report.passed

    def test_guard_trips_before_the_pool_is_built(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("campaign_matrices ran above the guard")

        monkeypatch.setattr(isotone, "campaign_matrices", unreachable)
        with pytest.raises(GuardExceeded):
            isotone_point_campaign(AnchorPoint(Vec(range(9, 0, -1))))
        with pytest.raises(GuardExceeded):
            isotone_point_campaign(ANCHOR21, matrices=5, guard=1)

    def test_degenerate_anchor_probe_is_recorded(self, capsys):
        # Outside the strictly decreasing regime nothing is asserted about
        # the outcome; the campaign simply reports what it found.
        anchor = AnchorPoint(Vec([1, 1, 0]))
        assert not anchor.strictly_decreasing
        report = isotone_point_campaign(anchor, matrices=150, seed=3)
        print(f"degenerate-anchor probe: {len(report.violations)} "
              f"non-classified equivalence preservers among "
              f"{report.equiv_preserving} equivalence preservers")
        assert report.total >= 150
