"""Partial-sum order, equivalence, and the permutohedron."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from majorkit import (
    DimensionMismatch,
    Perm,
    Vec,
    enumerate_perms,
    equivalent,
    first_violation,
    majorizes,
    permutohedron_vertices,
    sort_desc,
    trace,
)
from helpers import (
    _maj,
    majorizing_pair,
    oracle_first_violation,
    oracle_prefix_sums,
    rand_perm,
    rand_vec,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
vectors = st.lists(rationals, min_size=1, max_size=6).map(Vec)
# Small pools make ties, equal totals and holding pairs common.
tied = st.sampled_from([Fraction(v, d) for v in range(-3, 4) for d in (1, 2, 3)])
integers = st.integers(min_value=-20, max_value=20).map(Fraction)


@st.composite
def vector_pairs(draw, entries):
    """Independent pairs (mostly unequal totals), rearrangements, and one
    T-step averages of a rearrangement, in either order (held or failed)."""
    n = draw(st.integers(min_value=1, max_value=7))
    y = draw(st.lists(entries, min_size=n, max_size=n))
    mode = draw(st.sampled_from(["independent", "rearranged", "averaged",
                                 "spread"]))
    if mode == "independent":
        return Vec(draw(st.lists(entries, min_size=n, max_size=n))), Vec(y)
    x = draw(st.permutations(y))
    if mode != "rearranged" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        t = draw(st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2),
                                  Fraction(3, 4)]))
        x[i], x[j] = (1 - t) * x[i] + t * x[j], t * x[i] + (1 - t) * x[j]
    return (Vec(y), Vec(x)) if mode == "spread" else (Vec(x), Vec(y))


def assert_agrees_with_oracle(x, y):
    """first_violation, majorizes and equivalent decide as the Fraction oracle."""
    px, py = oracle_prefix_sums(x), oracle_prefix_sums(y)
    expected = oracle_first_violation(x, y)
    violation = first_violation(x, y)
    if expected is None:
        assert violation is None
    else:
        assert (violation.kind, violation.index, violation.lhs,
                violation.rhs) == expected
        assert type(violation.lhs) is Fraction and type(violation.rhs) is Fraction
    assert majorizes(x, y) == _maj(px, py) == (expected is None)
    assert equivalent(x, y) == (px == py)


def solve_exact(rows, rhs):
    """Solve the linear system exactly; None when inconsistent.

    Free variables are pinned to zero, which is enough for the convex
    membership oracle below.
    """
    m, k = len(rows), len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in aug):
        return None
    solution = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        solution[c] = aug[i][-1]
    return solution


def in_convex_hull(x, vertices):
    """Exact brute-force membership in conv(vertices).

    By Caratheodory it is enough to try every subset of size at most
    n + 1; each candidate is an exact linear solve plus a nonnegativity
    check, so the test is complete, not approximate.
    """
    n = len(x)
    for size in range(1, n + 2):
        for subset in combinations(vertices, size):
            rows = [[v[i] for v in subset] for i in range(n)]
            rows.append([Fraction(1)] * size)
            rhs = [x[i] for i in range(n)] + [Fraction(1)]
            w = solve_exact(rows, rhs)
            if w is not None and all(c >= 0 for c in w):
                if all(sum(subset[j][i] * w[j] for j in range(size)) == x[i]
                       for i in range(n)):
                    return True
    return False


class TestSortDesc:
    def test_basic_sorting(self):
        view = sort_desc(Vec([1, 3, 2]))
        assert view.descending == Vec([3, 2, 1])
        assert view.ascending == Vec([1, 2, 3])

    def test_stable_ties_give_identity_perm(self):
        view = sort_desc(Vec([5, 5, 1]))
        assert view.descending == Vec([5, 5, 1])
        assert view.sort_perm == Perm.identity(3)

    def test_constant_vector(self):
        c = Vec([4, 4, 4])
        view = sort_desc(c)
        assert view.descending == c == view.ascending

    def test_sort_perm_witnesses_the_sort(self):
        rng = random.Random(2)
        for _ in range(50):
            x = rand_vec(rng, rng.randint(1, 7))
            view = sort_desc(x)
            assert view.sort_perm.apply(x) == view.descending
            assert tuple(view.descending) == tuple(sorted(x, reverse=True))
            assert tuple(view.ascending) == tuple(sorted(x))


class TestTrace:
    def test_examples(self):
        assert trace(Vec([1, 2, 3])) == 6
        assert trace(Vec([0, 0, 0])) == 0
        assert trace(Vec(["1/2", "1/3"])) == Fraction(5, 6)


class TestMajorizes:
    def test_mean_vector_is_majorized(self):
        assert majorizes(Vec([2, 2, 2]), Vec([3, 2, 1]))

    @given(x=vectors)
    def test_reflexive(self, x):
        assert majorizes(x, x)

    def test_prefix_violation_and_no_witness_exists(self):
        x, y = Vec([3, 0, 0]), Vec([2, 1, 0])
        assert not majorizes(x, y)
        violation = first_violation(x, y)
        assert violation.kind == "prefix" and violation.index == 1
        # Independent oracle: no doubly stochastic witness can exist,
        # because x is outside the convex hull of the rearrangements of y.
        assert not in_convex_hull(x, permutohedron_vertices(y))

    def test_agrees_with_convex_hull_oracle(self):
        rng = random.Random(9)
        for n in (2, 3):
            for _ in range(25):
                x = rand_vec(rng, n, lo=-4, hi=4, max_den=3)
                y = rand_vec(rng, n, lo=-4, hi=4, max_den=3)
                assert majorizes(x, y) == in_convex_hull(
                    x, permutohedron_vertices(y))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            majorizes(Vec([1]), Vec([1, 2]))

    def test_transitive_on_constructed_chains(self):
        from majorkit import random_ds

        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 6)
            y, z = majorizing_pair(rng, n)
            d = random_ds(n, seed=rng.getrandbits(32), steps=3)
            x = d.matrix @ y
            assert majorizes(x, y) and majorizes(y, z)
            assert majorizes(x, z)

    def test_permutation_invariance_exhaustive_n5(self):
        rng = random.Random(17)
        for _ in range(2):
            x = rand_vec(rng, 5)
            y = rand_vec(rng, 5)
            base = majorizes(x, y)
            for p in enumerate_perms(5):
                px = p.apply(x)
                for q in enumerate_perms(5):
                    assert majorizes(px, q.apply(y)) == base


class TestIntegerFrameAgreesWithOracle:
    """The order test runs on ints over one LCM; the oracle adds Fractions."""

    @given(pair=vector_pairs(rationals))
    def test_mixed_denominators(self, pair):
        assert_agrees_with_oracle(*pair)

    @given(pair=vector_pairs(integers))
    def test_integer_vectors(self, pair):
        assert_agrees_with_oracle(*pair)

    @given(pair=vector_pairs(tied))
    def test_ties_and_negatives(self, pair):
        assert_agrees_with_oracle(*pair)

    def test_seeded_pairs(self):
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randint(1, 12)
            x, y = majorizing_pair(rng, n)
            assert_agrees_with_oracle(x, y)
            assert_agrees_with_oracle(y, x)
            assert_agrees_with_oracle(x, rand_perm(rng, n).apply(x))
            assert_agrees_with_oracle(rand_vec(rng, n, max_den=30),
                                      rand_vec(rng, n, max_den=30))

    @pytest.mark.parametrize("decide", [first_violation, majorizes, equivalent])
    def test_length_mismatch_raises(self, decide):
        with pytest.raises(DimensionMismatch):
            decide(Vec([1]), Vec([1, 2]))
        with pytest.raises(DimensionMismatch):
            decide(Vec(["1/2", "1/3"]), Vec(["5/6"]))

    @pytest.mark.parametrize("x, y, expected", [
        (["1/2"], ["1/2"], None),
        (["1/2"], ["1/3"], ("total", 1, Fraction(1, 2), Fraction(1, 3))),
        ([-4], [3], ("total", 1, Fraction(-4), Fraction(3))),
        ([3, 0, 0], [2, 1, 0], ("prefix", 1, Fraction(3), Fraction(2))),
        (["1/6", "5/6", "-1/4"], ["5/6", "-1/4", "1/6"], None),
        (["-1/2", "5/6", "2/3"], ["5/6", "1/2", "-1/3"],
         ("prefix", 2, Fraction(3, 2), Fraction(4, 3))),
    ], ids=["n1-equal", "n1-total", "n1-int-total", "prefix-1",
            "rearranged", "tie-then-prefix"])
    def test_pinned(self, x, y, expected):
        x, y = Vec(x), Vec(y)
        assert oracle_first_violation(x, y) == expected
        assert_agrees_with_oracle(x, y)


class TestEquivalent:
    def test_orbit_members_are_equivalent(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 6)
            x = rand_vec(rng, n)
            assert equivalent(x, rand_perm(rng, n).apply(x))

    def test_examples(self):
        assert equivalent(Vec([1, 2]), Vec([2, 1]))
        assert majorizes(Vec([1, 2]), Vec([0, 3]))
        assert not majorizes(Vec([0, 3]), Vec([1, 2]))
        assert not equivalent(Vec([1, 2]), Vec([0, 3]))

    def test_equivalence_means_rearrangement(self):
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(1, 6)
            x = rand_vec(rng, n, lo=-3, hi=3, max_den=2)
            y = rand_vec(rng, n, lo=-3, hi=3, max_den=2)
            assert equivalent(x, y) == (sorted(x) == sorted(y))
            # And constructively: equivalent iff some permutation maps x to y.
            if equivalent(x, y):
                assert any(p.apply(x) == y for p in enumerate_perms(n))


class TestPermutohedron:
    def test_constant_vector_has_one_vertex(self):
        assert permutohedron_vertices(Vec([3, 3, 3])) == [Vec([3, 3, 3])]

    def test_pair(self):
        assert set(permutohedron_vertices(Vec([2, 1]))) == {Vec([2, 1]), Vec([1, 2])}

    def test_distinct_entries_give_factorial_vertices(self):
        vertices = permutohedron_vertices(Vec([3, 2, 1]))
        assert len(vertices) == math.factorial(3)
        assert len(set(vertices)) == 6

    def test_vertex_count_matches_multiset_formula(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(1, 6)
            x = rand_vec(rng, n, lo=-2, hi=2, max_den=1)
            counts = {}
            for v in x:
                counts[v] = counts.get(v, 0) + 1
            expected = math.factorial(n)
            for c in counts.values():
                expected //= math.factorial(c)
            assert len(permutohedron_vertices(x)) == expected

    def test_convex_combinations_are_majorized(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 5)
            alpha = rand_vec(rng, n)
            vertices = permutohedron_vertices(alpha)
            weights = [Fraction(rng.randint(1, 9)) for _ in vertices]
            total = sum(weights)
            combo = Vec([0] * n)
            for w, v in zip(weights, vertices):
                combo = combo + v.scale(w / total)
            assert majorizes(combo, alpha)
