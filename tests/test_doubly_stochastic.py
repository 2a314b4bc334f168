"""Recognition, witnesses, decomposition, and seeded generation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from majorkit import (
    BirkhoffDecomposition,
    DimensionMismatch,
    DoublyStochastic,
    Mat,
    NotMajorized,
    Perm,
    Vec,
    birkhoff,
    check_ds,
    majorizes,
    random_ds,
    witness_ds,
)
from majorkit.doubly_stochastic import _perfect_matching
from helpers import (
    majorizing_pair,
    oracle_birkhoff,
    oracle_witness_matrix,
    rand_vec,
)

# Small pools of values make ties and zeros common; the denominators mix.
scalars = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def majorized_pairs(draw):
    """``(x, y)`` with ``x = D y`` for a seeded random doubly stochastic ``D``."""
    n = draw(st.integers(1, 8))
    y = Vec(draw(st.lists(scalars, min_size=n, max_size=n)))
    d = random_ds(n, seed=draw(st.integers(0, 2**32 - 1)),
                  steps=draw(st.integers(1, 6)))
    return d.matrix @ y, y


class TestCheckDs:
    def test_identity_and_uniform(self):
        assert check_ds(Mat.identity(4))
        assert check_ds(Mat.ones(3).scale(Fraction(1, 3)))

    def test_row_sums_matter(self):
        assert not check_ds(Mat([[1, 1], [0, 0]]))

    def test_negative_entries_rejected(self):
        assert not check_ds(Mat([["3/2", "-1/2"], ["-1/2", "3/2"]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            check_ds(Mat([[1, 0, 0], [0, 1, 0]]))

    def test_wrapper_validates(self):
        with pytest.raises(ValueError):
            DoublyStochastic(Mat([[1, 1], [0, 0]]))


class TestWitness:
    def test_equal_vectors_give_identity(self):
        x = Vec([3, 1, 2])
        w = witness_ds(x, x)
        assert w.matrix.matrix == Mat.identity(3)
        assert w.transforms == ()

    def test_forced_symmetric_average(self):
        w = witness_ds(Vec(["3/2", "3/2"]), Vec([2, 1]))
        assert w.matrix.matrix == Mat([["1/2", "1/2"], ["1/2", "1/2"]])
        assert len(w.transforms) == 1

    def test_postconditions_on_spec_case(self):
        x, y = Vec([2, 2, 2]), Vec([3, 2, 1])
        w = witness_ds(x, y)
        assert w.matrix.matrix @ y == x
        assert check_ds(w.matrix.matrix)

    def test_not_majorized_raises_with_prefix_index(self):
        with pytest.raises(NotMajorized) as info:
            witness_ds(Vec([3, 0, 0]), Vec([2, 1, 0]))
        assert info.value.violation.kind == "prefix"
        assert info.value.violation.index == 1

    def test_soundness_random_products(self):
        # x := D y is always majorized by y.
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(2, 6)
            d = random_ds(n, seed=rng.getrandbits(32), steps=rng.randint(1, 7))
            y = rand_vec(rng, n)
            assert majorizes(d.matrix @ y, y)

    def test_completeness_on_random_majorizing_pairs(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(2, 6)
            x, y = majorizing_pair(rng, n)
            w = witness_ds(x, y)
            assert w.matrix.matrix @ y == x
            assert check_ds(w.matrix.matrix)
            assert len(w.transforms) <= n - 1

    def test_unsorted_inputs(self):
        # The witness acts on the original coordinate order, not the sorted one.
        x, y = Vec([1, 2, 3]), Vec([0, 2, 4])
        w = witness_ds(x, y)
        assert w.matrix.matrix @ y == x

    @given(pair=majorized_pairs())
    def test_matches_the_dense_product_oracle(self, pair):
        x, y = pair
        w = witness_ds(x, y)
        assert w.matrix.matrix == oracle_witness_matrix(w, len(x))
        assert w.matrix.matrix @ y == x


class TestBirkhoff:
    def test_permutation_matrix_is_one_term(self):
        p = Perm([2, 0, 1])
        dec = birkhoff(DoublyStochastic(p.matrix()))
        assert dec.terms == ((Fraction(1), p),)

    def test_uniform_2x2(self):
        dec = birkhoff(Mat([["1/2", "1/2"], ["1/2", "1/2"]]))
        assert len(dec.terms) == 2
        assert {p for _, p in dec.terms} == {Perm([0, 1]), Perm([1, 0])}
        assert all(w == Fraction(1, 2) for w, _ in dec.terms)

    def test_random_n4_roundtrip(self):
        d = random_ds(4, seed=99, steps=9)
        dec = birkhoff(d)
        assert dec.recompose() == d.matrix
        assert len(dec.terms) <= 10

    def test_roundtrip_and_bound_across_sizes(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(2, 5)
            d = random_ds(n, seed=rng.getrandbits(32), steps=rng.randint(1, 12))
            dec = birkhoff(d)
            assert dec.recompose() == d.matrix
            assert len(dec.terms) <= (n - 1) ** 2 + 1
            assert sum(w for w, _ in dec.terms) == 1
            assert all(w > 0 for w, _ in dec.terms)

    def test_decomposition_validates_invariants(self):
        with pytest.raises(ValueError):
            BirkhoffDecomposition(((Fraction(1, 2), Perm([0, 1])),))
        with pytest.raises(ValueError):
            BirkhoffDecomposition(((Fraction(0), Perm([0, 1])),
                                   (Fraction(1), Perm([1, 0]))))

    def test_peel_meets_the_bound_on_long_combinations(self):
        # Piles of twice as many permutations as the bound allows still
        # peel into at most (n-1)^2 + 1 terms, and some pile needs them all.
        for n in range(2, 8):
            bound = (n - 1) ** 2 + 1
            longest = 0
            for seed in range(10):
                d = random_ds(n, seed=seed, steps=2 * bound)
                dec = birkhoff(d)
                assert len(dec.terms) <= bound
                assert dec.recompose() == d.matrix
                longest = max(longest, len(dec.terms))
            assert longest == bound

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_fraction_peeling_oracle(self, n):
        rng = random.Random(61 + n)
        for _ in range(6):
            d = random_ds(n, seed=rng.getrandbits(32),
                          steps=rng.randint(1, 2 * ((n - 1) ** 2 + 1)))
            assert birkhoff(d).terms == oracle_birkhoff(d).terms

    @given(pair=majorized_pairs())
    def test_witness_terms_match_the_oracle(self, pair):
        d = witness_ds(*pair).matrix
        assert birkhoff(d).terms == oracle_birkhoff(d).terms


class TestPerfectMatching:
    def test_augmenting_path_through_every_row(self):
        # Rows r -> {r, r+1}, the last row -> {0}: the greedy pass matches
        # r to r, so the last row needs a path through all n rows.
        n = 1500
        support = [[False] * n for _ in range(n)]
        for r in range(n - 1):
            support[r][r] = support[r][r + 1] = True
        support[n - 1][0] = True
        assert _perfect_matching(support) == [*range(1, n), 0]

    def test_no_matching_is_none(self):
        assert _perfect_matching([[True, True], [False, False]]) is None


class TestRandomDs:
    def test_single_step_is_a_permutation_matrix(self):
        d = random_ds(5, seed=3, steps=1)
        assert all(v in (0, 1) for row in d.matrix.rows for v in row)

    def test_always_doubly_stochastic(self):
        for seed in range(20):
            assert check_ds(random_ds(4, seed=seed, steps=5).matrix)

    def test_deterministic_per_seed(self):
        assert random_ds(4, seed=11, steps=6).matrix == \
            random_ds(4, seed=11, steps=6).matrix
        assert random_ds(4, seed=11, steps=6).matrix != \
            random_ds(4, seed=12, steps=6).matrix
