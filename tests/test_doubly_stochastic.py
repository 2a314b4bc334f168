"""Recognition, witnesses, decomposition, and seeded generation."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    first_violation,
    majorizes,
    random_ds,
    sort_desc,
    witness_ds,
)
from majorkit import doubly_stochastic
from majorkit.doubly_stochastic import _augment
from majorkit.numerics import _clear_denominators
from helpers import (
    count_clears,
    majorizing_pair,
    oracle_birkhoff,
    oracle_check_ds,
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


@st.composite
def spread_pairs(draw):
    """``(x, y)`` with ``x`` spreading ``y`` by one unit, so never majorized by
    it; the first violation is prefix 1, and both share one LCM."""
    y = Vec(draw(st.lists(scalars, min_size=2, max_size=6)))
    x = list(sort_desc(y).descending)
    x[0] += 1
    x[-1] -= 1
    return Vec(x), y


@st.composite
def free_pairs(draw):
    """Independent ``x`` and ``y`` of one length with unequal LCMs of their
    denominators; half of them get equal totals, so total-sum violations,
    late prefixes and majorized pairs are all drawn."""
    n = draw(st.integers(1, 9))
    x, y = (draw(st.lists(scalars, min_size=n, max_size=n)) for _ in range(2))
    if draw(st.booleans()):
        x[-1] += sum(y) - sum(x)
    x, y = Vec(x), Vec(y)
    assume(x._frame[0] != y._frame[0])
    return x, y


@st.composite
def small_matrices(draw):
    """Any matrix up to 6 x 6, rectangular ones included."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return Mat(draw(st.lists(st.lists(scalars, min_size=n_cols, max_size=n_cols),
                             min_size=n_rows, max_size=n_rows)))


def _nudged(rows, kind, r, c, d):
    """``rows`` after one nudge that leaves it just short of doubly stochastic.

    ``"cell"`` moves one cell by ``1/d``; ``"negative"`` pushes mass
    ``e`` around a 2 x 2 cycle, which keeps every row and column sum but
    leaves ``-1/d`` at ``(r, c)``; ``"row"`` copies row ``r + 1`` over
    row ``r``, which keeps every row nonnegative and summing to one.
    """
    rows = [list(row) for row in rows]
    n = len(rows)
    if kind == "cell":
        rows[r][c] += Fraction(1, d)
    elif kind == "negative":
        e = rows[r][c] + Fraction(1, d)
        r2, c2 = (r + 1) % n, (c + 1) % n
        rows[r][c] -= e
        rows[r2][c2] -= e
        rows[r2][c] += e
        rows[r][c2] += e
    elif kind == "row":
        rows[r] = rows[(r + 1) % n]
    return Mat(rows)


@st.composite
def near_misses(draw):
    """A seeded doubly stochastic matrix, up to 6 x 6, with at most one nudge."""
    n = draw(st.integers(1, 6))
    rows = random_ds(n, seed=draw(st.integers(0, 2**32 - 1)),
                     steps=draw(st.integers(1, 5))).matrix.rows
    kind = draw(st.sampled_from(["none", "cell", "negative", "row"] if n > 1
                                else ["none", "cell"]))
    return _nudged(rows, kind, draw(st.integers(0, n - 1)),
                   draw(st.integers(0, n - 1)),
                   draw(st.integers(1, 12)) * draw(st.sampled_from([-1, 1])))


def _verdict(check, a):
    try:
        return check(a)
    except DimensionMismatch:
        return DimensionMismatch


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

    @given(a=small_matrices())
    def test_matches_the_fraction_loop_oracle(self, a):
        assert _verdict(check_ds, a) == _verdict(oracle_check_ds, a)

    @given(a=near_misses())
    def test_matches_the_oracle_on_near_misses(self, a):
        assert check_ds(a) == oracle_check_ds(a)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_near_misses_are_rejected(self, seed):
        rng = random.Random(f"near-miss:{seed}")
        n = rng.randint(2, 6)
        rows = random_ds(n, seed=rng.getrandbits(32), steps=4).matrix.rows
        r, c, d = rng.randrange(n), rng.randrange(n), rng.randint(2, 30)
        assert check_ds(Mat(rows)) and oracle_check_ds(Mat(rows))
        for step in (1, -1):
            moved = _nudged(rows, "cell", r, c, step * d)
            assert not check_ds(moved) and not oracle_check_ds(moved)
        negative = _nudged(rows, "negative", r, c, d)
        assert negative[r, c] == Fraction(-1, d)
        assert all(sum(row) == 1 for row in negative.rows)
        assert all(sum(col) == 1 for col in zip(*negative.rows))
        assert not check_ds(negative) and not oracle_check_ds(negative)
        copied = _nudged(rows, "row", r, c, d)
        assert all(min(row) >= 0 and sum(row) == 1 for row in copied.rows)
        verdict = rows[r] == rows[(r + 1) % n]
        assert check_ds(copied) is oracle_check_ds(copied) is verdict

    def test_column_sums_matter(self):
        a = Mat([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert not check_ds(a) and not oracle_check_ds(a)

    def test_one_by_one(self):
        for entry, verdict in ((1, True), ("1/2", False), (2, False), (-1, False)):
            a = Mat([[entry]])
            assert check_ds(a) is oracle_check_ds(a) is verdict

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 3), (6, 5)])
    def test_rectangular_raises_in_both(self, shape):
        a = Mat.ones(*shape).scale(Fraction(1, shape[1]))
        for check in (check_ds, oracle_check_ds):
            with pytest.raises(DimensionMismatch):
                check(a)


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

    def test_unequal_lengths_raise(self):
        with pytest.raises(DimensionMismatch, match="equal length"):
            witness_ds(Vec([1, 2]), Vec([3, 2, 1]))

    def test_not_majorized_raises_with_prefix_index(self):
        with pytest.raises(NotMajorized) as info:
            witness_ds(Vec([3, 0, 0]), Vec([2, 1, 0]))
        assert info.value.violation.kind == "prefix"
        assert info.value.violation.index == 1

    @given(pair=st.one_of(spread_pairs(), free_pairs()))
    def test_not_majorized_carries_the_first_violation(self, pair):
        # witness_ds raises iff first_violation finds one, and carries it.
        x, y = pair
        expected = first_violation(x, y)
        if expected is None:
            assert witness_ds(x, y).matrix.matrix @ y == x
            return
        with pytest.raises(NotMajorized) as info:
            witness_ds(x, y)
        violation = info.value.violation
        assert violation == expected
        assert type(violation.lhs) is Fraction and type(violation.rhs) is Fraction

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

    def test_matches_the_oracle_with_large_coprime_denominators(self):
        # Twelve distinct primes near 10**6: the integer frame's scale is
        # their product, and every chain row carries its own denominator.
        primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
                  1000117, 1000121, 1000133, 1000151, 1000159, 1000171]
        rng = random.Random(71)
        y = Vec(Fraction(rng.randint(-10**6, 10**6), p) for p in primes)
        assert math.lcm(*(v.denominator for v in y)) == math.prod(primes)
        x = random_ds(12, seed=rng.getrandbits(32), steps=5).matrix @ y
        w = witness_ds(x, y)
        assert w.transforms
        assert w.matrix.matrix == oracle_witness_matrix(w, 12)
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

    def test_terms_of_different_sizes_raise_in_either_order(self):
        half, pair, single = Fraction(1, 2), Perm([0, 1]), Perm([0])
        for terms in (((half, pair), (half, single)),
                      ((half, single), (half, pair))):
            with pytest.raises(DimensionMismatch, match="same size"):
                BirkhoffDecomposition(terms)

    def test_empty_and_overlong_term_lists_raise(self):
        with pytest.raises(ValueError, match="at least one term"):
            BirkhoffDecomposition(())
        # n = 2 allows (n-1)^2 + 1 = 2 terms.
        third, identity, swap = Fraction(1, 3), Perm([0, 1]), Perm([1, 0])
        with pytest.raises(ValueError, match="too many terms"):
            BirkhoffDecomposition(((third, identity), (third, swap),
                                   (third, identity)))

    @pytest.mark.parametrize("weights, error", [
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), None),
        ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)), "sum to one"),
        ((Fraction(1, 2), Fraction(2, 3), Fraction(-1, 6)), "positive"),
        ((Fraction(1), Fraction(0), Fraction(0)), "positive"),
    ], ids=["sums-to-one", "sums-to-five-sixths", "negative", "zero"])
    def test_weights_are_checked_exactly(self, weights, error):
        terms = tuple(zip(weights, (Perm([0, 1, 2]), Perm([1, 2, 0]),
                                    Perm([2, 0, 1]))))
        if error is None:
            assert BirkhoffDecomposition(terms).terms == terms
        else:
            with pytest.raises(ValueError, match=error):
                BirkhoffDecomposition(terms)

    @pytest.mark.parametrize("weights, error", [
        ((3, 2, 1), None),
        ((2, 2, 1), "sum to one"),
        ((3, 4, -1), "positive"),
        ((6, 0, 0), "positive"),
    ], ids=["sums-to-L", "sums-to-five", "negative", "zero"])
    def test_the_peels_weights_are_checked_on_its_ints(self, weights, error):
        # birkhoff builds its decomposition through the trusted _of, which
        # reads the weights as ints over L = 6 and clears nothing.
        terms = tuple((Fraction(w, 6), p) for w, p in zip(
            weights, (Perm([0, 1, 2]), Perm([1, 2, 0]), Perm([2, 0, 1]))))
        if error is None:
            assert BirkhoffDecomposition._of(terms, 6, list(weights)).terms == terms
        else:
            with pytest.raises(ValueError, match=error):
                BirkhoffDecomposition._of(terms, 6, list(weights))

    def test_the_peels_term_list_is_checked(self):
        # n = 2 allows (n-1)^2 + 1 = 2 terms.
        identity, swap = Perm([0, 1]), Perm([1, 0])
        third = Fraction(1, 3)
        with pytest.raises(ValueError, match="too many terms"):
            BirkhoffDecomposition._of(((third, identity), (third, swap),
                                       (third, identity)), 3, [1, 1, 1])
        with pytest.raises(ValueError, match="at least one term"):
            BirkhoffDecomposition._of((), 1, [])
        half = Fraction(1, 2)
        with pytest.raises(DimensionMismatch, match="same size"):
            BirkhoffDecomposition._of(((half, identity), (half, Perm([0]))), 2, [1, 1])

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

    def test_recompose_adds_each_weight_into_n_cells(self, monkeypatch):
        # A dense n x n matrix per term made recompose O(terms * n^2).
        def dense(self):
            raise AssertionError("a dense permutation matrix was built")

        monkeypatch.setattr(Perm, "matrix", dense)
        d = random_ds(40, seed=0, steps=40)
        assert birkhoff(d).recompose() == d.matrix

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

    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_matches_the_oracle_above_n_8(self, n):
        rng = random.Random(f"birkhoff:{n}")
        for _ in range(2):
            d = random_ds(n, seed=rng.getrandbits(32), steps=n)
            assert birkhoff(d).terms == oracle_birkhoff(d).terms

    def test_construct_witness_terms_match_the_oracle_at_n_20(self):
        # x = D y with D a mix of four permutations, as in a construct item.
        rng = random.Random(20)
        for _ in range(3):
            y = rand_vec(rng, 20, lo=-20, hi=20)
            x = random_ds(20, seed=rng.getrandbits(32), steps=4).matrix @ y
            d = witness_ds(x, y).matrix
            assert birkhoff(d).terms == oracle_birkhoff(d).terms

    @pytest.mark.parametrize("n", [20, 30])
    def test_long_peels_match_the_oracle(self, n):
        # A pile of (n-1)^2 + 1 permutations: matched cells survive many
        # peels, so their lazily subtracted offsets pile up.
        d = random_ds(n, seed=n, steps=(n - 1) ** 2 + 1)
        dec = birkhoff(d)
        assert len(dec.terms) > 10 * n
        assert dec.terms == oracle_birkhoff(d).terms

    def test_prime_denominator_witness_matches_the_oracle(self):
        # Twelve distinct primes near 10**6 in y: the witness's frame
        # scale, and with it every key and offset of the peel, runs to
        # thousands of bits.
        primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
                  1000117, 1000121, 1000133, 1000151, 1000159, 1000171]
        rng = random.Random(73)
        y = Vec(Fraction(rng.randint(-10**6, 10**6), p) for p in primes)
        x = random_ds(12, seed=rng.getrandbits(32), steps=12).matrix @ y
        d = witness_ds(x, y).matrix
        assert d.matrix._frame[0] > 2**1000
        assert birkhoff(d).terms == oracle_birkhoff(d).terms

    @settings(max_examples=60)
    @given(n=st.integers(6, 8), data=st.data())
    def test_rematch_paths_through_matched_columns_match_the_oracle(self, n, data):
        # Every draw of this space (all 24,000 were run) rematches some row
        # by a path that moves two or more matched columns, so each moved
        # column's cell is written back and its key taken from the new one.
        d = random_ds(n, seed=data.draw(st.integers(0, 999)),
                      steps=data.draw(st.integers(n, 2 * n)))
        paths = []

        def recording(*search):
            via = _augment(*search)
            paths.append(len(via))
            return via

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(doubly_stochastic, "_augment", recording)
            dec = birkhoff(d)
        assert max(paths[n:]) >= 3  # the first n match the first peel
        assert dec.terms == oracle_birkhoff(d).terms

    @pytest.fixture
    def roots(self, monkeypatch):
        """The root of every ``_augment`` call, in order."""
        calls = []
        augment = doubly_stochastic._augment

        def counting(adjacent, match_col, root, *stamped):
            calls.append(root)
            return augment(adjacent, match_col, root, *stamped)

        monkeypatch.setattr(doubly_stochastic, "_augment", counting)
        return calls

    @pytest.mark.parametrize("at, expected, first", [
        # diag(I_8, J_2 / 2): the first matching swaps rows 8 and 9, and
        # its peel empties their matched cells alone.
        (8, [*range(10), 8, 9], Perm.transposition(10, 8, 9)),
        # diag(J_2 / 2, I_8): the peel empties the cells of rows 0 and 1,
        # and rows 2..9 keep their matches.
        (0, [*range(10), 0, 1], Perm.transposition(10, 0, 1)),
    ], ids=["block_at_8", "block_at_0"])
    def test_peel_rematches_only_the_rows_it_emptied(self, roots, at,
                                                     expected, first):
        half = Fraction(1, 2)
        rows = [[int(r == c) for c in range(10)] for r in range(10)]
        for r in (at, at + 1):
            rows[r][at:at + 2] = [half, half]
        dec = birkhoff(Mat(rows))
        assert roots == expected
        assert dec.terms == ((half, first), (half, Perm.identity(10)))

    def test_augments_once_per_row_and_per_emptied_cell(self, roots):
        # The first peel matches all n rows; each later peel rematches one
        # row per cell that the peel before it emptied.  The last peel
        # empties all n of its cells and rematches nothing.
        rng = random.Random(20)
        for _ in range(3):
            y = rand_vec(rng, 20, lo=-20, hi=20)
            x = random_ds(20, seed=rng.getrandbits(32), steps=4).matrix @ y
            d = witness_ds(x, y).matrix
            roots.clear()
            dec = birkhoff(d)
            residual = [list(row) for row in d.matrix.rows]
            emptied = []
            for w, p in dec.terms:
                for c, r in enumerate(p.image):
                    residual[r][c] -= w
                emptied.append(sum(residual[r][c] == 0
                                   for c, r in enumerate(p.image)))
            assert len(roots) == 20 + sum(emptied[:-1])
            assert emptied[-1] == 20


class TestPerfectMatching:
    def test_augmenting_path_through_every_row(self):
        # Rows r -> {r, r+1}, the last row -> {0}: the greedy pass matches
        # r to r, so the last row needs a path through all n rows.
        # The search keeps that path on an explicit stack, so the default
        # recursion limit of 1000 does not bound it.
        n = 1500
        adjacent = [[r, r + 1] for r in range(n - 1)] + [[0]]
        match_col, seen = [-1] * n, [0] * n
        for root in range(n):
            via = _augment(adjacent, match_col, root, seen, root + 1)
            assert via
            for c in via:  # flip: c moves to the row the path reached it from
                match_col[c], root = root, match_col[c]
        assert len(via) == n
        assert match_col == [n - 1, *range(n - 1)]

    def test_no_matching_is_false(self):
        match_col, seen = [-1] * 2, [0] * 2
        assert _augment([[0, 1], []], match_col, 0, seen, 1)
        assert not _augment([[0, 1], []], match_col, 1, seen, 2)

    def test_a_new_stamp_forgets_the_columns_tried_before(self):
        # One seen list serves every search: a column counts as tried only
        # when it carries the current search's stamp.
        adjacent, match_col = [[0, 1], [1]], [-1, 0]
        seen = [7, 7]
        assert _augment(adjacent, match_col, 1, seen, 7) is None
        assert _augment(adjacent, match_col, 1, seen, 8) == [1, 0]
        assert seen == [8, 8]
        assert match_col == [-1, 0]  # the caller flips the path


class TestNoFractionOrder:
    """``majorizes``, ``witness_ds`` and ``birkhoff`` decide every order on
    ints over one LCM, so they run unchanged with Fraction's order gone."""

    @staticmethod
    def _run(x, y):
        holds = majorizes(x, y)
        try:
            w = witness_ds(x, y)
        except NotMajorized as exc:
            return holds, exc.violation
        return holds, w, birkhoff(w.matrix)

    def test_results_equal_with_fraction_comparisons_raising(self, monkeypatch):
        rng = random.Random(101)
        pairs = [(Vec([1, 1, 2, 2]), Vec([2, 2, 1, 1])),
                 (Vec(["3/2", "3/2", 1, 1]), Vec([2, 1, 2, 0])),
                 (Vec([0, "1/2", "1/2", 0, 1]), Vec([1, 0, 1, 0, 0]))]
        for n in (1, 2, 5, 20):
            for _ in range(3):
                x, y = majorizing_pair(rng, n)
                pairs += [(x, y), (y, x)]
        pairs += [(y, x) for x, y in pairs[:3]]
        expected = [self._run(x, y) for x, y in pairs]
        assert {len(r) for r in expected} == {2, 3}  # witnesses and violations

        def unordered(self, other):
            raise AssertionError("two Fractions compared by order")

        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Fraction, name, unordered)
        got = [self._run(x, y) for x, y in pairs]
        monkeypatch.undo()
        assert got == expected


class TestKeptFrame:
    """The check of a :class:`DoublyStochastic` and :func:`birkhoff`'s peel
    read the matrix's cached integer frame, so a matrix is cleared at most
    once; a witness's matrix is handed the T-chain's frame, and the peel's
    weights are checked on its own ints over that frame's ``L``."""

    def test_a_construct_item_clears_twice(self, monkeypatch):
        x, y = majorizing_pair(random.Random(7), 20)
        calls = count_clears(monkeypatch)
        assert majorizes(x, y)
        assert calls == [2]  # x and y, each once
        birkhoff(witness_ds(x, y).matrix)
        assert calls == [2]  # witness_ds reads x's and y's; the peel its own ints

    def test_birkhoff_of_a_witness_clears_nothing(self, monkeypatch):
        # The witness's matrix carries the T-chain's frame, and the peel
        # hands its decomposition the weights' ints over that frame's L.
        d = witness_ds(*majorizing_pair(random.Random(11), 12)).matrix
        calls = count_clears(monkeypatch)
        dec = birkhoff(d)
        assert calls == [0]
        assert dec.recompose() == d.matrix

    @given(pair=majorized_pairs())
    def test_the_witness_keeps_the_frame_its_matrix_clears_to(self, pair):
        d = witness_ds(*pair).matrix
        assert d.matrix._frame == _clear_denominators(d.matrix.rows)

    def test_a_given_frame_is_checked(self, monkeypatch):
        m = Mat([["1/2", "1/2"], ["1/2", "1/3"]])
        with pytest.raises(ValueError, match="not doubly stochastic"):
            DoublyStochastic(Mat._of(m.rows, _clear_denominators(m.rows)))
        m = random_ds(5, seed=3).matrix
        framed = Mat._of(m.rows, _clear_denominators(m.rows))
        calls = count_clears(monkeypatch)
        assert DoublyStochastic(framed) == DoublyStochastic(m)
        assert calls == [0]
        # The check reads the frame it is given, not the entries.
        scale, rows = framed._frame
        with pytest.raises(ValueError, match="not doubly stochastic"):
            DoublyStochastic(Mat._of(m.rows, (scale + 1, rows)))

    def test_birkhoff_of_a_mat_clears_once(self, monkeypatch):
        m = random_ds(6, seed=5).matrix
        calls = count_clears(monkeypatch)
        birkhoff(Mat(m.rows))
        assert calls == [1]  # the check; the weights are the peel's ints
        birkhoff(m)
        assert calls == [1]  # random_ds's check cleared m

    def test_birkhoff_leaves_the_kept_frame_as_it_was(self):
        rng = random.Random(17)
        for n in (1, 3, 8):
            d = witness_ds(*majorizing_pair(rng, n)).matrix
            first = birkhoff(d)
            assert birkhoff(d) == first
            assert d.matrix._frame == _clear_denominators(d.matrix.rows)
            assert first.recompose() == d.matrix

    def test_the_frame_is_no_field(self):
        m = random_ds(4, seed=2).matrix
        d = DoublyStochastic(m)
        assert [f.name for f in dataclasses.fields(d)] == ["matrix"]
        assert repr(d) == f"DoublyStochastic(matrix={m!r})"
        assert d == DoublyStochastic(m) and hash(d) == hash(DoublyStochastic(m))


class TestRandomDs:
    def test_single_step_is_a_permutation_matrix(self):
        d = random_ds(5, seed=3, steps=1)
        assert all(v in (0, 1) for row in d.matrix.rows for v in row)

    def test_always_doubly_stochastic(self):
        for seed in range(20):
            assert check_ds(random_ds(4, seed=seed, steps=5).matrix)

    def test_empty_size_raises(self):
        with pytest.raises(ValueError, match="positive"):
            random_ds(0, 1)

    def test_deterministic_per_seed(self):
        assert random_ds(4, seed=11, steps=6).matrix == \
            random_ds(4, seed=11, steps=6).matrix
        assert random_ds(4, seed=11, steps=6).matrix != \
            random_ds(4, seed=12, steps=6).matrix
