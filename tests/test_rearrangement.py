"""Rearrangement extremes, extremizer sets, and the counting bound."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from majorkit import (
    DEFAULT_GUARD,
    DimensionMismatch,
    GuardExceeded,
    Perm,
    Vec,
    distinct_count,
    enumerate_perms,
    extremes,
    extremizer_bound,
    extremizer_sets,
    permuted_dot,
    sort_desc,
)
from helpers import oracle_extremizer_sets, rand_strictly_decreasing, rand_vec

_SMALL = [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
          Fraction(1), Fraction(3)]


@st.composite
def _tied_vec(draw, n):
    """A length-``n`` vector drawn from at most ``n - 1`` values, so it ties."""
    pool = draw(st.lists(st.sampled_from(_SMALL), min_size=1,
                         max_size=max(1, n - 1), unique=True))
    return Vec(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@st.composite
def _tied_pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(_tied_vec(n)), draw(_tied_vec(n))


def _seeded_tied_vec(rng, n):
    """A length-``n`` vector drawn from 2 to ``n - 2`` values, so it ties."""
    pool = rng.sample(_SMALL, rng.randint(2, min(len(_SMALL), n - 2)))
    return Vec(rng.choice(pool) for _ in range(n))


_PERM_BUDGET = 50

# The tie-heaviest extremizer shape of the cli_queries benchmark: x splits
# n - 1 + 1, against a distinct y and against a y with one tied pair where
# x's lone value lands on the maximizing side, which doubles that side.
# Each case names its number of extremizers, both sides together.
_X7 = Vec([Fraction(1, 2)] * 3 + [Fraction(-3)] + [Fraction(1, 2)] * 3)
_X8 = Vec([Fraction(-5, 3)] * 5 + [Fraction(2)] + [Fraction(-5, 3)] * 2)
_SPLITS = {
    "6+1-distinct": (_X7, Vec([9, Fraction(7, 2), 3, 1, 0, Fraction(-1, 3), -8]),
                     720 + 720),
    "6+1-tied": (_X7, Vec([9, Fraction(7, 2), 3, 1, 0, -8, -8]), 2 * 720 + 720),
    "7+1-distinct": (_X8, Vec([6, 5, Fraction(9, 2), 1, 0, Fraction(-1, 2), -3, -7]),
                     5040 + 5040),
    "7+1-tied": (_X8, Vec([6, 6, Fraction(9, 2), 1, 0, Fraction(-1, 2), -3, -7]),
                 2 * 5040 + 5040),
}


@pytest.fixture
def perm_builds(request, monkeypatch):
    """Count ``Perm`` constructions, checked or trusted (``Perm._of``); fail
    at once past a budget, far below n! unless a test passes its own
    through indirect parametrization."""
    budget = getattr(request, "param", _PERM_BUDGET)
    built = []
    init, trusted = Perm.__init__, Perm._of

    def count():
        built.append(1)
        if len(built) > budget:
            raise AssertionError(f"more than {budget} Perm constructions")

    def counting_init(self, image):
        count()
        init(self, image)

    def counting_of(cls, image):
        count()
        return trusted(image)

    monkeypatch.setattr(Perm, "__init__", counting_init)
    monkeypatch.setattr(Perm, "_of", classmethod(counting_of))
    return built


def brute_force_extremes(x, y):
    """Independent oracle: scan every permutation with its own arithmetic."""
    yd = sorted(y, reverse=True)
    values = []
    for p in enumerate_perms(len(x)):
        values.append(sum((x[p(j)] * yd[j] for j in range(len(x))), Fraction(0)))
    return max(values), min(values)


class TestExtremes:
    def test_small_case_against_oracle(self):
        x, y = Vec([1, 2]), Vec([3, 1])
        assert brute_force_extremes(x, y) == (7, 5)
        assert extremes(x, y) == (7, 5)

    def test_constant_x_collapses(self):
        c = Fraction(5, 2)
        x = Vec([c, c, c])
        y = Vec([4, 1, -2])
        m_hi, m_lo = extremes(x, y)
        assert m_hi == m_lo == c * 3  # c * tr(y) with tr(y) = 3

    def test_equal_vectors(self):
        x = Vec([2, 1])
        assert brute_force_extremes(x, x) == (5, 4)
        assert extremes(x, x) == (5, 4)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(1, 5)
            x, y = rand_vec(rng, n), rand_vec(rng, n)
            assert extremes(x, y) == brute_force_extremes(x, y)


class TestPermutedDot:
    def test_identity_on_sorted_inputs_gives_maximum(self):
        x, y = Vec([4, 2, 1]), Vec([5, 3, 0])
        assert permuted_dot(x, Perm.identity(3), y) == extremes(x, y)[0]

    def test_hand_evaluated_swap(self):
        x, y = Vec([1, 2]), Vec([3, 1])
        assert permuted_dot(x, Perm([1, 0]), y) == 1 * 1 + 2 * 3 == 7

    def test_sandwich_inequality(self):
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randint(1, 5)
            x, y = rand_vec(rng, n), rand_vec(rng, n)
            hi, lo = extremes(x, y)
            for p in enumerate_perms(n):
                assert lo <= permuted_dot(x, p, y) <= hi


@pytest.mark.parametrize("call", [
    extremes,
    lambda x, y: permuted_dot(x, Perm.identity(len(x)), y),
    extremizer_sets,
], ids=["extremes", "permuted_dot", "extremizer_sets"])
def test_unequal_lengths_raise(call):
    with pytest.raises(DimensionMismatch):
        call(Vec([1, 2]), Vec([3, 2, 1]))


class TestExtremizerSets:
    def test_tied_pair_has_two_maximizers(self):
        report = extremizer_sets(Vec([5, 5, 1]), Vec([3, 2, 1]))
        assert report.max_value == 26
        assert len(report.maximizers) == 2
        assert report.distinct_count == 2

    def test_distinct_x_strict_y_unique_maximizer(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randint(2, 5)
            x = rand_strictly_decreasing(rng, n)
            shuffled = list(x)
            rng.shuffle(shuffled)
            report = extremizer_sets(Vec(shuffled), rand_strictly_decreasing(rng, n))
            assert len(report.maximizers) == 1
            assert len(report.minimizers) == 1

    def test_constant_x_everything_ties(self):
        report = extremizer_sets(Vec([2, 2, 2, 2]), Vec([9, 3, 1, 0]))
        assert len(report.maximizers) == math.factorial(4)
        assert len(report.minimizers) == math.factorial(4)

    def test_sets_match_sorting_characterisation(self):
        # With strictly decreasing y, the maximizers are exactly the
        # permutations sorting x decreasingly, and dually for minimizers.
        rng = random.Random(73)
        for _ in range(30):
            n = rng.randint(2, 5)
            x = rand_vec(rng, n, lo=-4, hi=4, max_den=2)
            y = rand_strictly_decreasing(rng, n)
            report = extremizer_sets(x, y)
            assert (report.max_value, report.min_value) == extremes(x, y)
            desc = sort_desc(x).descending
            asc = sort_desc(x).ascending
            expected_max = {p for p in enumerate_perms(n)
                            if p.inverse().apply(x) == desc}
            expected_min = {p for p in enumerate_perms(n)
                            if p.inverse().apply(x) == asc}
            assert set(report.maximizers) == expected_max
            assert set(report.minimizers) == expected_min

    def test_counting_bound_and_exact_refinement(self):
        rng = random.Random(79)
        for _ in range(40):
            n = rng.randint(2, 6)
            x = rand_vec(rng, n, lo=-3, hi=3, max_den=2)
            y = rand_strictly_decreasing(rng, n)
            report = extremizer_sets(x, y)
            k = report.distinct_count
            bound = extremizer_bound(n, k)
            assert len(report.maximizers) <= bound
            assert len(report.minimizers) <= bound
            counts = {}
            for v in x:
                counts[v] = counts.get(v, 0) + 1
            exact = math.prod(math.factorial(c) for c in counts.values())
            assert len(report.maximizers) == exact
            assert len(report.minimizers) == exact

    def test_negation_swaps_maximizers_and_minimizers(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(2, 5)
            x = rand_vec(rng, n, lo=-4, hi=4, max_den=2)
            y = rand_vec(rng, n)
            report = extremizer_sets(x, y)
            negated = extremizer_sets(x.scale(-1), y)
            assert len(report.maximizers) == len(negated.minimizers)
            assert len(report.minimizers) == len(negated.maximizers)

    @settings(max_examples=200)
    @given(pair=_tied_pairs())
    def test_matches_the_running_extreme_oracle(self, pair):
        x, y = pair
        assert extremizer_sets(x, y) == oracle_extremizer_sets(x, y)

    @pytest.mark.parametrize("n, seed", [(7, 0), (7, 1), (7, 2), (7, 3),
                                         (8, 0), (8, 1)])
    def test_matches_the_oracle_above_the_hypothesis_range(self, n, seed):
        rng = random.Random(f"tied:{n}:{seed}")
        x, y = _seeded_tied_vec(rng, n), _seeded_tied_vec(rng, n)
        assert extremizer_sets(x, y) == oracle_extremizer_sets(x, y)

    @pytest.mark.parametrize("split", list(_SPLITS))
    def test_matches_the_oracle_on_the_heaviest_split(self, split):
        x, y, total = _SPLITS[split]
        report = extremizer_sets(x, y)
        assert report == oracle_extremizer_sets(x, y)
        assert len(report.maximizers) + len(report.minimizers) == total

    @pytest.mark.parametrize("split, perm_builds",
                             [(name, total) for name, (_, _, total) in _SPLITS.items()],
                             ids=list(_SPLITS), indirect=["perm_builds"])
    def test_builds_one_perm_per_extremizer(self, split, perm_builds):
        x, y, _ = _SPLITS[split]
        report = extremizer_sets(x, y)
        assert len(perm_builds) == len(report.maximizers) + len(report.minimizers)

    def test_all_tied_x_returns_every_perm_in_order(self):
        x = Vec([Fraction(1, 3)] * 7)
        y = Vec([3, 3, 1, 0, 0, 0, -2])
        report = extremizer_sets(x, y)
        assert report == oracle_extremizer_sets(x, y)
        assert report.maximizers == report.minimizers == tuple(enumerate_perms(7))

    def test_no_factorial_work_at_n_12(self, perm_builds):
        # A scan of all 12! permutations trips the budget at once.  The
        # enumeration builds one Perm per permutation it returns, plus the
        # two sorting witnesses of extremes().
        rng = random.Random(89)
        n = 12
        x = list(rand_strictly_decreasing(rng, n))
        rng.shuffle(x)
        x, y = Vec(x), rand_strictly_decreasing(rng, n)
        report = extremizer_sets(x, y, guard=n)
        assert len(perm_builds) <= 4
        (p,), (q,) = report.maximizers, report.minimizers
        assert p.inverse().apply(x) == sort_desc(x).descending
        assert q.inverse().apply(x) == sort_desc(x).ascending

    def test_each_input_is_sorted_once(self, perm_builds):
        # The extreme values come from the sorted lists that the
        # enumeration uses, so no sorting witness is built: the only
        # Perms are the two the report returns.
        rng = random.Random(89)
        n = 12
        x = list(rand_strictly_decreasing(rng, n))
        rng.shuffle(x)
        x, y = Vec(x), rand_strictly_decreasing(rng, n)
        report = extremizer_sets(x, y, guard=n)
        assert len(report.maximizers) == len(report.minimizers) == 1
        assert len(perm_builds) == 2

    @pytest.mark.parametrize("guard", [3, DEFAULT_GUARD])
    def test_guard_trips_before_any_work(self, guard, perm_builds):
        # Distinct x and strictly decreasing y: the output would be one
        # permutation a side, yet n above the guard is still refused.
        n = guard + 1
        x, y = Vec(range(n)), Vec(range(n, 0, -1))
        with pytest.raises(GuardExceeded):
            extremizer_sets(x, y, guard=guard)
        assert perm_builds == []


class TestDistinctCountAndBound:
    def test_distinct_count(self):
        assert distinct_count(Vec([5, 5, 1])) == 2
        assert distinct_count(Vec([7, 7, 7])) == 1
        assert distinct_count(Vec([3, 1, 2, 0])) == 4

    def test_bound_values(self):
        assert extremizer_bound(3, 2) == 2
        for n in range(1, 7):
            assert extremizer_bound(n, 1) == math.factorial(n)
            assert extremizer_bound(n, n) == 1

    def test_bound_rejects_bad_k(self):
        with pytest.raises(ValueError):
            extremizer_bound(3, 0)
        with pytest.raises(ValueError):
            extremizer_bound(3, 4)
