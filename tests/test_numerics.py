"""Exact scalar, vector, matrix, and permutation algebra."""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from majorkit import (
    AnchorPoint,
    DimensionMismatch,
    GuardExceeded,
    Mat,
    NotMajorized,
    Perm,
    PermScaled,
    Vec,
    as_rational,
    birkhoff,
    check_ds,
    choose_positive_shift,
    classify_at_point,
    classify_global,
    column_sums_equal,
    distinct_count,
    enumerate_perms,
    equivalent,
    extremes,
    extremizer_sets,
    first_violation,
    is_equiv_preserving_at,
    is_global_isotone_sampled,
    is_isotone_at,
    is_left_isotone_at,
    is_right_isotone_at,
    isotone_point_campaign,
    majorizes,
    permutohedron_vertices,
    permuted_dot,
    random_ds,
    sort_desc,
    verify_statements,
    witness_ds,
)
from majorkit.cli import _PLAIN_RATIO
from majorkit.isotone import perturb_entry, random_perm_scaled
from majorkit.numerics import _clear_denominators, _perm_images
from helpers import (
    count_clears, majorizing_pair, mat_mul, naive_mat_vec, oracle_choose_positive_shift,
    oracle_classify_global, oracle_column_sums_equal, oracle_distinct_count,
    oracle_extremes, oracle_extremizer_sets, oracle_permuted_dot,
    oracle_permutohedron_vertices, oracle_sort_desc, plain_ratios, rand_perm,
    rand_vec, transpose,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
# Large primes: entries over them have pairwise coprime denominators.
_PRIMES = (2**31 - 1, 2**61 - 1, 10**9 + 7, 998244353)
frame_entries = st.one_of(
    st.just(Fraction(0)),
    rationals,
    st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from(_PRIMES)),
)



def _assert_reads_as_fraction(text):
    """``as_rational(text)`` gives ``Fraction(text)``'s value, or raises
    its exception type with its message."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as raised:
            as_rational(text)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
    else:
        got = as_rational(text)
        assert type(got) is Fraction and got == expected


class TestRationalScalar:
    def test_string_and_float_conversion_is_exact(self):
        assert as_rational("1/3") == Fraction(1, 3)
        assert as_rational("0.25") == Fraction(1, 4)
        assert as_rational(7) == Fraction(7)
        # A float converts to the binary64 value it actually holds.
        assert as_rational(0.5) == Fraction(1, 2)
        assert as_rational(0.1) == Fraction(0.1) != Fraction(1, 10)

    def test_rejects_non_scalars(self):
        with pytest.raises(TypeError):
            as_rational(True)
        with pytest.raises(TypeError):
            as_rational([1])

    def test_format_round_trips(self):
        for q in (Fraction(3), Fraction(-1, 2), Fraction(0)):
            assert as_rational(str(q)) == q

    def test_rejects_non_finite_floats_and_absurd_exponents(self):
        for bad in (math.inf, -math.inf, math.nan, "1e5000", "1e-5000",
                    "2.5E+4_301", "1e" + "9" * 20):
            with pytest.raises(ValueError):
                as_rational(bad)
        # The cap is on the exponent's magnitude, not on its spelling.
        assert as_rational("1e4300") == 10 ** 4300
        assert as_rational("3e-0004300") == Fraction(3, 10 ** 4300)

    @given(text=plain_ratios)
    @example(text="1/0")
    @example(text="-0/0")
    @example(text="-5/0")
    @example(text="+007/0010")
    @example(text="1" * 4301 + "/1")
    @example(text="1/" + "0" * 4301)
    @example(text="-" + "9" * 4300 + "/" + "3" * 4300)
    def test_plain_ratios_read_as_fraction_does(self, text):
        assert _PLAIN_RATIO.fullmatch(text)  # the CLI's direct path
        _assert_reads_as_fraction(text)

    @pytest.mark.parametrize("text", [
        " 1/2", "1_0/3", "\u0661/\u0662", "1/2 ", "3/4\n", "1.5", "2e3",
        "+3/-4", "1/ 2", "/2", "1/", "7", "-0",
    ])
    def test_near_misses_take_the_fraction_grammar(self, text):
        assert not _PLAIN_RATIO.fullmatch(text)
        _assert_reads_as_fraction(text)

    @given(n=st.integers())
    @example(n=10**4300 + 1)
    def test_ints_read_as_fraction_does(self, n):
        assert as_rational(n) == Fraction(n)
        assert type(as_rational(n)) is Fraction

    @given(a=rationals, b=rationals)
    def test_add_then_subtract_is_identity(self, a, b):
        assert (a + b) - b == a

    @given(a=rationals, b=rationals)
    def test_comparison_is_a_total_order(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(a=rationals)
    def test_canonical_form(self, a):
        assert a.denominator > 0
        assert math.gcd(abs(a.numerator), a.denominator) == 1


class TestClearDenominators:
    @given(rows=st.lists(st.lists(frame_entries, min_size=1, max_size=5),
                         min_size=1, max_size=4))
    @example(rows=[[Fraction(0)]])
    @example(rows=[[Fraction(-7, 2**61 - 1)]])
    @example(rows=[[Fraction(1, 2**31 - 1), Fraction(-1, 10**9 + 7)],
                   [Fraction(3, 998244353), Fraction(0)]])
    def test_scales_every_row_to_ints_over_the_lcm(self, rows):
        scale, scaled = _clear_denominators(rows)
        assert scale == math.lcm(*(v.denominator for row in rows for v in row))
        assert [len(row) for row in scaled] == [len(row) for row in rows]
        for row, ints in zip(rows, scaled):
            for v, num in zip(row, ints):
                assert type(num) is int
                assert Fraction(num, scale) == v


frame_grids = st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(frame_entries, min_size=width, max_size=width), min_size=1, max_size=4))
# Dyadic values, so a float holds each one exactly.
dyadics = st.builds(Fraction, st.integers(-1000, 1000),
                    st.sampled_from([1, 2, 4, 8, 1024]))


def _spellings(v: Fraction) -> list:
    """One value as a ``Fraction``, its ``str``, an unreduced ``"p/q"``
    string, an unreduced ``Fraction`` and a ``float``."""
    p, q = v.numerator, v.denominator
    return [v, str(v), f"{3 * p}/{3 * q}", Fraction(2 * p, 2 * q), p / q]


def _twins(value):
    return copy.copy(value), pickle.loads(pickle.dumps(value))


class TestCachedFrame:
    """``Vec`` and ``Mat`` clear their denominators on the first read of
    ``_frame`` and keep the result; the frame is canonical, so it changes
    neither ``==`` nor ``hash`` nor ``repr``."""

    @given(rows=frame_grids)
    @example(rows=[[Fraction(0)]])
    @example(rows=[[Fraction(1, 2**61 - 1), Fraction(-1, 10**9 + 7)]])
    def test_the_frame_is_the_cleared_entries(self, rows):
        m = Mat(rows)
        assert m._frame == _clear_denominators(rows)
        assert type(m._frame[1]) is tuple
        assert all(type(row) is tuple for row in m._frame[1])
        scale, (nums,) = _clear_denominators(rows[:1])
        assert Vec(rows[0])._frame == (scale, nums)
        assert type(Vec(rows[0])._frame[1]) is tuple

    @given(values=st.lists(dyadics, min_size=1, max_size=6))
    @example(values=[Fraction(1, 2)])  # "1/2", Fraction(2, 4) and 0.5 among them
    def test_equal_values_built_differently_share_everything(self, values):
        spelt = list(zip(*map(_spellings, values)))
        vecs = [Vec(entries) for entries in spelt]
        mats = [Mat([entries, entries[::-1]]) for entries in spelt]
        for same in (vecs, mats):
            first = same[0]
            for other in same[1:]:
                assert other == first and hash(other) == hash(first)
                assert repr(other) == repr(first)
                assert other._frame == first._frame

    @given(rows=frame_grids)
    def test_a_second_read_clears_nothing(self, rows):
        with pytest.MonkeyPatch.context() as patch:
            calls = count_clears(patch)
            v, m = Vec(rows[0]), Mat(rows)
            first = v._frame, m._frame
            assert calls == [2]
            assert v._frame is first[0] and m._frame is first[1]
            assert calls == [2]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_the_witness_matrix_is_its_own_rows(self, seed, n):
        # witness_ds builds its matrix by Mat._of, with the T-chain's frame.
        d = witness_ds(*majorizing_pair(random.Random(seed), n)).matrix.matrix
        fresh = Mat(d.rows)
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
        assert d._frame == fresh._frame
        assert type(d.rows) is tuple
        assert all(type(row) is tuple and all(type(v) is Fraction for v in row)
                   for row in d.rows)

    @given(rows=frame_grids, read=st.booleans())
    def test_copies_and_pickles_stay_equal(self, rows, read):
        for value in (Vec(rows[0]), Mat(rows)):
            if read:
                value._frame
            for twin in _twins(value):
                assert twin == value and hash(twin) == hash(value)
                assert repr(twin) == repr(value)
                assert twin._frame == value._frame


class TestVec:
    def test_requires_an_entry(self):
        with pytest.raises(ValueError):
            Vec([])

    def test_equality_and_hash(self):
        assert Vec([1, 2]) == Vec(["1", "2"])
        assert hash(Vec([1, 2])) == hash(Vec([Fraction(1), 2]))
        assert Vec([1, 2]) != Vec([2, 1])

    def test_arithmetic_checks_length(self):
        with pytest.raises(DimensionMismatch):
            Vec([1, 2]) + Vec([1, 2, 3])
        with pytest.raises(DimensionMismatch):
            Vec([1, 2]).dot(Vec([1]))

    def test_dot_and_scale(self):
        assert Vec([1, 2]).dot(Vec([3, 4])) == 11
        assert Vec([1, 2]).scale(Fraction(1, 2)) == Vec(["1/2", "1"])

    def test_subtraction_undoes_addition(self):
        x, y = Vec([3, Fraction(-1, 2)]), Vec([Fraction(5, 3), 2])
        assert (x + y) - y == x
        assert x - x == Vec([0, 0])


class TestOperands:
    # The public arithmetic of Vec, Mat and Perm: another type is declined,
    # so Python tries its reflected operation, and a size that disagrees
    # is a DimensionMismatch, never a truncated zip.
    @pytest.mark.parametrize("value, method, other", [
        (Vec([1, 2]), "__eq__", (1, 2)),
        (Vec([1, 2]), "__add__", 1),
        (Vec([1, 2]), "__sub__", [1, 2]),
        (Mat([[1]]), "__eq__", [[1]]),
        (Mat([[1]]), "__add__", Vec([1])),
        (Perm([1, 0]), "__eq__", (1, 0)),
    ], ids=["vec-eq", "vec-add", "vec-sub", "mat-eq", "mat-add", "perm-eq"])
    def test_another_type_is_declined(self, value, method, other):
        assert getattr(value, method)(other) is NotImplemented

    @pytest.mark.parametrize("call", [  # Vec + and dot, and Mat @: TestVec, TestMat
        lambda: Vec([1, 2]) - Vec([1]),
        lambda: Mat.identity(2) + Mat([[1, 2]]),
        lambda: Perm([1, 0]).compose(Perm([0])),
        lambda: Perm([1, 0]).apply(Vec([1, 2, 3])),
    ], ids=["vec-sub", "mat-add", "compose", "apply"])
    def test_sizes_must_agree(self, call):
        with pytest.raises(DimensionMismatch):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: Mat([]), "a matrix needs at least one row and column"),
        (lambda: Mat([[]]), "a matrix needs at least one row and column"),
        (lambda: _perm_images(0), "n must be positive"),
    ], ids=["no-rows", "empty-row", "no-perms"])
    def test_empty_sizes_are_refused(self, call, message):
        with pytest.raises(ValueError) as raised:
            call()
        assert type(raised.value) is ValueError and str(raised.value) == message

    def test_a_fraction_subclass_is_kept(self):
        class Half(Fraction):
            pass

        value = Half(1, 2)
        assert as_rational(value) is value
        assert Vec([value])._frame == (2, (1,))


class TestMat:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            Mat([[1, 2], [3]])

    def test_identity_application(self):
        x = Vec([1, 2, 3])
        assert Mat.identity(3) @ x == x

    def test_all_ones_gives_trace_copies(self):
        a, b = Fraction(5, 3), Fraction(-2)
        assert Mat.ones(2) @ Vec([a, b]) == Vec([a + b, a + b])

    def test_hand_multiplication_against_oracle(self):
        m = Mat([[3, 1], [1, 3]])
        x = Vec([2, 1])
        assert naive_mat_vec(m, x) == Vec([7, 5])
        assert m @ x == Vec([7, 5])

    def test_matvec_matches_oracle_on_random_input(self):
        rng = random.Random(11)
        for _ in range(30):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            a = Mat([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
            x = rand_vec(rng, m)
            assert a @ x == naive_mat_vec(a, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Mat.identity(2) @ Vec([1, 2, 3])
        with pytest.raises(TypeError):  # matrices apply to vectors only
            Mat.identity(2) @ Mat.identity(2)

    def test_add_scale_transpose(self):
        a = Mat([[1, 2], [3, 4]])
        assert a + a == a.scale(2)
        assert transpose(a) == Mat([[1, 3], [2, 4]])
        assert transpose(transpose(a)) == a


class TestPerm:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])
        with pytest.raises(ValueError):
            Perm([1, 2])

    def test_rejects_non_integer_images(self):
        with pytest.raises(TypeError):
            Perm([1.5, 0.2])
        with pytest.raises(TypeError):
            Perm(["1", "0"])

    def test_identity_apply(self):
        x = Vec([5, -1, 2])
        assert Perm.identity(3).apply(x) == x

    def test_swap_on_pairs(self):
        assert Perm.transposition(2, 0, 1).apply(Vec([1, 2])) == Vec([2, 1])

    def test_apply_matches_matrix(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 6)
            p = rand_perm(rng, n)
            x = rand_vec(rng, n)
            assert p.apply(x) == p.matrix() @ x

    def test_composition_matches_matrix_product_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 6)
            p, q = rand_perm(rng, n), rand_perm(rng, n)
            x = rand_vec(rng, n)
            composed = p.compose(q)
            assert composed.apply(x) == p.apply(q.apply(x))
            assert composed.apply(x) == mat_mul(p.matrix(), q.matrix()) @ x

    def test_inverse(self):
        rng = random.Random(7)
        for _ in range(20):
            p = rand_perm(rng, rng.randint(1, 6))
            assert p.compose(p.inverse()) == Perm.identity(len(p))
            assert p.inverse().matrix() == transpose(p.matrix())

    def test_trusted_images_pass_the_check(self, monkeypatch):
        # Perm._of skips the bijection check for every image the package
        # builds as a permutation by construction.  With the check put back,
        # and each image required to be the int tuple a Perm holds, every
        # site passes on construct-shaped witnesses, tie-heavy x, failing
        # orbits and planted forms, and every output is the same.
        rng = random.Random(24)
        pairs = []
        for _ in range(3):
            y = rand_vec(rng, 20, lo=-20, hi=20)
            x = random_ds(20, seed=rng.getrandbits(32), steps=4).matrix @ y
            pairs.append((x, y))
        half = Fraction(1, 2)
        ties = [(Vec([half] * 3 + [-3] + [half] * 3),
                 Vec([9, Fraction(7, 2), 3, 1, 0, -8, -8])),
                (Vec([1, 2, 1, 2, 1, 2]), Vec([3, 3, 1, 0, 0, -2]))]

        diag = Mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
        strict = AnchorPoint(Vec([4, 3, 2, 1]))
        planted = PermScaled(Fraction(3), Fraction(-1, 2),
                             Perm([2, 0, 3, 1])).as_matrix()
        p, q = Perm([3, 1, 4, 0, 2]), Perm([1, 4, 0, 2, 3])
        sites = {  # the Perm._of sites each call reaches
            "witness_ds, inverse, birkhoff":
                lambda: [birkhoff(witness_ds(x, y).matrix) for x, y in pairs],
            "extremizer backtrack": lambda: [extremizer_sets(x, y) for x, y in ties],
            "orbit scan, compose": lambda: verify_statements(diag, strict),
            "global sampler": lambda: is_global_isotone_sampled(diag),
            "upward sampler's identity": lambda: is_right_isotone_at(
                Mat([[1, 0], [0, 0]]), AnchorPoint(Vec([1, 1]))),
            "classify_global": lambda: classify_global(planted),
            "sort_desc": lambda: [sort_desc(y) for _, y in ties],
            "compose": lambda: p.compose(q),
            "identity": lambda: Perm.identity(5),
            "transposition": lambda: Perm.transposition(5, 1, 3),
            "enumerate_perms": lambda: list(enumerate_perms(4)),
            "random_ds": lambda: random_ds(5, seed=7),
            "random_perm_scaled": lambda: random_perm_scaled(5, random.Random(7)),
        }
        trusted = {site: run() for site, run in sites.items()}
        checked = []

        def checking(cls, image):
            assert type(image) is tuple
            checked.append(image)
            return cls(image)

        monkeypatch.setattr(Perm, "_of", classmethod(checking))
        for site, run in sites.items():
            before = len(checked)
            assert run() == trusted[site], site
            assert len(checked) > before, site
        assert len(checked) > 2 * 720

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matrix_is_group_homomorphism_exhaustive(self, n):
        perms = list(enumerate_perms(n))
        mats = {p: p.matrix() for p in perms}
        for p in perms:
            mp = mats[p]
            for q in perms:
                assert mats[p.compose(q)] == mat_mul(mp, mats[q])


class TestEnumeratePerms:
    def test_singleton(self):
        assert list(enumerate_perms(1)) == [Perm([0])]

    def test_counts_are_factorials_and_distinct(self):
        for n in range(1, 7):
            perms = list(enumerate_perms(n))
            assert len(perms) == math.factorial(n)
            assert len(set(perms)) == math.factorial(n)

    def test_order_is_lexicographic_and_deterministic(self):
        images = [p.image for p in enumerate_perms(3)]
        assert images == sorted(images)
        assert images[0] == (0, 1, 2)
        assert [p.image for p in enumerate_perms(3)] == images

    def test_guard(self):
        # The guard trips at call time, before any iteration happens.
        with pytest.raises(GuardExceeded):
            enumerate_perms(9)
        # An explicit override lifts the guard.
        assert len(list(islice(enumerate_perms(9, guard=9), 2))) == 2


# One rational spelt as a Fraction, an unreduced "p/q" string, an exact
# binary64 float (when it has one) or an unreduced Fraction; small
# numerators give ties, and negatives come in.
def _spelt(p, q, k, how):
    if how == 0:
        return Fraction(p, q)
    if how == 1:
        return f"{p * k}/{q * k}"
    if how == 2 and q in (1, 2, 4):
        return p / q
    return Fraction(p * k, q * k)


spelt_entries = st.builds(_spelt, st.integers(-4, 4), st.integers(1, 4),
                          st.integers(1, 3), st.integers(0, 3))


@st.composite
def spelt_mats(draw, n):
    """A square matrix of size ``n``: free entries, constant rows (a trace
    map) or a planted scaled permutation plus constant, respelt."""
    kind = draw(st.sampled_from(["free", "trace", "planted"]))
    if kind == "free":
        return Mat(draw(st.lists(st.lists(spelt_entries, min_size=n, max_size=n),
                                 min_size=n, max_size=n)))
    if kind == "trace":
        return Mat([[draw(spelt_entries)] * n for _ in range(n)])
    alpha = draw(spelt_entries.filter(lambda v: Fraction(v) != 0))
    form = PermScaled(Fraction(alpha), Fraction(draw(spelt_entries)),
                      Perm(draw(st.permutations(range(n)))))
    return Mat([[_spelt(v.numerator, v.denominator, 2, 1) for v in row]
                for row in form.as_matrix().rows])


def _same(got, expected):
    """Equal, types included: ``repr`` tells an int from a ``Fraction``."""
    assert got == expected
    assert repr(got) == repr(expected)


class TestFrameDecisions:
    """Every public decision reads the integer frames ``Vec`` and ``Mat``
    cache: with Fraction's order, equality and hash raising, each returns
    what it returns unpatched, and the nine that used to decide on
    Fractions agree with their Fraction oracles."""

    @staticmethod
    def _run():
        # Fresh values on every run, so neither run reads the other's frames.
        x = Vec(["2/4", Fraction(-3, 2), 0.5, 2, "-3/2"])
        y = Vec([Fraction(1, 2), 3, -1, "-6/4", 0.25])
        out = [sort_desc(x), permutohedron_vertices(x), extremes(x, y),
               permuted_dot(x, Perm([2, 0, 4, 1, 3]), y), extremizer_sets(x, y),
               distinct_count(x), majorizes(x, y), first_violation(x, y),
               equivalent(x, Perm([1, 2, 3, 4, 0]).apply(x))]
        rng = random.Random(29)
        for pair in ((x, y), majorizing_pair(rng, 6)):
            try:
                w = witness_ds(*pair)
            except NotMajorized as exc:
                out.append(exc.violation)
            else:
                out += [w, birkhoff(w.matrix), check_ds(w.matrix.matrix)]
        planted = PermScaled(Fraction(3, 2), Fraction(-1, 3), Perm([1, 2, 0, 3]))
        cells = [planted.as_matrix(),
                 Mat([[c] * 4 for c in ("1/2", -2, 0.5, "3/3")]),
                 Mat([[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(4)] for _ in range(4)])]
        cells.append(perturb_entry(cells[0], rng))
        strict = AnchorPoint(Vec(["7/2", "4/3", 1, "-5/6"]))
        tied = AnchorPoint(Vec([2, "2/2", 1.0, 0]))
        for i, a in enumerate(cells):
            out += [classify_global(a), column_sums_equal(a), choose_positive_shift(a),
                    check_ds(a), verify_statements(a, strict, trials=5, seed=i)]
            for anchor in (strict, tied):
                out += [is_equiv_preserving_at(a, anchor),
                        is_left_isotone_at(a, anchor),
                        is_right_isotone_at(a, anchor, trials=5, seed=i),
                        is_isotone_at(a, anchor, trials=5, seed=i),
                        is_global_isotone_sampled(a, trials=5, seed=i)]
            try:
                out.append(classify_at_point(a, strict))
            except ValueError as exc:
                out.append(str(exc))
        out.append(isotone_point_campaign(tied, matrices=16, seed=3))
        return out

    def test_no_fraction_is_compared_or_hashed(self, monkeypatch):
        expected = self._run()

        def raising(*args):
            raise AssertionError("a Fraction was compared or hashed")

        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__"):
            monkeypatch.setattr(Fraction, name, raising)
        got = self._run()
        monkeypatch.undo()
        _same(got, expected)

    @staticmethod
    def _check_nine(x, y, p, a):
        _same(sort_desc(x), oracle_sort_desc(x))
        _same(permutohedron_vertices(x), oracle_permutohedron_vertices(x))
        _same(extremes(x, y), oracle_extremes(x, y))
        _same(permuted_dot(x, p, y), oracle_permuted_dot(x, p, y))
        _same(extremizer_sets(x, y), oracle_extremizer_sets(x, y))
        _same(distinct_count(x), oracle_distinct_count(x))
        _same(classify_global(a), oracle_classify_global(a))
        _same(column_sums_equal(a), oracle_column_sums_equal(a))
        _same(choose_positive_shift(a), oracle_choose_positive_shift(a))

    @given(data=st.data())
    def test_the_nine_match_their_fraction_oracles(self, data):
        n = data.draw(st.integers(1, 6))
        x, y = (Vec(data.draw(st.lists(spelt_entries, min_size=n, max_size=n)))
                for _ in "xy")
        p = Perm(data.draw(st.permutations(range(n))))
        self._check_nine(x, y, p, data.draw(spelt_mats(n)))

    def test_every_scale_is_applied(self):
        # A negative non-integer least entry, y over L > 1, and a planted
        # form over L > 1.
        x, y, p = Vec(["-1/2", 3]), Vec(["1/3", 2]), Perm([1, 0])
        for a in (PermScaled(Fraction(2), Fraction(1, 2), p).as_matrix(),
                  Mat([["-1/2", 0], [0, "-1/3"]])):
            self._check_nine(x, y, p, a)
