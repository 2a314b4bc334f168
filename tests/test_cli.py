"""CLI contract: report grammar, golden files, exit codes, witnesses."""

import contextlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from majorkit import GuardExceeded, Mat, Perm, Vec, equivalent, first_violation, majorizes
from majorkit import cli, isotone
from majorkit.cli import main
from helpers import (
    oracle_check_report,
    oracle_first_violation,
    oracle_prefix_sums,
    oracle_ser,
    plain_ratios,
    rand_perm,
    rand_vec,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

_DIGIT_LIMIT = ("Exceeds the limit (4300 digits) for integer string conversion"
                "; use sys.set_int_max_str_digits() to increase the limit")
# Hostile vector files: id -> (text, the error line's message, with
# "{bad}" for the file's path).  The messages were taken from the CLI
# before its scalars were read as integer pairs; the zero denominator's
# is CPython's own ``Fraction(1, 0)``.
HOSTILE = {
    "infinity": ("[Infinity, 1]",
                 "{bad}[0]: non-finite float inf is not a rational scalar"),
    "nan": ("[NaN, 1]", "{bad}[0]: non-finite float nan is not a rational scalar"),
    "huge-exponent": ('["1e5000", 1]', "{bad}[0]: decimal exponent exceeds 4300"),
    "tiny-exponent": ('["1e-5000", 1]', "{bad}[0]: decimal exponent exceeds 4300"),
    "deep-nesting": ("[" * 100_000, "{bad} is nested too deeply to parse"),
    "unprintable-numerator": ('["1e4300", 1]', "{bad}[0]: " + _DIGIT_LIMIT),
    "unprintable-denominator": ('["3e-4300", 1]', "{bad}[0]: " + _DIGIT_LIMIT),
    "unprintable-mantissa": ('["123e4298", 1]', "{bad}[0]: " + _DIGIT_LIMIT),
    "huge-integer-literal": (
        "[" + "1" * 5000 + ", 1]",
        "{bad}: Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5000 digits; use sys.set_int_max_str_digits() to increase "
        "the limit"),
    "zero-denominator": ('["1/0", 1]', "{bad}[0]: Fraction(1, 0)"),
    "huge-ratio-numerator": (
        '["' + "1" * 4301 + '/1", 1]',
        "{bad}[0]: Exceeds the limit (4300 digits) for integer string "
        "conversion: value has 4301 digits; use sys.set_int_max_str_digits() "
        "to increase the limit"),
    "empty-vector": ("[]", "{bad}: a vector file is a non-empty JSON array"),
}
_TENTH = "3602879701896397/36028797018963968"
# Entries that the plain-ratio rule does not take, put inside vectors and
# matrices of entries that it does: id -> (entry, the error line's
# message or None, the float warning's text after the label or None, the
# exit code of ``isotone --global`` on an all-"1/2" 3 x 3 matrix holding
# the entry).  Taken from the CLI before it read a vector at a time.
SLOW_ENTRIES = {
    "float": (0.1, None, f"float 0.1 converted to the exact binary64 rational {_TENTH}", 1),
    "exponent": ("1e2", None, None, 1),
    "decimal": ("0.5", None, None, 0),
    "zero-denominator": ("3/0", "Fraction(3, 0)", None, 2),
    "padded-ratio": (" 1/2", None, None, 0),
    "huge-ratio-numerator": (
        "1" * 4301 + "/1",
        "Exceeds the limit (4300 digits) for integer string conversion: value has "
        "4301 digits; use sys.set_int_max_str_digits() to increase the limit", None, 2),
}
PLAIN_9 = [1, "2/3", -4, "+5/6", 7, "-8/9", 0, "010/11", 3]
# Every command argument that names a vector file, as argv builders.
VECTOR_ARGS = {
    "check-x": lambda bad: ["check", bad, str(DATA / "y_21.json")],
    "check-y": lambda bad: ["check", str(DATA / "y_21.json"), bad],
    "extremizers-x": lambda bad: ["extremizers", bad, str(DATA / "y_21.json")],
    "isotone-at": lambda bad: ["isotone", str(DATA / "mat_diag12.json"), "--at", bad],
    "verify-alpha": lambda bad: ["verify", "--alpha", bad],
}


def _decimal(m: int, places: int) -> str:
    digits = str(abs(m)).rjust(places + 1, "0")
    body = f"{digits[:-places]}.{digits[-places:]}" if places else digits
    return ("-" if m < 0 else "") + body


_decimals = st.builds(_decimal, st.integers(-10**6, 10**6), st.integers(0, 6))
# Every accepted JSON scalar form: ints; plain "p/q" strings, signed,
# zero-padded, unreduced and "0/q"; decimals; exponents; floats (which
# warn); and forms only the Fraction grammar reads, such as padded
# ratios and integer strings.
scalar_forms = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(lambda sign, pad, p, q, k: f"{sign}{'0' * pad}{p * k}/{'0' * pad}{q * k}",
              st.sampled_from(["", "+", "-"]), st.integers(0, 2),
              st.integers(0, 10**4), st.integers(1, 60), st.integers(1, 4)),
    _decimals,
    st.builds(lambda base, mark, e: f"{base}{mark}{e}", _decimals,
              st.sampled_from(["e", "E", "e+", "e-", "E-"]), st.integers(0, 12)),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.builds(lambda p, q: f" {p}/{q}\n", st.integers(-99, 99), st.integers(1, 99)),
    st.integers(-999, 999).map(str),
)


def _ratio_forms(value: Fraction):
    """JSON scalars that read as ``value``: unreduced, padded "p/q" strings,
    or the int itself."""
    sign = "-" if value < 0 else ""
    forms = st.builds(
        lambda plus, pad, k: f"{sign or plus}{'0' * pad}{abs(value.numerator) * k}"
                             f"/{value.denominator * k}",
        st.sampled_from(["", "+"]), st.integers(0, 2), st.integers(1, 5))
    if value.denominator == 1:
        forms = st.one_of(st.just(value.numerator), forms)
    return forms


@st.composite
def check_inputs(draw):
    """Two equal-length lists of JSON scalars: drawn apart, or the second a
    rearrangement of the first's values (then equal, or one pair of
    entries spread or squeezed), in either order."""
    x = draw(st.lists(scalar_forms, min_size=1, max_size=8))
    how = draw(st.sampled_from(["apart", "rearranged", "moved"]))
    if how == "apart":
        y = draw(st.lists(scalar_forms, min_size=len(x), max_size=len(x)))
    else:
        values = draw(st.permutations([Fraction(v) for v in x]))
        if how == "moved" and len(values) > 1:
            i, j = draw(st.lists(st.integers(0, len(values) - 1),
                                 min_size=2, max_size=2, unique=True))
            d = draw(st.fractions(-20, 20, max_denominator=12))
            values[i] += d
            values[j] -= d
        y = [draw(_ratio_forms(v)) for v in values]
    return (x, y) if draw(st.booleans()) else (y, x)


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def sandbox(tmp_path, monkeypatch, capsys):
    """Run the CLI from a scratch directory holding copies of the fixtures.

    Relative paths keep the input digests in reports byte-stable.
    """
    for f in DATA.iterdir():
        shutil.copy(f, tmp_path / f.name)
    monkeypatch.chdir(tmp_path)

    def run(*args: str):
        code = main(list(args))
        out = capsys.readouterr().out
        report = json.loads(out) if out.strip().startswith("{") else None
        return code, report

    return run


def normalized(report: dict) -> dict:
    report = dict(report)
    report["elapsed_ms"] = 0
    return report


def assert_matches_golden(report: dict, name: str):
    expected = json.loads((GOLDEN / name).read_text())
    assert normalized(report) == expected


class TestCheck:
    def test_holds(self, sandbox):
        code, report = sandbox("check", "x_mean3.json", "y_desc3.json")
        assert code == 0
        assert report["verdict"] is True
        assert_matches_golden(report, "check_holds.json")

    def test_fails_with_prefix_witness(self, sandbox):
        code, report = sandbox("check", "x_peak.json", "y_210.json")
        assert code == 1
        assert report["witness"]["kind"] == "prefix"
        assert report["witness"]["index"] == 1
        assert_matches_golden(report, "check_fails.json")
        # Witness re-verifies through the library.
        violation = first_violation(Vec([3, 0, 0]), Vec([2, 1, 0]))
        assert violation.index == report["witness"]["index"]
        assert str(violation.lhs) == report["witness"]["lhs"]

    @pytest.mark.parametrize("holds", [True, False], ids=["holds", "fails"])
    def test_large_mixed_denominator_pair_matches_the_oracle(
            self, tmp_path, capsys, holds):
        # y has denominators 1..30; x is a rearrangement of y averaged by
        # T-steps, so x is majorized by y and y is not majorized by x.
        rng = random.Random(256)
        y = rand_vec(rng, 256, lo=-50, hi=50, max_den=30)
        x = list(rand_perm(rng, 256).apply(y))
        for _ in range(64):
            i, j = rng.sample(range(256), 2)
            t = Fraction(rng.randint(1, 4), 5)
            x[i], x[j] = (1 - t) * x[i] + t * x[j], t * x[i] + (1 - t) * x[j]
        x = Vec(x)
        if not holds:
            x, y = y, x
        for name, v in (("x.json", x), ("y.json", y)):
            (tmp_path / name).write_text(json.dumps([str(a) for a in v]))
        code = main(["check", str(tmp_path / "x.json"), str(tmp_path / "y.json")])
        report = json.loads(capsys.readouterr().out)
        assert code == (0 if holds else 1)
        counts = report["counts"]
        assert counts["x_sorted_prefix_sums"] == [str(v) for v in oracle_prefix_sums(x)]
        assert counts["y_sorted_prefix_sums"] == [str(v) for v in oracle_prefix_sums(y)]
        expected = oracle_first_violation(x, y)
        if holds:
            assert expected is None and report["witness"] is None
        else:
            kind, index, lhs, rhs = expected
            assert kind == "prefix"
            assert report["witness"] == {"kind": kind, "index": index,
                                         "lhs": str(lhs), "rhs": str(rhs)}

    def test_malformed_input_is_operational_error(self, sandbox):
        code, _ = sandbox("check", "malformed.json", "y_desc3.json")
        assert code == 2

    def test_missing_file(self, sandbox):
        code, _ = sandbox("check", "nope.json", "y_desc3.json")
        assert code == 2

    def test_dimension_mismatch(self, sandbox):
        code, _ = sandbox("check", "y_21.json", "y_desc3.json")
        assert code == 2

    def test_float_entries_warn_and_convert_exactly(self, sandbox):
        code, report = sandbox("check", "vec_float.json", "vec_float.json")
        assert code == 0  # reflexive
        assert len(report["warnings"]) == 4  # two floats in each of x and y
        assert "3602879701896397/36028797018963968" in report["warnings"][0]

    def test_text_mode_prints_warnings_to_stderr(self, sandbox, capsys):
        assert main(["check", "vec_float.json", "vec_float.json", "--text"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "check: verdict = True"
        assert "warning" not in out
        lines = err.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("warning: vec_float.json[0]: float 0.1 ")

    @pytest.mark.parametrize("text", ["[[1], []]", "[[1, 2], [3]]"],
                             ids=["empty-row", "ragged-rows"])
    def test_malformed_matrix_names_the_file(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["isotone", str(bad), "--global"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(bad) in err


    @pytest.mark.parametrize("text", [text for text, _ in HOSTILE.values()],
                             ids=list(HOSTILE))
    def test_hostile_input_is_operational_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["check", str(bad), str(DATA / "y_21.json")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""  # no report
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad.json" in err
        if text.startswith('["'):
            # Scalar rejections name the entry, so they happen at load time.
            assert "bad.json[0]: " in err


    @pytest.mark.parametrize("where", list(VECTOR_ARGS))
    @pytest.mark.parametrize("case", list(HOSTILE))
    def test_hostile_input_error_line(self, tmp_path, case, where):
        text, message = HOSTILE[case]
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = _run(VECTOR_ARGS[where](str(bad)))
        assert (code, out) == (2, "")
        assert err == "error: " + message.replace("{bad}", str(bad)) + "\n"

    @pytest.mark.parametrize("where", [0, 4, 8])
    @pytest.mark.parametrize("case", list(SLOW_ENTRIES))
    def test_slow_entry_inside_a_vector(self, tmp_path, case, where):
        # x = y, so an entry that reads is reflexive and warns once a side.
        value, error, warning, _ = SLOW_ENTRIES[case]
        entries = list(PLAIN_9)
        entries[where] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(entries))
        code, out, err = _run(["check", str(bad), str(bad)])
        label = f"{bad}[{where}]: "
        if error is not None:
            assert (code, out, err) == (2, "", f"error: {label}{error}\n")
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["warnings"] == ([label + warning] * 2 if warning else [])

    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 2)])
    @pytest.mark.parametrize("case", list(SLOW_ENTRIES))
    def test_slow_entry_inside_a_matrix(self, tmp_path, case, where):
        value, error, warning, code = SLOW_ENTRIES[case]
        rows = [["1/2"] * 3 for _ in range(3)]
        rows[where[0]][where[1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rows))
        got, out, err = _run(["isotone", str(bad), "--global"])
        label = f"{bad}[{where[0]}][{where[1]}]: "
        if error is not None:
            assert (got, out, err) == (2, "", f"error: {label}{error}\n")
        else:
            assert (got, err) == (code, "")
            assert json.loads(out)["warnings"] == ([label + warning] if warning else [])

    @pytest.mark.parametrize("text, where", [
        ('[0.5, 1, "1e2", 0.25, "3/0", " 1/2", 0.1, "' + "1" * 4301 + '/1", 0.75]',
         "[4]: Fraction(3, 0)"),
        ('[0.5, "' + "1" * 4301 + '/1", "3/0"]',
         "[1]: " + SLOW_ENTRIES["huge-ratio-numerator"][1]),
        ('[[0.5, 1, 0.25], [1, 0.75, "+1/0"], ["3/0", 1, 0.1]]', "[1][2]: Fraction(1, 0)"),
    ], ids=["vector", "vector-huge-first", "matrix"])
    def test_first_bad_entry_in_reading_order_is_named(self, tmp_path, text, where):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = (["isotone", str(bad), "--global"] if text.startswith("[[")
                else ["check", str(bad), str(bad)])
        assert _run(argv) == (2, "", f"error: {bad}{where}\n")

    @pytest.mark.parametrize("text, code, floats", [
        ('[0.5, 1, "1e2", 0.25, " 1/2", 0.1, "2/4", 0.75, 3]', 0,
         [("[0]", "0.5", "1/2"), ("[3]", "0.25", "1/4"), ("[5]", "0.1", _TENTH),
          ("[7]", "0.75", "3/4")] * 2),
        ('[[0.5, 1, 0.25], [1, 0.75, "2/2"], [" 1", 1, 0.125]]', 1,
         [("[0][0]", "0.5", "1/2"), ("[0][2]", "0.25", "1/4"), ("[1][1]", "0.75", "3/4"),
          ("[2][2]", "0.125", "1/8")]),
    ], ids=["vector", "matrix"])
    def test_float_warnings_keep_reading_order(self, tmp_path, text, code, floats):
        # The vector is checked against itself: x's warnings, then y's.
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = (["isotone", str(bad), "--global"] if text.startswith("[[")
                else ["check", str(bad), str(bad)])
        got, _, err = _run([*argv, "--text"])
        assert (got, err) == (code, "".join(
            f"warning: {bad}{where}: float {v} converted to the exact binary64 "
            f"rational {exact}\n" for where, v, exact in floats))

    def test_every_scalar_form_golden(self, sandbox):
        # Ints, signed, unreduced and zero-padded ratios, "0/7", decimals,
        # exponents, a padded ratio and a float (one warning per file).
        code, report = sandbox("check", "x_forms.json", "y_forms.json")
        assert code == 1
        assert_matches_golden(report, "check_forms.json")

    @given(pair=check_inputs())
    @example(pair=(["0/7", "-3/9"], ["+2/6", "-007/021"]))
    @example(pair=([0.5, "1e2", "-2.50"], ["100", 0, "+1/2"]))
    def test_report_equals_the_fraction_oracle(self, tmp_path_factory, pair):
        work = tmp_path_factory.getbasetemp() / "check_oracle"
        work.mkdir(exist_ok=True)
        paths = [str(work / name) for name in ("x.json", "y.json")]
        for path, doc in zip(paths, pair):
            Path(path).write_text(json.dumps(doc))
        code, out, err = _run(["check", *paths])
        elapsed = json.loads(out)["elapsed_ms"]
        assert (code, out, err) == (*oracle_check_report(*paths, elapsed), "")

    @given(v=st.integers(-10**40, 10**40), scale=st.integers(1, 10**20),
           multiple=st.booleans())
    @example(v=0, scale=1, multiple=False)
    @example(v=0, scale=12, multiple=False)
    @example(v=-7, scale=1, multiple=False)
    @example(v=-3, scale=12, multiple=True)
    @example(v=-6, scale=4, multiple=False)
    @example(v=10**4300, scale=3, multiple=False)  # 4301 digits: unprintable
    @example(v=-10**4300, scale=10, multiple=True)
    @example(v=10**4301, scale=10**10, multiple=False)  # reduces to printable
    def test_report_sums_print_as_fraction_does(self, v, scale, multiple):
        v *= scale if multiple else 1
        try:
            expected = str(Fraction(v, scale))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                cli._ratio_strs([0, v], scale)
            assert str(raised.value) == str(exc)
        else:
            assert cli._ratio_strs([0, v, scale], scale) == ["0", expected, "1"]

    @given(text=plain_ratios)
    @example(text="-0/0")
    @example(text="+007/0010")
    def test_plain_ratio_scalars_read_as_fraction_does(self, text):
        # The entry sits inside row 3 of a matrix, between two plain ones.
        try:
            exact = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(cli.CliError) as raised:
                cli._scalars([7, text, "-2/4"], [], "v.json", 3)
            assert str(raised.value) == f"v.json[3][1]: {exc}"
        else:
            assert cli._scalars([7, text, "-2/4"], [], "v.json", 3) == [
                (7, 1), (exact.numerator, exact.denominator), (-1, 2)]

    def test_unprintable_report_is_operational_error(self, tmp_path, capsys):
        # Each entry prints, but their 4301-digit sum does not: the report
        # fails after the work is done and must still exit 2 with no output.
        big = tmp_path / "big.json"
        big.write_text('["9e4299", "9e4299"]')
        code = main(["check", str(big), str(big)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("data", [b"\xef\xbb\xbf[1, 1]", b"[1, \xff]"],
                             ids=["byte-order-mark", "invalid-utf-8"])
    def test_non_utf8_input_is_operational_error(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        code = main(["check", str(bad), str(DATA / "y_21.json")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "bad.json" in err

    def test_report_hashes_the_bytes_it_parsed(self, sandbox, monkeypatch):
        # x is replaced by other bytes right after its first open: the
        # report's digest must still be that of the bytes that were parsed.
        path_open = Path.open
        swapped = []

        def open_then_swap(self, *args, **kwargs):
            f = path_open(self, *args, **kwargs)
            if self.name == "x_mean3.json" and not swapped:
                swapped.append(self)
                tmp = self.with_name("x_swap.tmp")
                tmp.write_bytes(b"[3, 0, 0]\n")
                os.replace(tmp, self)
            return f

        monkeypatch.setattr(Path, "open", open_then_swap)
        code, report = sandbox("check", "x_mean3.json", "y_desc3.json")
        assert swapped and swapped[0].read_bytes() == b"[3, 0, 0]\n"
        assert code == 0
        assert_matches_golden(report, "check_holds.json")


# Each golden command, then an extremizers scan on a 6 + 1 split at n = 7
# (720 permutations a side) and a 40-matrix campaign at n = 3.
GOLDEN_ARGVS = {
    "check_holds": ["check", "x_mean3.json", "y_desc3.json"],
    "check_fails": ["check", "x_peak.json", "y_210.json"],
    "check_forms": ["check", "x_forms.json", "y_forms.json"],
    "witness_holds": ["witness", "x_halves.json", "y_21.json", "witness_out.json"],
    "witness_fails": ["witness", "x_peak.json", "y_210.json", "d.json"],
    "extremizers_ties": ["extremizers", "x_ties.json", "y_desc3.json"],
    "isotone_global": ["isotone", "mat_sym31.json", "--global"],
    "isotone_equiv_fails": ["isotone", "mat_diag12.json", "--at", "alpha_21.json",
                            "--predicate", "equiv"],
    "isotone_all_holds": ["isotone", "mat_sym31.json", "--at", "alpha_21.json",
                          "--predicate", "all", "--trials", "10", "--seed", "3"],
    "isotone_right_holds": ["isotone", "mat_sym31.json", "--at", "alpha_21.json",
                            "--predicate", "right", "--trials", "10", "--seed", "3"],
    "verify_n2": ["verify", "--n", "2", "--matrices", "6", "--seed", "7",
                  "--trials", "8"],
    "verify_alpha21": ["verify", "--alpha", "alpha_21.json", "--matrices", "6",
                       "--seed", "7", "--trials", "8"],
}
BYTES_ARGVS = {
    **GOLDEN_ARGVS,
    "extremizers_split_6_1": ["extremizers", "x_split61.json", "y_distinct7.json"],
    "verify_n3_40": ["verify", "--n", "3", "--matrices", "40", "--seed", "3"],
}


# JSON trees for the report writer: str keys that sort by case and
# punctuation; lists, tuples and empty containers at every depth; ints of
# either sign past the 4300-digit limit; bools, None and floats; lists of
# ints and bools, mixed or not; and strings with quotes, backslashes,
# control characters and non-ASCII text.
_BIG = 10 ** 4301
_json_keys = st.text(alphabet="aAbBzZ09_-. ~\"\\\x00\x1f\xe9\u2603", max_size=4)
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-_BIG, _BIG),
    st.floats(), st.text(),
    st.lists(st.integers()), st.lists(st.booleans()),
    st.lists(st.one_of(st.booleans(), st.integers())).map(tuple))
json_trees = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_json_keys, kids, max_size=4)),
    max_leaves=24)
# Report trees as the commands return them: library leaves (Perms of
# n = 0..8, alone and in lists of one length or of mixed lengths;
# Fractions, Vecs and Mats) among strings, ints, bools and None.
_fractions = st.fractions(max_denominator=10**12)
_perms = st.integers(0, 8).flatmap(lambda n: st.permutations(range(n))).map(Perm)
_report_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.lists(st.text()),
    _perms, st.lists(_perms, max_size=5), st.lists(_perms, max_size=5).map(tuple),
    st.integers(0, 8).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(Perm), min_size=1, max_size=5)),
    _fractions, st.lists(_fractions, min_size=1, max_size=5).map(Vec),
    st.integers(1, 3).flatmap(lambda c: st.lists(
        st.lists(_fractions, min_size=c, max_size=c), min_size=1, max_size=3)).map(Mat))
report_trees = st.recursive(
    _report_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_json_keys, kids, max_size=4)),
    max_leaves=16)


class TestReportBytes:
    """The report goldens compare parsed JSON; these pin the printed bytes."""

    @given(tree=json_trees)
    @example(tree=[True, 1, False, 0])
    @example(tree=[[True, False], (), {}, [[]], {"": ()}])
    @example(tree={"b": 1, "B": 2, "_": 3, "a-b": 4, "a.b": 5, "a b": [-0, -7]})
    @example(tree=[10 ** 4299, -(10 ** 4300 - 1)])  # 4300 digits: printable
    @example(tree={"x": [1, 10 ** 4300]})  # 4301 digits: not printable
    @example(tree='"q" \\ \x00\x1f\x7f \xe9 \u2603 \U0001f600')
    def test_writer_equals_the_indented_sorted_dump(self, tree):
        try:
            expected = json.dumps(tree, indent=2, sort_keys=True)
        except ValueError:
            with pytest.raises(ValueError):
                cli._json(tree)
        else:
            assert cli._json(tree) == expected

    @given(tree=report_trees)
    @example(tree={"maximizers": [Perm([1, 0, 2]), Perm([0, 1])], "v": Fraction(-3, 4)})
    @example(tree=[Perm([0]), "a", Vec([1, "1/2"]), Mat([[0, 1], [1, 0]])])
    @example(tree=[Perm([]), Perm([])])
    def test_writer_equals_the_two_walk_path(self, tree):
        # The older path: copy the tree into plain JSON values, then dump.
        plain = oracle_ser(tree)
        assert cli._json(tree) == json.dumps(plain, indent=2, sort_keys=True)
        assert json.dumps(tree, sort_keys=True, default=cli._leaf) == \
            json.dumps(plain, sort_keys=True)

    def test_every_golden_command_is_pinned(self):
        assert {f"{name}.json" for name in GOLDEN_ARGVS} == \
            {path.name for path in GOLDEN.iterdir()}

    @pytest.mark.parametrize("name", list(BYTES_ARGVS))
    def test_stdout_is_the_indented_sorted_dump(self, sandbox, name):
        Path("x_split61.json").write_text('["1/2", -3, "1/2", "1/2", "1/2", "1/2", "1/2"]')
        Path("y_distinct7.json").write_text('[9, "7/2", 3, 1, 0, "-1/3", -8]')
        code, out, err = _run(BYTES_ARGVS[name])
        assert code in (0, 1) and err == ""
        if name == "extremizers_split_6_1":
            assert json.loads(out)["counts"]["n_maximizers"] == 720
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", list(BYTES_ARGVS))
    def test_text_equals_the_two_walk_path(self, sandbox, monkeypatch, name):
        # Each --text line, built from the report's copy into plain values.
        Path("x_split61.json").write_text('["1/2", -3, "1/2", "1/2", "1/2", "1/2", "1/2"]')
        Path("y_distinct7.json").write_text('[9, "7/2", 3, 1, 0, "-1/3", -8]')
        reports = []
        emit = cli._emit

        def capture(report, as_json):
            reports.append(report)
            return emit(report, as_json)

        monkeypatch.setattr(cli, "_emit", capture)
        argv = BYTES_ARGVS[name]
        code, out, err = _run([*argv, "--text"])
        report, = reports
        assert code in (0, 1)
        assert out == "".join(
            [f"{argv[0]}: verdict = {report['verdict']}\n"]
            + [f"  {key}: {json.dumps(oracle_ser(report[key]), sort_keys=True)}\n"
               for key in ("witness", "counts") if report[key] is not None])
        assert err == "".join(f"warning: {w}\n" for w in report["warnings"])

    def test_witness_file_is_the_indented_dump(self, sandbox):
        assert _run(["witness", "x_mean3.json", "y_desc3.json", "d.json"])[0] == 0
        text = Path("d.json").read_text()
        assert text == json.dumps(oracle_ser(Mat(json.loads(text))), indent=2) + "\n"
        rng = random.Random(24)
        for n in (1, 2, 5):
            a = Mat([rand_vec(rng, n, lo=-99, hi=99, max_den=12) for _ in range(n)])
            cli.write_matrix("a.json", a)
            assert Path("a.json").read_bytes() == \
                (json.dumps(oracle_ser(a), indent=2) + "\n").encode()


class TestNoFraction:
    """``check`` reads int and plain "p/q" entries as integer pairs, decides
    on ints and prints every sum from its integer and ``L``, so it runs
    unchanged with Fraction's constructor raising."""

    def test_check_builds_no_fraction(self, tmp_path, monkeypatch):
        rng = random.Random(20)
        for n in (1, 5, 64):
            for tag in ("x", "y"):
                entries = []
                for _ in range(n):
                    p, q = rng.randint(-99, 99), rng.randint(1, 12)
                    k = rng.randint(1, 3)
                    entries.append(rng.choice([
                        p, f"{p * k}/{q * k}", f"+{abs(p)}/{q}", f"-00{abs(p)}/0{q}",
                        f"0/{q}"]))
                (tmp_path / f"{tag}{n}.json").write_text(json.dumps(entries))
            # A rearrangement of x in other forms holds.
            (tmp_path / f"r{n}.json").write_text(json.dumps(
                [f"{2 * Fraction(v).numerator}/{2 * Fraction(v).denominator}"
                 for v in reversed(json.loads((tmp_path / f"x{n}.json").read_text()))]))
        argvs = [["check", str(DATA / a), str(DATA / b)] for a, b in (
            ("x_mean3.json", "y_desc3.json"), ("x_peak.json", "y_210.json"),
            ("x_halves.json", "y_21.json"), ("y_21.json", "x_halves.json"),
            ("x_ties.json", "y_desc3.json"), ("y_21.json", "y_desc3.json"))]
        argvs += [["check", str(tmp_path / f"{a}{n}.json"), str(tmp_path / f"{b}{n}.json")]
                  for n in (1, 5, 64) for a, b in (("x", "y"), ("y", "x"), ("x", "r"))]
        argvs += [[*argv, "--text"] for argv in argvs[:3]]
        expected = [_run(argv) for argv in argvs]
        assert {code for code, _, _ in expected} == {0, 1, 2}

        def unbuilt(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(Fraction, "__new__", unbuilt)
        with pytest.raises(AssertionError):
            Fraction(1)
        got = [_run(argv) for argv in argvs]
        monkeypatch.undo()
        elapsed = re.compile(r'"elapsed_ms": \d+')
        assert [(code, elapsed.sub("", out), err) for code, out, err in got] == \
            [(code, elapsed.sub("", out), err) for code, out, err in expected]

    @pytest.mark.parametrize("holds", [True, False], ids=["holds", "fails"])
    def test_check_reads_plain_entries_in_one_batch(self, tmp_path, monkeypatch, holds):
        # Ints and plain "p/q" strings never reach the one-entry slow path,
        # so reading a vector costs no Python call per entry.
        rng = random.Random(4096)
        y = rand_vec(rng, 256, lo=-50, hi=50, max_den=12)
        x = rand_perm(rng, 256).apply(y) if holds else rand_vec(rng, 256, max_den=12)
        paths = [str(tmp_path / name) for name in ("x.json", "y.json", "float.json")]
        for path, v in zip(paths, (x, y)):
            Path(path).write_text(json.dumps(
                [e.numerator if e.denominator == 1 and rng.random() < 0.5
                 else f"{e.numerator * 3}/{e.denominator * 3}" for e in v]))
        Path(paths[2]).write_text("[1, 0.5]")

        def slow(*args):
            raise AssertionError("an entry took the slow path")

        monkeypatch.setattr(cli, "_scalar", slow)
        with pytest.raises(AssertionError):
            _run(["check", paths[2], paths[2]])
        code, out, err = _run(["check", *paths[:2]])
        elapsed = json.loads(out)["elapsed_ms"]
        assert (code, out, err) == (*oracle_check_report(*paths[:2], elapsed), "")
        assert code == (0 if holds else 1)


class TestWitness:
    def test_writes_forced_average(self, sandbox):
        code, report = sandbox("witness", "x_halves.json", "y_21.json",
                               "witness_out.json")
        assert code == 0
        assert report["counts"]["transforms"] == 1
        assert_matches_golden(report, "witness_holds.json")
        written = json.loads(Path("witness_out.json").read_text())
        assert written == [["1/2", "1/2"], ["1/2", "1/2"]]

    def test_round_trip_through_the_library(self, sandbox):
        sandbox("witness", "x_mean3.json", "y_desc3.json", "d.json")
        d = Mat(json.loads(Path("d.json").read_text()))
        assert d @ Vec([3, 2, 1]) == Vec([2, 2, 2])

    def test_equal_vectors_write_the_identity(self, sandbox):
        code, report = sandbox("witness", "y_desc3.json", "y_desc3.json",
                               "id.json")
        assert code == 0
        assert report["counts"]["transforms"] == 0
        written = json.loads(Path("id.json").read_text())
        assert written == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

    def test_not_majorized_exits_one(self, sandbox):
        code, report = sandbox("witness", "x_peak.json", "y_210.json", "d.json")
        assert code == 1
        assert report["witness"]["kind"] == "prefix"
        assert_matches_golden(report, "witness_fails.json")
        assert not Path("d.json").exists()


class TestExtremizers:
    def test_tied_maximizers_report(self, sandbox):
        code, report = sandbox("extremizers", "x_ties.json", "y_desc3.json")
        assert code == 0
        counts = report["counts"]
        assert counts["max_value"] == "26"
        assert counts["n_maximizers"] == 2
        assert counts["bound"] == 2
        assert_matches_golden(report, "extremizers_ties.json")

    @pytest.mark.parametrize("fmt", ["--json", "--text"])
    def test_unprintable_extreme_prints_nothing(self, tmp_path, fmt):
        # Every entry prints, but the 4301-digit extreme values do not: the
        # report fails while it is written, before its first line or the
        # float's warning.
        big = tmp_path / "big.json"
        big.write_text('["9e4299", 0.5, 1]')
        code, out, err = _run(["extremizers", str(big), str(DATA / "y_desc3.json"), fmt])
        assert (code, out, err) == (2, "", f"error: {_DIGIT_LIMIT}\n")

    @pytest.mark.parametrize("argv, n, guard", [
        (["x_ties.json", "y_desc3.json", "--guard-n", "2"], 3, 2),
        (["x_nine.json", "y_desc3.json"], 9, 8),
    ], ids=["guard-flag", "nine-entries"])
    def test_guard_trips_before_the_entries_are_read(self, sandbox, monkeypatch,
                                                     argv, n, guard):
        def unreachable(*args):  # main does not map AssertionError to exit 2
            raise AssertionError("an entry was read above the guard")

        Path("x_nine.json").write_text(json.dumps(list(range(9))))
        monkeypatch.setattr(cli, "_scalars", unreachable)
        monkeypatch.setattr(cli, "extremizer_sets", unreachable)
        assert _run(["extremizers", *argv]) == \
            (2, "", f"error: {GuardExceeded(n, guard)}\n")


class TestIsotone:
    def test_global_classification(self, sandbox):
        code, report = sandbox("isotone", "mat_sym31.json", "--global")
        assert code == 0
        assert report["counts"]["classification"] == {
            "kind": "perm_scaled", "alpha": "2", "beta": "1", "perm": [0, 1],
        }
        assert_matches_golden(report, "isotone_global.json")

    def test_global_not_isotone_exits_one(self, sandbox):
        code, report = sandbox("isotone", "mat_diag12.json", "--global")
        assert code == 1
        assert report["counts"]["classification"] == {"kind": "not_isotone"}

    def test_equiv_failure_witness_reverifies(self, sandbox):
        code, report = sandbox("isotone", "mat_diag12.json",
                               "--at", "alpha_21.json", "--predicate", "equiv")
        assert code == 1
        assert_matches_golden(report, "isotone_equiv_fails.json")
        p = Perm(report["witness"]["perm"])
        a, alpha = Mat([[1, 0], [0, 2]]), Vec([2, 1])
        assert not equivalent(a @ p.apply(alpha), a @ alpha)

    def test_right_failure_witness_reverifies(self, sandbox):
        code, report = sandbox("isotone", "mat_diag12.json",
                               "--at", "alpha_21.json", "--predicate", "right",
                               "--trials", "10", "--seed", "4")
        assert code == 1
        p = Perm(report["witness"]["perm"])
        y = Vec(report["witness"]["y"])
        a, alpha = Mat([[1, 0], [0, 2]]), Vec([2, 1])
        assert majorizes(alpha, y)
        assert not majorizes(a @ p.apply(alpha), a @ y)

    def test_point_predicate_on_identity(self, sandbox):
        code, report = sandbox("isotone", "mat_sym31.json",
                               "--at", "alpha_21.json", "--predicate", "point")
        assert code == 0
        assert report["verdict"] is True

    def test_all_requires_strict_anchor(self, sandbox):
        Path("alpha_tie.json").write_text("[1, 1]")
        code, _ = sandbox("isotone", "mat_sym31.json",
                          "--at", "alpha_tie.json", "--predicate", "all")
        assert code == 2

    def test_all_and_equiv_report_one_shape_error(self, capsys):
        # The joint verifier owns its preconditions: a non-strict anchor of
        # the wrong length is a shape error for every predicate.
        errors = []
        for predicate in ("all", "equiv"):
            assert main(["isotone", str(DATA / "mat_sym31.json"), "--at",
                         str(DATA / "alpha_flat.json"), "--predicate", predicate]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors == ["error: cannot apply 2x2 matrix to a vector of length 4\n"] * 2

    def test_all_reports_the_left_witness(self, sandbox):
        code, report = sandbox("isotone", "mat_diag12.json",
                               "--at", "alpha_21.json", "--predicate", "all",
                               "--trials", "5")
        assert code == 1
        witness = report["witness"]
        assert witness["statement"] == "left"
        source, target = Perm(witness["source_perm"]), Perm(witness["target_perm"])
        a, alpha = Mat([[1, 0], [0, 2]]), Vec([2, 1])
        assert not majorizes(a @ source.apply(alpha), a @ target.apply(alpha))

    def test_all_statements_pass_on_planted_form(self, sandbox):
        code, report = sandbox("isotone", "mat_sym31.json",
                               "--at", "alpha_21.json", "--predicate", "all",
                               "--trials", "10", "--seed", "3")
        assert code == 0
        assert report["counts"]["bits"] == "11111"
        assert_matches_golden(report, "isotone_all_holds.json")

    def test_right_holds_on_planted_form(self, sandbox):
        code, report = sandbox("isotone", "mat_sym31.json",
                               "--at", "alpha_21.json", "--predicate", "right",
                               "--trials", "10", "--seed", "3")
        assert code == 0
        assert report["counts"] == {"sampled_trials": 10}
        assert_matches_golden(report, "isotone_right_holds.json")


class TestVerify:
    def test_small_campaign_golden(self, sandbox):
        code, report = sandbox("verify", "--n", "2", "--matrices", "6",
                               "--seed", "7", "--trials", "8")
        assert code == 0
        counts = report["counts"]
        assert counts["matrices"] == counts["consistent"]
        assert counts["unclassified_preservers"] == 0
        assert counts["all_true"] + counts["all_false"] == counts["matrices"]
        planted = [r for r in counts["per_matrix"]
                   if r["label"] in ("trace_map", "perm_scaled")]
        assert planted and all(r["bits"] == "11111" for r in planted)
        assert_matches_golden(report, "verify_n2.json")

    def test_campaign_at_an_anchor_file_golden(self, sandbox):
        code, report = sandbox("verify", "--alpha", "alpha_21.json",
                               "--matrices", "6", "--seed", "7", "--trials", "8")
        assert code == 0
        assert report["inputs"]["n"] == 2
        assert_matches_golden(report, "verify_alpha21.json")

    def test_flat_anchor_rejected(self, sandbox):
        code, _ = sandbox("verify", "--n", "4", "--alpha", "alpha_flat.json")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--n", "300", "--matrices", "1"],
        ["--n", "3", "--guard-n", "2"],
        ["--alpha", "y_desc3.json", "--guard-n", "2"],
        ["--n", "4000000", "--matrices", "0"],
        ["--n", "9"],
        ["--n", "3", "--matrices", "100001"],
        ["--n", "3", "--trials", "100001"],
    ])
    def test_guard_trips_before_the_pool_is_built(self, sandbox, monkeypatch,
                                                   argv):
        def unreachable(*args):  # main does not map AssertionError to exit 2
            raise AssertionError("work started above the guard")

        monkeypatch.setattr(isotone, "campaign_matrices", unreachable)
        if "--alpha" in argv:  # the anchor file's length trips, not its entries
            monkeypatch.setattr(cli, "_scalars", unreachable)
        else:  # --n alone: not even the anchor is built
            monkeypatch.setattr(cli, "Vec", unreachable)
        code, report = sandbox("verify", *argv)
        assert code == 2
        assert report is None

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_exits_two(self, sandbox, n):
        code, report = sandbox("verify", "--n", n)
        assert code == 2
        assert report is None

    # The refutations verify exists to report, shown by blinding
    # classify_global: n = 3, 14 cells, 4 of them planted forms.
    REFUTE = ["verify", "--n", "3", "--matrices", "8", "--seed", "2", "--trials", "5"]

    @staticmethod
    def _refuted(capsys, fmt: str) -> tuple[int, dict, list[tuple[str, Mat]]]:
        """The exit code, witness and cells of a :attr:`REFUTE` run."""
        code = main([*TestVerify.REFUTE, fmt])
        out = capsys.readouterr().out
        if fmt == "--json":
            witness = json.loads(out)["witness"]
        else:
            line, = [line for line in out.splitlines() if line.startswith("  witness: ")]
            witness = json.loads(line.removeprefix("  witness: "))
        return code, witness, list(isotone.campaign_matrices(3, 8, 2))

    @pytest.mark.parametrize("fmt", ["--json", "--text"])
    def test_unclassified_preservers_are_listed_twice(self, monkeypatch, capsys, fmt):
        # A planted form with no global form holds four statements and
        # fails the fifth: it preserves equivalence unclassified, and its
        # definitive verdicts disagree.
        monkeypatch.setattr(isotone, "classify_global", lambda a: None)
        code, witness, cells = self._refuted(capsys, fmt)
        planted = [(label, cli._leaf(a)) for label, a in cells
                   if label in ("trace_map", "perm_scaled")]
        assert code == 1 and len(planted) == 4
        for key in ("inconsistent", "unclassified_preservers"):
            assert [(row["label"], row["matrix"]) for row in witness[key]] == planted
            assert {row["bits"] for row in witness[key]} == {"11110"}

    @pytest.mark.parametrize("fmt", ["--json", "--text"])
    def test_a_form_for_a_failing_cell_is_inconsistent_only(self, monkeypatch,
                                                            capsys, fmt):
        # A global form for a cell whose orbit fails contradicts its exact
        # verdicts, but the cell preserves nothing, so it is no
        # unclassified preserver.
        classify = isotone.classify_global
        fake = isotone.TraceMap(Vec([0, 0, 0]))
        monkeypatch.setattr(isotone, "classify_global", lambda a: classify(a) or fake)
        code, witness, cells = self._refuted(capsys, fmt)
        failing = [(label, cli._leaf(a)) for label, a in cells if classify(a) is None]
        assert code == 1 and failing
        assert [(row["label"], row["matrix"]) for row in witness["inconsistent"]] == failing
        assert {row["bits"] for row in witness["inconsistent"]} == {"00001"}
        assert witness["unclassified_preservers"] == []


class TestContract:
    def test_determinism_modulo_elapsed(self, sandbox):
        _, first = sandbox("verify", "--n", "2", "--matrices", "5", "--seed", "1")
        _, second = sandbox("verify", "--n", "2", "--matrices", "5", "--seed", "1")
        assert normalized(first) == normalized(second)
        assert json.dumps(normalized(first), sort_keys=True) == \
            json.dumps(normalized(second), sort_keys=True)

    def test_calls_in_one_process_share_no_state(self, sandbox, monkeypatch):
        # main reuses one parser: each report must equal the report of the
        # same call on a freshly built parser, whatever ran before it.
        sequence = [
            ["check", "x_mean3.json", "y_desc3.json"],
            ["isotone", "mat_sym31.json", "--at", "alpha_21.json",
             "--predicate", "all", "--trials", "7"],
            ["check", "x_mean3.json", "y_desc3.json", "--no-such-flag"],
            ["verify", "--n", "3", "--matrices", "4"],
            ["check", "x_mean3.json", "y_desc3.json"],
        ]
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append(sandbox(*argv))

        builds = []
        build_parser = cli.build_parser

        def counting_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        shared = [sandbox(*argv) for argv in sequence]
        cli._parser.cache_clear()
        assert len(builds) == 1
        assert [code for code, _ in shared] == [code for code, _ in fresh] \
            == [0, 0, 2, 0, 0]
        for (_, got), (_, want) in zip(shared, fresh):
            assert (got and normalized(got)) == (want and normalized(want))
        assert_matches_golden(shared[0][1], "check_holds.json")
        assert_matches_golden(shared[4][1], "check_holds.json")
        assert shared[1][1]["trials"] == 7
        assert shared[2][1] is None
        assert shared[3][1]["trials"] == isotone.DEFAULT_TRIALS == 50

    @pytest.mark.parametrize("argv", [
        ["no-such-command"],
        ["isotone", "mat_sym31.json"],  # neither --at nor --global
        ["verify", "--n", "3", "--matrices", "-5"],
        ["verify", "--n", "3", "--trials", "-3"],
        ["verify", "--n", "3", "--matrices", "-5", "--trials", "-3"],
        ["isotone", "mat_sym31.json", "--global", "--trials", "-1"],
        ["verify", "--matrices", "many"],
        ["verify", "--n", "9"],
        ["isotone", "mat_sym31.json", "--at", "y_desc3.json"],  # equiv
        *(["isotone", "mat_sym31.json", "--at", "y_desc3.json", "--predicate", pred]
          for pred in ["left", "right", "point", "all"]),
        ["verify", "--n", "3", "--trials", "100001"],
        ["isotone", "mat_sym31.json", "--at", "alpha_21.json", "--predicate", "all",
         "--trials", "100001"],
        ["isotone", "mat_sym31.json", "--global", "--trials", "100001"],
    ], ids=["no-such-command", "no-target", "negative-matrices",
            "negative-trials", "negative-both", "negative-trials-isotone",
            "non-integer-matrices", "n-above-guard",
            *(f"anchor-length-{pred}"
              for pred in ["equiv", "left", "right", "point", "all"]),
            "trials-above-ceiling-verify", "trials-above-ceiling-isotone",
            "trials-above-ceiling-global"])
    def test_usage_error_exits_two(self, sandbox, argv):
        code, report = sandbox(*argv)
        assert code == 2
        assert report is None

    @pytest.mark.parametrize("argv, code", [
        (["check", "x_mean3.json", "y_desc3.json"], 0),
        (["witness", "x_peak.json", "y_210.json", "d.json"], 1),
        (["extremizers", "x_ties.json", "y_desc3.json"], 0),
        (["isotone", "mat_diag12.json", "--global"], 1),
        (["verify", "--n", "2", "--matrices", "2"], 0),
    ], ids=["check", "witness", "extremizers", "isotone", "verify"])
    def test_text_mode(self, sandbox, capsys, argv, code):
        assert main([*argv, "--text"]) == code
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"{argv[0]}: verdict = {code == 0}"

    @pytest.mark.parametrize("module", ["majorkit", "majorkit.cli"])
    def test_runs_as_a_module(self, module):
        # The exit code and report come from a real process, as from a shell.
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", module, "check",
             str(DATA / "x_peak.json"), str(DATA / "y_210.json")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["command"] == "check"
        assert report["verdict"] is False
