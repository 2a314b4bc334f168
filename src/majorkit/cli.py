"""Command line surface: JSON vector/matrix files in, JSON reports out.

Each ``cmd_*`` function takes ``(args, warnings)`` and returns
``(inputs, verdict, witness, counts)``; ``main`` alone times the command,
builds its report and emits it.  Exit codes are uniform across
subcommands: 0 when the queried predicate holds, 1 when it fails (the
report then embeds a witness that the library predicates re-verify), 2
for usage, parse, guard, or precondition errors, including an error
while running a command or while building or printing its report.
``main`` builds its argument parser on its first call and reuses it for
every later call in the same process.

Every input scalar is read into a coprime integer pair ``(p, q)``, a
vector or a matrix row at a time, by ``_scalars``: one comprehension
takes the JSON ints and the plain "p/q" strings, which print because
each of their parts did.  Every other entry, and every entry of a row
with a part over the int-string digit limit, takes the slow path
``_scalar`` in index order, which prints it once on load, so an input
that could not be reported fails before the work, labelled with its
place in the file.  ``check`` runs on those pairs from end to end: it
scales both vectors by the least common multiple ``L`` of their
distinct denominators, decides on the integer profiles, and prints each
profile with ``_ratio_strs``, ``str(Fraction(v, L))`` for each sum
``v`` without building a ``Fraction``; a violation's two sums are read
from the printed profiles.  The other commands build their ``Vec`` and
``Mat`` from the pairs.

Every JSON report and witness file is written in one walk by ``_json``,
byte-equal to ``json.dumps(value, indent=2, sort_keys=True)`` without
the cost of CPython's pure-Python indented encoder.  Reports need not be
copied first: the writer reads a ``Perm``, ``Fraction``, ``Vec`` or
``Mat`` leaf by the one rule of ``_leaf``, which ``--text`` passes to
``json.dumps`` as its ``default``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from itertools import starmap
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from pathlib import Path
from typing import Any

from . import isotone
from .doubly_stochastic import NotMajorized, witness_ds
from .majorization import _profile_violation, desc_prefix_sums
from .numerics import (
    DEFAULT_GUARD,
    GuardExceeded,
    Mat,
    Perm,
    Vec,
    _perm_images,
    as_rational,
)
from .rearrangement import extremizer_bound, extremizer_sets

_MAX_MATRICES = 100_000  # bounds verify's report: one per_matrix row per cell
_MAX_TRIALS = 100_000  # bounds the samplers' time: each trial draws and checks a vector
# The one string form that ``_scalar`` parses itself: a signed ratio of ASCII digits.
_PLAIN_RATIO = re.compile(r"([-+]?[0-9]+)/([0-9]+)")


class CliError(Exception):
    """Operational failure that should exit with code 2."""


def _scalars(values: list, warnings: list[str], path: str,
             *index: int) -> list[tuple[int, int]]:
    """Each JSON scalar of ``values`` as a coprime ``(p, q)`` with ``q > 0``.

    The one plain rule reads a JSON int as ``(value, 1)`` and a plain
    "p/q" string with ``q > 0`` as its two ints reduced by one ``gcd``,
    in one pass over ``values``.  Every entry it does not take goes, in
    index order, to :func:`_scalar`; so does every entry when a part is
    over CPython's int-string digit limit, since ``_scalar`` names the
    first entry that fails.  ``index`` is the position of ``values`` in
    the file, a matrix row's ``i``.
    """
    match = _PLAIN_RATIO.fullmatch
    try:
        pairs = [(v, 1) if type(v) is int
                 else (p // g, q // g)
                 if type(v) is str and (m := match(v)) and (q := int(m[2]))
                 and (g := gcd(p := int(m[1]), q))
                 else None
                 for v in values]
    except ValueError:  # a part over the digit limit
        pairs = [None] * len(values)
    if not all(pairs):
        for j, pair in enumerate(pairs):
            if pair is None:
                pairs[j] = _scalar(values[j], warnings, path, *index, j)
    return pairs


def _scalar(value: Any, warnings: list[str], path: str,
            *index: int) -> tuple[int, int]:
    """One JSON scalar read by :func:`as_rational`, as a coprime ``(p, q)``.

    The value is printed once, so that an unprintable input fails here,
    not after the work, and a float is converted with a warning.
    ``path`` and ``index`` name the entry only in an error or a warning.
    """
    try:
        exact = as_rational(value)
        str(exact)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{_label(path, index)}: {exc}")
    if isinstance(value, float):
        warnings.append(
            f"{_label(path, index)}: float {value!r} converted to the exact "
            f"binary64 rational {exact}"
        )
    return exact.numerator, exact.denominator


def _label(path: str, index: tuple[int, ...]) -> str:
    return path + "".join(f"[{i}]" for i in index)


def _load_json(path: str) -> tuple[Any, dict[str, str]]:
    """The parsed document and the report's digest of the same bytes.

    The file is read once; the bytes are hashed and then decoded as
    strict UTF-8, so a byte order mark is rejected as invalid JSON.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    digest = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    try:
        return json.loads(data.decode("utf-8")), digest
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")
    except ValueError as exc:  # e.g. an integer literal over the digit limit
        raise CliError(f"{path}: {exc}")
    except RecursionError:
        raise CliError(f"{path} is nested too deeply to parse")


def load_vector(path: str, warnings: list[str]
                ) -> tuple[list[tuple[int, int]], dict[str, str]]:
    """A vector file's entries as ``_scalars`` pairs, and its digest."""
    doc, digest = _load_json(path)
    if not isinstance(doc, list) or not doc:
        raise CliError(f"{path}: a vector file is a non-empty JSON array")
    return _scalars(doc, warnings, path), digest


def _load_vec(path: str, warnings: list[str]) -> tuple[Vec, dict[str, str]]:
    pairs, digest = load_vector(path, warnings)
    return Vec(starmap(Fraction, pairs)), digest


def load_matrix(path: str, warnings: list[str]) -> tuple[Mat, dict[str, str]]:
    doc, digest = _load_json(path)
    if (not isinstance(doc, list) or not doc
            or not all(isinstance(r, list) and r for r in doc)):
        raise CliError(f"{path}: a matrix file is a non-empty JSON array of rows")
    rows = [_scalars(row, warnings, path, i) for i, row in enumerate(doc)]
    if any(len(r) != len(rows[0]) for r in rows):
        raise CliError(f"{path}: matrix rows have unequal lengths")
    return Mat(starmap(Fraction, row) for row in rows), digest


def _ratio_strs(values: list[int], scale: int) -> list[str]:
    """``[str(Fraction(v, scale)) for v in values]`` for ``scale > 0``,
    building no Fraction."""
    return [str(v // g) if (g := gcd(v, scale)) == scale
            else f"{v // g}/{scale // g}" for v in values]


def _leaf(value: Any) -> Any:
    """The JSON form of a library value: a ``Perm`` is its image, and a
    ``Fraction``, ``Vec`` or ``Mat`` its entries' ``str``; ``json.dumps``'s
    ``default``, so any other object is not serializable."""
    if isinstance(value, Perm):
        return value.image
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Vec):
        return [str(v) for v in value]
    if isinstance(value, Mat):
        return [[str(v) for v in row] for row in value.rows]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=64)
def _int_list(length: int, pad: str) -> str:
    """The ``%`` format of an indented list of ``length`` ints at ``pad``."""
    if not length:
        return "[]"
    inner = ",\n  " + pad
    return f"[\n  {pad}{inner.join(['%d'] * length)}\n{pad}]"


def _json(value: Any, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=_leaf)``, byte
    for byte, for a tree of str-keyed dicts, lists, tuples, scalars and
    :func:`_leaf` values, whose lines after the first start with ``pad``.

    CPython runs its C encoder only when ``indent`` is None, so this
    writer builds each container with one ``join``, and an all-``int``
    list, or each ``Perm`` of a list of equal-length ``Perm``s, with one
    cached ``%d`` format; ``bool`` is not ``int`` here, since
    ``"%d" % True`` is ``"1"``.  A ``str`` item is encoded in place.
    Other scalars print as the C encoder prints them.
    """
    if type(value) is str:
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is int for v in value):
            return _int_list(len(value), pad) % tuple(value)
        inner = pad + "  "
        sep = ",\n" + inner
        images = [v.image for v in value] if all(type(v) is Perm for v in value) else ()
        if len(set(map(len, images))) == 1:  # Perms of one length: one format
            items = sep.join(map(_int_list(len(images[0]), inner).__mod__, images))
        else:
            items = sep.join([encode_basestring_ascii(v) if type(v) is str
                              else _json(v, inner) for v in value])
        return f"[\n{inner}{items}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = (",\n" + inner).join(
            [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
             for k, v in sorted(value.items())])
        return f"{{\n{inner}{items}\n{pad}}}"
    if isinstance(value, (Perm, Fraction, Vec, Mat)):
        return _json(_leaf(value), pad)
    return json.dumps(value)


def write_matrix(path: str, a: Mat) -> None:
    Path(path).write_text(_json(a) + "\n", encoding="utf-8")


def _emit(report: dict[str, Any], as_json: bool) -> int:
    """Print the report; the exit code is 0 when its verdict holds, else 1.

    Every line is built before the first is printed, so a report that
    cannot be printed prints nothing.
    """
    code = 0 if report["verdict"] is True else 1
    if as_json:
        print(_json(report))
        return code
    lines = [f"{report['command']}: verdict = {report['verdict']}"]
    lines += [f"  {key}: {json.dumps(report[key], sort_keys=True, default=_leaf)}"
              for key in ("witness", "counts") if report.get(key) is not None]
    for warning in report.get("warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    print("\n".join(lines))
    return code


_Result = tuple[Any, bool, Any, Any]  # (inputs, verdict, witness, counts)


def cmd_check(args: argparse.Namespace, warnings: list[str]) -> _Result:
    x, x_in = load_vector(args.x, warnings)
    y, y_in = load_vector(args.y, warnings)
    scale = lcm(*{q for _, q in x}, *{q for _, q in y})
    px, py = (desc_prefix_sums([p * (scale // q) for p, q in v]) for v in (x, y))
    violation = _profile_violation(px, py)
    xs, ys = _ratio_strs(px, scale), _ratio_strs(py, scale)
    witness = None if violation is None else {
        "kind": violation.kind, "index": violation.index,
        "lhs": xs[violation.index - 1], "rhs": ys[violation.index - 1]}
    counts = {"x_sorted_prefix_sums": xs, "y_sorted_prefix_sums": ys}
    return {"x": x_in, "y": y_in}, violation is None, witness, counts


def cmd_witness(args: argparse.Namespace, warnings: list[str]) -> _Result:
    x, x_in = _load_vec(args.x, warnings)
    y, y_in = _load_vec(args.y, warnings)
    inputs = {"x": x_in, "y": y_in}
    try:
        witness = witness_ds(x, y)
    except NotMajorized as exc:
        return inputs, False, asdict(exc.violation), None
    write_matrix(args.out, witness.matrix.matrix)
    counts = {"transforms": len(witness.transforms), "out": args.out}
    return inputs, True, {"matrix": witness.matrix.matrix}, counts


def cmd_extremizers(args: argparse.Namespace, warnings: list[str]) -> _Result:
    x, x_in = _load_vec(args.x, warnings)
    y, y_in = _load_vec(args.y, warnings)
    rep = extremizer_sets(x, y, guard=args.guard_n)
    k = rep.distinct_count
    counts = {
        "max_value": rep.max_value,
        "min_value": rep.min_value,
        "n_maximizers": len(rep.maximizers),
        "n_minimizers": len(rep.minimizers),
        "distinct_count": k,
        "bound": extremizer_bound(len(x), k),
        "maximizers": rep.maximizers,
        "minimizers": rep.minimizers,
    }
    return {"x": x_in, "y": y_in}, True, None, counts


def _statement_counts(check: isotone.StatementCheck) -> dict[str, Any]:
    return {
        "bits": "".join("1" if b else "0" for b in check.bits),
        "consistent": check.consistent,
        "advisory_disagreement": list(check.advisory_disagreement),
        "global_form": _form_json(check.global_form),
    }


def _form_json(form: isotone.GlobalForm | None) -> dict[str, Any]:
    if form is None:
        return {"kind": "not_isotone"}
    if isinstance(form, isotone.TraceMap):
        return {"kind": "trace_map", "a": form.a}
    return {"kind": "perm_scaled", "alpha": str(form.alpha),
            "beta": str(form.beta), "perm": list(form.perm.image)}


def cmd_isotone(args: argparse.Namespace, warnings: list[str]) -> _Result:
    if args.trials > _MAX_TRIALS:  # fail before loading anything
        raise CliError(f"--trials {args.trials} exceeds {_MAX_TRIALS}")
    a, a_in = load_matrix(args.matrix, warnings)
    inputs: dict[str, Any] = {"matrix": a_in}

    if args.global_:
        form = isotone.classify_global(a)
        return inputs, form is not None, None, {"classification": _form_json(form)}

    alpha, inputs["alpha"] = _load_vec(args.at, warnings)
    anchor = isotone.AnchorPoint(alpha)
    if args.predicate == "all":
        check = isotone.verify_statements(a, anchor, args.trials, args.seed,
                                          args.guard_n)
        ok = check.consistent and check.all_hold
        witness = None
        for name, verdict in (("left", check.left), ("right", check.right),
                              ("point", check.point), ("equiv", check.equiv)):
            if not verdict.holds:
                witness = {"statement": name, **(verdict.witness or {})}
                break
        return inputs, ok, witness, _statement_counts(check)

    runners = {
        "equiv": lambda: isotone.is_equiv_preserving_at(a, anchor, args.guard_n),
        "left": lambda: isotone.is_left_isotone_at(a, anchor, args.guard_n),
        "right": lambda: isotone.is_right_isotone_at(
            a, anchor, args.trials, args.seed, args.guard_n),
        "point": lambda: isotone.is_isotone_at(
            a, anchor, args.trials, args.seed, args.guard_n),
    }
    verdict = runners[args.predicate]()
    return inputs, verdict.holds, verdict.witness, {"sampled_trials": verdict.trials}


def cmd_verify(args: argparse.Namespace, warnings: list[str]) -> _Result:
    if args.matrices > _MAX_MATRICES:  # fail before building anything
        raise CliError(f"--matrices {args.matrices} exceeds {_MAX_MATRICES}")
    if args.trials > _MAX_TRIALS:
        raise CliError(f"--trials {args.trials} exceeds {_MAX_TRIALS}")
    if args.alpha is not None:
        alpha, digest = _load_vec(args.alpha, warnings)
        inputs: dict[str, Any] = {"alpha": digest, "n": len(alpha)}
    elif args.n > args.guard_n:  # fail before building the anchor
        raise GuardExceeded(args.n, args.guard_n)
    else:
        alpha = Vec(range(args.n, 0, -1))
        inputs = {"alpha": alpha, "n": args.n}
    anchor = isotone.AnchorPoint(alpha)
    if not anchor.strictly_decreasing:
        raise CliError("verify requires a strictly decreasing anchor")
    _perm_images(anchor.n, args.guard_n)  # every cell scans the n! orbit
    inputs["matrices"] = args.matrices

    cells = isotone.campaign_matrices(anchor.n, args.matrices, args.seed)
    per_matrix = []
    inconsistent: list[dict[str, Any]] = []
    unclassified_preservers: list[dict[str, Any]] = []
    for idx, (label, a) in enumerate(cells):
        check = isotone.verify_statements(a, anchor, args.trials,
                                          f"{args.seed}:{idx}", args.guard_n)
        row = {"label": label, **_statement_counts(check)}
        per_matrix.append(row)
        if not check.consistent or check.advisory_disagreement:
            inconsistent.append({"matrix": a, **row})
        if check.equiv.holds and check.global_form is None:
            unclassified_preservers.append({"matrix": a, **row})
    ok = not inconsistent and not unclassified_preservers
    counts = {
        "matrices": len(per_matrix),
        "consistent": len(per_matrix) - len(inconsistent),
        "all_true": sum(1 for r in per_matrix if r["bits"] == "11111"),
        "all_false": sum(1 for r in per_matrix if r["bits"] == "00000"),
        "unclassified_preservers": len(unclassified_preservers),
        "per_matrix": per_matrix,
    }
    witness = None if ok else {"inconsistent": inconsistent,
                               "unclassified_preservers": unclassified_preservers}
    return inputs, ok, witness, counts


def _count(text: str) -> int:
    """``argparse`` type of ``--trials`` and ``--matrices``: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every sampled campaign (default 0)")
    common.add_argument("--trials", type=_count, default=isotone.DEFAULT_TRIALS,
                        help="sample count for the one-sided predicates, at "
                             f"most {_MAX_TRIALS} on isotone and verify")
    common.add_argument("--guard-n", type=int, default=DEFAULT_GUARD,
                        help="largest size allowed for factorial enumeration")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="json", action="store_true", default=True,
                     help="machine-readable report on stdout (default)")
    fmt.add_argument("--text", dest="json", action="store_false",
                     help="human-readable summary instead of JSON")

    parser = argparse.ArgumentParser(
        prog="majorkit",
        description="Exact majorization toolkit: order checks, doubly "
                    "stochastic witnesses, rearrangement extremizers, and "
                    "isotonicity of linear maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="decide whether x is majorized by y")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("witness", parents=[common],
                       help="write a doubly stochastic D with D y = x")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("out")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("extremizers", parents=[common],
                       help="rearrangement extremes and attaining permutations")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_extremizers)

    p = sub.add_parser("isotone", parents=[common],
                       help="point-wise predicates or global classification")
    p.add_argument("matrix")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--at", help="anchor vector file")
    target.add_argument("--global", dest="global_", action="store_true",
                        help="classify the global form instead")
    p.add_argument("--predicate", choices=["left", "right", "point", "equiv", "all"],
                   default="equiv")
    p.set_defaults(func=cmd_isotone)

    p = sub.add_parser("verify", parents=[common],
                       help="campaign: all five statements must agree per matrix")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--alpha", help="anchor vector file (default n, n-1, .., 1)")
    p.add_argument("--matrices", type=_count, default=100,
                   help=f"random matrices to draw, at most {_MAX_MATRICES} "
                        "(default 100); max(2, N//8) planted forms of each "
                        "of 3 kinds are added")
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on ``main``'s first call;
    parsing reads it and never changes it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.monotonic()
    warnings: list[str] = []
    try:
        inputs, verdict, witness, counts = args.func(args, warnings)
        report = {
            "command": args.command,
            "inputs": inputs,
            "seed": args.seed,
            "trials": args.trials,
            "verdict": verdict,
            "witness": witness,
            "counts": counts,
            "warnings": warnings,
            "elapsed_ms": int((time.monotonic() - start) * 1000),
        }
        return _emit(report, args.json)  # a report that cannot print exits 2
    except (CliError, GuardExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
