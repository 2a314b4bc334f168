"""The benchmark's tracer still finds every name it patches in majorkit.

``bench/tracer.py`` wraps majorkit's functions by name from outside, so a
rename in the package breaks only a traced benchmark run.  These tests
import the tracer as it is and install it on the package.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import majorkit
import majorkit.cli  # noqa: F401  the tracer wraps cli.main and cli.load_vector
from majorkit import AnchorPoint, Mat, Vec

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("majorkit_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of every majorkit module and of the patched classes."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "majorkit" or modname.startswith("majorkit."):
            for attr, value in vars(module).items():
                out[(modname, attr)] = value
    for cls in (majorkit.Mat, majorkit.Perm):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


@pytest.fixture
def tracer():
    t = _load_tracer_module().Tracer()
    try:
        yield t
    finally:
        t.uninstall()


def test_uninstall_restores_every_patched_attribute(tracer):
    before = _snapshot()
    tracer.install(majorkit)
    try:
        assert majorkit.majorization.desc_prefix_sums is not before[
            ("majorkit.majorization", "desc_prefix_sums")]
        assert majorkit.Perm.apply is not before[("Perm", "apply")]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


@pytest.mark.parametrize("rows, alpha, holds, profiled", [
    # J plus a permutation: A's rows certify it at the second image.
    ([[2, 1, 1], [1, 1, 2], [1, 2, 1]], [3, 2, 1], True, 2),
    ([[1, 2, 0], [0, 1, 3], [2, 0, 1]], [3, 2, 1], False, 2),
    # Its rows decline and its orbit of 3 images holds: all are read.
    ([[1, 2, 0], [0, 1, 2], [2, 0, 1]], [1, 0, 0], True, 3),
], ids=["holds", "fails", "tied"])
def test_orbit_images_are_counted_as_prefix_sum_kernels(tracer, rows, alpha, holds,
                                                        profiled):
    # The orbit scan profiles each image it reads through desc_prefix_sums:
    # up to the deciding image when the orbit fails, 2 when A's rows
    # certify the holding orbit there, and every image when they decline.
    a = Mat(rows)
    tracer.install(majorkit)
    try:
        verdict = majorkit.is_equiv_preserving_at(a, AnchorPoint(Vec(alpha)))
    finally:
        tracer.uninstall()
    equiv = tracer.summary()["isotone.equiv"]
    assert equiv["calls"] == 1
    assert equiv["kernels"].get("majorization.prefix_sums", [0, 0])[0] == profiled
    assert verdict.holds == holds


_PLANTED8 = majorkit.PermScaled(Fraction(3, 2), Fraction(-1, 3),
                                majorkit.Perm([3, 0, 7, 5, 1, 6, 2, 4]))


def test_a_declined_planted_form_profiles_its_whole_orbit_per_trial(tracer,
                                                                    monkeypatch):
    # When A's rows decline, each trial profiles every one of the 5!
    # distinct rearrangements of the drawn y once, in order, through
    # desc_prefix_sums; the first is y itself, whose profile A y is the
    # trial's base.  The orbit is read without enumerating a Perm.
    monkeypatch.setattr(majorkit.isotone, "_rows_symmetric", lambda rows: False)
    a = majorkit.PermScaled(Fraction(3, 2), Fraction(-1, 3),
                            majorkit.Perm([3, 0, 4, 1, 2])).as_matrix()
    tracer.install(majorkit)
    try:
        verdict = majorkit.is_global_isotone_sampled(a, trials=10, seed=0)
    finally:
        tracer.uninstall()
    assert verdict == majorkit.IsotoneVerdict(True, trials=10)
    sampled = tracer.summary()["isotone.global_sampled"]
    assert sampled["calls"] == 1
    assert sampled["counters"].get("numerics.perms_enumerated", 0) == 0
    assert sampled["kernels"]["majorization.prefix_sums"][0] == 10 * 120


def test_a_row_certified_form_takes_no_sampler_profile(tracer):
    # A's rows certify the planted form: no trial is drawn, so no profile
    # is built and no perm is enumerated.
    a = _PLANTED8.as_matrix()
    tracer.install(majorkit)
    try:
        verdict = majorkit.is_global_isotone_sampled(a, trials=10, seed=0)
    finally:
        tracer.uninstall()
    assert verdict == majorkit.IsotoneVerdict(True, trials=10)
    sampled = tracer.summary()["isotone.global_sampled"]
    assert sampled["calls"] == 1
    assert sampled["counters"].get("numerics.perms_enumerated", 0) == 0
    assert sampled["kernels"].get("majorization.prefix_sums", [0, 0])[0] == 0


def test_first_violation_profiles_both_vectors_as_kernels(tracer):
    # The order test profiles the integer rows of x and y through
    # desc_prefix_sums, so the per-layer counter still sees two kernels.
    x, y = Vec(["1/2", 3, "-2/3"]), Vec([1, "5/6", 1])
    tracer.install(majorkit)
    try:
        violation = majorkit.first_violation(x, y)
    finally:
        tracer.uninstall()
    assert violation.kind == "prefix" and violation.lhs == 3
    span = tracer.summary()["majorization.first_violation"]
    assert span["calls"] == 1
    assert span["kernels"]["majorization.prefix_sums"][0] == 2
