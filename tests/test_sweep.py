"""The per-layer sweep's counters keep the same keys whatever a run calls.

``tools/sweep.py`` reports, for one untimed run under ``bench/tracer.py``,
the calls of every kernel the tracer times, 0 when the run never called
it, so a counter that falls to 0 reads 0 instead of leaving the report.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import majorkit
from majorkit import Perm, Vec, doubly_stochastic, isotone, numerics

SWEEP_PATH = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
EXTRAS = {"images": 0, "words": 0, "augments": 0, "clears": 0, "perm_checks": 0}


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("majorkit_sweep", SWEEP_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_run_that_calls_no_kernel_reports_every_kernel_at_zero(sweep):
    result, counters = sweep._counted(lambda: 7)
    assert result == 7
    assert counters == {**{f"{k}.calls": 0 for k in sweep.KERNELS}, **EXTRAS}


def test_a_called_kernel_is_counted_beside_the_uncalled_ones(sweep):
    # The order test profiles x and y once each; nothing else is timed.
    # The tracer patches the package's attributes: call through majorkit.
    x, y = Vec(["1/2", 3, "-2/3"]), Vec([1, "5/6", 1])
    violation, counters = sweep._counted(lambda: majorkit.first_violation(x, y))
    assert violation.kind == "prefix"
    calls = {k: counters[f"{k}.calls"] for k in sweep.KERNELS}
    assert calls == {k: 2 * (k == "majorization.prefix_sums") for k in sweep.KERNELS}


def test_a_kernel_missing_from_the_list_is_an_error(sweep, monkeypatch):
    # A kernel the tracer times but the list leaves out would report on
    # some points only; the patched names are restored all the same.
    monkeypatch.setattr(sweep, "KERNELS", sweep.KERNELS[1:])
    orbit, rng_class, perm_init = isotone._orbit, random.Random, numerics.Perm.__init__
    augment = doubly_stochastic._augment
    x, y = Vec([1, 1]), Vec([2, 0])
    with pytest.raises(RuntimeError, match="majorization.prefix_sums"):
        sweep._counted(lambda: majorkit.first_violation(x, y))
    assert isotone._orbit is orbit and random.Random is rng_class
    assert numerics.Perm.__init__ is perm_init and doubly_stochastic._augment is augment


def test_augments_count_the_peels_searches(sweep):
    # A permutation matrix is one peel: one search per row, then its
    # peel empties every cell and nothing is rematched.
    d = majorkit.DoublyStochastic(Perm([2, 0, 1]).matrix())
    dec, counters = sweep._counted(lambda: majorkit.birkhoff(d))
    assert len(dec.terms) == 1
    assert counters["augments"] == 3 and counters["clears"] == 0
