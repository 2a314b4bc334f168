"""Outside-in tracing of majorkit: wraps its public functions from here.

Nothing in ``src/`` is edited.  :meth:`Tracer.install` replaces each
traced function on every ``majorkit`` module that holds it (the defining
module, the package namespace and every module that imported the name),
and the hot methods ``Mat.__matmul__``, ``Perm.apply`` and ``Perm.matrix``
on their classes.  :meth:`Tracer.uninstall` puts every original back.

Two kinds of record are kept in memory and written out at the end:

* spans, one per call of a layer-boundary function: id, parent id, the
  benchmark item they belong to, name, start and end in nanoseconds;
* kernel calls (matvec, prefix sums, permutation application, ...), far
  too many to keep one by one, are summed as ``[calls, ns]`` on the
  innermost open span, as are counters.

A span's self time is its duration minus its child spans and the kernel
time summed on it.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "item", "name", "start", "end",
                 "kernels", "counters")

    def __init__(self, id_, parent, item, name):
        self.id = id_
        self.parent = parent
        self.item = item
        self.name = name
        self.start = perf_counter_ns()
        self.end = None
        self.kernels: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}

    def as_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "item": self.item,
                "name": self.name, "start_ns": self.start, "end_ns": self.end,
                "kernels": self.kernels, "counters": self.counters}


# (module, attribute, span name): functions that get a span of their own.
SPANNED = [
    ("majorization", "majorizes", "majorization.majorizes"),
    ("majorization", "first_violation", "majorization.first_violation"),
    ("majorization", "sort_desc", "majorization.sort_desc"),
    ("doubly_stochastic", "witness_ds", "doubly_stochastic.witness_ds"),
    ("doubly_stochastic", "birkhoff", "doubly_stochastic.birkhoff"),
    ("doubly_stochastic", "check_ds", "doubly_stochastic.check_ds"),
    ("rearrangement", "extremizer_sets", "rearrangement.extremizer_sets"),
    ("isotone", "verify_statements", "isotone.verify_statements"),
    ("isotone", "is_equiv_preserving_at", "isotone.equiv"),
    ("isotone", "is_left_isotone_at", "isotone.left"),
    ("isotone", "is_right_isotone_at", "isotone.right"),
    ("isotone", "is_isotone_at", "isotone.point"),
    ("isotone", "is_global_isotone_sampled", "isotone.global_sampled"),
    ("isotone", "classify_global", "isotone.classify_global"),
    ("cli", "main", "cli.main"),
    ("cli", "load_vector", "cli.load"),
]

# Counters taken from a spanned function's result, on its own span.
RESULT_COUNTERS = {
    "doubly_stochastic.witness_ds":
        lambda r: {"doubly_stochastic.transforms": len(r.transforms)},
    "doubly_stochastic.birkhoff":
        lambda r: {"doubly_stochastic.birkhoff_terms": len(r.terms)},
    "rearrangement.extremizer_sets":
        lambda r: {"rearrangement.extremizers_out":
                   len(r.maximizers) + len(r.minimizers)},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, item: int | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if item is None and parent is not None:
            item = parent.item
        span = Span(self._next_id, parent.id if parent else None, item, name)
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    def kernel(self, name: str, ns: int) -> None:
        if self._stack:
            tally = self._stack[-1].kernels.setdefault(name, [0, 0])
            tally[0] += 1
            tally[1] += ns

    def count(self, name: str, k: int = 1) -> None:
        if self._stack:
            counters = self._stack[-1].counters
            counters[name] = counters.get(name, 0) + k

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name, fn):
        post = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    for key, k in post(result).items():
                        self.count(key, k)
                return result
            finally:
                self.close(span)
        return wrapped

    def _timed_kernel(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.kernel(name, perf_counter_ns() - t0)
        return wrapped

    def _matmul(self, fn, vec_type):
        @functools.wraps(fn)
        def wrapped(a, other):
            t0 = perf_counter_ns()
            try:
                return fn(a, other)
            finally:
                kind = ("numerics.matvec" if isinstance(other, vec_type)
                        else "numerics.matmat")
                self.kernel(kind, perf_counter_ns() - t0)
        return wrapped

    def _enumerate_perms(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                perms = fn(*args, **kwargs)  # raises the guard error eagerly
            finally:
                self.kernel("numerics.enumerate_perms", perf_counter_ns() - t0)
            return self._count_perms(perms)
        return wrapped

    def _count_perms(self, perms):
        for p in perms:
            self.count("numerics.perms_enumerated")
            yield p

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, wrapped) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "majorkit" and not modname.startswith("majorkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def _replace_method(self, cls, attr, wrapped) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self, mk) -> None:
        """Wrap the package ``mk`` (an imported ``majorkit``) in place."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: getattr(mk, name) for name in
                   ("numerics", "majorization", "doubly_stochastic",
                    "rearrangement", "isotone", "cli")}
        for modname, attr, span_name in SPANNED:
            original = getattr(modules[modname], attr)
            self._replace_everywhere(original, self._spanned(span_name, original))
        self._replace_everywhere(
            modules["majorization"].desc_prefix_sums,
            self._timed_kernel("majorization.prefix_sums",
                               modules["majorization"].desc_prefix_sums))
        self._replace_everywhere(
            modules["numerics"].enumerate_perms,
            self._enumerate_perms(modules["numerics"].enumerate_perms))
        numerics = modules["numerics"]
        self._replace_method(numerics.Mat, "__matmul__",
                             self._matmul(numerics.Mat.__matmul__, numerics.Vec))
        self._replace_method(numerics.Perm, "apply",
                             self._timed_kernel("numerics.perm_apply",
                                                numerics.Perm.apply))
        self._replace_method(numerics.Perm, "matrix",
                             self._timed_kernel("numerics.perm_matrix",
                                                numerics.Perm.matrix))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive, exclusive and self ns, kernels, counters.

        Exclusive time leaves out child spans but keeps the kernel time
        summed on the span; self time leaves out both.
        """
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end - s.start
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "incl_ns": 0, "excl_ns": 0,
                                          "self_ns": 0, "kernels": {},
                                          "counters": {}})
            dur = s.end - s.start
            kernel_ns = sum(ns for _, ns in s.kernels.values())
            row["calls"] += 1
            row["incl_ns"] += dur
            row["excl_ns"] += dur - child_ns.get(s.id, 0)
            row["self_ns"] += dur - child_ns.get(s.id, 0) - kernel_ns
            for kname, (calls, ns) in s.kernels.items():
                tally = row["kernels"].setdefault(kname, [0, 0])
                tally[0] += calls
                tally[1] += ns
            for cname, k in s.counters.items():
                row["counters"][cname] = row["counters"].get(cname, 0) + k
        return out
