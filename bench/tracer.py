"""Timing wrappers around cyltab's functions, installed from outside the package.

A wrapper records one span per call: the call count, the wall time, and the
part of that time covered by child spans, so a span's self time is its wall
time minus its children's.  Spans are aggregated by name in memory; nothing
is written until the run ends.

Each wrapped function is rebound in every namespace that holds it, including
names imported with ``from ... import`` (``cyltab.crsk.full_multi``,
``cyltab.cli.run_crsk``, the ``cyltab`` package itself), so no call escapes
the trace.  A target that no longer exists raises at install time, so a
rename fails loudly instead of reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = (
    "geometry",
    "tableau",
    "insertion",
    "reverse",
    "crsk",
    "polynomials",
    "enumeration",
    "marbles",
    "words",
    "serialization",
    "cli",
)

# Class methods and private functions the per-layer metrics need, beyond the
# public module-level functions that are wrapped in every module.
METHODS = {
    "tableau": [("CylTableau", "__post_init__")],
    "polynomials": [
        ("SparsePolynomial", name)
        for name in ("__init__", "__add__", "__mul__", "scale", "truncate", "embed", "zero", "one", "monomial")
    ]
    + [("IdentityReport", "__post_init__")],
    "words": [(None, "_sorting_moves"), ("Certificate", "replay")],
}


# Public functions left unwrapped: `apply_move` runs once per move of every
# certificate, so its time is reported inside its callers (`replay`,
# `_sorting_moves`) rather than as a span of its own.
UNWRAPPED = {"words.apply_move"}


def _count_bumps(result) -> int:
    return sum(1 for e in result.events if e.kind == "bump")


# Work counters taken from a span's return value: span name -> [(counter, fn)].
COUNTERS = {
    "enumeration.enumerate_inner": [("enumeration.shapes", len)],
    "enumeration.enumerate_outer": [("enumeration.shapes", len)],
    "enumeration.enumerate_ssct": [("enumeration.tableaux", len)],
    "polynomials.SparsePolynomial.__add__": [("polynomials.terms", lambda p: len(p._coeffs))],
    "polynomials.SparsePolynomial.__mul__": [("polynomials.terms", lambda p: len(p._coeffs))],
    "insertion.full_multi": [
        ("insertion.bumps", _count_bumps),
        ("insertion.route_points", lambda r: sum(len(route.points) for route in r.routes)),
    ],
    "reverse.reverse_full_multi": [("reverse.bumps", _count_bumps)],
    "words.word_transform": [("words.moves", lambda r: len(r.certificate.moves))],
    "words.connect": [("words.moves", lambda c: len(c.moves))],
    "serialization.canonical_json": [("serialization.bytes_out", len)],
}

MARK = "__bench_span__"


def _modules() -> dict[str, object]:
    return {name: importlib.import_module(f"cyltab.{name}") for name in MODULES}


def _targets() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every function to wrap.

    The owner is a module for functions and a class for methods.
    """
    out = []
    for short, mod in _modules().items():
        for attr, value in sorted(vars(mod).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not attr.startswith("_")
                and f"{short}.{attr}" not in UNWRAPPED
            ):
                out.append((f"{short}.{attr}", mod, attr))
        for cls_name, attr in METHODS.get(short, ()):
            if cls_name is None:
                getattr(mod, attr)  # raises if the name is gone
                out.append((f"{short}.{attr}", mod, attr))
            else:
                cls = getattr(mod, cls_name)
                if attr not in vars(cls):
                    raise AttributeError(f"{cls.__qualname__}.{attr} no longer exists")
                out.append((f"{short}.{cls_name}.{attr}", cls, attr))
    return out


def _namespaces() -> list[object]:
    return [m for name, m in sys.modules.items() if name == "cyltab" or name.startswith("cyltab.")]


class Tracer:
    """Span statistics for one traced run, plus the patches that collect them."""

    def __init__(self) -> None:
        # span name -> [calls, wall seconds, seconds covered by child spans]
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.originals: dict[str, object] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._overhead = 0.0

    def _wrap(self, name: str, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        counters = COUNTERS.get(name, ())
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed + tracer._overhead
            for counter, measure in counters:
                counts[counter] += measure(result)
            return result

        setattr(span, MARK, name)
        return span

    def _calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure the per-call cost a wrapper adds outside its own timed part.

        Left alone, that cost would land in the caller's self time; each
        finished span adds it to its parent's child time instead.
        """

        def noop():
            pass

        wrapped = self._wrap("calibration", noop)
        stat = self.spans["calibration"]
        clock = time.perf_counter
        best = float("inf")
        for _ in range(repeats):
            stat[:] = [0, 0.0, 0.0]
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            best = min(best, (t2 - t1 - (t1 - t0) - stat[1]) / calls)
        del self.spans["calibration"]
        self._overhead = max(best, 0.0)

    def install(self) -> None:
        """Wrap every target and rebind it wherever it is referenced."""
        self._calibrate()
        targets = _targets()
        namespaces = _namespaces()
        for name, owner, attr in targets:
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(name, fn)
                self.originals[name] = fn
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
                continue
            wrapper = self._wrap(name, raw)
            self.originals[name] = raw
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is raw:
                        self._undo.append((ns, key, raw))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def calls(self, name: str) -> int:
        return self.spans[name][0]

    def self_s(self, prefix: str) -> float:
        """Self time of one span, or of all spans whose names start with prefix.

        Each span's self time is floored at zero: the calibrated wrapper cost
        can slightly exceed what a span with many short children really spent.
        """
        return sum(
            max(0.0, wall - child)
            for name, (_, wall, child) in self.spans.items()
            if name == prefix or name.startswith(prefix + ".")
        )


def installed_wrappers() -> int:
    """How many functions reachable from cyltab's namespaces are trace wrappers."""
    found = set()
    for ns in _namespaces():
        for value in vars(ns).values():
            if hasattr(value, MARK):
                found.add(id(value))
            if isinstance(value, type):
                for member in vars(value).values():
                    member = member.__func__ if isinstance(member, staticmethod) else member
                    if hasattr(member, MARK):
                        found.add(id(member))
    return len(found)


# Per-layer metrics: (name, unit, how the traced run computes it).  The
# "probe" entries are measured by the worker, not from spans.
PER_LAYER = [
    ("geometry.project.calls", "count", lambda t: t.calls("geometry.project")),
    ("geometry.lift.calls", "count", lambda t: t.calls("geometry.lift")),
    ("tableau.validate.calls", "count", lambda t: t.calls("tableau.CylTableau.__post_init__")),
    ("tableau.validate.self_s", "s", lambda t: t.self_s("tableau.CylTableau.__post_init__")),
    ("enumeration.shapes", "count", lambda t: t.counts["enumeration.shapes"]),
    ("enumeration.tableaux", "count", lambda t: t.counts["enumeration.tableaux"]),
    ("enumeration.enumerate_ssct.self_s", "s", lambda t: t.self_s("enumeration.enumerate_ssct")),
    ("enumeration.schur_poly.self_s", "s", lambda t: t.self_s("enumeration.schur_poly")),
    ("enumeration.count_standard.self_s", "s", lambda t: t.self_s("enumeration.count_standard")),
    ("polynomials.add.calls", "count", lambda t: t.calls("polynomials.SparsePolynomial.__add__")),
    ("polynomials.mul.calls", "count", lambda t: t.calls("polynomials.SparsePolynomial.__mul__")),
    ("polynomials.terms", "count", lambda t: t.counts["polynomials.terms"]),
    ("polynomials.self_s", "s", lambda t: t.self_s("polynomials.SparsePolynomial")),
    ("polynomials.report.self_s", "s", lambda t: t.self_s("polynomials.IdentityReport.__post_init__")),
    ("insertion.full_multi.calls", "count", lambda t: t.calls("insertion.full_multi")),
    ("insertion.full_multi.self_s", "s", lambda t: t.self_s("insertion.full_multi")),
    ("insertion.bumps", "count", lambda t: t.counts["insertion.bumps"]),
    ("insertion.route_points", "count", lambda t: t.counts["insertion.route_points"]),
    ("reverse.reverse_full_multi.calls", "count", lambda t: t.calls("reverse.reverse_full_multi")),
    ("reverse.reverse_full_multi.self_s", "s", lambda t: t.self_s("reverse.reverse_full_multi")),
    ("reverse.bumps", "count", lambda t: t.counts["reverse.bumps"]),
    ("crsk.crsk.self_s", "s", lambda t: t.self_s("crsk.crsk")),
    ("crsk.crsk_inverse.self_s", "s", lambda t: t.self_s("crsk.crsk_inverse")),
    ("marbles.encode.self_s", "s", lambda t: t.self_s("marbles.tableau_to_game")),
    ("marbles.decode.self_s", "s", lambda t: t.self_s("marbles.game_to_tableau")),
    ("words.word_transform.self_s", "s", lambda t: t.self_s("words.word_transform")),
    ("words.connect.self_s", "s", lambda t: t.self_s("words.connect")),
    ("words.replay.self_s", "s", lambda t: t.self_s("words.Certificate.replay")),
    ("words.moves", "count", lambda t: t.counts["words.moves"]),
    ("words.sort_cache.hit_ratio", "ratio", "probe"),
    ("words.sort_cache.lookups", "count", "probe"),
    ("words.sort_cache.size", "count", "probe"),
    ("cli.interp_s", "s", "probe"),
    ("cli.import_s", "s", "probe"),
    ("cli.main.self_s", "s", lambda t: t.self_s("cli")),
    ("serialization.self_s", "s", lambda t: t.self_s("serialization")),
    ("serialization.bytes_out", "bytes", lambda t: t.counts["serialization.bytes_out"]),
    ("trace.overhead_ratio", "ratio", "probe"),
]
