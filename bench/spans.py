"""Span tracing of eisen's layers, installed from outside the package.

Each traced function is replaced by a wrapper in every ``eisen`` module
namespace (and class) that bound it, because several modules import names
directly: ``replicate`` calls ``distinct_degree_pattern`` through its own
globals, ``select_witness_primes`` through ``irreducibility``'s, and
``EisensteinTable.extend`` calls ``rademacher_expand`` through
``eisenstein``'s.  Spans are kept in memory and reduced to per-layer metrics
when the traced process ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: (module, attribute) of every traced function; methods are "Class.method"
TARGETS = (
    ("eisen.exact", "bernoulli"),
    ("eisen.qmring", "serre_derivative"),
    ("eisen.qmring", "substitute_q_expansion"),
    ("eisen.eisenstein", "EisensteinTable.extend"),
    ("eisen.eisenstein", "EisensteinTable.load_csv"),
    ("eisen.eisenstein", "rademacher_expand"),
    ("eisen.eisenstein", "rademacher_expand_folded"),
    ("eisen.eisenstein", "popa_expand"),
    ("eisen.eisenstein", "q_expansion_direct"),
    ("eisen.eisenstein", "min_valuation2"),
    ("eisen.gekeler", "phi_by_division"),
    ("eisen.gekeler", "phi_closed_form"),
    ("eisen.irreducibility", "dumas_check"),
    ("eisen.irreducibility", "distinct_degree_pattern"),
    ("eisen.irreducibility", "select_witness_primes"),
    ("eisen.irreducibility", "finite_field_degree_patterns"),
    ("eisen.irreducibility", "primitive_integer_polynomial"),
    ("eisen.replicate", "check_conjecture"),
    ("eisen.replicate", "gekeler_scan"),
    ("eisen.replicate", "selftest"),
    ("eisen.replicate", "_first_usable_primes"),
    ("eisen.cli", "main"),
)

REPLICATE_CHECKS = ("check_conjecture", "gekeler_scan", "selftest")


def _popa_route(args: tuple, kwargs: dict) -> str:
    return kwargs.get("route", args[2] if len(args) > 2 else "graded")


# what each span keeps of its call: (args, kwargs, result) -> note
_NOTES: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "rademacher_expand": lambda a, kw, r: a[0],
    "popa_expand": lambda a, kw, r: _popa_route(a, kw),
    "phi_by_division": lambda a, kw, r: r.degree,
    "distinct_degree_pattern": lambda a, kw, r: (tuple(a[0]), a[1], r is not None),
    "select_witness_primes": lambda a, kw, r: r,
    # the table itself, so den_bits_kmax can be read from what the run built
    "EisensteinTable.extend": lambda a, kw, r: a[0],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    note: Any = None
    children: list[int] = field(default_factory=list)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        note = _NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                kept = note(args, kwargs, result) if note and returned else None
                spans[idx] = Span(name, start, end, parent, kept)

        return traced

    def install(self) -> int:
        """Replace every binding of every target; returns the number of bindings replaced."""
        modules = [m for n, m in sys.modules.items() if n == "eisen" or n.startswith("eisen.")]
        replaced = 0
        for mod_name, attr in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(attr, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(attr, raw))
                replaced += 1
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(attr, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        replaced += 1
        return replaced

    # -- reduction --------------------------------------------------------------

    def _finish(self) -> list[Span]:
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("a traced call is still open")
        for i, s in enumerate(spans):
            if s.parent >= 0:
                spans[s.parent].children.append(i)
        return spans

    def metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer metrics over the whole process, and call counts inside ``cli.main``.

        The second dict feeds the cross-checks against the counts the records imply.
        """
        spans = self._finish()

        def of(name: str) -> list[Span]:
            return [s for s in spans if s.name == name]

        def total(ss: list[Span]) -> float:
            return sum(s.dur for s in ss)

        def self_time(ss: list[Span]) -> float:
            return sum(s.dur - sum(spans[c].dur for c in s.children) for s in ss)

        def parent_name(s: Span) -> str:
            return spans[s.parent].name if s.parent >= 0 else ""

        m: dict[str, float] = {}
        rad = of("rademacher_expand")
        m["eisenstein.extend.s"] = total(of("EisensteinTable.extend"))
        m["eisenstein.rademacher_expand.calls"] = len(rad)
        m["eisenstein.rademacher_expand.s_le250"] = total([s for s in rad if s.note <= 250])
        m["eisenstein.rademacher_expand.s_gt250"] = total([s for s in rad if s.note > 250])
        m["eisenstein.rademacher_expand_folded.calls"] = len(of("rademacher_expand_folded"))
        m["eisenstein.rademacher_expand_folded.s"] = total(of("rademacher_expand_folded"))
        m["eisenstein.den_bits_kmax"] = _den_bits_kmax(of("EisensteinTable.extend"))
        m["eisenstein.min_valuation2.s"] = total(of("min_valuation2"))
        m["eisenstein.load_csv.s"] = total(of("EisensteinTable.load_csv"))
        popa = of("popa_expand")
        for route in ("graded", "precancelled"):
            m[f"eisenstein.popa_expand.{route}.s"] = total([s for s in popa if s.note == route])
        m["eisenstein.q_expansion_direct.s"] = total(of("q_expansion_direct"))
        m["qmring.serre_derivative.s"] = total(of("serre_derivative"))
        m["qmring.substitute_q_expansion.s"] = total(of("substitute_q_expansion"))
        for fn in ("phi_by_division", "phi_closed_form"):
            m[f"gekeler.{fn}.s"] = total(of(fn))
            m[f"gekeler.{fn}.calls"] = len(of(fn))

        dumas = of("dumas_check")
        scan_weights = [s for s in of("phi_by_division") if parent_name(s) == "gekeler_scan" and s.note >= 1]
        m["irreducibility.dumas_check.s"] = total(dumas)
        m["irreducibility.dumas_check.calls"] = len(dumas)
        # base: weights of degree >= 1 that entered the scan's Dumas loop
        m["irreducibility.dumas.primes_per_weight"] = len(dumas) / len(scan_weights) if scan_weights else 0.0

        select = of("select_witness_primes")
        m["irreducibility.select_witness_primes.self_s"] = self_time(select)
        m["irreducibility.select_witness_primes.calls"] = len(select)
        m["irreducibility.select_witness_primes.primes_examined"] = sum(s.note[1] for s in select)
        kept = sum(len(s.note[0]) for s in select if s.note[0] is not None)
        m["irreducibility.select_witness_primes.primes_kept"] = kept
        ddf = of("distinct_degree_pattern")
        phases = {"select_witness_primes": "select", "finite_field_degree_patterns": "certificate"}
        for parent, phase in phases.items():
            ss = [s for s in ddf if parent_name(s) == parent]
            m[f"irreducibility.distinct_degree_pattern.calls.{phase}"] = len(ss)
            m[f"irreducibility.distinct_degree_pattern.s.{phase}"] = total(ss)
        m["irreducibility.finite_field_degree_patterns.self_s"] = self_time(of("finite_field_degree_patterns"))
        m["irreducibility.primitive_integer_polynomial.s"] = total(of("primitive_integer_polynomial"))
        patterns = [s for s in ddf if s.note[2]]
        # base: every DDF call that returned a pattern, wherever it was called from
        m["irreducibility.ddf.patterns"] = len(patterns)
        m["irreducibility.ddf.useful_ratio"] = kept / len(patterns) if patterns else 0.0
        seen = {s.note[:2] for s in ddf if parent_name(s) == "select_witness_primes"}
        m["irreducibility.ddf.recomputed"] = sum(
            1 for s in ddf if parent_name(s) == "finite_field_degree_patterns" and s.note[:2] in seen
        )

        for fn in REPLICATE_CHECKS:
            m[f"replicate.{fn}.self_s"] = self_time(of(fn))
        m["replicate.first_usable_primes.calls"] = len(of("_first_usable_primes"))
        m["exact.bernoulli.s"] = total(of("bernoulli"))
        mains = of("main")
        checks = [spans[c] for s in mains for c in s.children if spans[c].name in REPLICATE_CHECKS]
        m["cli.self_s"] = total(mains) - total(checks)
        m["trace.spans"] = len(spans)

        counts: dict[str, int] = {}
        for main in mains:
            for s in spans:
                if main.start <= s.start and s.end <= main.end:
                    key = f"{s.name}.{s.note}" if s.name == "popa_expand" else s.name
                    counts[key] = counts.get(key, 0) + 1
        return m, counts


def _den_bits_kmax(extends: list[Span]) -> int:
    """Bit length of the common denominator of w(k_max) in the largest table any extend saw."""
    tables = [s.note for s in extends if s.note is not None]
    if not tables:
        return 0
    table = max(tables, key=lambda t: t.max_weight())
    den = 1
    for c in table.w_vector(table.max_weight()).values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    return den.bit_length()
