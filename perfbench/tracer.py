"""Span recorder that wraps trialg's public functions from outside.

The benchmark never edits the program: in a traced command ``launch.py``
installs a ``Tracer`` over the functions listed in ``TARGETS`` and then
calls ``trialg.cli.main``.  Each wrapped call records
one span ``[name, start, end, parent]``; the spans stay in memory and are
written out when the command ends.  A few wrappers also count work
(matrix cells, nonzeros, pivots, coefficient size, distinct inputs); that
counting runs inside a child span named ``COUNT_SPAN`` so it is charged to
neither the wrapped function nor its caller.

Scalar field operations are deliberately not wrapped: a wrapper per
addition would cost more than the addition.  Their cost shows in the
``linalg.max_coeff_bits`` counter instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

COUNT_SPAN = "tracer.count"

# (span name, module, attribute path).  Every name listed here becomes a
# span; methods are wrapped on their class, functions at their defining
# module and at every trialg module attribute bound to the same object.
TARGETS = [
    ("cli", "trialg.cli", "main"),
    ("algfile.parse", "trialg.algfile", "parse"),
    ("algfile.emit", "trialg.algfile", "emit"),
    ("fields.parse_field", "trialg.fields", "parse_field"),
    ("linalg.rref", "trialg.linalg", "rref"),
    ("linalg.kernel", "trialg.linalg", "kernel"),
    ("linalg.inverse", "trialg.linalg", "inverse"),
    ("linalg.complement_in", "trialg.linalg", "Subspace.complement_in"),
    ("linalg.from_rows", "trialg.linalg", "Subspace.from_rows"),
    ("linalg.matrix_init", "trialg.linalg", "Matrix.__init__"),
    ("algebra.axiom_report", "trialg.algebra", "TriAlgebra.axiom_report"),
    ("algebra.center", "trialg.algebra", "TriAlgebra.center"),
    ("algebra.derived", "trialg.algebra", "TriAlgebra.derived"),
    ("algebra.quotient_algebra", "trialg.algebra", "quotient_algebra"),
    ("algebra.hom_to_field", "trialg.algebra", "hom_to_field"),
    ("cohomology.h2", "trialg.cohomology", "h2"),
    ("cohomology.z2_space", "trialg.cohomology", "z2_space"),
    ("cohomology.class_coordinates", "trialg.cohomology", "CohomologyResult.class_coordinates"),
    ("cohomology.section_cocycle", "trialg.cohomology", "section_cocycle"),
    ("cohomology.cocycle_defects", "trialg.cohomology", "cocycle_defects"),
    ("extensions.cover", "trialg.extensions", "cover"),
    ("extensions.z_star", "trialg.extensions", "z_star"),
    ("extensions.build_central_extension", "trialg.extensions", "build_central_extension"),
    ("sequences.verify_five_term", "trialg.sequences", "verify_five_term"),
    ("sequences.verify_inf_delta", "trialg.sequences", "verify_inf_delta"),
    ("sequences.tra_image_check", "trialg.sequences", "tra_image_check"),
    ("sequences.unicentrality_criteria", "trialg.sequences", "unicentrality_criteria"),
    ("sequences.stallings_check", "trialg.sequences", "stallings_check"),
    ("generators", "trialg.generators", "abelian"),
    ("generators", "trialg.generators", "cover_abelian"),
    ("generators", "trialg.generators", "random_cocycles"),
    ("generators", "trialg.generators", "random_extension"),
]


def _nonzeros(rows, zero) -> int:
    # tuple.count tests identity before equality, so shared zero objects
    # are counted at C speed.
    return sum(len(r) - r.count(zero) for r in rows)


def _coeff_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if x:
                bits = x.numerator.bit_length() + x.denominator.bit_length()
                if bits > best:
                    best = bits
    return best


def _algebra_key(alg) -> tuple:
    """Content key of an algebra, so equal algebras count once."""
    return (
        alg.dim,
        alg.field.name,
        tuple(tuple(sorted((k, tuple(sorted(v.items()))) for k, v in t.items()))
              for t in alg.products.values()),
    )


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, command_id: str = ""):
        self.command_id = command_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {
            "linalg.rref.cells": 0,
            "linalg.rref.nnz": 0,
            "linalg.rref.pivots": 0,
            "linalg.max_coeff_bits": 0,
            "linalg.matrix_init.cells": 0,
        }
        self.distinct: dict[str, set] = {"cohomology.h2": set(), "extensions.cover": set()}
        self.import_s = 0.0

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    c0 = clock()
                    count(args, kwargs, result)
                    spans.append([COUNT_SPAN, c0, clock(), idx])
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _count_rref(self, args, kwargs, result):
        m = args[0]
        red, pivots = result
        c = self.counters
        c["linalg.rref.cells"] += m.rows * m.cols
        c["linalg.rref.nnz"] += _nonzeros(m.data, m.field.zero)
        c["linalg.rref.pivots"] += len(pivots)
        if isinstance(m.field.zero, Fraction):
            c["linalg.max_coeff_bits"] = max(c["linalg.max_coeff_bits"], _coeff_bits(red.data))

    def _count_matrix(self, args, kwargs, result):
        m = args[0]
        self.counters["linalg.matrix_init.cells"] += m.rows * m.cols

    def _distinct(self, name):
        seen = self.distinct[name]

        def count(args, kwargs, result):
            k = args[1] if len(args) > 1 else kwargs.get("k", 1)
            seen.add((_algebra_key(args[0]), k))

        return count

    def install(self):
        """Wrap every target in the imported trialg modules."""
        counts = {
            "linalg.rref": self._count_rref,
            "linalg.matrix_init": self._count_matrix,
            "cohomology.h2": self._distinct("cohomology.h2"),
            "extensions.cover": self._distinct("extensions.cover"),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "trialg" or n.startswith("trialg."))]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, counts.get(name))))
                else:
                    setattr(cls, attr, self.wrap(name, raw, counts.get(name)))
                continue
            original = getattr(owner, path)
            traced = self.wrap(name, original, counts.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    # -- output --------------------------------------------------------

    def dump(self, path: str) -> None:
        doc = {
            "command_id": self.command_id,
            "import_s": self.import_s,
            "spans": self.spans,
            "counters": self.counters,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one process are strictly nested (one thread), so the children
    of a span never overlap and their durations add up.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def integrity_problems(spans, selfs) -> list[str]:
    """Spans with a negative self time, or that end before they start or
    lie outside their parent."""
    problems = []
    negative = sum(1 for x in selfs if x < -1e-9)
    if negative:
        problems.append(f"{negative} spans with negative self time")
    outside = sum(1 for s in spans
                  if s[2] < s[1] or (s[3] >= 0 and not spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2]))
    if outside:
        problems.append(f"{outside} spans outside their parent")
    return problems
