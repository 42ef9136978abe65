"""Spans and counters recorded by wrappers that the benchmark installs
around the package's functions for a traced run.

A span is (op, parent, name, start, end).  Spans live in flat arrays in
memory and are written once, at the end of the run.  Self time is a span's
duration minus the time its child spans cover, accumulated as spans close.
QSqrt arithmetic is far too hot for spans: it gets call counters only.
Nothing is recorded outside an op, so reference checks do not count.

Wrappers replace every binding of the original function in the package's
modules (``from .algebra import equals`` makes one per importing module),
so calls between modules are seen too.  :meth:`Tracer.uninstall` puts the
originals back.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import cuntzmod

# (module, attribute, metric name).  A dotted attribute is a class member.
SPANS = (
    ("algebra", "multiply", "algebra.multiply"),
    ("algebra", "_multiply_into", "algebra.multiply_into"),
    ("algebra", "canonical_form", "algebra.canonical_form"),
    ("algebra", "equals", "algebra.equals"),
    ("matrices", "AlgMatrix.__matmul__", "matrices.matmul"),
    ("matrices", "is_modular_unitary", "matrices.is_modular_unitary"),
    ("matrices", "in_fixed_algebra", "matrices.in_fixed_algebra"),
    ("matrices", "build_u_mu_nu", "matrices.build_u_mu_nu"),
    ("modular", "state_psi", "modular.state_psi"),
    ("modular", "delta_power", "modular.delta_power"),
    ("modular", "commutator_D", "modular.commutator_D"),
    ("modular", "inner_product", "modular.inner_product"),
    ("flow", "spectral_flow", "flow.spectral_flow"),
    ("flow", "cocycle_b_defect", "flow.cocycle_b_defect"),
    ("endos", "key_fact_check", "endos.key_fact_check"),
    ("endos", "compose_left_mult", "endos.compose_left_mult"),
    ("endos", "tau_delta_endo", "endos.tau_delta_endo"),
    ("expr", "parse", "expr.parse"),
    ("expr", "render", "expr.render"),
    ("numerics", "lattice_sum", "numerics.lattice_sum"),
)
COUNTERS = (
    ("scalars", "QSqrt.__mul__", "scalars.mul"),
    ("scalars", "QSqrt.__rmul__", "scalars.mul"),
    ("scalars", "QSqrt.__add__", "scalars.add"),
    ("scalars", "QSqrt.__radd__", "scalars.add"),
)


def expansion_size(a) -> int:
    """Terms in the max-level expansion of ``a``: what canonical_form's
    documented output level costs for this input, whatever the algorithm."""
    levels: dict[int, int] = {}
    for mu, nu in a.terms:
        d = len(mu) - len(nu)
        m = len(nu) if d >= 0 else len(mu)
        levels[d] = max(levels.get(d, m), m)
    total = 0
    for mu, nu in a.terms:
        d = len(mu) - len(nu)
        total += a.n ** (levels[d] - (len(nu) if d >= 0 else len(mu)))
    return total


def _count_multiply_into(counts, args, result):
    counts["algebra.multiply_into.term_pairs"] += len(args[1]) * len(args[2])


def _count_canonical_form(counts, args, result):
    a = args[0]
    counts["algebra.canonical_form.terms_out"] += len(result.terms)
    if result is a:
        counts["algebra.canonical_form.fast_path"] += 1
    else:
        counts["algebra.canonical_form.expanded_terms"] += expansion_size(a)


EXTRA_COUNTS = {
    "algebra.multiply_into": _count_multiply_into,
    "algebra.canonical_form": _count_canonical_form,
}

OP = "op"


class Tracer:
    """Times are this thread's CPU seconds, like the untraced runs'."""

    def __init__(self):
        self.names: list[str] = [OP]
        self.calls: Counter = Counter()  # span name -> calls inside ops
        self.counts: Counter = Counter()  # counter name -> value
        self.self_seconds: defaultdict = defaultdict(float)
        self.ops = 0
        self.op_seconds = 0.0
        self.op_times: list[tuple[float, float]] = []  # (start, seconds) per op
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name_id: int) -> list:
        idx = len(self.span_name)
        stack = self._stack
        self.span_op.append(self.ops)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_name.append(name_id)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        self.span_start.append(time.thread_time())
        return frame

    def _close(self, frame: list) -> float:
        end = time.thread_time()
        idx = frame[0]
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self._stack.pop()
        name = self.names[self.span_name[idx]]
        self.self_seconds[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def run_op(self, call):
        """Run one op as a root span; exceptions propagate to the caller."""
        frame = self._open(0)
        try:
            return call()
        finally:
            seconds = self._close(frame)
            self.op_times.append((self.span_start[frame[0]], seconds))
            self.op_seconds += seconds
            self.ops += 1

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        calls = self.calls
        counts = self.counts
        extra = EXTRA_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            calls[name] += 1
            frame = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if extra is not None:
                extra(counts, args, result)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        stack = self._stack
        counts = self.counts

        def wrapper(*args):
            if stack:
                counts[name] += 1
            return fn(*args)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "cuntzmod" or key.startswith("cuntzmod.")]
        for specs, make in ((SPANS, self._span_wrapper), (COUNTERS, self._counter_wrapper)):
            for module_name, attr, name in specs:
                owner = getattr(cuntzmod, module_name)
                if "." in attr:
                    cls_name, member = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[member]
                    self._patch(cls, member, make(name, original))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr) if not isinstance(obj, type) else obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- output ---------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header with the name table, then one
        [op, parent, name id, start_us, end_us] per span, times relative
        to the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.span_start[0] if self.span_count else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "spans": self.span_count}) + "\n")
            for i in range(self.span_count):
                fh.write(
                    f"[{self.span_op[i]},{self.span_parent[i]},{self.span_name[i]},"
                    f"{(self.span_start[i] - t0) * 1e6:.3f},{(self.span_end[i] - t0) * 1e6:.3f}]\n"
                )
