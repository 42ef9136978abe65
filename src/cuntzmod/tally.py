"""The one runner of the named invariant sweeps.

A sweep is a generator that yields its cases, and ``sweep`` turns it into
the function that runs it and returns the report.  It yields each case as
an ``(ok, label)`` pair, or a run of cases at once as a block
``(cases, labels)``: the block's case count and a list of the labels of its
failing cases, in case order, so a sweep that compares whole rows yields
one block per row and builds labels only for a row that differs.  A label
is a zero-argument callable naming its case.  The runner calls it only for
the first FIRST_FAILURES failures, while the generator is paused at the
``yield`` that carried it, so a pair's label reads that case's loop values;
a block's labels are built before it is yielded, so each binds its own.
"""

from __future__ import annotations

from functools import wraps

FIRST_FAILURES = 5


def sweep(check: str, *params: str):
    """Decorator: the report is {"check", *params, "cases", "failures",
    "first_failures"}, where ``params`` name the positional arguments."""

    def decorate(generate):
        @wraps(generate)
        def run(*args) -> dict:
            cases = failures = 0
            first_failures: list[str] = []
            for ok, label in generate(*args):
                if label.__class__ is list:  # a block: ok is its case count, label its failures' labels
                    cases += ok
                    if label:
                        failures += len(label)
                        first_failures += [f() for f in label[:FIRST_FAILURES - len(first_failures)]]
                    continue
                cases += 1
                if not ok:
                    failures += 1
                    if len(first_failures) < FIRST_FAILURES:
                        first_failures.append(label())
            return {"check": check, **dict(zip(params, args)), "cases": cases,
                    "failures": failures, "first_failures": first_failures}

        return run

    return decorate
