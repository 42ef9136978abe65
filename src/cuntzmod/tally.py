"""The one runner of the named invariant sweeps.

A sweep is a generator that yields one ``(ok, label)`` pair per case, and
``sweep`` turns it into the function that runs it and returns the report.
A label is a zero-argument callable naming its case.  The runner calls it
only for the first FIRST_FAILURES failures, while the generator is paused
at that case's ``yield``, so the label reads that case's loop values.
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
            for cases, (ok, label) in enumerate(generate(*args), 1):
                if not ok:
                    failures += 1
                    if len(first_failures) < FIRST_FAILURES:
                        first_failures.append(label())
            return {"check": check, **dict(zip(params, args)), "cases": cases,
                    "failures": failures, "first_failures": first_failures}

        return run

    return decorate
