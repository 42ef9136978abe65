"""The one runner of the named invariant sweeps.

A sweep is a generator that yields its cases, and ``sweep`` turns it into
the function that runs it and returns the report.  It yields them in
blocks ``(rows, label)``: ``rows`` is a list of ``(got, want)`` lists, all
of one width, and case j of row t holds where got[j] equals want[j].  A
block counts len(rows) * width cases (none if it has no rows).  The runner
compares each row in one list ``!=``, which tests ``is`` before
``__eq__``, and only in a row that differs finds the failing cases, j-major
and t-minor across the rows that differ: the order of a loop over j that
checks each row in turn.  label(j, t) names case j of row t.  The runner
calls a label only for the first FIRST_FAILURES failures, while the
generator is paused at the ``yield`` that carried it, so a label reads the
loop values of its block and needs to bind none.  The report names the
generator's positional parameters, read from its code object.
"""

from __future__ import annotations

from functools import wraps

FIRST_FAILURES = 5


def sweep(check: str):
    """Decorator: the report is {"check", *params, "cases", "failures",
    "first_failures"}, where ``params`` are the generator's positional
    parameters, each with its argument."""

    def decorate(generate):
        code = generate.__code__
        params = code.co_varnames[:code.co_argcount]

        @wraps(generate)
        def run(*args) -> dict:
            cases = failures = 0
            first_failures: list[str] = []
            for rows, label in generate(*args):
                width = len(rows[0][0]) if rows else 0
                cases += len(rows) * width
                for got, want in rows:
                    if got != want:  # list != tests "is" before __eq__
                        differ = [(t, got, want) for t, (got, want) in enumerate(rows) if got != want]
                        failed = [(j, t) for j in range(width) for t, got, want in differ
                                  if not (got[j] is want[j] or got[j] == want[j])]
                        failures += len(failed)
                        first_failures += [label(j, t) for j, t in failed[:FIRST_FAILURES - len(first_failures)]]
                        break
            return {"check": check, **dict(zip(params, args)), "cases": cases,
                    "failures": failures, "first_failures": first_failures}

        return run

    return decorate
