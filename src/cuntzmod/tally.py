"""Case bookkeeping shared by the named invariant sweeps."""

from __future__ import annotations

from typing import Callable

FIRST_FAILURES = 5


class Tally:
    """Counts a sweep's cases and failures and keeps the labels of the
    first few failures.  A label is built only when its case fails."""

    __slots__ = ("cases", "failures", "first_failures")

    def __init__(self):
        self.cases = 0
        self.failures = 0
        self.first_failures: list[str] = []

    def check(self, ok: bool, label: Callable[[], str]) -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            if len(self.first_failures) < FIRST_FAILURES:
                self.first_failures.append(label())

    def report(self, check: str, **params) -> dict:
        """The sweep report: name, parameters, then the counts."""
        return {
            "check": check,
            **params,
            "cases": self.cases,
            "failures": self.failures,
            "first_failures": self.first_failures,
        }
