"""Summary statistics shared by every workload: the per-run throughput
median, the op latency median and the tail rule."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int
    beyond: int

    @property
    def enough(self) -> bool:
        """False when fewer than ten samples lie beyond the percentile."""
        return self.beyond >= TAIL_MIN_BEYOND


def tail(samples, permille: int) -> Tail:
    """The nearest-rank percentile ``permille / 10`` of ``samples``, with the
    number of samples beyond it; ``enough`` flags fewer than ten."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    rank = max(1, -(-permille * n // 1000))
    return Tail(ordered[rank - 1], permille / 10, n, n - rank)


@dataclass
class RoundResult:
    """One round of ops: CPU-clock start and time inside each op, checked
    cases, failed ops."""

    op_starts: list[float]
    op_seconds: list[float]
    cases: int
    failed: int

    def nominal(self, calibration) -> "RoundResult":
        """The same round with op times in nominal seconds."""
        seconds = [calibration.nominal(s, d) for s, d in zip(self.op_starts, self.op_seconds)]
        return RoundResult(self.op_starts, seconds, self.cases, self.failed)

    @property
    def throughput(self) -> float:
        return self.cases / sum(self.op_seconds)


def summarise(rounds: list[RoundResult], tail_permille: int) -> dict:
    """End-to-end figures of one run, except set-up time and memory."""
    latencies = [s for r in rounds for s in r.op_seconds]
    attempted = len(latencies)
    failed = sum(r.failed for r in rounds)
    t = tail(latencies, tail_permille)
    return {
        "ops_per_s": statistics.median(r.throughput for r in rounds),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": t.value * 1e3,
        "tail": {"percentile": t.percentile, "samples": t.samples, "beyond": t.beyond, "enough": t.enough},
        "percentiles_ms": {f"p{p / 10:g}": tail(latencies, p).value * 1e3 for p in (500, 750, 900, 950, 990)},
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "success_rate": (attempted - failed) / attempted,
    }
