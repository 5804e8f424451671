"""Verdicts for infinite series decided by analytic tail comparison.

Numeric partial sums are diagnostics only; a convergent/divergent verdict is
issued exactly when a declared tail model licenses a comparison argument
(p-series, non-vanishing terms, finite support).  Anything else stays
undecided.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SeriesVerdict:
    verdict: str          # convergent | divergent | undecided
    partial_sum: float
    window: int
    justification: str


def p_series_verdict(exponent: float, partial_sum: float, window: int, label: str) -> SeriesVerdict:
    """Terms ~ C * s^-exponent: convergent iff exponent > 1."""
    if exponent > 1.0:
        return SeriesVerdict(
            "convergent", partial_sum, window,
            f"{label}: p-series comparison with exponent {exponent:g} > 1",
        )
    return SeriesVerdict(
        "divergent", partial_sum, window,
        f"{label}: p-series comparison with exponent {exponent:g} <= 1",
    )
