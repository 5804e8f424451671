"""Verdicts for infinite series decided by analytic tail comparison.

A convergent/divergent verdict is issued exactly when a declared tail model
licenses a comparison argument (p-series, non-vanishing terms, finite
support); anything else stays undecided.  No verdict reads a partial sum.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SeriesVerdict:
    verdict: str          # convergent | divergent | undecided
    justification: str


def p_series_verdict(exponent: float, label: str) -> SeriesVerdict:
    """Terms ~ C * s^-exponent: convergent iff exponent > 1."""
    convergent = exponent > 1.0
    return SeriesVerdict("convergent" if convergent else "divergent",
                         f"{label}: p-series comparison with exponent {exponent:g} "
                         f"{'>' if convergent else '<='} 1")
