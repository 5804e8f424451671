"""Infinite product states of a qubit chain and their equivalence series.

A configuration assigns a unit vector in C^2 to every site s = 1, 2, ...;
two product states are equivalent exactly when the overlap-defect series
sum_s | |<sigma(s)|sigma'(s)>| - 1 | converges.  Tails are declared, not
truncated: a power tail places the site vector at angle c * s^-p from the
first basis vector, and every verdict is argued from the declared models
alone (``partial_sum`` over the first sites is a diagnostic no verdict reads).
One rule decides whether two configurations differ on a finite set of sites,
for the verdict and for the local transition alike.  A finite difference is
witnessed by b = tensor u_s, and b is checked on the pure marginals from their
2^k-entry product vectors, never as a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import NumericalError, ShapeMismatchError
from .linalg import two_vector_unitary
from .series import SeriesVerdict, p_series_verdict

PARTIAL_SUM_WINDOW = 10_000
UNIT_TOL = 1e-12          # unit norms, and same rays: | |<v, w>| - 1 | at most this
TRANSITION_SITE_CAP = 12  # transition_residual compares 4^k entries for k sites up to this
ROW_BLOCK_ENTRIES = 1 << 16   # entries of w w* - x x* held at once
E1 = np.array([1.0, 0.0], dtype=complex)   # the ray of a tail with amplitude c = 0


@dataclass(frozen=True)
class PowerTail:
    """Angle model alpha_s = c * s^-p for every non-override site."""

    c: float
    p: float

    def __post_init__(self):
        if not (self.p > 0.0):
            raise ValueError("power tail requires p > 0")

    def angles(self, sites: np.ndarray) -> np.ndarray:
        return self.c * sites.astype(float) ** (-self.p)


def _norm(vec) -> float:
    """The Euclidean norm of ``vec``; inf past double range, which no unit vector reaches."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(vec)


class QubitConfig:
    """Site map sigma: {1, 2, ...} -> unit vectors in C^2."""

    def __init__(self, default=(1.0, 0.0), overrides: Optional[Dict[int, np.ndarray]] = None,
                 tail: Optional[PowerTail] = None):
        default = np.asarray(default, dtype=complex)
        if default.shape != (2,):
            raise ShapeMismatchError("default vector must live in C^2")
        if abs(_norm(default) - 1.0) > UNIT_TOL:
            raise ValueError(f"default vector must have unit norm within {UNIT_TOL:.0e}")
        self.default = default
        self.tail = tail
        clean: Dict[int, np.ndarray] = {}
        for site, vec in (overrides or {}).items():
            site = int(site)
            if site < 1:
                raise ValueError("sites are positive integers")
            vec = np.asarray(vec, dtype=complex)
            if vec.shape != (2,) or abs(_norm(vec) - 1.0) > UNIT_TOL:
                raise ValueError(f"override at site {site} is not a unit vector in C^2")
            clean[site] = vec
        self.overrides = clean

    def vector_at(self, site: int) -> np.ndarray:
        if site in self.overrides:
            return self.overrides[site]
        if self.tail is not None:
            a = self.tail.angles(np.array([site]))[0]
            return np.array([np.cos(a), np.sin(a)], dtype=complex)
        return self.default

    def window_vectors(self, count: int) -> np.ndarray:
        """(2, count) array whose column s - 1 is the vector at site s."""
        if self.tail is not None:
            a = self.tail.angles(np.arange(1, count + 1))
            vecs = np.array([np.cos(a), np.sin(a)], dtype=complex)
        else:
            vecs = np.repeat(self.default[:, None], count, axis=1)
        for site, vec in self.overrides.items():
            if site <= count:
                vecs[:, site - 1] = vec
        return vecs


def _overlaps(v, w) -> np.ndarray:
    return np.abs(np.conj(v[0]) * w[0] + np.conj(v[1]) * w[1])


def partial_sum(sigma, sigma2) -> float:
    """sum_s | |<sigma(s)|sigma'(s)>| - 1 | over the first ``PARTIAL_SUM_WINDOW`` sites: a
    diagnostic printed beside the verdict, which never reads it."""
    if sigma.tail is None or sigma.tail != sigma2.tail:
        overlaps = _overlaps(sigma.window_vectors(PARTIAL_SUM_WINDOW),
                             sigma2.window_vectors(PARTIAL_SUM_WINDOW))
    else:
        # one real window: off the overrides the complex form's modulus is x*x + y*y, bit for bit
        a = sigma.tail.angles(np.arange(1, PARTIAL_SUM_WINDOW + 1))
        x, y = np.cos(a), np.sin(a)
        overlaps = x * x + y * y
        sites = [s for s in {*sigma.overrides, *sigma2.overrides} if s <= PARTIAL_SUM_WINDOW]
        v, w = (np.array([config.overrides.get(s, (x[s - 1], y[s - 1])) for s in sites],
                         dtype=complex).reshape(-1, 2).T for config in (sigma, sigma2))
        overlaps[np.array(sites, dtype=int) - 1] = _overlaps(v, w)
    return float(np.sum(np.abs(overlaps - 1.0)))


def _same_ray(v, w) -> bool:
    return abs(abs(np.vdot(v, w)) - 1.0) <= UNIT_TOL


def _finite_support(sigma: QubitConfig, sigma2: QubitConfig) -> bool:
    """Whether both configurations hold the same ray on every site past their overrides.

    A tail of amplitude c = 0 is the e_1 ray at every site; any other tail only
    matches the same tail, since its angle c s^-p never vanishes.
    """
    ta, tb = (None if t is None or t.c == 0.0 else t for t in (sigma.tail, sigma2.tail))
    if ta is not None or tb is not None:
        return ta == tb
    rays = (E1 if config.tail is not None else config.default for config in (sigma, sigma2))
    return _same_ray(*rays)


def equivalence_verdict(sigma: QubitConfig, sigma2: QubitConfig) -> SeriesVerdict:
    """Decide the overlap-defect series by comparing declared tail models alone.

    Configurations holding the same ray past their overrides differ on a
    finite set of sites and converge.  Constant against constant on different
    rays carries no tail model and stays undecided; a constant off the e_1 ray
    against a power tail leaves a non-vanishing defect; power tails, or one
    against the e_1 ray, reduce to a p-series in the squared angle difference.
    """
    if _finite_support(sigma, sigma2):
        return SeriesVerdict("convergent", "configurations differ on a finite set of sites")
    ta, tb = sigma.tail, sigma2.tail
    if ta is None and tb is None:
        return SeriesVerdict(
            "undecided", "incompatible default vectors with no tail model; numeric window only",
        )
    if any(config.tail is None and not _same_ray(config.default, E1) for config in (sigma, sigma2)):
        return SeriesVerdict(
            "divergent", "defect tends to a positive constant (asymptotic rays differ)",
        )
    # angle difference delta_s; defect ~ delta_s^2 / 2
    if ta is not None and tb is not None and ta.p == tb.p:
        return p_series_verdict(2.0 * ta.p, f"defect ~ ((c-c') s^-p)^2/2 with p={ta.p:g}")
    lead = min(t.p for t in (ta, tb) if t is not None and t.c != 0.0)
    return p_series_verdict(2.0 * lead,
                            f"defect ~ alpha_s^2/2 with leading angle exponent {lead:g}")


@dataclass
class LocalTransition:
    """Local unitary witness b = tensor of the one-site unitaries u_s over the support."""

    sites: tuple
    unitaries: tuple   # u_s for each site of ``sites``, with u_s sigma(s) = sigma'(s)


def local_transition_element(sigma: QubitConfig, sigma2: QubitConfig):
    """The witness b on the difference support, with f_sigma'(a) = f_sigma(b* a b).

    Returns None when the configurations differ on an infinite set, exactly
    when :func:`equivalence_verdict` does not find a finite support.
    """
    if not _finite_support(sigma, sigma2):
        return None
    support = sorted(
        s for s in set(sigma.overrides) | set(sigma2.overrides)
        if not _same_ray(sigma.vector_at(s), sigma2.vector_at(s))
    )
    unitaries = tuple(two_vector_unitary(sigma.vector_at(s), sigma2.vector_at(s)) for s in support)
    return LocalTransition(tuple(support), unitaries)


def transition_residual(sigma: QubitConfig, sigma2: QubitConfig, transition) -> float:
    """max |rho' - b rho b*| of the two marginals on the support of ``transition``.

    Both are pure: this is max |w w* - x x*| for the 2^k-vectors w = tensor
    sigma'(s) and x = tensor u_s sigma(s), in O(4^k) time and O(2^k) memory,
    a block of rows at a time from the diagonal on (the difference is Hermitian).
    """
    k = len(transition.sites)
    if k > TRANSITION_SITE_CAP:
        raise NumericalError(f"local transition over {k} sites exceeds cap {TRANSITION_SITE_CAP}")
    w = x = np.ones(1, dtype=complex)
    for s, u in zip(transition.sites, transition.unitaries):
        w = np.outer(w, sigma2.vector_at(s)).ravel()
        x = np.outer(x, u @ sigma.vector_at(s)).ravel()
    w_conj, x_conj = w.conj(), x.conj()
    rows = max(1, ROW_BLOCK_ENTRIES // w.size)
    return max(
        float(np.max(np.abs(w[i:i + rows, None] * w_conj[i:] - x[i:i + rows, None] * x_conj[i:])))
        for i in range(0, w.size, rows)
    )
