"""Infinite product states of a qubit chain and their equivalence series.

A configuration assigns a unit vector in C^2 to every site s = 1, 2, ...;
two product states are equivalent exactly when the overlap-defect series
sum_s | |<sigma(s)|sigma'(s)>| - 1 | converges.  Tails are declared, not
truncated: a power tail places the site vector at angle c * s^-p from the
first basis vector, and all verdicts are argued against the declared models.
A finite difference is witnessed by b = tensor u_s, and b is checked on the
pure marginals from their 2^k-entry product vectors, never as a dense matrix.
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

    def window_vectors(self, count: int, tail_window=None) -> np.ndarray:
        """(2, count) array whose column s - 1 is the vector at site s, overrides applied
        to a copy of ``tail_window``, the window of this tail without them, if given."""
        if tail_window is not None:
            vecs = tail_window.copy()
        elif self.tail is not None:
            a = self.tail.angles(np.arange(1, count + 1))
            vecs = np.array([np.cos(a), np.sin(a)], dtype=complex)
        else:
            vecs = np.repeat(self.default[:, None], count, axis=1)
        for site, vec in self.overrides.items():
            if site <= count:
                vecs[:, site - 1] = vec
        return vecs

    def asymptotic(self):
        """('power', c, p) under a tail model, else ('const', default vector)."""
        if self.tail is not None:
            return ("power", self.tail.c, self.tail.p)
        return ("const", self.default)


def _partial_sum(sigma, sigma2) -> float:
    same = sigma.tail is not None and sigma.tail == sigma2.tail    # windows depend on (c, p) only
    shared = QubitConfig(tail=sigma.tail).window_vectors(PARTIAL_SUM_WINDOW) if same else None
    v = sigma.window_vectors(PARTIAL_SUM_WINDOW, shared)
    w = sigma2.window_vectors(PARTIAL_SUM_WINDOW, shared)
    overlaps = np.abs(np.conj(v[0]) * w[0] + np.conj(v[1]) * w[1])
    return float(np.sum(np.abs(overlaps - 1.0)))


def _same_ray(v, w) -> bool:
    return abs(abs(np.vdot(v, w)) - 1.0) <= UNIT_TOL


def equivalence_verdict(sigma: QubitConfig, sigma2: QubitConfig) -> SeriesVerdict:
    """Decide the overlap-defect series by comparing declared tail models.

    Finite-support differences converge; matching power tails reduce to a
    p-series in the squared angle difference; a constant asymptotic vector off
    the e_1 ray against a power tail leaves a non-vanishing defect.  Constant
    against constant on different rays carries no tail model and stays
    undecided (the partial sum is still reported).
    """
    partial = _partial_sum(sigma, sigma2)
    a = sigma.asymptotic()
    b = sigma2.asymptotic()

    def finite_support() -> SeriesVerdict:
        return SeriesVerdict(
            "convergent", partial, PARTIAL_SUM_WINDOW,
            "configurations differ on a finite set of sites",
        )

    if a[0] == "const" and b[0] == "const":
        if _same_ray(a[1], b[1]):
            return finite_support()
        return SeriesVerdict(
            "undecided", partial, PARTIAL_SUM_WINDOW,
            "incompatible default vectors with no tail model; numeric window only",
        )

    # normalize: treat a constant e_1-ray default as the zero-angle power tail
    def as_power(desc):
        if desc[0] == "power":
            return desc[1], desc[2]
        if _same_ray(desc[1], np.array([1.0, 0.0], dtype=complex)):
            return 0.0, None  # angle identically zero
        return None

    pa = as_power(a)
    pb = as_power(b)
    if pa is None or pb is None:
        return SeriesVerdict(
            "divergent", partial, PARTIAL_SUM_WINDOW,
            "defect tends to a positive constant (asymptotic rays differ)",
        )

    ca, ea = pa
    cb, eb = pb
    # angle difference delta_s; defect ~ delta_s^2 / 2
    if ca == 0.0 and cb == 0.0:
        return finite_support()
    if ea is not None and eb is not None and ea == eb:
        if ca == cb:
            return finite_support()
        return p_series_verdict(2.0 * ea, partial, PARTIAL_SUM_WINDOW,
                                f"defect ~ ((c-c') s^-p)^2/2 with p={ea:g}")
    exponents = [e for c, e in ((ca, ea), (cb, eb)) if c != 0.0 and e is not None]
    lead = min(exponents)
    return p_series_verdict(2.0 * lead, partial, PARTIAL_SUM_WINDOW,
                            f"defect ~ alpha_s^2/2 with leading angle exponent {lead:g}")


@dataclass
class LocalTransition:
    """Local unitary witness b = tensor of the one-site unitaries u_s over the support."""

    sites: tuple
    unitaries: tuple   # u_s for each site of ``sites``, with u_s sigma(s) = sigma'(s)


def local_transition_element(sigma: QubitConfig, sigma2: QubitConfig):
    """The witness b on the difference support, with f_sigma'(a) = f_sigma(b* a b).

    Returns None when the configurations differ on an infinite set (their
    asymptotic models disagree).
    """
    a, b = sigma.asymptotic(), sigma2.asymptotic()
    same_model = (
        a[0] == b[0]
        and ((a[0] == "power" and a[1:] == b[1:]) or (a[0] == "const" and _same_ray(a[1], b[1])))
    )
    if not same_model:
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
