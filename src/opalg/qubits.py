"""Infinite product states of a qubit chain and their equivalence series.

A configuration assigns a unit vector in C^2 to every site s = 1, 2, ...;
two product states are equivalent exactly when the overlap-defect series
sum_s | |<sigma(s)|sigma'(s)>| - 1 | converges.  Tails are declared, not
truncated: a power tail places the site vector at angle c * s^-p from the
first basis vector, and all verdicts are argued against the declared models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .algebra import StarAlgebra, State
from .errors import ShapeMismatchError
from .series import SeriesVerdict, p_series_verdict

PARTIAL_SUM_WINDOW = 10_000
UNIT_TOL = 1e-12          # unit norms, and same rays: | |<v, w>| - 1 | at most this
MARGINAL_SITE_CAP = 8     # finite_marginal_state builds M_{2^k} for k up to this


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


class QubitConfig:
    """Site map sigma: {1, 2, ...} -> unit vectors in C^2."""

    def __init__(self, default=(1.0, 0.0), overrides: Optional[Dict[int, np.ndarray]] = None,
                 tail: Optional[PowerTail] = None):
        default = np.asarray(default, dtype=complex)
        if default.shape != (2,):
            raise ShapeMismatchError("default vector must live in C^2")
        norm = np.linalg.norm(default)
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"default vector must have unit norm within {UNIT_TOL:.0e}")
        self.default = default
        self.tail = tail
        clean: Dict[int, np.ndarray] = {}
        for site, vec in (overrides or {}).items():
            site = int(site)
            if site < 1:
                raise ValueError("sites are positive integers")
            vec = np.asarray(vec, dtype=complex)
            if vec.shape != (2,) or abs(np.linalg.norm(vec) - 1.0) > UNIT_TOL:
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

    def vectors_on(self, sites: np.ndarray) -> np.ndarray:
        """(len(sites), 2) array of site vectors, overrides applied."""
        if self.tail is not None:
            a = self.tail.angles(sites)
            vecs = np.stack([np.cos(a), np.sin(a)], axis=1).astype(complex)
        else:
            vecs = np.tile(self.default, (len(sites), 1))
        for site, vec in self.overrides.items():
            vecs[sites == site] = vec
        return vecs

    def asymptotic(self):
        """('power', c, p) under a tail model, else ('const', default vector)."""
        if self.tail is not None:
            return ("power", self.tail.c, self.tail.p)
        return ("const", self.default)


def overlap_defect(sigma: QubitConfig, sigma2: QubitConfig, site: int) -> float:
    """| |<sigma(s)|sigma'(s)>| - 1 |, in [0, 1]."""
    v = sigma.vector_at(site)
    w = sigma2.vector_at(site)
    return abs(abs(np.vdot(v, w)) - 1.0)


def _partial_sum(sigma, sigma2) -> float:
    sites = np.arange(1, PARTIAL_SUM_WINDOW + 1)
    v = sigma.vectors_on(sites)
    w = sigma2.vectors_on(sites)
    overlaps = np.abs(np.sum(np.conj(v) * w, axis=1))
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


def finite_marginal_state(sigma: QubitConfig, sites):
    """Pure product state on the 2^k-dimensional local algebra over ``sites``."""
    sites = [int(s) for s in sites]
    if len(sites) > MARGINAL_SITE_CAP:
        raise ShapeMismatchError(f"marginal over {len(sites)} sites exceeds cap {MARGINAL_SITE_CAP}")
    if len(sites) != len(set(sites)):
        raise ValueError("sites must be distinct")
    vec = np.array([1.0 + 0.0j])
    for s in sites:
        vec = np.kron(vec, sigma.vector_at(s))
    algebra = StarAlgebra([2 ** len(sites)])
    return algebra, State.pure(algebra, 0, vec)


@dataclass
class LocalTransition:
    """Local unitary witness b = tensor of one-site unitaries over the support."""

    sites: tuple
    element: object  # AlgebraElement on the local algebra over `sites`
    algebra: StarAlgebra


def local_transition_element(sigma: QubitConfig, sigma2: QubitConfig):
    """Unitary b on the difference support with f_sigma'(a) = f_sigma(b* a b).

    Returns None when the configurations differ on an infinite set (their
    asymptotic models disagree).
    """
    from .linalg import two_vector_unitary

    a = sigma.asymptotic()
    b = sigma2.asymptotic()
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
    algebra = StarAlgebra([2 ** len(support)]) if support else StarAlgebra([1])
    if not support:
        return LocalTransition((), algebra.identity(), algebra)
    mat = np.array([[1.0 + 0.0j]])
    for s in support:
        mat = np.kron(mat, two_vector_unitary(sigma.vector_at(s), sigma2.vector_at(s)))
    return LocalTransition(tuple(support), algebra.element([mat]), algebra)
