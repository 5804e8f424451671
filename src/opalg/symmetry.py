"""Inner automorphisms acting on states: stationarity, implementers, orbits, flows.

Automorphisms of a finite direct sum of matrix blocks are realized as
conjugation by a unitary element U; on canonical coordinates a -> U a U* is
the sum of U_b (x) conj(U_b), and two automorphisms are the same exactly when
these matrices agree (U is only fixed up to a phase, which the group
bookkeeping quotients away but records as a multiplier).  On the GNS carrier
of a stationary state the implementer is closed-form too, the sum of
U_b (x) V_b with V_b = (Theta_b^+ U_b* Theta_b)^T, and
:func:`opalg.gns.intertwining_residual` and :func:`cyclic_vector_certificate`
certify it from the pairs (U_b, V_b).  It exists exactly when the state is
stationary, judged on the pushforward that :func:`stabilizer_orbit` reads too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .algebra import UNITARY_TOL, AlgebraElement, State
from .errors import NumericalError, OpalgError, ShapeMismatchError
from .gns import TRANSITION_TOL, GnsRep, cyclic_vector_residual, intertwining_residual
from .linalg import block_diag, nuclear_norm

STATIONARY_TOL = 1e-10    # dual-norm distance of f and its pushforward
ACTION_TOL = 1e-9         # entrywise distance of two action matrices
CLOSURE_ENTRY_LIMIT = 2 ** 26   # n^3 sum n_b^4: action entries the closure of n elements compares
CLOSURE_ROW_LIMIT = 2 ** 20     # n^2 sum n_b^4: action entries one closure row holds (48 MiB peak)
_NOT_UNITARY = f"defining element is not unitary within {UNITARY_TOL:.0e}"


class InnerAutomorphism:
    """a -> U a U^-1 for a unitary element U of the algebra."""

    def __init__(self, unitary: AlgebraElement):
        if not unitary.is_unitary():
            raise OpalgError(_NOT_UNITARY)
        self.unitary = unitary
        self.algebra = unitary.algebra


def _action_rows(stacks) -> np.ndarray:
    """Row k: the entries of U_b (x) conj(U_b) of the k-th unitaries, block after block."""
    return np.concatenate([(s[:, :, None, :, None] * s.conj()[:, None, :, None, :]).reshape(len(s), -1)
                           for s in stacks], axis=1)


class AutomorphismGroup:
    """Finite list of inner automorphisms, closed under composition and inverse.

    Closure is verified at the level of actions; the scalar mismatch between
    chosen unitary representatives is recorded in the multiplier table.
    """

    def __init__(self, elements: List[InnerAutomorphism]):
        if not elements:
            raise ValueError("group must be non-empty")
        algebra = elements[0].algebra
        if any(e.algebra != algebra for e in elements):
            raise ShapeMismatchError("all automorphisms must act on one algebra")
        n = len(elements)
        row = n ** 2 * sum(m ** 4 for m in algebra.blocks)
        if n * row > CLOSURE_ENTRY_LIMIT:
            raise NumericalError(f"closure of {n} automorphisms of blocks {list(algebra.blocks)} "
                                 f"compares more than {CLOSURE_ENTRY_LIMIT} action entries")
        if row > CLOSURE_ROW_LIMIT:
            raise NumericalError(f"closure of {n} automorphisms of blocks {list(algebra.blocks)} "
                                 f"holds {row} action entries per row, more than "
                                 f"{CLOSURE_ROW_LIMIT}")
        self.algebra = algebra
        self.elements = list(elements)
        self._stacks = [np.stack(mats) for mats in zip(*(e.unitary.mats for e in elements))]
        actions = _action_rows(self._stacks)

        def matches(stacks):    # [j, k]: the j-th unitaries act as listed element k
            return np.all(np.abs(_action_rows(stacks)[:, None] - actions) <= ACTION_TOL, axis=2)
        self.table = np.empty((n, n), dtype=int)
        for i in range(n):    # a row of products against all n actions; each takes its first match
            prods = [s[i] @ s for s in self._stacks]
            unitary = np.all([np.max(np.abs(np.swapaxes(p.conj(), 1, 2) @ p - np.eye(m)), axis=(1, 2))
                              <= UNITARY_TOL * max(1.0, m) for p, m in zip(prods, algebra.blocks)], 0)
            same = matches(prods)
            failed = ~unitary | ~np.any(same, axis=1)
            if np.any(failed):
                j = int(np.argmax(failed))    # the first failing pair in row-major order
                if not unitary[j]:
                    raise OpalgError(_NOT_UNITARY)
                raise ValueError(f"closure fails: product of elements {i} and {j} not in list")
            self.table[i] = np.argmax(same, axis=1)
        unit = matches([np.eye(m, dtype=complex)[None] for m in algebra.blocks])[0]
        if not np.any(unit):
            raise ValueError("group contains no identity automorphism")
        self.identity = int(np.argmax(unit))
        orphans = ~np.any(self.table == self.identity, axis=1)
        if np.any(orphans):
            raise ValueError(f"element {int(np.argmax(orphans))} has no inverse in the list")

    def __len__(self):
        return len(self.elements)

    def multiplier_table(self) -> np.ndarray:
        """Scalars k(g, g') with U_g U_g' = k(g, g') U_{gg'} for the chosen unitaries."""
        num = sum(np.trace(np.swapaxes(s[self.table].conj(), 2, 3) @ (s[:, None] @ s[None, :]),
                           axis1=2, axis2=3) for s in self._stacks)
        return num / sum(self.algebra.blocks)


def pushforwards(f: State, automorphisms) -> tuple:
    """The densities U_b* rho_b U_b of f_rho(a) = f(rho(a)) for each automorphism, as
    computed (no :class:`State` is built), and their :func:`dual_norm_distance` to f."""
    if any(f.algebra != rho.algebra for rho in automorphisms):
        raise ShapeMismatchError("state and automorphism live on different algebras")
    moved = [[u.conj().T @ d @ u for d, u in zip(f.densities, rho.unitary.mats)]
             for rho in automorphisms]
    return moved, [float(sum(nuclear_norm(a - b) for a, b in zip(f.densities, m))) for m in moved]


def stationarity_check(f: State, rho: InnerAutomorphism, tol: float = STATIONARY_TOL) -> bool:
    return pushforwards(f, [rho])[1][0] <= tol


@dataclass
class ImplementerResult:
    moved: list              # the densities U_b* rho_b U_b of the pushforward, as computed
    distance: float          # its dual_norm_distance to the state
    pairs: Optional[list]    # (U_b, V_b) of each block; None when the state is not stationary
    isometry_defect: float
    intertwining_residual: Optional[float] = None

    @property
    def unitary(self) -> Optional[np.ndarray]:
        """The dense W = sum U_b (x) V_b, built on each request."""
        return None if self.pairs is None else block_diag([np.kron(u, v) for u, v in self.pairs])


def unitary_implementer(rep: GnsRep, rho: InnerAutomorphism,
                        tol: float = STATIONARY_TOL) -> ImplementerResult:
    """Unitary on the carrier of ``rep`` with U pi(a) U^-1 = pi(rho(a)) and U theta = theta.

    ``rep`` is the :func:`opalg.gns.gns_construct` data of a state f, and
    ``rho`` must act on the same algebra.  It exists iff f is stationary (the
    :func:`pushforwards` distance of f o rho to f is at most ``tol``), and is
    then the sum of U_b (x) V_b with V_b = (Theta_b^+ U_b* Theta_b)^T, sending
    vec(x Theta_b) to vec(U_b x U_b* Theta_b).  The result keeps the
    pushforward, its distance, the isometry defect max |U_b* rho~_b U_b -
    rho~_b| (rho~_b = Theta_b Theta_b*, the density above the rank cut) that
    bounds :func:`cyclic_vector_certificate`, and the pairs (U_b, V_b), which
    give the certificates, and the dense unitary when ``.unitary`` is read.
    """
    [moved], [distance] = pushforwards(rep.state, [rho])
    kept = [t @ t.conj().T for t in rep.factors]
    defect = max(float(np.abs(u.conj().T @ d @ u - d).max())
                 for u, d in zip(rho.unitary.mats, kept))
    if distance > tol:
        return ImplementerResult(moved, distance, pairs=None, isometry_defect=defect)
    pairs = [(u, (t_inv @ u.conj().T @ t).T)
             for u, t, t_inv in zip(rho.unitary.mats, rep.factors, rep.inverses)]
    cyclic_vector_certificate(pairs, rep.factors, defect)
    return ImplementerResult(moved, distance, pairs=pairs, isometry_defect=defect,
                             intertwining_residual=intertwining_residual(pairs))


def cyclic_vector_certificate(pairs, thetas, defect: float) -> float:
    """max |W theta - theta| for W = sum U_b (x) V_b, raising past what ``defect`` allows.

    With V_b^T = Theta_b^+ U_b* Theta_b the residual U_b Theta_b V_b^T -
    Theta_b is -U_b Q_b U_b* Theta_b, Q_b the projector off the range of
    Theta_b, and Q_b U_b* Theta_b Theta_b* U_b = Q_b D_b for the isometry
    defect D_b = U_b* rho~_b U_b - rho~_b.  So the residual is at most
    |D_b|_op / sigma_min(Theta_b) <= n_b * defect / sigma_min(Theta_b): a
    state within the stationarity tolerance but not exactly stationary may
    leave W theta that far from theta.  A residual past that bound plus
    ``gns.TRANSITION_TOL`` means W was built wrong and raises
    :class:`NumericalError`.  The columns of Theta_b are orthogonal, so
    sigma_min is their smallest norm.
    """
    fixed = cyclic_vector_residual(pairs, thetas)
    allowed = max((len(t) / float(np.min(np.linalg.norm(t, axis=0)))
                   for t in thetas if t.size), default=0.0) * defect
    if fixed > TRANSITION_TOL + allowed:
        raise NumericalError(f"implementer does not fix the cyclic vector ({fixed:.3e})")
    return fixed


@dataclass
class OrbitReport:
    stabilizer_size: int
    orbit_size: int
    group_order: int
    orbit_states: list    # the densities of each orbit state, block by block


def stabilizer_orbit(moved: list, distances: list, tol: float = STATIONARY_TOL) -> OrbitReport:
    """Stabilizer H = {g : f stationary}, orbit of pushforward states, |orbit| = |G|/|H|.

    ``moved`` and ``distances`` are :func:`pushforwards` of f by the group's
    elements, in the group's order.  g fixes f when its distance is at most
    ``tol``, and orbit states within ``tol`` of each other count as one: a
    single threshold keeps the two counts consistent with the orbit law.  The
    orbit densities are kept as one stack per block, so a pushforward meets
    all orbit states found so far in one stacked SVD per block; the distances
    are :func:`dual_norm_distance` bit for bit.
    """
    orbit: list = []
    stacks = [np.empty((len(moved),) + d.shape, dtype=complex) for d in moved[0]]
    for dens in moved:
        k = len(orbit)
        apart = sum(np.sum(np.linalg.svd(d - s[:k], compute_uv=False), axis=1)
                    for d, s in zip(dens, stacks))
        if np.all(apart > tol):
            for d, s in zip(dens, stacks):
                s[k] = d
            orbit.append(dens)
    report = OrbitReport(
        stabilizer_size=sum(distance <= tol for distance in distances),
        orbit_size=len(orbit),
        group_order=len(moved),
        orbit_states=orbit,
    )
    if report.orbit_size * report.stabilizer_size != report.group_order:
        raise OpalgError(
            f"orbit law violated: {report.orbit_size} * {report.stabilizer_size} "
            f"!= {report.group_order}"
        )
    return report


def one_parameter_flow(b: AlgebraElement, t: float, a: AlgebraElement) -> AlgebraElement:
    """G_t(a) = exp(-itb) a exp(itb) for Hermitian b, via blockwise eigendecomposition.

    The derivative at t = 0 is -i[b, a].
    """
    if not b.is_hermitian():
        raise OpalgError("flow generator must be Hermitian")
    if a.algebra != b.algebra:
        raise ShapeMismatchError("flow generator and argument live on different algebras")
    out = []
    for bm, am in zip(b.mats, a.mats):
        lam, vec = np.linalg.eigh(bm)
        phases = np.exp(-1j * t * lam)
        u = (vec * phases[None, :]) @ vec.conj().T
        out.append(u @ am @ u.conj().T)
    return a.algebra.element(out)
