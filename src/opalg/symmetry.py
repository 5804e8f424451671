"""Inner automorphisms acting on states: stationarity, implementers, orbits, flows.

Automorphisms of a finite direct sum of matrix blocks are realized as
conjugation by a unitary element U; on canonical coordinates a -> U a U* is
the sum of U_b (x) conj(U_b), and two automorphisms are the same exactly when
these matrices agree (U is only fixed up to a phase, which the group
bookkeeping quotients away but records as a multiplier).  On the GNS carrier
of a stationary state the implementer is closed-form too, the sum of
U_b (x) V_b with V_b = (Theta_b^+ U_b* Theta_b)^T, and
:func:`opalg.gns.intertwining_residual` and :func:`cyclic_vector_certificate`
certify it from the pairs (U_b, V_b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .algebra import UNITARY_TOL, AlgebraElement, State, dual_norm_distance
from .errors import NumericalError, OpalgError, ShapeMismatchError
from .gns import TRANSITION_TOL, cyclic_vector_residual, gns_construct, intertwining_residual
from .linalg import block_diag

STATIONARY_TOL = 1e-10    # dual-norm distance of f and its pushforward
ACTION_TOL = 1e-9         # entrywise distance of two action matrices
ISOMETRY_TOL = 1e-9       # entrywise defect of U_b* rho~_b U_b - rho~_b


class InnerAutomorphism:
    """a -> U a U^-1 for a unitary element U of the algebra."""

    def __init__(self, unitary: AlgebraElement):
        if not unitary.is_unitary():
            raise OpalgError(f"defining element is not unitary within {UNITARY_TOL:.0e}")
        self.unitary = unitary
        self.algebra = unitary.algebra

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        if a.algebra != self.algebra:
            raise ShapeMismatchError("element lives on a different algebra")
        return self.unitary * a * self.unitary.star

    @cached_property
    def action_matrix(self) -> np.ndarray:
        """a -> U a U* on canonical (row-major) coordinates: the sum of U_b (x) conj(U_b)."""
        return block_diag([np.kron(u, u.conj()) for u in self.unitary.mats])

    def same_action(self, other: "InnerAutomorphism") -> bool:
        return bool(np.max(np.abs(self.action_matrix - other.action_matrix)) <= ACTION_TOL)

    def compose(self, other: "InnerAutomorphism") -> "InnerAutomorphism":
        return InnerAutomorphism(self.unitary * other.unitary)

    def inverse(self) -> "InnerAutomorphism":
        return InnerAutomorphism(self.unitary.star)


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
        self.algebra = algebra
        self.elements = list(elements)
        n = len(elements)
        self.table = np.full((n, n), -1, dtype=int)
        for i, gi in enumerate(elements):
            for j, gj in enumerate(elements):
                prod = gi.compose(gj)
                for k, gk in enumerate(elements):
                    if prod.same_action(gk):
                        self.table[i, j] = k
                        break
                else:
                    raise ValueError(f"closure fails: product of elements {i} and {j} not in list")
        unit = InnerAutomorphism(algebra.identity())
        identity = next((k for k, g in enumerate(elements) if g.same_action(unit)), None)
        if identity is None:
            raise ValueError("group contains no identity automorphism")
        self.identity = identity
        for i in range(n):
            if not np.any(self.table[i] == identity):
                raise ValueError(f"element {i} has no inverse in the list")

    def __len__(self):
        return len(self.elements)

    def multiplier_table(self) -> np.ndarray:
        """Scalars k(g, g') with U_g U_g' = k(g, g') U_{gg'} for the chosen unitaries."""
        n = len(self.elements)
        out = np.zeros((n, n), dtype=complex)
        dims = sum(self.algebra.blocks)
        for i in range(n):
            for j in range(n):
                prod = self.elements[i].unitary * self.elements[j].unitary
                ref = self.elements[self.table[i, j]].unitary
                num = sum(np.trace(r.conj().T @ p) for r, p in zip(ref.mats, prod.mats))
                out[i, j] = num / dims
        return out


def pushforward_state(f: State, rho: InnerAutomorphism) -> State:
    """f_rho(a) = f(rho(a)): the density transforms as U* rho_f U blockwise."""
    if f.algebra != rho.algebra:
        raise ShapeMismatchError("state and automorphism live on different algebras")
    dens = [
        u.conj().T @ d @ u
        for d, u in zip(f.densities, rho.unitary.mats)
    ]
    return State(f.algebra, dens)


def stationarity_check(f: State, rho: InnerAutomorphism, tol: float = STATIONARY_TOL) -> bool:
    return dual_norm_distance(f, pushforward_state(f, rho)) <= tol


@dataclass
class ImplementerResult:
    unitary: Optional[np.ndarray]    # None when the defining map is not isometric
    isometry_defect: float
    intertwining_residual: Optional[float] = None


def unitary_implementer(f: State, rho: InnerAutomorphism,
                        tol: float = ISOMETRY_TOL) -> ImplementerResult:
    """Unitary on the GNS carrier with U pi(a) U^-1 = pi(rho(a)) and U theta = theta.

    pi(a) theta -> pi(rho(a)) theta preserves the Gram form iff U_b* rho~_b U_b =
    rho~_b in every block (rho~_b = Theta_b Theta_b*, the density above the rank
    cut, whose entries are at most 1).  Past ``tol`` the state is not stationary
    and no implementer exists; otherwise it is the sum of U_b (x) V_b with
    V_b = (Theta_b^+ U_b* Theta_b)^T, sending vec(x Theta_b) to vec(U_b x U_b* Theta_b).
    The same pairs (U_b, V_b) build the dense unitary and its certificates;
    :func:`cyclic_vector_certificate` checks W theta = theta.
    """
    rep = gns_construct(f.algebra, f)
    kept = [t @ t.conj().T for t in rep.factors]
    defect = max(float(np.max(np.abs(u.conj().T @ d @ u - d)))
                 for u, d in zip(rho.unitary.mats, kept))
    if defect > tol:
        return ImplementerResult(unitary=None, isometry_defect=defect)
    pairs = [(u, (np.linalg.pinv(t) @ u.conj().T @ t).T)
             for u, t in zip(rho.unitary.mats, rep.factors)]
    cyclic_vector_certificate(pairs, rep.factors, defect)
    w = block_diag([np.kron(u, v) for u, v in pairs])
    return ImplementerResult(unitary=w, isometry_defect=defect,
                             intertwining_residual=intertwining_residual(pairs))


def cyclic_vector_certificate(pairs, thetas, defect: float) -> float:
    """max |W theta - theta| for W = sum U_b (x) V_b, raising past what ``defect`` allows.

    With V_b^T = Theta_b^+ U_b* Theta_b the residual U_b Theta_b V_b^T -
    Theta_b is -U_b Q_b U_b* Theta_b, Q_b the projector off the range of
    Theta_b, and Q_b U_b* Theta_b Theta_b* U_b = Q_b D_b for the isometry
    defect D_b = U_b* rho~_b U_b - rho~_b.  So the residual is at most
    |D_b|_op / sigma_min(Theta_b) <= n_b * defect / sigma_min(Theta_b): a
    near-stationary state that passed the isometry test may leave W theta
    that far from theta.  A residual past that bound plus
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
    orbit_states: list

    @property
    def coset_count(self) -> int:
        return self.group_order // self.stabilizer_size


def stabilizer_orbit(f: State, group: AutomorphismGroup,
                     tol: float = STATIONARY_TOL) -> OrbitReport:
    """Stabilizer H = {g : f stationary}, orbit of pushforward states, |orbit| = |G|/|H|.

    g fixes f when the dual-norm distance of f and its pushforward is at most
    ``tol``, and orbit states within ``tol`` of each other count as one: a
    single threshold keeps the two counts consistent with the orbit law.
    """
    if f.algebra != group.algebra:
        raise ShapeMismatchError("state and group live on different algebras")
    stabilizer = 0
    orbit: list = []
    for g in group.elements:
        moved = pushforward_state(f, g)
        if dual_norm_distance(f, moved) <= tol:
            stabilizer += 1
        if all(dual_norm_distance(moved, seen) > tol for seen in orbit):
            orbit.append(moved)
    report = OrbitReport(
        stabilizer_size=stabilizer,
        orbit_size=len(orbit),
        group_order=len(group),
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
