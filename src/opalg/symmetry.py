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
from functools import reduce
from typing import List, Optional

import numpy as np

from .algebra import UNITARY_TOL, AlgebraElement, State, stack_blocks, unitarity_failures
from .errors import NumericalError, OpalgError, ShapeMismatchError
from .gns import TRANSITION_TOL, GnsRep, cyclic_vector_residual, intertwining_residual
from .linalg import block_diag

STATIONARY_TOL = 1e-10    # dual-norm distance of f and its pushforward
ACTION_TOL = 1e-9         # entrywise distance of two action matrices
CLOSURE_ENTRY_LIMIT = 2 ** 26   # n^3 sum n_b^4: action entries the closure of n elements compares
CLOSURE_ROW_LIMIT = 2 ** 20     # n^2 sum n_b^4: action entries one closure row holds (48 MiB peak)
NOT_UNITARY = f"defining element is not unitary within {UNITARY_TOL:.0e}"


class InnerAutomorphism:
    """a -> U a U^-1 for a unitary element U; ``checked``: U was found unitary already."""

    def __init__(self, unitary: AlgebraElement, checked: bool = False):
        if not (checked or unitary.is_unitary()):
            raise OpalgError(NOT_UNITARY)
        self.unitary = unitary
        self.algebra = unitary.algebra


def _action_rows(stacks) -> np.ndarray:
    """Row k: the entries of U_b (x) conj(U_b) of the k-th unitaries, block after block."""
    return np.concatenate([(s[:, :, None, :, None] * s.conj()[:, None, :, None, :]).reshape(len(s), -1)
                           for s in stacks], axis=1)


class AutomorphismGroup:
    """Finite list of inner automorphisms, closed under composition and inverse.

    Closure is verified at the level of actions; the scalar mismatch between
    chosen unitary representatives is recorded in the multiplier table.  Each
    run of rows i of products U_i U_j holds at most ``CLOSURE_ROW_LIMIT`` / n
    action entries, and at least one row.
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
        self._stacks = stack_blocks([e.unitary for e in elements])
        actions = _action_rows(self._stacks)

        def matches(stacks):    # [j, k]: the j-th unitaries act as listed element k
            return np.all(np.abs(_action_rows(stacks)[:, None] - actions) <= ACTION_TOL, axis=2)
        self.table = np.empty((n, n), dtype=int)
        step = max(1, CLOSURE_ROW_LIMIT // (n * row))
        for i in range(0, n, step):    # each product takes its first match
            prods = [(s[i:i + step, None] @ s).reshape(-1, m, m)
                     for s, m in zip(self._stacks, algebra.blocks)]
            same = matches(prods)
            not_unitary = unitarity_failures(prods)
            failed = not_unitary | ~np.any(same, axis=1)
            if np.any(failed):
                k = int(np.argmax(failed))    # the first failing pair in row-major order
                if not_unitary[k]:
                    raise OpalgError(NOT_UNITARY)
                raise ValueError(f"closure fails: product of elements {i + k // n} and {k % n} "
                                 "not in list")
            self.table[i:i + step] = np.argmax(same, axis=1).reshape(-1, n)
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
    computed (no :class:`State` is built), and their :func:`dual_norm_distance` to f, bit
    for bit: one stacked product and one stacked SVD per block for all of them."""
    if any(f.algebra != rho.algebra for rho in automorphisms):
        raise ShapeMismatchError("state and automorphism live on different algebras")
    stacks = stack_blocks([rho.unitary for rho in automorphisms])
    moved = [s.conj().swapaxes(1, 2) @ d @ s for d, s in zip(f.densities, stacks)]
    distances = sum((np.linalg.svd(d - m, compute_uv=False).sum(axis=1)
                     for d, m in zip(f.densities, moved)), np.zeros(len(automorphisms)))
    return list(zip(*moved)), distances.tolist()


def stationarity_check(f: State, rho: InnerAutomorphism, tol: float = STATIONARY_TOL) -> bool:
    return pushforwards(f, [rho])[1][0] <= tol


@dataclass
class ImplementerResult:
    moved: tuple             # the densities U_b* rho_b U_b of the pushforward, as computed
    distance: float          # its dual_norm_distance to the state
    pairs: Optional[list]    # (U_b, V_b) of each block; None when the state is not stationary
    isometry_defect: float
    intertwining_residual: Optional[float] = None

    @property
    def unitary(self) -> Optional[np.ndarray]:
        """The dense W = sum U_b (x) V_b, built on each request."""
        return None if self.pairs is None else block_diag([np.kron(u, v) for u, v in self.pairs])


def unitary_implementer(rep: GnsRep, automorphisms,
                        tol: float = STATIONARY_TOL) -> List[ImplementerResult]:
    """For each rho of ``automorphisms``: the unitary on the carrier of ``rep`` with
    U pi(a) U^-1 = pi(rho(a)) and U theta = theta.

    ``rep`` is the :func:`opalg.gns.gns_construct` data of a state f, and
    every rho must act on the same algebra.  The unitary exists iff f is
    stationary (the :func:`pushforwards` distance of f o rho to f is at most
    ``tol``), and is then the sum of U_b (x) V_b with V_b = (Theta_b^+ U_b*
    Theta_b)^T, sending vec(x Theta_b) to vec(U_b x U_b* Theta_b).  Each result
    keeps the pushforward, its distance, the isometry defect max |U_b*
    rho~_b U_b - rho~_b| (rho~_b = Theta_b Theta_b*, the density above the
    rank cut) that bounds :func:`cyclic_vector_certificate`, and the pairs
    (U_b, V_b), which give the certificates, and the dense unitary when
    ``.unitary`` is read.  Each quantity is one stacked expression per block.
    """
    moved, distances = pushforwards(rep.state, automorphisms)
    stacks = stack_blocks([rho.unitary for rho in automorphisms])
    kept = [t @ t.conj().T for t in rep.factors]
    defects = reduce(np.maximum, (np.abs(s.conj().swapaxes(1, 2) @ d @ s - d).max(axis=(1, 2))
                                  for s, d in zip(stacks, kept)))
    results = [ImplementerResult(m, d, pairs=None, isometry_defect=e)
               for m, d, e in zip(moved, distances, defects.tolist())]
    held = np.flatnonzero(np.array(distances) <= tol)
    pairs = [(u, (t_inv @ u.conj().swapaxes(1, 2) @ t).swapaxes(1, 2))
             for u, t, t_inv in zip((s[held] for s in stacks), rep.factors, rep.inverses)]
    cyclic_vector_certificate(pairs, rep.factors, defects[held])
    for j, (k, residual) in enumerate(zip(held.tolist(), intertwining_residual(pairs).tolist())):
        results[k].pairs = [(u[j], v[j]) for u, v in pairs]
        results[k].intertwining_residual = residual
    return results


def cyclic_vector_certificate(pairs, thetas, defect):
    """max |W theta - theta| for W = sum U_b (x) V_b, raising past what ``defect`` allows.

    ``pairs`` holds one pair (U_b, V_b), or one stack of them, per block, as
    for :func:`opalg.gns.cyclic_vector_residual`, and ``defect`` the isometry
    defect of each W.  With V_b^T = Theta_b^+ U_b* Theta_b the residual U_b
    Theta_b V_b^T - Theta_b is -U_b Q_b U_b* Theta_b, Q_b the projector off
    the range of Theta_b, and Q_b U_b* Theta_b Theta_b* U_b = Q_b D_b for the
    isometry defect D_b = U_b* rho~_b U_b - rho~_b.  So the residual is at
    most |D_b|_op / sigma_min(Theta_b) <= n_b * defect / sigma_min(Theta_b): a
    state within the stationarity tolerance but not exactly stationary may
    leave W theta that far from theta.  A residual past that bound plus
    ``gns.TRANSITION_TOL`` means W was built wrong and raises
    :class:`NumericalError`, naming the first such W.  The columns of Theta_b
    are orthogonal, so sigma_min is their smallest norm, taken as np.linalg.norm does.
    """
    fixed = cyclic_vector_residual(pairs, thetas)
    allowed = max((len(t) / float(np.sqrt((t.conj() * t).real.sum(axis=0).min()))
                   for t in thetas if t.size), default=0.0) * defect
    failed = np.flatnonzero(fixed > TRANSITION_TOL + allowed)
    if failed.size:
        raise NumericalError(f"implementer does not fix the cyclic vector "
                             f"({np.ravel(fixed)[failed[0]]:.3e})")
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
    for dens in moved:    # the first one starts the orbit without a comparison
        k = len(orbit)
        if k and not np.all(sum(np.sum(np.linalg.svd(d - s[:k], compute_uv=False), axis=1)
                                for d, s in zip(dens, stacks)) > tol):
            continue
        for d, s in zip(dens, stacks):
            s[k] = d
        orbit.append(dens)
    report = OrbitReport(stabilizer_size=sum(distance <= tol for distance in distances),
                         orbit_size=len(orbit), group_order=len(moved), orbit_states=orbit)
    if report.orbit_size * report.stabilizer_size != report.group_order:
        raise OpalgError(f"orbit law violated: {report.orbit_size} * {report.stabilizer_size} "
                         f"!= {report.group_order}")
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
