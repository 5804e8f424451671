"""GNS construction and the equivalence / purity criteria it supports.

A state f on A = M_{n_1} + ... + M_{n_k} is a density rho_b per block, and the
structure theorem for finite-dimensional C*-algebras makes its cyclic
representation closed-form in their eigendecompositions.  Keep the
eigenvalues of rho_b above the rank cut, r_b of them, and set
Theta_b = V_b sqrt(Lambda_b) (n_b x r_b, kept eigenpairs only).  Then:

* the carrier is the sum of C^{n_b} (x) C^{r_b}, of dimension sum n_b r_b
  (the rank of the Gram matrix f(b* a)), and pi(a) = sum a_b (x) I_{r_b};
* the cyclic vector is the sum of vec(Theta_b), so <theta, pi(a) theta> =
  sum trace(rho_b a_b), and pi(x) theta = vec(x_b Theta_b) blockwise;
* the commutant is the sum of I_{n_b} (x) M_{r_b}, of dimension sum r_b^2,
  so f is pure iff exactly one r_b is 1 and the rest are 0;
* two states with equal kernels are equivalent iff their rank vectors agree.
  Their representations are then the same matrices, the identity intertwines
  them, and b = Theta_g Theta_f^+ blockwise carries f to g.

Vectors of C^n (x) C^r are stored row-major, so vec(a X) = (a (x) I) vec(X).
Certificates are recomputed rather than read off the closed form.  Every
intertwiner certified here (the identity, the implementers of :mod:`opalg.symmetry`)
is W = sum U_b (x) V_b, and :func:`intertwining_residual` checks W pi(a) W* =
pi(U a U*) over all matrix units from the factors (U_b, V_b) without forming W,
and :func:`cyclic_vector_residual` checks W theta = theta from the same factors;
every transition is checked by :func:`opalg.algebra.transport_residual`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import AlgebraElement, StarAlgebra, State, transport_residual
from .errors import InvalidStateError, NumericalError, OpalgError, ShapeMismatchError
from .linalg import (GRAM_REL_CUT, PSD_TOL, block_diag, fix_global_phase, fix_phases, hermitize,
                     two_vector_unitary)

KERNEL_TOL = 1e-9         # blocks of trace at most this lie in the representation kernel
TRANSITION_TOL = 1e-8     # transition and pure-unitary certificates raise past this


@dataclass
class GnsRep:
    """Cyclic representation data produced by :func:`gns_construct`."""

    algebra: StarAlgebra
    factors: tuple                  # Theta_b (n_b x r_b): Theta_b Theta_b* = rho_b above the cut
    vanished_blocks: tuple          # block indices entirely inside the kernel

    @property
    def ranks(self) -> tuple:
        """Multiplicity r_b of block b in the representation."""
        return tuple(t.shape[1] for t in self.factors)

    @property
    def kernel_labels(self) -> tuple:
        """Labels of the matrix units with pi(e) = 0: those of the blocks with r_b = 0."""
        ranks = self.ranks
        labels = zip(self.algebra.basis_labels(), self.algebra.basis_triples())
        return tuple(label for label, (b, _, _) in labels if ranks[b] == 0)

    @property
    def commutant_dim(self) -> int:
        """Dimension sum r_b^2 of the commutant, without building :func:`commutant_basis`."""
        return sum(r * r for r in self.ranks)

    @property
    def carrier_dim(self) -> int:
        return sum(n * r for n, r in zip(self.algebra.blocks, self.ranks))

    @property
    def gram_rank(self) -> int:
        """Rank of the Gram matrix f(e_j* e_i); it equals the carrier dimension."""
        return self.carrier_dim

    @cached_property
    def cyclic_vector(self) -> np.ndarray:
        return np.concatenate([t.reshape(-1) for t in self.factors])

    def represent(self, a: AlgebraElement) -> np.ndarray:
        if a.algebra != self.algebra:
            raise ShapeMismatchError("element does not belong to the represented algebra")
        return block_diag([np.kron(m, np.eye(r)) for m, r in zip(a.mats, self.ranks)])

    def vector_state_values(self) -> np.ndarray:
        """<theta, pi(E_ij) theta> = (conj(Theta_b) Theta_b^T)_ij over the canonical basis."""
        return np.concatenate([(t.conj() @ t.T).reshape(-1) for t in self.factors])

    def reconstructed_state(self) -> State:
        """Rebuild the state from (pi, theta): its densities are Theta_b Theta_b*."""
        return State(self.algebra, [t @ t.conj().T for t in self.factors])


def gns_construct(algebra: StarAlgebra, f: State) -> GnsRep:
    """Run the GNS construction for a state on a finite-dimensional *-algebra.

    The Gram matrix f(e_j* e_i) restricted to block b is I (x) rho_b^T, so its
    spectrum is that of the densities: eigenvalues below
    ``-dim * PSD_TOL * max(top, 1)`` raise :class:`InvalidStateError`, and those
    at most ``dim * GRAM_REL_CUT * top`` count as null directions.
    """
    if f.algebra != algebra:
        raise ShapeMismatchError("state does not live on the given algebra")
    spectra = [np.linalg.eigh(hermitize(d)) for d in f.densities]
    top = max(float(lam[-1]) for lam, _ in spectra)
    low = min(float(lam[0]) for lam, _ in spectra)
    if low < -algebra.dim * PSD_TOL * max(top, 1.0):
        raise InvalidStateError(f"Gram matrix has negative eigenvalue {low:.3e} beyond tolerance")
    cut = algebra.dim * GRAM_REL_CUT * max(top, 0.0)
    factors = []
    for lam, vec in spectra:
        keep = lam > cut
        factors.append(fix_phases(vec[:, keep][:, ::-1]) * np.sqrt(lam[keep][::-1])[None, :])
    if not any(t.shape[1] for t in factors):
        raise NumericalError("state Gram has rank zero")
    vanished = tuple(
        b for b, n in enumerate(algebra.blocks)
        if float(np.trace(f.densities[b]).real) <= KERNEL_TOL
    )
    return GnsRep(algebra=algebra, factors=tuple(factors), vanished_blocks=vanished)


def commutant_basis(rep: GnsRep) -> list:
    """Basis of pi(A)': I_{n_b} (x) E_pq on each carrier block; the identity lies in its span."""
    out = []
    off = 0
    for n, r in zip(rep.algebra.blocks, rep.ranks):
        for p in range(r):
            for q in range(r):
                unit = np.zeros((r, r))
                unit[p, q] = 1.0
                m = np.zeros((rep.carrier_dim, rep.carrier_dim), dtype=complex)
                m[off:off + n * r, off:off + n * r] = np.kron(np.eye(n), unit)
                out.append(m)
        off += n * r
    return out


def purity_check(algebra: StarAlgebra, f: State) -> str:
    """'pure' iff the GNS commutant is one-dimensional, else 'mixed'."""
    return "pure" if gns_construct(algebra, f).commutant_dim == 1 else "mixed"


@dataclass
class EquivalenceReport:
    """Outcome of equivalence_check, with certificates where they exist."""

    verdict: str                                   # equal | equivalent | inequivalent | undecided
    kernel_first: tuple
    kernel_second: tuple
    intertwiner: Optional[np.ndarray] = None
    intertwiner_residual: Optional[float] = None
    transition: Optional[tuple] = None             # (b, b') with f'(a)=f(b*ab), f(a)=f'(b'*ab')
    transition_residual: Optional[float] = None    # max_k |f'(e_k) - f(b*e_k b)|, and back
    unitary: Optional[AlgebraElement] = None
    note: str = ""
    carrier_dims: tuple = field(default=())

    @property
    def equivalent(self) -> bool:
        return self.verdict in ("equal", "equivalent")


def intertwining_residual(factors) -> float:
    """max |W pi(E_ij) W* - pi(U E_ij U*)| over matrix units, for W = sum U_b (x) V_b.

    ``factors`` holds the pair (U_b, V_b) of each block, V_b of order r_b.  On
    carrier block b, pi(E_ij) = E_ij (x) I_{r_b}, so the difference is
    (U_b E_ij U_b*) (x) (V_b V_b* - I), whose largest entry over all i, j is
    (max |U_b|)^2 max |V_b V_b* - I|: O(sum n_b^2 + r_b^3), and blocks with
    r_b = 0 carry nothing.
    """
    worst = 0.0
    for u, v in factors:
        if len(v):
            defect = float(np.max(np.abs(v @ v.conj().T - np.eye(len(v)))))
            worst = max(worst, float(np.max(np.abs(u))) ** 2 * defect)
    return worst


def cyclic_vector_residual(factors, thetas) -> float:
    """max |W theta - theta| for W = sum U_b (x) V_b and theta = sum vec(Theta_b).

    The intertwining identity holds for U_b (x) V' with any unitary V'; this
    identity pins V_b.  Row-major, (U_b (x) V_b) vec(Theta_b) = vec(U_b Theta_b
    V_b^T), so the defect is max_b |U_b Theta_b V_b^T - Theta_b|:
    O(sum n_b^2 r_b + n_b r_b^2).
    """
    worst = 0.0
    for (u, v), t in zip(factors, thetas):
        if t.size:
            worst = max(worst, float(np.max(np.abs(u @ t @ v.T - t))))
    return worst


def equivalence_check(algebra: StarAlgebra, f: State, g: State) -> EquivalenceReport:
    """Decide whether two states generate equivalent cyclic representations.

    States within 1e-12 are one state, and I is certified on pi_f alone,
    whatever the rank cut made of either.  Other pairs compare kernels
    (vanishing blocks) first, then carrier dimensions, then the rank vectors
    (the multiplicity of each block).  Equal rank vectors give the same
    representation matrices, so the identity is the intertwiner; its residual
    and the transition elements are verified.
    """
    rep_f = gns_construct(algebra, f)
    rep_g = gns_construct(algebra, g)
    kernels = (rep_f.vanished_blocks, rep_g.vanished_blocks)
    dims = (rep_f.carrier_dim, rep_g.carrier_dim)

    def inequivalent(note):
        return EquivalenceReport(verdict="inequivalent", kernel_first=kernels[0],
                                 kernel_second=kernels[1], note=note, carrier_dims=dims)

    equal_states = all(np.max(np.abs(a - b)) <= 1e-12 for a, b in zip(f.densities, g.densities))
    if not equal_states:
        if kernels[0] != kernels[1]:
            return inequivalent("representation kernels differ")
        if dims[0] != dims[1]:
            return inequivalent("equal kernels but different carrier dimensions "
                                f"{dims[0]} != {dims[1]} (different multiplicities)")
        if rep_f.ranks != rep_g.ranks:
            return inequivalent("equal kernels and carrier dimensions but different "
                                f"multiplicities {list(rep_f.ranks)} != {list(rep_g.ranks)}")

    report = EquivalenceReport(
        verdict="equal" if equal_states else "equivalent",
        kernel_first=kernels[0],
        kernel_second=kernels[1],
        intertwiner=np.eye(rep_f.carrier_dim, dtype=complex),
        intertwiner_residual=intertwining_residual(
            [(np.eye(n), np.eye(r)) for n, r in zip(algebra.blocks, rep_f.ranks)]),
        carrier_dims=dims,
    )
    if equal_states:
        report.transition = (algebra.identity(), algebra.identity())
    else:
        # pi_f(b) theta_f = vec(b Theta_f) = theta_g for b = Theta_g Theta_f^+, and back
        report.transition = tuple(
            algebra.element([tg @ np.linalg.pinv(tf) for tf, tg in zip(src.factors, dst.factors)])
            for src, dst in ((rep_f, rep_g), (rep_g, rep_f)))
    b, b_back = report.transition
    worst = max(transport_residual(f, g, b), transport_residual(g, f, b_back))
    if worst > TRANSITION_TOL:
        raise NumericalError(f"transition elements failed verification ({worst:.3e})")
    report.transition_residual = worst
    if rep_f.commutant_dim == rep_g.commutant_dim == 1:    # pure states only
        report.unitary = pure_unitary_intertwiner(algebra, f, g)
    return report


def transition_elements(algebra: StarAlgebra, f: State, g: State):
    """Elements (b, b') with f'(a) = f(b*ab) and f(a) = f'(b'*ab'), or None."""
    report = equivalence_check(algebra, f, g)
    return report.transition if report.equivalent else None


def pure_unitary_intertwiner(algebra: StarAlgebra, f: State, g: State):
    """Unitary U in A with g(a) = f(U* a U) for equivalent pure states.

    Raises on mixed input, judged by the rank vectors of :func:`gns_construct`
    (the rule behind :func:`purity_check`); returns None when the pure states
    are inequivalent.  The U(1) phase family is pinned by making the first
    nonzero column entry real positive.
    """
    ranks_f = gns_construct(algebra, f).ranks
    ranks_g = gns_construct(algebra, g).ranks
    if sum(ranks_f) != 1 or sum(ranks_g) != 1:      # one block of rank one each
        raise OpalgError("pure_unitary_intertwiner requires pure states")
    block_f = ranks_f.index(1)
    block_g = ranks_g.index(1)
    if block_f != block_g:
        return None  # different kernels: inequivalent
    vec_f = _support_vector(f.densities[block_f])
    vec_g = _support_vector(g.densities[block_g])
    u_block = fix_global_phase(two_vector_unitary(vec_f, vec_g))
    mats = [np.eye(m, dtype=complex) for m in algebra.blocks]
    mats[block_f] = u_block
    u = algebra.element(mats)
    worst = transport_residual(f, g, u)
    if worst > TRANSITION_TOL:
        raise NumericalError(f"unitary intertwiner failed verification ({worst:.3e})")
    return u


def _support_vector(density: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(density)
    v = vec[:, -1]
    idx = int(np.argmax(np.abs(v)))
    return v * (abs(v[idx]) / v[idx])


def superselection_operator(reps, weights) -> np.ndarray:
    """Block-scalar operator r_k * I on the k-th summand of the Hilbert sum.

    Commutes with the summed representation and multiplies each embedded
    cyclic vector by its weight, so distinct weights label the sectors.
    """
    reps = list(reps)
    weights = [float(w) for w in weights]
    if len(reps) != len(weights):
        raise ShapeMismatchError("one weight per representation required")
    if any(r.algebra != reps[0].algebra for r in reps):
        raise ShapeMismatchError("summands must represent the same algebra")
    return block_diag([w * np.eye(r.carrier_dim) for r, w in zip(reps, weights)])
