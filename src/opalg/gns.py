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
  so f is pure iff exactly one r_b is 1 and the rest are 0 (``GnsRep.pure``);
* the kernel of pi is the sum of the blocks with r_b = 0
  (``GnsRep.vanished_blocks``), and two states with equal kernels are
  equivalent iff their rank vectors agree.  Their representations are then
  the same matrices, the identity intertwines them, and b = Theta_g Theta_f^+
  blockwise carries f to g.  The columns of Theta_b are orthogonal with
  squared norms Lambda_b, so Theta_b^+ = Lambda_b^-1 Theta_b* needs no SVD.

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
from .errors import NumericalError, OpalgError, ShapeMismatchError
from .linalg import block_diag, cut_spectra, fix_global_phase, two_vector_unitary

TRANSITION_TOL = 1e-8     # default transition tolerance; pure-unitary certificates raise past it
EQUAL_STATES_TOL = 1e-12  # equivalence_check: densities this close entrywise are one state


@dataclass
class GnsRep:
    """Cyclic representation data produced by :func:`gns_construct`."""

    algebra: StarAlgebra
    state: State                    # the state represented
    factors: tuple                  # Theta_b (n_b x r_b): Theta_b Theta_b* = rho_b above the cut
    eigenvalues: tuple              # Lambda_b: the kept eigenvalues of rho_b, largest first

    @property
    def ranks(self) -> tuple:
        """Multiplicity r_b of block b in the representation."""
        return tuple(t.shape[1] for t in self.factors)

    @property
    def vanished_blocks(self) -> tuple:
        """Indices of the blocks entirely inside the kernel: those of multiplicity r_b = 0."""
        return tuple(b for b, r in enumerate(self.ranks) if r == 0)

    @property
    def commutant_dim(self) -> int:
        """Dimension sum r_b^2 of the commutant, without building :func:`commutant_basis`."""
        return sum(r * r for r in self.ranks)

    @property
    def pure(self) -> bool:
        """Whether the commutant is one-dimensional: one block of rank one, the others zero."""
        return self.commutant_dim == 1

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

    @cached_property
    def inverses(self) -> tuple:
        """Theta_b^+ = Lambda_b^-1 Theta_b* of each block (r_b x n_b)."""
        return tuple((1.0 / lam)[:, None] * t.conj().T
                     for t, lam in zip(self.factors, self.eigenvalues))

    def vector_state_values(self) -> np.ndarray:
        """<theta, pi(E_ij) theta> = (conj(Theta_b) Theta_b^T)_ij over the canonical basis."""
        return np.concatenate([(t.conj() @ t.T).reshape(-1) for t in self.factors])


def gns_construct(algebra: StarAlgebra, f: State) -> GnsRep:
    """Run the GNS construction for a state on a finite-dimensional *-algebra.

    The Gram matrix f(e_j* e_i) restricted to block b is I (x) rho_b^T, so its
    spectrum is that of the densities: the ``State.spectra`` taken when f was
    built, cut jointly by :func:`opalg.linalg.cut_spectra` with ``size`` the
    dimension of the algebra.
    """
    if f.algebra != algebra:
        raise ShapeMismatchError("state does not live on the given algebra")
    kept = cut_spectra(f.spectra, algebra.dim)
    factors = tuple(vec * np.sqrt(lam)[None, :] for vec, lam in kept)
    if not any(t.shape[1] for t in factors):
        raise NumericalError("state Gram has rank zero")
    return GnsRep(algebra=algebra, state=f, factors=factors,
                  eigenvalues=tuple(lam for _, lam in kept))


def commutant_basis(rep: GnsRep) -> list:
    """Basis of pi(A)': I_{n_b} (x) E_pq on each carrier block; the identity lies in its span."""
    out = []
    off = 0
    for n, r in zip(rep.algebra.blocks, rep.ranks):
        for unit in np.eye(r * r).reshape(r * r, r, r):    # E_pq, p major
            m = np.zeros((rep.carrier_dim, rep.carrier_dim), dtype=complex)
            m[off:off + n * r, off:off + n * r] = np.kron(np.eye(n), unit)
            out.append(m)
        off += n * r
    return out


def purity_check(algebra: StarAlgebra, f: State) -> str:
    """'pure' iff the GNS commutant is one-dimensional, else 'mixed'."""
    return "pure" if gns_construct(algebra, f).pure else "mixed"


@dataclass
class EquivalenceReport:
    """Outcome of equivalence_check, with certificates where they exist."""

    verdict: str                                   # equal | equivalent | inequivalent | undecided
    kernel_first: tuple
    kernel_second: tuple
    intertwiner_residual: Optional[float] = None
    transition: Optional[tuple] = None             # (b, b') with f'(a)=f(b*ab), f(a)=f'(b'*ab')
    transition_residual: Optional[float] = None    # max_k |f'(e_k) - f(b*e_k b)|, and back
    unitary: Optional[AlgebraElement] = None
    note: str = ""
    carrier_dims: tuple = field(default=())

    @property
    def equivalent(self) -> bool:
        return self.verdict in ("equal", "equivalent")

    @property
    def intertwiner(self) -> Optional[np.ndarray]:
        """The identity on pi_f, built on each request (equal rank vectors make it one)."""
        return np.eye(self.carrier_dims[0], dtype=complex) if self.equivalent else None


def intertwining_residual(factors):
    """max |W pi(E_ij) W* - pi(U E_ij U*)| over matrix units, for W = sum U_b (x) V_b.

    ``factors`` holds the pair (U_b, V_b) of each block, V_b of order r_b, or a
    stack of k pairs per block for k residuals.  On carrier block b, pi(E_ij) =
    E_ij (x) I_{r_b}, so the difference is (U_b E_ij U_b*) (x) (V_b V_b* - I),
    whose largest entry over all i, j is (max |U_b|)^2 max |V_b V_b* - I|:
    O(sum n_b^2 + r_b^3), and blocks with r_b = 0 carry nothing.  The square
    is libm's pow, as ``float ** 2`` takes it (``x * x`` can differ in the last bit).
    """
    worst = np.zeros(np.shape(factors[0][0])[:-2])
    for u, v in factors:
        if v.shape[-1]:
            defect = np.abs(v @ v.conj().swapaxes(-1, -2) - np.eye(v.shape[-1])).max(axis=(-2, -1))
            worst = np.maximum(worst, np.float_power(np.abs(u).max(axis=(-2, -1)), 2) * defect)
    return worst[()]


def cyclic_vector_residual(factors, thetas):
    """max |W theta - theta| for W = sum U_b (x) V_b and theta = sum vec(Theta_b).

    ``factors`` as for :func:`intertwining_residual`.  The intertwining identity
    holds for U_b (x) V' with any unitary V'; this identity pins V_b.  Row-major,
    (U_b (x) V_b) vec(Theta_b) = vec(U_b Theta_b V_b^T), so the defect is max_b
    |U_b Theta_b V_b^T - Theta_b|: O(sum n_b^2 r_b + n_b r_b^2).
    """
    worst = np.zeros(np.shape(factors[0][0])[:-2])
    for (u, v), t in zip(factors, thetas):
        if t.size:
            worst = np.maximum(worst, np.abs(u @ t @ v.swapaxes(-1, -2) - t).max(axis=(-2, -1)))
    return worst[()]


def equivalence_check(algebra: StarAlgebra, f: State, g: State) -> EquivalenceReport:
    """Decide whether two states generate equivalent cyclic representations.

    States within ``EQUAL_STATES_TOL`` entrywise are one state, and I is
    certified on pi_f alone, whatever the rank cut made of either.  Other
    pairs compare kernels (vanishing blocks) first, then carrier dimensions,
    then the rank vectors (the multiplicity of each block).  Equal rank
    vectors give the same representation matrices, so the identity is the
    intertwiner (``EquivalenceReport.intertwiner`` builds it on request);
    its residual and that of the transition elements are returned unjudged.
    Two pure states pass both representations to :func:`pure_unitary_intertwiner`.
    """
    rep_f = gns_construct(algebra, f)
    rep_g = gns_construct(algebra, g)
    kernels = (rep_f.vanished_blocks, rep_g.vanished_blocks)
    dims = (rep_f.carrier_dim, rep_g.carrier_dim)

    def inequivalent(note):
        return EquivalenceReport(verdict="inequivalent", kernel_first=kernels[0],
                                 kernel_second=kernels[1], note=note, carrier_dims=dims)

    equal_states = all(np.abs(a - b).max() <= EQUAL_STATES_TOL for a, b in zip(f.densities, g.densities))
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
        intertwiner_residual=float(intertwining_residual(
            [(np.eye(n), np.eye(r)) for n, r in zip(algebra.blocks, rep_f.ranks)])),
        carrier_dims=dims,
    )
    if equal_states:
        report.transition = (algebra.identity(), algebra.identity())
    else:
        # pi_f(b) theta_f = vec(b Theta_f) = theta_g for b = Theta_g Theta_f^+, and back
        report.transition = tuple(
            algebra.element([tg @ tf_inv for tf_inv, tg in zip(src.inverses, dst.factors)])
            for src, dst in ((rep_f, rep_g), (rep_g, rep_f)))
    b, b_back = report.transition
    report.transition_residual = max(transport_residual(f, g, b), transport_residual(g, f, b_back))
    if rep_f.pure and rep_g.pure:
        report.unitary = pure_unitary_intertwiner(rep_f, rep_g)
    return report


def pure_unitary_intertwiner(rep_f: GnsRep, rep_g: GnsRep):
    """Unitary U in A with g(a) = f(U* a U) for equivalent pure states f and g.

    ``rep_f`` and ``rep_g`` are the :func:`gns_construct` data of f and g.
    Raises unless both are ``GnsRep.pure`` (the rule behind
    :func:`purity_check`); returns None when the pure states are
    inequivalent.  The U(1) phase family is pinned by making the first
    nonzero column entry real positive.
    """
    algebra, f, g = rep_f.algebra, rep_f.state, rep_g.state
    if not (rep_f.pure and rep_g.pure):
        raise OpalgError("pure_unitary_intertwiner requires pure states")
    block_f = rep_f.ranks.index(1)
    block_g = rep_g.ranks.index(1)
    if block_f != block_g:
        return None  # different kernels: inequivalent
    # each support vector: the kept eigenvector, Theta_b / sqrt(lambda_b)
    vec_f, vec_g = (rep.factors[block_f][:, 0] / np.sqrt(rep.eigenvalues[block_f][0])
                    for rep in (rep_f, rep_g))
    u_block = fix_global_phase(two_vector_unitary(vec_f, vec_g))
    mats = [np.eye(m, dtype=complex) for m in algebra.blocks]
    mats[block_f] = u_block
    u = algebra.element(mats)
    worst = transport_residual(f, g, u)
    if worst > TRANSITION_TOL:
        raise NumericalError(f"unitary intertwiner failed verification ({worst:.3e})")
    return u


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
