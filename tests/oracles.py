"""Generic GNS and intertwiner solvers and per-matrix-unit checks, kept as test oracles.

``gram_gns`` is the textbook construction: the carrier is the algebra modulo
the null space of the Gram matrix f(e_j* e_i) over the matrix units, and
left multiplication pushed to orthonormal coordinates of that quotient is the
representation.  The quotient comes from ``quotient_by_svd``, an SVD of the
full Gram with its own rank cut (``GRAM_CUT``).  Commutants and intertwiners
come from Kronecker null-space solves.  None of this uses the density
eigendecompositions or ``opalg.linalg.cut_spectra`` that ``opalg.gns`` is
built on, so agreement between the two is evidence for both.
The null-space solves cost O(D^6) in the carrier dimension D: use them on
small algebras only.  ``basis_triples``, ``basis_labels`` and ``coords``
give the canonical matrix-unit coordinates the quotient is taken in, where
left multiplication by e_ij moves each unit e_jl to e_il.  ``kernel_labels``
reads the units with pi(e) = 0 off a ``GnsRep``'s ranks, for comparison with
the quotient's, whose vanished blocks are those of which every matrix unit
has a vanishing generator.

``fix_phases_by_columns`` pins one column at a time.
``support_vector_by_eigh`` takes the unit vector of a rank-one density from
its own eigendecomposition, where ``opalg.gns.pure_unitary_intertwiner`` reads
it off the GNS factor as Theta_b / sqrt(lambda_b).
``transitions_by_pinv`` and ``implementer_by_pinv`` take Theta_b^+ by the
SVD of ``np.linalg.pinv``, where ``opalg.gns`` reads it off the kept
eigenvalues as Lambda_b^-1 Theta_b*.
``transport_residual_by_units`` evaluates both states on every transported
matrix unit; ``opalg.algebra.transport_residual`` gets the same number from
one density identity per block.  ``intertwining_residual_by_units`` builds
the dense D x D matrices W pi(e_k) W* and pi(u e_k u*) for every matrix
unit, O(n^2 D^3) for any W; ``opalg.gns.intertwining_residual`` never forms
W and gets the same number for W = sum U_b (x) V_b from the factors alone,
as (max |U_b|)^2 max |V_b V_b* - I| per block.  ``generator_matrices`` and
``summed_generator_matrices`` build pi(e_k) densely for every matrix unit.

``associativity_failure_by_loop`` walks the triples of a multiplication
table one at a time, as ``opalg.groups.FiniteGroup`` compares them in one
array expression.  ``gns_from_group_function_by_permutations`` builds each
translation as the dense product T P_g T+ with the permutation matrix P_g,
where ``opalg.groups`` gathers the columns of T; its T comes from
``quotient_by_eigh``, the arithmetic of ``opalg.linalg.gram_quotient``
written out here, so the two are compared bit for bit; and
``left_regular_representation_by_loop`` sets the entries of each P_g one at
a time.  ``automorphism_closure_by_loop`` builds the closure table of a
list of unitary elements pair by pair, with one action matrix
(the sum of U_b (x) conj(U_b)) per product and a linear search of the list,
as ``opalg.symmetry.AutomorphismGroup`` did before it compared each row of
products with the whole list at once; ``stabilizer_orbit_by_pairs`` compares
each pushforward (the densities U_b* rho_b U_b as computed) with the orbit
states one pair at a time by ``trace_distance``, as
``opalg.symmetry.stabilizer_orbit`` did before it stacked them per block.
``load_with_marks_by_python`` reads a scenario document with PyYAML's
pure-Python parser alone, the reference for the libyaml path of
``opalg.scenarios``.

The per-element loops that ``opalg`` replaced with one stacked expression per
block: ``unitarity_by_blocks`` tests one element's blocks in turn, as
``AlgebraElement.is_unitary`` did; ``pushforwards_by_loop`` and
``implementer_by_loop`` take one automorphism at a time, as
``opalg.symmetry.pushforwards`` and ``unitary_implementer`` did, with
``intertwining_residual_by_pairs`` and ``cyclic_vector_residual_by_pairs``
the one-W certificates of ``opalg.gns`` (Python's ``float ** 2`` included);
``group_laws_by_loop`` finds a table's identity and inverses one element at a
time, ``convolve_by_loop`` sums one g at a time and
``reconstruction_by_vdot`` takes one ``np.vdot`` per element, as
``opalg.groups`` did; ``klein_gordon_residuals_unshared`` contracts every
stencil point's sheet fully, as ``opalg.fields.klein_gordon_residuals`` did
before its spatial neighbours shared the center's partial contractions.

The ``*_by_grid`` functions are the direct sums over the full symmetric
momentum lattice: one phase per lattice point, as ``opalg.fields`` summed
before it folded every sum onto the octant p_i >= 0 as cosine products.
``grid_momenta``, ``grid_omega``, ``grid_weights``, ``grid_flip`` and
``lattice_p_squared`` build that lattice's arrays.
Each returns the value with the sum of the absolute values of its terms, the
scale its rounding error is bounded by.  The ``*_by_octant`` functions are the
octant sums as ``opalg.fields`` evaluated them before it took one phase per
distinct shell frequency and shared one sheet per time slice: a phase for
every octant point, and a fresh sheet for every stencil point.  Where
``opalg.fields`` contracts a sheet one axis at a time, ``octant_sum_by_terms``
forms every term and adds them exactly rounded with ``math.fsum``, so each
returns its value with the sum of the absolute values of its terms, and the
Klein-Gordon oracle with the stencil applied to those scales.

``finite_marginal_state`` builds the marginal of a qubit configuration on a
set of sites as a dense pure ``State`` on M_{2^k}, and
``local_transition_matrix`` the dense 2^k x 2^k Kronecker product b of a
transition's one-site unitaries; ``transition_residual_by_marginals`` checks
the transport identity with them, where ``opalg.qubits.transition_residual``
compares the two 2^k product vectors.  ``partial_sum_by_masks`` applies each
override through a full-window site mask and sums each overlap over an axis
of length 2, as ``opalg.qubits`` did before it indexed the site directly.

``fock_ladders_by_tuples`` enumerates the truncated Fock basis as tuples,
sorts them and looks every raised tuple up in a dict, one (basis state,
mode) pair at a time, as ``opalg.ccr.FockTruncation`` did before it ranked
them with arrays, and ``commutator_defect_by_mode_pairs`` collects the
commutator entries one mode pair (m, m') at a time and merges the entries
that share a (row, column) key with ``np.unique`` and ``np.bincount``, where
``FockTruncation.commutator_defect`` takes every m' at once and merges
nothing: it adds the two products of each off-diagonal entry and
accumulates the diagonal in bincount's order.  ``pair_partitions_by_recursion`` is the recursive
enumeration of pairings, and ``wick_by_partitions`` and
``moment_oracle_by_levels`` are the per-pairing and per-level loops that ``wick_moment`` and
``moment_oracle`` replaced with array expressions doing the same arithmetic,
with ``pair_value`` the two-point value of one pair.
``gaussian_density`` is the normalized density of the Gaussian measure, the
reference the quasi-invariance cocycle is integrated against.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np
import yaml

from opalg.algebra import UNITARY_TOL, StarAlgebra, State, evaluate_state, transport_residual
from opalg.ccr import ORACLE_LEVELS, ORACLE_STEP
from opalg.errors import NumericalError, OpalgError
from opalg.fields import TWO_PI, MassShellGrid, _four_vector, _minus_sheet, _minus_value
from opalg.groups import GroupRep, delta, pd_kernel
from opalg.linalg import block_diag, fix_phases, nuclear_norm
from opalg.qubits import PARTIAL_SUM_WINDOW

KERNEL_TOL = 1e-9    # generator entries up to this times the largest count as zero
GRAM_CUT = 1e-12    # Gram spectrum up to order * GRAM_CUT * its largest value is null


def nullspace(m: np.ndarray, rcond: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the right null space, columns of the result."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=complex)
    # a tall m (every stacked solve here) has all of its null space in the thin
    # vh, which also skips the (rows x rows) U that nothing reads
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    tol = rcond * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return fix_phases(vh[rank:].conj().T)


def commutant(mats) -> list:
    """Basis of all X with [X, m] = 0 for every m in ``mats``."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    d = mats[0].shape[0]
    eye = np.eye(d)
    rows = [np.kron(m.T, eye) - np.kron(eye, m) for m in mats]
    basis = nullspace(np.vstack(rows))
    return [basis[:, k].reshape(d, d) for k in range(basis.shape[1])]


def intertwiner_space(first, second) -> list:
    """Basis of all gamma with gamma @ first[k] = second[k] @ gamma."""
    first = [np.asarray(m, dtype=complex) for m in first]
    second = [np.asarray(m, dtype=complex) for m in second]
    d1 = first[0].shape[0]
    d2 = second[0].shape[0]
    rows = [np.kron(p.T, np.eye(d2)) - np.kron(np.eye(d1), q) for p, q in zip(first, second)]
    basis = nullspace(np.vstack(rows))
    # column-major vec: gamma is d2 x d1
    return [basis[:, k].reshape(d1, d2).T.copy() for k in range(basis.shape[1])]


def best_invertible(candidates, min_rel_sv: float = 1e-8):
    """Pick the best-conditioned invertible combination from a solution space.

    Tries each basis element and a few fixed deterministic mixtures; returns
    ``(matrix, sigma_min/sigma_max)`` for the winner, or ``(None, best_ratio)``
    when nothing clears ``min_rel_sv``.
    """
    if not candidates:
        return None, 0.0
    trials = list(candidates)
    if len(candidates) > 1:
        rng = np.random.default_rng(20240915)
        for _ in range(8):
            coeff = rng.normal(size=len(candidates)) + 1j * rng.normal(size=len(candidates))
            trials.append(sum(c * m for c, m in zip(coeff, candidates)))
    best, best_ratio = None, 0.0
    for m in trials:
        if m.shape[0] != m.shape[1]:
            continue
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] <= 0.0:
            continue
        ratio = float(s[-1] / s[0])
        if ratio > best_ratio:
            best, best_ratio = m, ratio
    if best is None or best_ratio <= min_rel_sv:
        return None, best_ratio
    return best / np.linalg.norm(best, 2), best_ratio


@dataclass
class OracleRep:
    """Gram-quotient GNS data: generators and cyclic vector in the Gram eigenbasis."""

    generator_matrices: tuple
    cyclic_vector: np.ndarray
    gram_rank: int
    kernel_labels: tuple
    vanished_blocks: tuple

    @property
    def carrier_dim(self) -> int:
        return int(self.cyclic_vector.shape[0])


def fix_phases_by_columns(vectors: np.ndarray) -> np.ndarray:
    """Each column times |p| / p for its first entry p of largest magnitude, one column at a
    time, as ``opalg.linalg.fix_phases`` did before it found every pivot in one argmax."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        if abs(pivot) > 0.0:
            out[:, k] = col * (abs(pivot) / pivot)
    return out


def support_vector_by_eigh(density: np.ndarray) -> np.ndarray:
    """The unit eigenvector of the largest eigenvalue of a density, pinned by
    ``fix_phases_by_columns``."""
    return fix_phases_by_columns(np.linalg.eigh(density)[1][:, -1:])[:, 0]


def quotient_by_svd(gram: np.ndarray):
    """(T, T+, rank) for the quotient of a PSD Gram by its null space, from its SVD.

    A PSD Gram is V S V*, so its right singular vectors V and singular values
    S give T = sqrt(S_k) V_k* with (T b)* (T a) = b* Gram a, keeping the k
    singular values above ``len(gram) * GRAM_CUT`` times the largest.
    """
    _, s, vh = np.linalg.svd(gram)
    rank = int(np.sum(s > len(gram) * GRAM_CUT * s[0]))
    root = np.sqrt(s[:rank])
    return root[:, None] * vh[:rank], vh[:rank].conj().T / root[None, :], rank


def quotient_by_eigh(gram: np.ndarray):
    """(T, T+, rank) as ``quotient_by_svd``, from the eigendecomposition of (Gram + Gram*) / 2.

    The eigenvalues above ``len(gram) * GRAM_CUT`` times the largest are kept,
    largest first, each eigenvector rotated by ``fix_phases``: the arithmetic
    of ``opalg.linalg.gram_quotient`` on the spectrum ``opalg.groups`` takes,
    so translations built on it can be compared with ``opalg.groups`` bit for bit.
    """
    gram = np.asarray(gram, dtype=complex)
    lam, vec = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    keep = lam > len(gram) * GRAM_CUT * max(float(lam[-1]), 0.0)
    vec, root = fix_phases(vec[:, keep][:, ::-1]), np.sqrt(lam[keep][::-1])
    return root[:, None] * vec.conj().T, vec * (1.0 / root)[None, :], int(root.size)


def gram_gns(algebra, f) -> OracleRep:
    """GNS by the quotient of the algebra by the null space of its Gram matrix."""
    triples = basis_triples(algebra)
    dim = len(triples)
    # Gram[b_idx, a_idx] = f(e_b^* e_a); for matrix units f(e_ji e_kl) = delta_ik rho[l, j]
    gram = np.zeros((dim, dim), dtype=complex)
    for row, (b1, i1, j1) in enumerate(triples):
        for col, (b2, i2, j2) in enumerate(triples):
            if b1 == b2 and i1 == i2:
                gram[row, col] = f.densities[b1][j2, j1]
    t, t_pinv, rank = quotient_by_svd(gram)
    # e_ij e_jl = e_il: left multiplication L by e_ij sends the unit (b, j, l) to
    # (b, i, l), so T L takes the column of T at (b, i, l) to (b, j, l); pi(e) = T L T+
    where = {triple: k for k, triple in enumerate(triples)}
    gens = []
    for b, i, j in triples:
        tl = np.zeros_like(t)
        for l in range(algebra.blocks[b]):
            tl[:, where[b, j, l]] = t[:, where[b, i, l]]
        gens.append(tl @ t_pinv)
    scale = max(float(np.max(np.abs(m))) for m in gens)
    dead = [bool(np.max(np.abs(m)) <= KERNEL_TOL * max(scale, 1.0)) for m in gens]
    kernel = tuple(label for label, d in zip(basis_labels(algebra), dead) if d)
    # a block lies in the kernel when the generator of each of its matrix units vanishes
    vanished = tuple(b for b in range(len(algebra.blocks))
                     if all(d for (c, _, _), d in zip(triples, dead) if c == b))
    return OracleRep(tuple(gens), t @ coords(algebra.identity()), rank, kernel, vanished)


def basis_triples(algebra) -> list:
    """Canonical matrix-unit order (block, row, column): blocks, then row-major within a block."""
    return [(b, i, j) for b, n in enumerate(algebra.blocks) for i in range(n) for j in range(n)]


def basis_labels(algebra) -> tuple:
    return tuple(f"e{b}[{i},{j}]" for b, i, j in basis_triples(algebra))


def coords(a) -> np.ndarray:
    """Canonical coordinates of an element: its blocks row-major, one after another."""
    return np.concatenate([m.reshape(-1) for m in a.mats])


def kernel_labels(rep) -> tuple:
    """Labels of the matrix units with pi(e) = 0: those of the blocks of a GnsRep with r_b = 0."""
    triples = basis_triples(rep.algebra)
    return tuple(label for label, (b, _, _) in zip(basis_labels(rep.algebra), triples)
                 if rep.ranks[b] == 0)


def equivalence_verdict(algebra, f, g) -> str:
    """equal | equivalent | inequivalent, deciding equivalence by an invertible intertwiner."""
    if all(np.max(np.abs(a - b)) <= 1e-12 for a, b in zip(f.densities, g.densities)):
        return "equal"
    rep_f, rep_g = gram_gns(algebra, f), gram_gns(algebra, g)
    if rep_f.vanished_blocks != rep_g.vanished_blocks or rep_f.carrier_dim != rep_g.carrier_dim:
        return "inequivalent"
    space = intertwiner_space(rep_f.generator_matrices, rep_g.generator_matrices)
    gamma, _ = best_invertible(space)
    return "inequivalent" if gamma is None else "equivalent"


def transitions_by_pinv(factors_f, factors_g) -> list:
    """b_b = Theta_g,b pinv(Theta_f,b) of each block, carrying f to g."""
    return [tg @ np.linalg.pinv(tf) for tf, tg in zip(factors_f, factors_g)]


def implementer_by_pinv(unitaries, factors) -> list:
    """V_b = (pinv(Theta_b) U_b* Theta_b)^T of each block, the implementer's second factor."""
    return [(np.linalg.pinv(t) @ u.conj().T @ t).T for u, t in zip(unitaries, factors)]


def transport_residual_by_units(f, g, b) -> float:
    """max_k |g(e_k) - f(b* e_k b)|, one state evaluation per matrix unit."""
    algebra = f.algebra
    worst = 0.0
    for k in range(algebra.dim):
        e = algebra.basis_element(k)
        worst = max(worst, abs(evaluate_state(g, e) - evaluate_state(f, b.star * e * b)))
    return worst


def finite_marginal_state(sigma, sites):
    """Pure product state on the 2^k-dimensional local algebra over ``sites``, as a dense State."""
    vec = np.array([1.0 + 0.0j])
    for s in sites:
        vec = np.kron(vec, sigma.vector_at(s))
    algebra = StarAlgebra([2 ** len(sites)])
    return algebra, State.pure(algebra, 0, vec)


def local_transition_matrix(transition) -> np.ndarray:
    """The dense 2^k x 2^k Kronecker product b of the one-site unitaries."""
    mat = np.eye(1, dtype=complex)
    for u in transition.unitaries:
        mat = np.kron(mat, u)
    return mat


def transition_residual_by_marginals(sigma, sigma2, transition) -> float:
    """max |rho' - b rho b*| from the dense marginal States and the dense b."""
    algebra, f = finite_marginal_state(sigma, transition.sites)
    _, g = finite_marginal_state(sigma2, transition.sites)
    return transport_residual(f, g, algebra.element([local_transition_matrix(transition)]))


def partial_sum_by_masks(sigma, sigma2) -> float:
    """The overlap-defect partial sum with one full-window site mask per override."""
    sites = np.arange(1, PARTIAL_SUM_WINDOW + 1)

    def vectors_on(config):
        if config.tail is not None:
            a = config.tail.angles(sites)
            vecs = np.stack([np.cos(a), np.sin(a)], axis=1).astype(complex)
        else:
            vecs = np.tile(config.default, (len(sites), 1))
        for site, vec in config.overrides.items():
            vecs[sites == site] = vec
        return vecs

    overlaps = np.abs(np.sum(np.conj(vectors_on(sigma)) * vectors_on(sigma2), axis=1))
    return float(np.sum(np.abs(overlaps - 1.0)))


def intertwining_residual_by_units(w, rep_src, rep_dst, u=None) -> float:
    """max_k |W pi_src(e_k) W* - pi_dst(u e_k u*)|, two dense D x D matrices per matrix unit."""
    algebra = rep_src.algebra
    worst = 0.0
    for k in range(algebra.dim):
        e = algebra.basis_element(k)
        moved = e if u is None else u * e * u.star
        worst = max(worst, float(np.max(np.abs(
            w @ rep_src.represent(e) @ w.conj().T - rep_dst.represent(moved)))))
    return worst


def generator_matrices(rep) -> list:
    """pi(e_k) for each canonical matrix unit, in basis order."""
    return [rep.represent(rep.algebra.basis_element(k)) for k in range(rep.algebra.dim)]


def summed_generator_matrices(reps) -> list:
    """Block-diagonal generators of the Hilbert-sum representation."""
    return [block_diag(list(gens)) for gens in zip(*(generator_matrices(r) for r in reps))]


def associativity_failure_by_loop(table):
    """The message for the first non-associative triple, or None.

    Every triple for order <= 24, else 2000 triples drawn one at a time from
    default_rng(0).
    """
    table = np.asarray(table)
    n = table.shape[0]
    if n <= 24:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = np.random.default_rng(0)
        triples = (tuple(rng.integers(0, n, size=3)) for _ in range(2000))
    for a, b, c in triples:
        if table[table[a, b], c] != table[a, table[b, c]]:
            return f"associativity fails on ({a}, {b}, {c})"
    return None


def gns_from_group_function_by_permutations(group, psi):
    """The GroupRep of a positive-definite psi with one dense product T P_g T+ per element.

    P_g is the n x n permutation matrix of left translation by g and theta =
    T delta_e, where ``opalg.groups.gns_from_group_function`` gathers the
    columns T[:, table[g]] instead.
    """
    t, t_pinv, rank = quotient_by_eigh(pd_kernel(group, psi).T)
    n = group.order
    mats = []
    for g in range(n):
        perm = np.zeros((n, n), dtype=complex)
        perm[group.table[g, np.arange(n)], np.arange(n)] = 1.0
        mats.append(np.ascontiguousarray(t @ perm @ t_pinv))
    theta = t @ delta(group, group.identity)
    return GroupRep(group=group, function=psi, matrices=tuple(mats), cyclic_vector=theta,
                    gram_rank=rank)


def left_regular_representation_by_loop(group):
    """The left-regular GroupRep from (Pi(g) f)(q) = f(g^-1 q), one entry at a time."""
    n = group.order
    mats = []
    for g in range(n):
        m = np.zeros((n, n), dtype=complex)
        for q in range(n):
            m[q, group.table[group.inverse[g], q]] = 1.0
        mats.append(m)
    return GroupRep(group=group, function=delta(group, group.identity), matrices=tuple(mats),
                    cyclic_vector=delta(group, group.identity), gram_rank=n)


def automorphism_closure_by_loop(unitaries, action_tol):
    """(table, identity, multiplier table) of a list of unitary elements, one pair at a time.

    Two elements act alike when their action matrices agree entrywise within
    ``action_tol``; each product takes the first listed element that acts
    like it.  The first failing pair in row-major order raises: a product
    that is not unitary as ``OpalgError``, one that acts like no element as
    ``ValueError``; then a missing identity, then a missing inverse.
    """
    def action(u):
        return block_diag([np.kron(m, m.conj()) for m in u.mats])

    actions = [action(u) for u in unitaries]
    n = len(unitaries)
    table = np.full((n, n), -1, dtype=int)
    for i, ui in enumerate(unitaries):
        for j, uj in enumerate(unitaries):
            prod = ui * uj
            if not unitarity_by_blocks(prod):
                raise OpalgError(f"defining element is not unitary within {UNITARY_TOL:.0e}")
            prod_action = action(prod)
            for k, act in enumerate(actions):
                if np.max(np.abs(prod_action - act)) <= action_tol:
                    table[i, j] = k
                    break
            else:
                raise ValueError(f"closure fails: product of elements {i} and {j} not in list")
    unit = action(unitaries[0].algebra.identity())
    identity = next((k for k, act in enumerate(actions)
                     if np.max(np.abs(act - unit)) <= action_tol), None)
    if identity is None:
        raise ValueError("group contains no identity automorphism")
    for i in range(n):
        if not np.any(table[i] == identity):
            raise ValueError(f"element {i} has no inverse in the list")
    multipliers = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            prod = unitaries[i] * unitaries[j]
            num = sum(np.trace(r.conj().T @ p) for r, p in zip(unitaries[table[i, j]].mats, prod.mats))
            multipliers[i, j] = num / sum(unitaries[0].algebra.blocks)
    return table, identity, multipliers


def unitarity_by_blocks(element) -> bool:
    """u* u - I within ``UNITARY_TOL * max(1, n)`` entrywise, one block at a time."""
    return all(np.max(np.abs(m.conj().T @ m - np.eye(n))) <= UNITARY_TOL * max(1.0, n)
               for m, n in zip(element.mats, element.algebra.blocks))


def pushforwards_by_loop(f, automorphisms):
    """(moved, distances): U_b* rho_b U_b and the trace-norm distance, one automorphism at a time."""
    moved = [[u.conj().T @ d @ u for d, u in zip(f.densities, rho.unitary.mats)]
             for rho in automorphisms]
    return moved, [float(sum(nuclear_norm(a - b) for a, b in zip(f.densities, m))) for m in moved]


def intertwining_residual_by_pairs(pairs) -> float:
    """(max |U_b|)^2 max |V_b V_b* - I| over the blocks with r_b > 0, one pair at a time."""
    worst = 0.0
    for u, v in pairs:
        if len(v):
            defect = float(np.abs(v @ v.conj().T - np.eye(len(v))).max())
            worst = max(worst, float(np.abs(u).max()) ** 2 * defect)
    return worst


def cyclic_vector_residual_by_pairs(pairs, thetas) -> float:
    """max_b |U_b Theta_b V_b^T - Theta_b| over the blocks with r_b > 0, one pair at a time."""
    worst = 0.0
    for (u, v), t in zip(pairs, thetas):
        if t.size:
            worst = max(worst, float(np.abs(u @ t @ v.T - t).max()))
    return worst


def implementer_by_loop(rep, rho, tol):
    """(distance, isometry defect, pairs, intertwining residual, cyclic residual) of one
    automorphism; the last three are None when the state is not stationary."""
    [moved], [distance] = pushforwards_by_loop(rep.state, [rho])
    kept = [t @ t.conj().T for t in rep.factors]
    defect = max(float(np.abs(u.conj().T @ d @ u - d).max())
                 for u, d in zip(rho.unitary.mats, kept))
    if distance > tol:
        return distance, defect, None, None, None
    pairs = [(u, (t_inv @ u.conj().T @ t).T)
             for u, t, t_inv in zip(rho.unitary.mats, rep.factors, rep.inverses)]
    return (distance, defect, pairs, intertwining_residual_by_pairs(pairs),
            cyclic_vector_residual_by_pairs(pairs, rep.factors))


def group_laws_by_loop(table):
    """(identity, inverses) of a multiplication table, or the message of its first failure."""
    table = np.asarray(table)
    n = table.shape[0]
    identity = next((e for e in range(n) if np.array_equal(table[e], np.arange(n))
                     and np.array_equal(table[:, e], np.arange(n))), None)
    if identity is None:
        return "table has no two-sided identity"
    inv = np.full(n, -1, dtype=int)
    for g in range(n):
        hits = np.where(table[g] == identity)[0]
        if hits.size != 1 or table[hits[0], g] != identity:
            return f"element {g} has no two-sided inverse"
        inv[g] = hits[0]
    return identity, inv


def convolve_by_loop(group, f1, f2):
    """(f1 * f2)(g) = sum_q f1(q) f2(q^-1 g), one g at a time."""
    out = np.zeros(group.order, dtype=complex)
    for g in range(group.order):
        out[g] = np.sum(f1 * f2[group.table[group.inverse, g]])
    return out


def reconstruction_by_vdot(rep):
    """<pi(g) theta | theta> with one np.vdot per element."""
    th = rep.cyclic_vector
    return np.array([np.vdot(th, m @ th) for m in rep.matrices])


def klein_gordon_residuals_unshared(grid, x, steps) -> tuple:
    """``opalg.fields.klein_gordon_residuals`` with every stencil value a full octant sum."""
    x = _four_vector(x, "spacetime")
    sheet = _minus_sheet(grid, x[0])
    center = _minus_value(grid, sheet, x[1:])
    residuals = []
    for h in steps:
        acc = 0.0 + 0.0j
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            up, down = x + e, x - e
            if axis == 0:
                sheets = _minus_sheet(grid, up[0]), _minus_sheet(grid, down[0])
            else:
                sheets = sheet, sheet
            second = (
                _minus_value(grid, sheets[0], up[1:]) + _minus_value(grid, sheets[1], down[1:])
                - 2.0 * center
            ) / h**2
            acc += second if axis == 0 else -second
        residuals.append(abs(acc + grid.mass**2 * center))
    return tuple(residuals)


def trace_distance(first, second) -> float:
    """Sum over blocks of the trace norms of the density differences, blocks in order."""
    return float(sum(np.sum(np.linalg.svd(a - b, compute_uv=False)) for a, b in zip(first, second)))


def stabilizer_orbit_by_pairs(f, elements, tol):
    """(stabilizer size, orbit densities) with one ``trace_distance`` per pair.

    The pushforward of f by Ad(U) has the densities U_b* rho_b U_b, kept as
    computed; it joins the orbit when it is farther than ``tol`` from every
    orbit state found so far, checked one state at a time.
    """
    stabilizer = 0
    orbit = []
    for g in elements:
        moved = [u.conj().T @ d @ u for d, u in zip(f.densities, g.unitary.mats)]
        if trace_distance(f.densities, moved) <= tol:
            stabilizer += 1
        if all(trace_distance(moved, seen) > tol for seen in orbit):
            orbit.append(moved)
    return stabilizer, orbit


class PythonYaml12Loader(yaml.SafeLoader):
    """PyYAML's pure-Python safe loader plus the YAML 1.2 exponent floats."""


PythonYaml12Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_with_marks_by_python(text):
    """("ok", data, marks) or ("error", message, line) from the pure-Python parser.

    marks maps each node's path (mapping keys and sequence indices) to its
    1-based start line; the message is the text opalg reports after
    "not well-formed YAML: ".
    """
    try:
        loader = PythonYaml12Loader(text)
        try:
            node = loader.get_single_node()
            data = loader.construct_document(node) if node is not None else None
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        return "error", str(exc), None if mark is None else mark.line + 1
    marks = {}

    def walk(item, path):   # in document order, so a repeated key keeps its last line
        marks[path] = item.start_mark.line + 1
        if isinstance(item, yaml.MappingNode):
            for key, value in item.value:
                walk(value, path + (str(key.value),))
        elif isinstance(item, yaml.SequenceNode):
            for index, value in enumerate(item.value):
                walk(value, path + (index,))

    if node is not None:
        walk(node, ())
    return "ok", data, marks


def grid_momenta(lattice, dims: int) -> np.ndarray:
    """Every point of a symmetric lattice in ``dims`` dimensions, one row each, in C order.

    ``lattice`` is a ``MassShellGrid`` (dims 3) or an ``EuclideanLattice``
    (dims 4); each axis holds the multiples k * spacing, |k| <= points // 2.
    """
    axis = (np.arange(lattice.points) - lattice.points // 2) * lattice.spacing
    mesh = np.meshgrid(*[axis] * dims, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def grid_omega(grid) -> np.ndarray:
    """omega = sqrt(p^2 + m^2) at every point of a ``MassShellGrid``."""
    return np.sqrt(np.sum(grid_momenta(grid, 3)**2, axis=1) + grid.mass**2)


def grid_weights(grid) -> np.ndarray:
    """The mass-shell weight dp^3 / omega at every point of a ``MassShellGrid``."""
    return grid.spacing**3 / grid_omega(grid)


def grid_flip(grid) -> np.ndarray:
    """The index permutation p -> -p: reversing all three axes reverses the flat index."""
    return np.arange(grid.points**3 - 1, -1, -1)


def lattice_p_squared(lattice) -> np.ndarray:
    """p^2 at every point of an ``EuclideanLattice``."""
    return np.sum(grid_momenta(lattice, 4)**2, axis=1)


def pauli_jordan_minus_by_grid(grid, x):
    """D^-(x) = i/2 (2 pi)^-3 sum_p w(p) exp(-i(omega x0 - p.x)) over every lattice point."""
    x = np.asarray(x, dtype=float)
    phase = grid_omega(grid) * x[0] - grid_momenta(grid, 3) @ x[1:]
    terms = 0.5j * TWO_PI**-3 * grid_weights(grid) * np.exp(-1j * phase)
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def pauli_jordan_by_grid(grid, x):
    """D(x) = (2 pi)^-3 sum_p w(p) sin(omega x0) cos(p.x) over every lattice point."""
    x = np.asarray(x, dtype=float)
    terms = (TWO_PI**-3 * grid_weights(grid) * np.sin(grid_omega(grid) * x[0])
             * np.cos(grid_momenta(grid, 3) @ x[1:]))
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def octant_sum_by_terms(sheet, half_axis, coords):
    """The octant sum of sheet * prod_i cos(p_i x_i), with the sum of |terms|.

    Forms every term and adds them with ``math.fsum``, so the value is the
    exactly rounded sum of the terms as computed.
    """
    terms = sheet
    for axis, xi in enumerate(coords):
        shape = [1] * sheet.ndim
        shape[axis] = -1
        terms = terms * np.cos(half_axis * xi).reshape(shape)
    flat = terms.ravel()
    total = complex(math.fsum(flat.real.tolist()), math.fsum(flat.imag.tolist()))
    return total, float(np.sum(np.abs(flat)))


def pauli_jordan_minus_by_octant(grid, x):
    """D^-(x) as the octant sum of mu w e^{-i omega x0} prod_i cos(p_i x_i), one exp per point."""
    x = np.asarray(x, dtype=float)
    sheet = grid.octant_weights * np.exp(-1j * (grid.octant_omega * x[0]))
    total, scale = octant_sum_by_terms(sheet, grid.half_axis, x[1:])
    return 0.5j * TWO_PI**-3 * total, 0.5 * TWO_PI**-3 * scale


def pauli_jordan_by_octant(grid, x):
    """D(x) as the octant sum of mu w sin(omega x0) prod_i cos(p_i x_i), one sine per point."""
    x = np.asarray(x, dtype=float)
    sheet = grid.octant_weights * np.sin(grid.octant_omega * x[0])
    total, scale = octant_sum_by_terms(sheet, grid.half_axis, x[1:])
    return TWO_PI**-3 * total, TWO_PI**-3 * scale


def klein_gordon_residual_by_octant(grid, x, h):
    """|(box_h + m^2) D^-| with every stencil point evaluated on its own.

    The scale is the stencil applied to the scales of its D^- values:
    (up + down + 2 center) / h^2 per axis, plus m^2 center.
    """
    x = np.asarray(x, dtype=float)
    center, center_scale = pauli_jordan_minus_by_octant(grid, x)
    acc = 0.0 + 0.0j
    scale = grid.mass**2 * center_scale
    for axis in range(4):
        e = np.zeros(4)
        e[axis] = h
        up, up_scale = pauli_jordan_minus_by_octant(grid, x + e)
        down, down_scale = pauli_jordan_minus_by_octant(grid, x - e)
        second = (up + down - 2.0 * center) / h**2
        acc += second if axis == 0 else -second
        scale += (up_scale + down_scale + 2.0 * center_scale) / h**2
    return abs(acc + grid.mass**2 * center), scale


def euclidean_propagator_by_octant(lattice, x):
    """w(x) as the octant sum of mu / (p^2 + m^2) prod_i cos(p_i x_i), with its scale."""
    x = np.asarray(x, dtype=float)
    total, scale = octant_sum_by_terms(lattice.octant_weights, lattice.half_axis, x)
    return lattice.measure * total.real, lattice.measure * scale


def euclidean_propagator_by_grid(lattice, x):
    """w(x) = (2 pi)^-4 dp^4 sum_p cos(p.x) / (p^2 + m^2) over every lattice point."""
    x = np.asarray(x, dtype=float)
    terms = (lattice.measure * np.cos(grid_momenta(lattice, 4) @ x)
             / (lattice_p_squared(lattice) + lattice.mass**2))
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def witness_shell_values_by_grid(mass_first, mass_second, cutoff, points):
    """The two shell forms (psi | psi)_m of the mass witness's profile.

    Restricts the profile to both sheets p0 = +-omega of the full grid of
    each mass and pairs them as sum_p w(p) psi(-omega, -p) psi(omega, p).
    Every term is positive, so each value is also its own scale.
    """
    gap = mass_first**2 - mass_second**2
    beta = math.log(1e10) / (2.0 * gap * gap)
    width = max(cutoff / 3.0, 1e-6)

    def profile(p0, p):
        bump = np.exp(-np.sum(p * p, axis=1) / (2.0 * width**2))
        offshell = p0 * p0 - np.sum(p * p, axis=1) - mass_second**2
        return np.exp(-beta * offshell**2) * bump

    values = []
    for mass in (mass_first, mass_second):
        grid = MassShellGrid(mass, cutoff, points)
        omega, momenta = grid_omega(grid), grid_momenta(grid, 3)
        pos = profile(omega, momenta)
        neg = profile(-omega, momenta)
        values.append(float(np.sum(grid_weights(grid) * neg[grid_flip(grid)] * pos)))
    return tuple(values)


def fock_ladders_by_tuples(n: int, n_max: int):
    """(occupations, raise_rows, lower_rows, raise_values) of the n-mode basis of total <= n_max."""
    states = [()]
    for _ in range(n):
        states = [t + (k,) for t in states for k in range(n_max - sum(t) + 1)]
    states.sort(key=lambda t: (sum(t), t))
    index = {t: i for i, t in enumerate(states)}
    raise_rows = np.full((n, len(states)), -1, dtype=np.intp)
    lower_rows = np.full((n, len(states)), -1, dtype=np.intp)
    for col, occ in enumerate(states):
        if sum(occ) < n_max:
            for mode in range(n):
                row = index[occ[:mode] + (occ[mode] + 1,) + occ[mode + 1:]]
                raise_rows[mode, col] = row
                lower_rows[mode, row] = col
    return states, raise_rows, lower_rows, np.sqrt(np.array(states, dtype=float).T + 1.0)


def commutator_defect_by_mode_pairs(fock, q, qp) -> float:
    """FockTruncation.commutator_defect with one pass per mode pair (m, m'), in that order."""
    c = fock.space.mode_coefficients(q)
    cp = fock.space.mode_coefficients(qp)
    prot = fock.protected_indices()
    rows, cols, vals = [], [], []
    for m in range(fock.space.n):
        for mp in range(fock.space.n):
            i = fock.lower_rows[m, fock.raise_rows[mp, prot]]
            keep = i >= 0
            rows.append(i[keep])
            cols.append(prot[keep])
            vals.append((c[m] * fock.raise_values[m, i[keep]])
                        * (cp[mp] * fock.raise_values[mp, prot[keep]]))
            k = fock.lower_rows[m, prot]
            keep = k >= 0
            k = k[keep]
            rows.append(fock.raise_rows[mp, k])
            cols.append(prot[keep])
            vals.append(-(cp[mp] * fock.raise_values[mp, k]) * (c[m] * fock.raise_values[m, k]))
    keys, where = np.unique(np.concatenate(rows) * fock.dim + np.concatenate(cols),
                            return_inverse=True)
    entries = np.bincount(where, weights=np.concatenate(vals))
    entries[keys // fock.dim == keys % fock.dim] -= fock.space.inner(q, qp)
    return float(np.max(np.abs(entries)))


def pair_partitions_by_recursion(remaining):
    """Pairings of the tuple ``remaining``: its first element with each later one, then the rest."""
    if not remaining:
        yield []
        return
    for k in range(1, len(remaining)):
        rest = remaining[1:k] + remaining[k + 1:]
        for tail in pair_partitions_by_recursion(rest):
            yield [(remaining[0], remaining[k])] + tail


def pair_value(space, q, r) -> float:
    """Two-point value <K^-1 q | K^-1 r>."""
    return float((space.k_inv @ q) @ space.gram @ (space.k_inv @ r))


def wick_by_partitions(space, args) -> float:
    """Sum over the pairings of products of ``pair_value``, one pairing at a time."""
    m = len(args)
    if m % 2 == 1:
        return 0.0
    total = 0.0
    for partition in pair_partitions_by_recursion(tuple(range(m))):
        prod = 1.0
        for i, j in partition:
            prod *= pair_value(space, args[i], args[j])
        total += prod
    return total


def moment_oracle_by_levels(space, args) -> float:
    """The finite-difference moment with one stencil evaluation per level (even m >= 2).

    An argument with zero K^-1 image makes the moment 0.0.
    """
    m = len(args)
    images = [space.k_inv @ q for q in args]
    norms = [math.sqrt(float(w @ space.gram @ w)) for w in images]
    if 0.0 in norms:
        return 0.0
    unit = np.stack([w / s for w, s in zip(images, norms)])
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    parity = np.prod(signs, axis=1)

    def stencil(h):
        combos = (signs * h) @ unit
        exponent = -0.5 * np.einsum("ki,ij,kj->k", combos, space.gram, combos)
        return math.fsum((parity * np.expm1(exponent)).tolist()) / (2.0 * h) ** m

    values = [stencil(ORACLE_STEP / 2 ** j) for j in range(ORACLE_LEVELS)]
    for level in range(1, ORACLE_LEVELS):
        factor = 4.0 ** level
        values = [(factor * values[i + 1] - values[i]) / (factor - 1.0)
                  for i in range(len(values) - 1)]
    return values[0] * (-1.0) ** (m // 2) * float(np.prod(norms))


def gaussian_density(space, w) -> float:
    """Density of the Gaussian measure with Fourier transform exp(-M_K/2).

    Normalized against the Lebesgue measure on the dual coordinates, so it
    integrates to one.
    """
    w = space._check_vector(w)
    sigma = space.covariance
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0.0:
        raise NumericalError("covariance matrix is not positive definite")
    quad = float(w @ np.linalg.solve(sigma, w))
    return float(np.exp(-0.5 * (space.n * np.log(2.0 * np.pi) + logdet + quad)))
