"""Generic GNS and intertwiner solvers and per-matrix-unit checks, kept as test oracles.

``gram_gns`` is the textbook construction: the carrier is the algebra modulo
the null space of the Gram matrix f(e_j* e_i) over the matrix units, and
left multiplication pushed to orthonormal coordinates of that quotient is the
representation.  Commutants and intertwiners come from Kronecker null-space
solves.  None of this uses the density eigendecompositions that
``opalg.gns`` is built on, so agreement between the two is evidence for both.
The null-space solves cost O(D^6) in the carrier dimension D: use them on
small algebras only.

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
array expression.  ``load_with_marks_by_python`` reads a scenario document
with PyYAML's pure-Python parser alone, the reference for the libyaml path
of ``opalg.scenarios``.

The ``*_by_grid`` functions are the direct sums over the full symmetric
momentum lattice: one phase per lattice point, as ``opalg.fields`` summed
before it folded every sum onto the octant p_i >= 0 as cosine products.
Each returns the value with the sum of the absolute values of its terms, the
scale its rounding error is bounded by.  The ``*_by_octant`` functions are the
octant sums as ``opalg.fields`` evaluated them before it took one phase per
distinct shell frequency and shared one sheet per time slice: a phase for
every octant point, and a fresh sheet for every stencil point.  They do the
same arithmetic, so the two must agree exactly.

``fock_ladders_by_tuples`` enumerates the truncated Fock basis as tuples,
sorts them and looks every raised tuple up in a dict, one (basis state,
mode) pair at a time, as ``opalg.ccr.FockTruncation`` did before it ranked
them with arrays, and ``commutator_defect_by_mode_pairs`` collects the
commutator entries one mode pair (m, m') at a time, where
``FockTruncation.commutator_defect`` takes every m' at once.  ``pair_partitions_by_recursion`` is the recursive
enumeration of pairings, and ``wick_by_partitions`` and
``moment_oracle_by_levels`` are the per-pairing and per-level loops that ``wick_moment`` and
``moment_oracle`` replaced with array expressions doing the same arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np
import yaml

from opalg.algebra import evaluate_state
from opalg.ccr import ORACLE_LEVELS, ORACLE_STEP
from opalg.fields import TWO_PI, MassShellGrid, TestFunction, shell_bilinear_form
from opalg.linalg import block_diag, fix_phases, gram_quotient

GRAM_REL_CUT = 1e-12
KERNEL_TOL = 1e-9


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


def gram_gns(algebra, f) -> OracleRep:
    """GNS by the quotient of the algebra by the null space of its Gram matrix."""
    triples = list(algebra.basis_triples())
    dim = len(triples)
    # Gram[b_idx, a_idx] = f(e_b^* e_a); for matrix units f(e_ji e_kl) = delta_ik rho[l, j]
    gram = np.zeros((dim, dim), dtype=complex)
    for row, (b1, i1, j1) in enumerate(triples):
        for col, (b2, i2, j2) in enumerate(triples):
            if b1 == b2 and i1 == i2:
                gram[row, col] = f.densities[b1][j2, j1]
    t, t_pinv, rank = gram_quotient(gram, GRAM_REL_CUT)
    gens = tuple(
        t @ algebra.left_mult_matrix(algebra.basis_element(k)) @ t_pinv for k in range(dim)
    )
    scale = max(float(np.max(np.abs(m))) for m in gens)
    kernel = tuple(
        label for label, m in zip(algebra.basis_labels(), gens)
        if np.max(np.abs(m)) <= KERNEL_TOL * max(scale, 1.0)
    )
    vanished = tuple(
        b for b in range(len(algebra.blocks))
        if float(np.trace(f.densities[b]).real) <= KERNEL_TOL
    )
    return OracleRep(gens, t @ algebra.coords(algebra.identity()), rank, kernel, vanished)


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


def transport_residual_by_units(f, g, b) -> float:
    """max_k |g(e_k) - f(b* e_k b)|, one state evaluation per matrix unit."""
    algebra = f.algebra
    worst = 0.0
    for k in range(algebra.dim):
        e = algebra.basis_element(k)
        worst = max(worst, abs(evaluate_state(g, e) - evaluate_state(f, b.star * e * b)))
    return worst


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


def pauli_jordan_minus_by_grid(grid, x):
    """D^-(x) = i/2 (2 pi)^-3 sum_p w(p) exp(-i(omega x0 - p.x)) over every lattice point."""
    x = np.asarray(x, dtype=float)
    terms = 0.5j * TWO_PI**-3 * grid.weights * np.exp(-1j * (grid.omega * x[0] - grid.momenta @ x[1:]))
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def pauli_jordan_by_grid(grid, x):
    """D(x) = (2 pi)^-3 sum_p w(p) sin(omega x0) cos(p.x) over every lattice point."""
    x = np.asarray(x, dtype=float)
    terms = TWO_PI**-3 * grid.weights * np.sin(grid.omega * x[0]) * np.cos(grid.momenta @ x[1:])
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def pauli_jordan_minus_by_octant(grid, x) -> complex:
    """D^-(x) as the octant sum of mu w e^{-i omega x0} prod_i cos(p_i x_i), one exp per point."""
    x = np.asarray(x, dtype=float)
    sheet = grid.octant_weights * np.exp(-1j * (grid.octant_omega * x[0]))
    cosines = [np.cos(grid.half_axis * xi) for xi in x[1:]]
    return complex(0.5j * TWO_PI**-3 * np.einsum("ijk,i,j,k->", sheet, *cosines))


def pauli_jordan_by_octant(grid, x) -> complex:
    """D(x) as the octant sum of mu w sin(omega x0) prod_i cos(p_i x_i), one sine per point."""
    x = np.asarray(x, dtype=float)
    sheet = grid.octant_weights * np.sin(grid.octant_omega * x[0])
    cosines = [np.cos(grid.half_axis * xi) for xi in x[1:]]
    return complex(TWO_PI**-3 * np.einsum("ijk,i,j,k->", sheet, *cosines))


def klein_gordon_residual_by_octant(grid, x, h) -> float:
    """|(box_h + m^2) D^-| with every stencil point evaluated on its own."""
    x = np.asarray(x, dtype=float)
    center = pauli_jordan_minus_by_octant(grid, x)
    acc = 0.0 + 0.0j
    for axis in range(4):
        e = np.zeros(4)
        e[axis] = h
        second = (
            pauli_jordan_minus_by_octant(grid, x + e) + pauli_jordan_minus_by_octant(grid, x - e)
            - 2.0 * center
        ) / h**2
        acc += second if axis == 0 else -second
    return abs(acc + grid.mass**2 * center)


def euclidean_propagator_by_grid(lattice, x):
    """w(x) = (2 pi)^-4 dp^4 sum_p cos(p.x) / (p^2 + m^2) over every lattice point."""
    x = np.asarray(x, dtype=float)
    terms = lattice.measure * np.cos(lattice.momenta @ x) / (lattice.p_squared + lattice.mass**2)
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def witness_shell_values_by_grid(mass_first, mass_second, cutoff, points):
    """The two shell forms (psi | psi)_m of the mass witness's profile.

    Restricts the profile to both sheets of the full grid of each mass with
    ``TestFunction.from_profile`` and pairs it with ``shell_bilinear_form``.
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
        psi = TestFunction.from_profile(grid, profile)
        values.append(float(shell_bilinear_form(grid, psi, psi).real))
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


def wick_by_partitions(space, args) -> float:
    """Sum over the pairings of products of space.pair_value, one pairing at a time."""
    m = len(args)
    if m % 2 == 1:
        return 0.0
    total = 0.0
    for partition in pair_partitions_by_recursion(tuple(range(m))):
        prod = 1.0
        for i, j in partition:
            prod *= space.pair_value(args[i], args[j])
        total += prod
    return total


def moment_oracle_by_levels(space, args) -> float:
    """The finite-difference moment with one stencil evaluation per level (even m >= 2)."""
    m = len(args)
    images = [space.k_inv @ q for q in args]
    norms = [math.sqrt(float(w @ space.gram @ w)) for w in images]
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
