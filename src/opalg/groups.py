"""Group algebras of finite groups and GNS representations from positive-definite functions.

Counting measure plays the Haar role and the modular function is identically
one.  Functions on a group of order n are plain complex arrays of length n in
element order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalError, ShapeMismatchError
from .linalg import PSD_TOL, gram_quotient, hermitize

# largest built-in cyclic group a scenario may name: the positive-definiteness
# test and the Gram quotient of one function on z1024 take about 2.5 s and
# 50 MiB, and their time grows as the cube of the order
ORDER_LIMIT = 1024
# largest order * rank^2 matrix entries a GroupRep may hold, checked before
# any translation is built: a full-rank function on z256 sits at the limit
# (256 MiB of matrices), a character on z1024 holds 1024 entries
REP_ENTRY_LIMIT = 1 << 24
# most entries of the columns T[:, table[g]] gathered for one stacked product (16 MiB);
# all elements at once would hold rank * order^2 (2 GiB for rank 128 on z1024)
GATHER_ENTRY_LIMIT = 1 << 20


class FiniteGroup:
    """Multiplication table, identity, and inverses; laws verified on build.

    Associativity is checked exhaustively for order <= 24 and on 2000 seeded
    random triples above that; the first failing triple is reported.
    """

    def __init__(self, table):
        table = np.asarray(table, dtype=int)
        n = table.shape[0]
        if table.shape != (n, n) or np.any(table < 0) or np.any(table >= n):
            raise ValueError("multiplication table must be n x n with entries in [0, n)")
        self.table = table
        self.order = n
        idx = np.arange(n)
        units = np.flatnonzero(np.all(table == idx, axis=1) & np.all(table.T == idx, axis=1))
        if not units.size:
            raise ValueError("table has no two-sided identity")
        self.identity = identity = int(units[0])
        # g's inverse is the one h with gh = e, and hg = e must hold too
        hits = table == identity
        self.inverse = np.argmax(hits, axis=1)
        fails = np.flatnonzero((hits.sum(axis=1) != 1) | (table[self.inverse, idx] != identity))
        if fails.size:
            raise ValueError(f"element {fails[0]} has no two-sided inverse")
        if n <= 24:
            a, b, c = np.indices((n, n, n)).reshape(3, -1)
        else:
            a, b, c = np.random.default_rng(0).integers(0, n, size=(2000, 3)).T
        fails = np.flatnonzero(table[table[a, b], c] != table[a, table[b, c]])
        if fails.size:
            k = fails[0]
            raise ValueError(f"associativity fails on ({a[k]}, {b[k]}, {c[k]})")

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table)


def _permutations(n: int) -> np.ndarray:
    """The permutations of {0..n-1} as rows, sorted lexicographically."""
    perms = sorted(itertools.permutations(range(n)))
    return np.array(perms, dtype=int).reshape(len(perms), n)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; elements sorted lexicographically, composition left-to-right."""
    perms = _permutations(n)
    # p o q is read as base-n digits, whose order is the lexicographic one
    digits = n ** np.arange(n - 1, -1, -1)
    composed = perms[np.arange(len(perms))[:, None, None], perms[None, :, :]]
    return FiniteGroup(np.searchsorted(perms @ digits, composed @ digits))


def _as_function(group: FiniteGroup, values) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if values.shape != (group.order,):
        raise ShapeMismatchError(f"function must have one value per group element ({group.order})")
    return values


def delta(group: FiniteGroup, g: int) -> np.ndarray:
    out = np.zeros(group.order, dtype=complex)
    out[g] = 1.0
    return out


def convolve(group: FiniteGroup, f1, f2) -> np.ndarray:
    """(f1 * f2)(g) = sum_q f1(q) f2(q^-1 g); delta at the identity is the unit."""
    f1 = _as_function(group, f1)
    f2 = _as_function(group, f2)
    # row g of the gather holds f2(q^-1 g) for every q, in C order, so each row is summed as
    # the contiguous vector it is (an F-ordered gather sums in another order); f1 as a row
    # keeps order 1 off numpy's broadcast loop, whose complex product rounds otherwise
    idx = np.arange(group.order)
    return np.sum(f1[None, :] * f2[group.table[group.inverse[None, :], idx[:, None]]], axis=1)


def pd_kernel(group: FiniteGroup, psi) -> np.ndarray:
    """Matrix K[i, j] = psi(g_j^-1 g_i) whose positivity defines positive-definiteness."""
    psi = _as_function(group, psi)
    return psi[group.table[group.inverse]].T


def _kernel_spectrum(group: FiniteGroup, psi):
    """The ``eigh`` pair of the Hermitian part of the Gram ``pd_kernel(group, psi).T``, or
    None unless the kernel is Hermitian and positive semidefinite within ``PSD_TOL``."""
    k = pd_kernel(group, psi)
    if np.max(np.abs(k - k.conj().T)) > PSD_TOL * max(1.0, float(np.max(np.abs(k)))):
        return None
    lam, vec = np.linalg.eigh(hermitize(k.T))
    return (lam, vec) if lam[0] >= -PSD_TOL * max(float(lam[-1]), 1.0) else None


def is_positive_definite(group: FiniteGroup, psi) -> bool:
    """Whether the kernel ``pd_kernel(group, psi)`` is Hermitian and PSD within ``PSD_TOL``."""
    return _kernel_spectrum(group, psi) is not None


@dataclass
class GroupRep:
    """Unitary representation with cyclic vector from the GNS quotient."""

    group: FiniteGroup
    function: np.ndarray     # the positive-definite function it reproduces
    matrices: np.ndarray     # pi(g) per element, stacked: order x carrier_dim x carrier_dim
    cyclic_vector: np.ndarray
    gram_rank: int

    @property
    def carrier_dim(self) -> int:
        return int(self.cyclic_vector.shape[0])

    def reconstruction(self) -> np.ndarray:
        """<pi(g) theta | theta> per element; equals psi for the defining function."""
        th = self.cyclic_vector
        return np.vecdot(th, self.matrices @ th)

    def unitarity_defect(self) -> float:
        """max over g of |pi(g) pi(g)* - I|, from one stacked product; 0 on a zero carrier."""
        products = self.matrices @ np.swapaxes(self.matrices.conj(), 1, 2)
        return float(np.max(np.abs(products - np.eye(self.carrier_dim)), initial=0.0))


def _check_rep_size(group: FiniteGroup, rank: int) -> None:
    entries = group.order * rank * rank
    if entries > REP_ENTRY_LIMIT:
        raise NumericalError(f"representation of order {group.order} and rank {rank} holds "
                             f"{entries} matrix entries, over the limit {REP_ENTRY_LIMIT}")


def gns_from_group_function(group: FiniteGroup, psi) -> GroupRep:
    """GNS representation of the group defined by a positive-definite function.

    The carrier is the quotient of the group-indexed space by the null space
    of the kernel psi(g_j^-1 g_i); left translation pushed to the quotient is
    unitary and reproduces psi as the vector form at the cyclic vector.  A
    quotient of order * rank^2 entries past ``REP_ENTRY_LIMIT`` raises
    :class:`NumericalError` before any translation is built.
    """
    psi = _as_function(group, psi)
    # pairing <delta_a | delta_b> = psi(b^-1 a); as a Gram with the starred
    # slot on rows this is the transpose of the positive-definiteness kernel
    spectrum = _kernel_spectrum(group, psi)
    if spectrum is None:
        raise InvalidStateError("function is not positive-definite within tolerance")
    t, t_pinv, rank = gram_quotient(spectrum)
    _check_rep_size(group, rank)
    # pi(g) = T P_g T+, and P_g only permutes columns: T P_g is T[:, table[g]], gathered
    # for a run of elements at a time and multiplied by T+ as one stack
    step = max(1, GATHER_ENTRY_LIMIT // max(1, rank * group.order))
    mats = np.empty((group.order, rank, rank), dtype=complex)
    for start in range(0, group.order, step):
        rows = group.table[start:start + step]
        np.matmul(np.swapaxes(t[:, rows], 0, 1), t_pinv, out=mats[start:start + step])
    return GroupRep(group=group, function=psi, matrices=mats,
                    cyclic_vector=t[:, group.identity], gram_rank=rank)


def left_regular_representation(group: FiniteGroup) -> GroupRep:
    """Left-regular representation (Pi(g) f)(q) = f(g^-1 q): the permutations P_g themselves."""
    n = group.order
    _check_rep_size(group, n)
    eye = np.eye(n, dtype=complex)
    return GroupRep(group=group, function=delta(group, group.identity),
                    matrices=np.swapaxes(eye[:, group.table], 0, 1),
                    cyclic_vector=delta(group, group.identity), gram_rank=n)


@dataclass(frozen=True)
class OrthogonalityReport:
    inner_sum: complex       # sum_g psi'(g) conj(psi(g))
    convolution_max: float   # max_g |(psi * psi')(g)|


def orthogonality_check(rep: GroupRep, rep2: GroupRep) -> OrthogonalityReport:
    """Both quantities vanish for inequivalent irreducible characters.

    They are read from the functions ``psi`` and ``psi'`` the two
    representations reproduce, which a :class:`GroupRep` only holds when they
    are positive-definite.
    """
    if not np.array_equal(rep.group.table, rep2.group.table):
        raise ShapeMismatchError("representations of different groups")
    psi, psi2 = rep.function, rep2.function
    inner = complex(np.sum(psi2 * np.conj(psi)))
    conv = convolve(rep.group, psi, psi2)
    return OrthogonalityReport(inner_sum=inner, convolution_max=float(np.max(np.abs(conv))))


def irreducible_characters(group: FiniteGroup):
    """Characters of the built-in groups (cyclic of any order, S_3)."""
    n = group.order
    idx = np.arange(n)
    cyclic = cyclic_group(n)
    if np.array_equal(group.table, cyclic.table):
        return [np.exp(2j * np.pi * k * idx / n) for k in range(n)]
    if n == 6 and np.array_equal(group.table, symmetric_group(3).table):
        perms = _permutations(3)
        inversions = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2))
        # trivial, sign and standard: the sign is -1 per inversion, the standard character
        # counts fixed points less one
        return [np.ones(6, dtype=complex), ((-1) ** inversions).astype(complex),
                (np.sum(perms == np.arange(3), axis=1) - 1).astype(complex)]
    raise ValueError("irreducible characters are built in only for Z_n and S_3 tables")
