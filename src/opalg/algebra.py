"""Finite-dimensional *-algebras, their elements, and states.

An algebra is a direct sum of full complex matrix blocks M_{n_1} + ... + M_{n_k}
with the conjugate-transpose involution; a state is one positive-semidefinite
density per block with total trace one.  Every finite-dimensional C*-algebra
is of this form, which keeps all the representation-theoretic criteria used
elsewhere in the package decidable by dense linear algebra.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

from .errors import InvalidStateError, ShapeMismatchError
from .linalg import PSD_TOL, hermitize, nuclear_norm

HERMITIAN_TOL = 1e-10   # is_hermitian: entrywise defect relative to max(1, norm)
UNITARY_TOL = 1e-12     # is_unitary: entrywise defect of u* u - I relative to max(1, n)
TRACE_TOL = 1e-8        # a state's densities have total trace 1 within this
DENSITY_HERMITIAN_TOL = 1e-8   # State: entrywise |d - d*| relative to max(1, total trace)


def _freeze(mat: np.ndarray) -> np.ndarray:
    mat = np.ascontiguousarray(mat)
    mat.setflags(write=False)
    return mat


class StarAlgebra:
    """Direct sum of full matrix blocks with entrywise conjugate-transpose involution."""

    def __init__(self, blocks):
        blocks = tuple(int(n) for n in blocks)
        if not blocks or any(n < 1 for n in blocks):
            raise ValueError(f"block dimensions must be positive integers, got {blocks}")
        self.blocks = blocks
        self._offsets = list(itertools.accumulate((n * n for n in blocks), initial=0))
        self._dim = self._offsets.pop()

    @property
    def dim(self) -> int:
        """Linear dimension, sum of squared block sizes."""
        return self._dim

    def __eq__(self, other):
        return isinstance(other, StarAlgebra) and other.blocks == self.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "StarAlgebra(" + " + ".join(f"M{n}" for n in self.blocks) + ")"

    def element(self, mats) -> "AlgebraElement":
        mats = tuple(np.asarray(m, dtype=complex) for m in mats)
        if len(mats) != len(self.blocks):
            raise ShapeMismatchError(f"expected {len(self.blocks)} blocks, got {len(mats)}")
        for m, n in zip(mats, self.blocks):
            if m.shape != (n, n):
                raise ShapeMismatchError(f"block of shape {m.shape} does not match M{n}")
        return AlgebraElement(self, mats)

    def identity(self) -> "AlgebraElement":
        return self.element([np.eye(n, dtype=complex) for n in self.blocks])

    def basis_element(self, index: int) -> "AlgebraElement":
        c = np.zeros(self._dim, dtype=complex)
        c[index] = 1.0
        return self.from_coords(c)

    def from_coords(self, c) -> "AlgebraElement":
        c = np.asarray(c, dtype=complex)
        mats = []
        for n, off in zip(self.blocks, self._offsets):
            mats.append(c[off:off + n * n].reshape(n, n))
        return self.element(mats)

    def random_element(self, rng, scale: float = 1.0) -> "AlgebraElement":
        return self.element([scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                             for n in self.blocks])

    def random_hermitian(self, rng, scale: float = 1.0) -> "AlgebraElement":
        a = self.random_element(rng, scale)
        return self.element([hermitize(m) for m in a.mats])


class AlgebraElement:
    """One matrix per block of the parent :class:`StarAlgebra`."""

    __slots__ = ("algebra", "mats")

    def __init__(self, algebra: StarAlgebra, mats):
        self.algebra = algebra
        self.mats = tuple(_freeze(m) for m in mats)

    def _check(self, other: "AlgebraElement"):
        if other.algebra != self.algebra:
            raise ShapeMismatchError("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.mats, other.mats)])

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.mats, other.mats)])

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.mats])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.algebra, [a @ b for a, b in zip(self.mats, other.mats)])
        return AlgebraElement(self.algebra, [other * a for a in self.mats])

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, [scalar * a for a in self.mats])

    @property
    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.conj().T for a in self.mats])

    def norm(self) -> float:
        return operator_norm(self)

    def is_hermitian(self) -> bool:
        bound = HERMITIAN_TOL * max(1.0, self.norm())
        return all(np.max(np.abs(m - m.conj().T)) <= bound for m in self.mats)

    def is_unitary(self) -> bool:
        return not unitarity_failures([m[None] for m in self.mats])[0]

    def __repr__(self):
        return f"AlgebraElement({self.algebra!r})"


def stack_blocks(elements) -> list:
    """The blocks of k elements of one algebra as one k x n_b x n_b stack per block."""
    return [np.array(mats) for mats in zip(*(e.mats for e in elements))]


def unitarity_failures(stacks) -> np.ndarray:
    """Whether each of k elements fails to be unitary, from their blocks as one k x n_b x n_b
    stack per block: some block has an entry of u* u - I past ``UNITARY_TOL * max(1, n_b)``."""
    return reduce(np.logical_or, [~(np.abs(s.conj().swapaxes(1, 2) @ s - np.eye(s.shape[-1]))
                                    .max(axis=(1, 2)) <= UNITARY_TOL * max(1.0, s.shape[-1]))
                                  for s in stacks])


def operator_norm(a: AlgebraElement) -> float:
    """C*-norm: the largest singular value over all blocks."""
    return max(float(np.linalg.norm(m, 2)) if m.size else 0.0 for m in a.mats)


class State:
    """Normalized positive functional, stored as one PSD density per block.

    Eigenvalues in ``[-PSD_TOL * trace_scale, 0)`` are treated as numerical
    zeros of the state cone; anything more negative raises
    :class:`InvalidStateError`.  ``spectra`` holds the pair (lam_b, V_b) each
    density is recomposed from, eigenvalues ascending and clipped at zero.
    """

    def __init__(self, algebra: StarAlgebra, densities):
        self.algebra = algebra
        densities = tuple(np.asarray(d, dtype=complex) for d in densities)
        if len(densities) != len(algebra.blocks):
            raise ShapeMismatchError("one density per block required")
        # the total trace is judged before the shapes; a density that is no matrix fails those
        traces = [d.trace() for d in densities if d.ndim == 2]
        total = sum(float(t.real) for t in traces)
        if abs(total - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"densities must be normalized: total trace {total:.6g} != 1")
        for d, n in zip(densities, algebra.blocks):
            if d.shape != (n, n):
                raise ShapeMismatchError(f"density of shape {d.shape} does not match M{n}")
        densities, self.spectra = self._validated(densities, sum(abs(t) for t in traces))
        self.densities = tuple(_freeze(d) for d in densities)

    @staticmethod
    def _validated(densities, scale):
        """The recomposed densities and their clipped spectra, each over the recomposed total
        trace; ``scale`` is the sum of the moduli of the given traces."""
        clean = []
        for d in densities:
            herm_defect = np.abs(d - d.conj().T).max()
            if herm_defect > DENSITY_HERMITIAN_TOL * max(scale, 1.0):
                raise InvalidStateError(f"density is not Hermitian (defect {herm_defect:.3e})")
            lam, vec = np.linalg.eigh(hermitize(d))
            if lam[0] < -PSD_TOL * max(scale, 1.0):
                raise InvalidStateError(
                    f"density eigenvalue {lam[0]:.3e} below -{PSD_TOL:.0e} * scale")
            lam = lam.clip(0.0, None)
            clean.append((lam, vec, (vec * lam[None, :]) @ vec.conj().T))
        # clipping moves the total by at most sum n_b * PSD_TOL * max(scale, 1)
        total = sum(float(d.trace().real) for _, _, d in clean)
        return ([d / total for _, _, d in clean],
                tuple((_freeze(lam / total), _freeze(vec)) for lam, vec, _ in clean))

    @classmethod
    def pure(cls, algebra: StarAlgebra, block: int, vector) -> "State":
        """Rank-one state |v><v| supported on a single block."""
        v = np.asarray(vector, dtype=complex)
        v = v / np.linalg.norm(v)
        dens = [np.zeros((n, n), dtype=complex) for n in algebra.blocks]
        dens[block] = np.outer(v, v.conj())
        return cls(algebra, dens)

    @classmethod
    def tracial(cls, algebra: StarAlgebra) -> "State":
        total = sum(algebra.blocks)
        return cls(algebra, [np.eye(n, dtype=complex) / total for n in algebra.blocks])

    def __call__(self, a: AlgebraElement) -> complex:
        return evaluate_state(self, a)

    def block_traces(self):
        return tuple(float(np.trace(d).real) for d in self.densities)

    def __repr__(self):
        return f"State(on {self.algebra!r}, block traces {self.block_traces()})"


def evaluate_state(f: State, a: AlgebraElement) -> complex:
    """f(a) = sum_b trace(rho_b a_b)."""
    if a.algebra != f.algebra:
        raise ShapeMismatchError("state and element live on different algebras")
    return complex(sum(np.trace(d @ m) for d, m in zip(f.densities, a.mats)))


def transport_residual(f: State, g: State, b: AlgebraElement) -> float:
    """max_k |g(e_k) - f(b* e_k b)| over the matrix units, in O(sum n_b^3).

    f(b* E_ij b) = trace(b rho_f b* E_ij) = (b rho_f b*)_ji, so the residual
    is the largest entry of rho_g,b - b_b rho_f,b b_b* over all blocks, and it
    vanishes exactly when g(a) = f(b* a b) for every a.
    """
    if not f.algebra == g.algebra == b.algebra:
        raise ShapeMismatchError("states and element live on different algebras")
    return max(float(np.abs(dg - m @ df @ m.conj().T).max())
               for df, dg, m in zip(f.densities, g.densities, b.mats))


def dual_norm_distance(f: State, g: State) -> float:
    """Dual norm of f - g, computed as the blockwise trace norm of the density difference.

    On a finite-dimensional C*-algebra this equals the sup definition
    sup_{|a|=1} |f(a) - g(a)|; states always land in [0, 2].
    """
    if f.algebra != g.algebra:
        raise ShapeMismatchError("states live on different algebras")
    return float(sum(nuclear_norm(a - b) for a, b in zip(f.densities, g.densities)))
