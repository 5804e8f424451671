"""Gaussian states over a finite-dimensional real inner-product space.

The space Q = R^n carries an SPD Gram matrix and an invertible operator K;
the generating function exp(-M_K(q)/2) with M_K(q) = <K^-1 q | K^-1 q>
determines all moments (Wick pairings), the translation quasi-invariance
cocycle of the underlying Gaussian measure, and a truncated Fock realization
of the ladder operators.  Infinite-mode statements (the trace criterion for
equivalence with the Fock state) are handled through declared eigenvalue
sequence models, never by numerical truncation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ShapeMismatchError
from .series import SeriesVerdict, p_series_verdict

COND_LIMIT = 1e12           # CcrSpace rejects K with a larger condition number
FOCK_BASIS_LIMIT = 5000     # largest truncated Fock basis FockTruncation enumerates
GRAM_SYMMETRY_TOL = 1e-12   # CcrSpace: entrywise |G - G^T| relative to max(1, max |G|)
ORACLE_STEP = 0.25          # moment_oracle: coarsest stencil step on unit K^-1-images
ORACLE_LEVELS = 5           # moment_oracle: stencils, halving the step each time


def pair_partitions(m: int):
    """All partitions of {0..m-1} into ordered pairs (i < j), deterministic order.

    Yields lists of (m//2) pairs; there are (m-1)!! of them for even m.
    """
    for partition in _pairings(m).tolist():
        yield [tuple(pair) for pair in partition]


@functools.lru_cache(maxsize=None)
def _pairings(m: int) -> np.ndarray:
    """The partitions of :func:`pair_partitions` as a ((m-1)!!, m//2, 2) index array.

    0 is paired with each p in turn, ahead of the pairings of the rest, which
    are those of m - 2 relabelled onto the elements left.  The array takes
    (m-1)!! m 8 bytes and is kept for the life of the process: 15 rows at
    m = 6, the highest order a scenario asks for, and 260 MB at m = 16.
    """
    if m % 2:
        return np.zeros((0, m // 2, 2), dtype=np.intp)
    parts = np.zeros((1, 0, 2), dtype=np.intp)
    for size in range(2, m + 1, 2):
        blocks = []
        for p in range(1, size):
            head = np.broadcast_to(np.array([0, p]), (len(parts), 1, 2))
            blocks.append(np.concatenate([head, np.delete(np.arange(size), [0, p])[parts]], axis=1))
        parts = np.concatenate(blocks)
    parts.flags.writeable = False       # shared by every caller through the cache
    return parts


@functools.lru_cache(maxsize=None)
def _stencil_signs(m: int):
    """The 2^m sign vectors of the mixed central difference and their parities."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    parity = np.prod(signs, axis=1)
    signs.flags.writeable = parity.flags.writeable = False
    return signs, parity


class CcrSpace:
    """R^n with SPD Gram matrix and invertible covariance operator K; S = K K*.

    The adjoint in S is taken with respect to the Gram inner product
    (K* = G^-1 K^T G), which reduces to the plain transpose for the identity
    Gram and is exactly what the quasi-invariance cocycle law requires.
    """

    def __init__(self, gram, k_op):
        gram = np.asarray(gram, dtype=float)
        k_op = np.asarray(k_op, dtype=float)
        n = gram.shape[0]
        if gram.shape != (n, n) or k_op.shape != (n, n):
            raise ShapeMismatchError("gram and K must be square of the same size")
        if np.max(np.abs(gram - gram.T)) > GRAM_SYMMETRY_TOL * max(1.0, float(np.max(np.abs(gram)))):
            raise ValueError("gram matrix must be symmetric")
        lam = np.linalg.eigvalsh(gram)
        if lam[0] <= 0.0:
            raise ValueError(f"gram matrix must be positive definite (min eigenvalue {lam[0]:.3e})")
        cond = float(np.linalg.cond(k_op))
        if cond > COND_LIMIT:
            raise ValueError("operator K is numerically singular")
        self.n = n
        self.k_condition_number = cond
        self.gram = gram
        self.k_op = k_op
        with np.errstate(over="ignore", invalid="ignore"):
            self.k_inv = np.linalg.inv(k_op)
            self.s_op = k_op @ np.linalg.inv(gram) @ k_op.T @ gram
            self.covariance = self.k_inv.T @ gram @ self.k_inv
        if not all(np.isfinite(a).all() for a in (self.s_op, self.k_inv, self.covariance)):
            raise ValueError("S = K K*, K^-1 or the covariance leaves double range")
        self._chol = np.linalg.cholesky(gram)

    def inner(self, q, r) -> float:
        return float(np.asarray(q) @ self.gram @ np.asarray(r))

    def gram_image(self, q) -> np.ndarray:
        """Dual coordinates of u_q, defined by <r, u_q> = <r | q>; q may be a stack."""
        return np.asarray(q, dtype=float) @ self.gram.T

    def mode_coefficients(self, q) -> np.ndarray:
        """Expansion of q (or of each vector of a stack) in the Gram-orthonormal mode basis."""
        return self._check_vector(q, stack=True) @ self._chol

    def _check_vector(self, q, stack: bool = False) -> np.ndarray:
        """q as floats: one vector of length n, or with ``stack`` any stack of them."""
        q = np.asarray(q, dtype=float)
        if q.shape[-1:] != (self.n,) or (q.ndim != 1 and not stack):
            raise ShapeMismatchError(f"vector of shape {q.shape} does not match dimension {self.n}")
        return q


def _moment_images(space: CcrSpace, args: Sequence, index):
    """K^-1 images of ``args``, one per vector, and the (c, m) multi-index array over them.

    Without ``index`` the table is the one moment of ``args`` in order.
    """
    images = [space.k_inv @ space._check_vector(q) for q in args]
    if index is None:
        return images, np.arange(len(images))[None]
    index = np.asarray(index)
    if index.ndim != 2 or (index.size and index.dtype.kind not in "iu"):
        raise ShapeMismatchError(f"multi-indices must be a (count, order) integer array, "
                                 f"not of shape {index.shape}")
    if index.size and not 0 <= index.min() <= index.max() < len(images):
        raise ValueError(f"multi-index entries must lie in [0, {len(images)})")
    return images, index.astype(np.intp)


def _moment_result(values: np.ndarray, index):
    return float(values[0]) if index is None else values


def wick_moment(space: CcrSpace, args: Sequence, index=None):
    """Gaussian moment <phi(q_1) ... phi(q_m)> by pair-partition enumeration.

    Odd m vanishes; even m sums the product of two-point values over all
    (m-1)!! pairings, left to right from 0.0.  Each two-point value
    <K^-1 q | K^-1 r> is taken from the images K^-1 q and (K^-1 q) G of each
    vector, computed once.

    With a (c, m) integer array ``index`` the call returns the c moments
    <phi(args[index[r, 0]]) ... phi(args[index[r, m-1]])>, with the same
    arithmetic as c separate calls; without it, the float for ``args``.
    """
    images, table_index = _moment_images(space, args, index)
    count, m = table_index.shape
    if m % 2 == 1:
        return _moment_result(np.zeros(count), index)
    if m == 0:
        return _moment_result(np.ones(count), index)
    pair = np.zeros((len(images), len(images)))
    for a, row in enumerate(w @ space.gram for w in images):
        for b, w in enumerate(images):
            pair[a, b] = row @ w
    parts = _pairings(m)
    prods = np.prod(pair[table_index[:, parts[..., 0]], table_index[:, parts[..., 1]]], axis=-1)
    total = np.zeros(count)
    for column in prods.T:
        total = total + column
    return _moment_result(total, index)


def moment_oracle(space: CcrSpace, args: Sequence, index=None):
    """Moments from mixed central differences of the generating function.

    Independent of :func:`wick_moment`: evaluates
    i^-m d^m/dalpha_1..dalpha_m  Z(sum alpha_i q_i) at alpha = 0 on a
    2^m stencil with ``ORACLE_LEVELS`` Richardson eliminations.  Arguments are
    normalized to unit K^-1-image (moments are multilinear) so the step is
    scale-free; a moment with an argument of zero image is 0.0.  Limited to
    m <= 6; beyond that step noise dominates.

    Every step h = ORACLE_STEP / 2^j is a power of two, so scaling the stencil
    points by h is exact and the exponent -<x|x>/2 at step h is h^2 times the
    one at step 1, bit for bit (barring underflow): the quadratic form is
    evaluated once and every level takes its exponentials from it.

    ``index`` selects a table of moments as in :func:`wick_moment`; each
    vector is normalized once and each row of the table is evaluated with the
    arithmetic of a separate call.
    """
    images, table_index = _moment_images(space, args, index)
    count, m = table_index.shape
    if m > 6:
        raise NumericalError("moment_oracle supports at most 6 arguments")
    if m == 0:
        return _moment_result(np.ones(count), index)
    if m % 2 == 1:   # the symmetric stencil cancels identically on even Z
        return _moment_result(np.zeros(count), index)
    norms = np.array([math.sqrt(float(w @ space.gram @ w)) for w in images])
    zero = norms == 0.0
    unit = np.reshape(images, (len(images), space.n)) / np.where(zero, 1.0, norms)[:, None]
    signs, parity = _stencil_signs(m)
    # evaluate Z on the summed vectors directly; no pair-value sharing with
    # the partition enumerator
    combos = signs @ unit[table_index]
    exponent = -0.5 * np.einsum("cki,ij,ckj->ck", combos, space.gram, combos)
    steps = (ORACLE_STEP / 2.0 ** np.arange(ORACLE_LEVELS)).tolist()
    terms = parity * np.expm1(np.square(steps)[:, None, None] * exponent)
    values = [np.array([math.fsum(row) for row in level.tolist()]) / (2.0 * h) ** m
              for level, h in zip(terms, steps)]
    for level in range(1, ORACLE_LEVELS):
        factor = 4.0 ** level
        values = [
            (factor * values[i + 1] - values[i]) / (factor - 1.0)
            for i in range(len(values) - 1)
        ]
    moments = values[0] * (-1.0) ** (m // 2) * np.prod(norms[table_index], axis=1)
    moments[np.any(zero[table_index], axis=1)] = 0.0
    return _moment_result(moments, index)


def quasi_invariance_exponent(space: CcrSpace, q, u):
    """log a_K(q, u) = -M_K(Sq)/4 - <Sq, u>/2, finite where the factor leaves double range.

    q and u may be stacks of vectors as in :func:`quasi_invariance_factor`.
    """
    q = space._check_vector(q, stack=True)
    u = space._check_vector(u, stack=True)
    sq = q @ space.s_op.T
    w = sq @ space.k_inv.T
    value = -0.25 * np.sum((w @ space.gram) * w, axis=-1) - 0.5 * np.sum(sq * u, axis=-1)
    return float(value) if value.ndim == 0 else value


def quasi_invariance_factor(space: CcrSpace, q, u):
    """Radon-Nikodym square root a_K(q, u) = exp(-M_K(Sq)/4 - <Sq, u>/2).

    Satisfies a(0, u) = 1 and the cocycle law
    a(q + q', u) = a(q, u) * a(q', u + u_q) with u_q the Gram image of q.
    q and u may be stacks of vectors along leading axes (last axis n); the
    factors come back in their broadcast shape, a float for two vectors.
    """
    value = np.exp(quasi_invariance_exponent(space, q, u))
    return float(value) if value.ndim == 0 else value


class FockTruncation:
    """Ladder operators on occupation tuples with total occupation <= n_max.

    Creation entries that would leave the truncation are dropped, so the
    canonical commutator holds exactly on the protected subspace of total
    occupation <= n_max - 1 and the vacuum is annihilated exactly.

    ``occupations`` is the (dim, n) integer array of the basis tuples in
    (total, lexicographic) order.  No ladder matrix is stored.  Mode m's
    creation operator a+(e_m) has one entry per column j, sqrt(occ_j[m] + 1)
    in row ``raise_rows[m, j]`` (``raise_values[m, j]``; the row is -1 where
    the raised tuple leaves the truncation), and a-(e_m) is its transpose, so
    ``lower_rows`` inverts ``raise_rows``.  These (n, dim) arrays take O(n dim)
    memory; :meth:`commutator_defect` reads each of its O(n^2 dim) entries
    off them, one mode at a time and without sorting or merging, and
    :meth:`a_minus_action` is one matrix product over them.  :meth:`a_plus`
    and :meth:`a_minus` build dense dim x dim
    matrices from them on request.  The basis size C(n + n_max, n) is checked
    against ``FOCK_BASIS_LIMIT`` before any tuple is enumerated.

    The basis is built with arrays, one mode at a time, and each raised
    tuple's row is its rank: with R_i = s - t_0 - ... - t_{i-1} for a tuple t
    of total s and k_i = n - 1 - i, the tuples of total s that precede t
    lexicographically number sum_i C(R_i + k_i, k_i) - C(R_{i+1} + k_i, k_i),
    and C(n + s - 1, n) tuples have a smaller total.
    """

    def __init__(self, space: CcrSpace, n_max: int):
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        n = space.n
        size = math.comb(n + int(n_max), n)
        if size > FOCK_BASIS_LIMIT:
            raise NumericalError(f"truncated basis of size {size} exceeds limit {FOCK_BASIS_LIMIT}")
        self.space = space
        self.n_max = top = int(n_max)
        self.dim = size
        # count[b, r] = C(b + r, r): the r-mode tuples of total <= b
        count = np.array([[math.comb(b + r, r) for r in range(n + 1)] for b in range(top + 1)])
        # lexicographic order over all totals: a prefix of the first i modes
        # that leaves budget b spans count[b, n - i] rows, split by t_i = 0..b
        occ = np.empty((n, size), dtype=np.intp)
        budget = np.array([top])
        for i in range(n):
            spans = budget + 1
            digit = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans, spans)
            budget = np.repeat(budget, spans) - digit
            occ[i] = np.repeat(digit, count[budget, n - 1 - i])
        order = np.argsort(top - budget, kind="stable")
        occ = occ[:, order]
        self.occupations = occ.T
        self.raise_values = np.sqrt(occ + 1.0)
        # rank t + e_m for every protected tuple t and mode m: the terms of the
        # sum over i are those of t shifted by one budget unit for i < m, mixed
        # at i = m and those of t itself for i > m
        prot = self.protected_indices()
        total = (top - budget[order])[prot]
        rem = total - np.concatenate([np.zeros((1, len(prot)), dtype=np.intp),
                                      np.cumsum(occ[:, prot], axis=0)])
        k = np.arange(n - 1, -1, -1)[:, None]
        before = count[rem[:-1] + 1, k] - count[rem[1:] + 1, k]
        after = count[rem[:-1], k] - count[rem[1:], k]
        at = count[rem[:-1] + 1, k] - count[rem[1:], k]
        raised = (count[total, n] + np.cumsum(before, axis=0) - before + at
                  + np.sum(after, axis=0) - np.cumsum(after, axis=0))
        self.raise_rows = np.full((n, size), -1, dtype=np.intp)
        self.raise_rows[:, prot] = raised
        self.lower_rows = np.full((n, size), -1, dtype=np.intp)
        self.lower_rows[np.arange(n)[:, None], raised] = prot

    def _ladder(self, q, transpose: bool) -> np.ndarray:
        c = self.space.mode_coefficients(q)
        out = np.zeros((self.dim, self.dim))
        cols = np.arange(self.dim)
        for ck, rows, vals in zip(c, self.raise_rows, self.raise_values):
            keep = rows >= 0
            at = (cols[keep], rows[keep]) if transpose else (rows[keep], cols[keep])
            out[at] = ck * vals[keep]
        return out

    def a_plus(self, q) -> np.ndarray:
        return self._ladder(q, transpose=False)

    def a_minus(self, q) -> np.ndarray:
        return self._ladder(q, transpose=True)

    def a_minus_action(self, q, v) -> np.ndarray:
        """a-(q) v, read off the ladder arrays: (a-(e_m) v)_j = sqrt(occ_j[m] + 1) v[raise_m(j)].

        A stack of vectors q (last axis n) gives the stack of their actions.
        """
        v = np.asarray(v)
        lowered = np.where(self.raise_rows >= 0, self.raise_values * v[self.raise_rows], 0.0)
        return self.space.mode_coefficients(q) @ lowered

    def commutator_defect(self, q, qp) -> float:
        """max |[a-(q), a+(q')] - <q, q'> I| over the protected rows and columns.

        Both products keep the total occupation, so the protected columns map
        into the protected rows.  Mode pair (m, m') sends column j to row
        j - e_m + e_m' through a-(e_m) a+(e_m') and through a+(e_m') a-(e_m),
        both present exactly where occ_j[m] >= 1 (the first product always is
        for m = m').  For m != m' no other pair or column reaches that row, so
        no entries need merging: an off-diagonal entry is the sum of its two
        products, and the diagonal entry of j adds the m = m' products to 0,
        m ascending and the first product ahead of the second.  Each entry is
        the sum a merge of all products in (m, m', product) order gives, bit
        for bit.
        """
        c = self.space.mode_coefficients(q)
        cp = self.space.mode_coefficients(qp)
        prot = self.protected_indices()
        up = self.raise_rows[:, prot]                     # row m': j raised by m' (always inside)
        up_values = cp[:, None] * self.raise_values[:, prot]
        modes = np.arange(self.space.n)
        diagonal = np.zeros(len(prot))
        entries = [diagonal]
        for m in modes:
            # a-(e_m) a+(e_m'): raise j by m' to k, lower k by m
            first = (c[m] * self.raise_values[m, self.lower_rows[m, up]]) * up_values
            # a+(e_m') a-(e_m): lower j by m to k, raise k by m' (inside again)
            k = self.lower_rows[m, prot]
            second = -(cp[:, None] * self.raise_values[:, k]) * (c[m] * self.raise_values[m, k])
            present = k >= 0
            diagonal += first[m]
            np.add(diagonal, second[m], out=diagonal, where=present)
            off = (modes != m)[:, None] & present
            entries.append(first[off] + second[off])
        diagonal -= self.space.inner(q, qp)
        return float(np.max(np.abs(np.concatenate(entries))))

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim)
        v[0] = 1.0
        return v

    def protected_indices(self) -> np.ndarray:
        """Basis indices with total occupation <= n_max - 1 (a prefix of the basis order)."""
        return np.arange(math.comb(self.space.n + self.n_max - 1, self.space.n))


def build_fock_operators(space: CcrSpace, n_max: int = 8) -> FockTruncation:
    """Truncated Fock realization of the ladder operators over ``space``."""
    return FockTruncation(space, n_max)


@dataclass(frozen=True)
class ConstantEigenvalues:
    """S has constant spectrum s; Fock case is s = 2."""
    value: float


@dataclass(frozen=True)
class PowerTailEigenvalues:
    """s_k = 2 + amplitude * k^-exponent, tending to the Fock value 2."""
    amplitude: float
    exponent: float


@dataclass(frozen=True)
class FiniteEigenvalues:
    """Finitely many modes; all finite-dimensional Gaussian states are equivalent."""
    values: tuple


def gaussian_equivalence_verdict(model) -> SeriesVerdict:
    """Trace criterion sum_k |1 - s_k / 2| for equivalence with the Fock state.

    ``convergent`` means equivalent-to-Fock, ``divergent`` inequivalent; the
    verdict is argued from the declared model alone, with no partial sum.
    """
    if isinstance(model, FiniteEigenvalues):
        return SeriesVerdict(
            "convergent", "finite-dimensional: finitely many terms, all Gaussian states equivalent",
        )
    if isinstance(model, ConstantEigenvalues):
        defect = abs(1.0 - model.value / 2.0)
        if defect == 0.0:
            return SeriesVerdict("convergent", "spectrum identically 2: every term vanishes")
        return SeriesVerdict(
            "divergent", f"constant defect |1 - s/2| = {defect:g} > 0 diverges linearly",
        )
    if isinstance(model, PowerTailEigenvalues):
        if model.amplitude == 0.0:
            return SeriesVerdict("convergent", "spectrum identically 2: every term vanishes")
        terms = f"{abs(model.amplitude) / 2:g} k^-{model.exponent:g}"
        return p_series_verdict(model.exponent, f"trace criterion terms |1 - s_k/2| = {terms}")
    return SeriesVerdict("undecided", "unmodeled eigenvalue sequence")
