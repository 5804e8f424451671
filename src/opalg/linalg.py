"""Dense linear-algebra helpers: rank-revealing quotients, phase pinning, unitary completion.

Everything here is deterministic: eigen/singular decompositions are taken in
a fixed order and eigenvector phases are pinned, so repeated runs produce
bit-identical matrices.
"""

from __future__ import annotations

import numpy as np

PSD_TOL = 1e-10           # relative allowance for negative eigenvalues of a PSD matrix
GRAM_REL_CUT = 1e-12      # eigenvalues up to size * GRAM_REL_CUT * top are null directions
PHASE_PIVOT_TOL = 1e-12   # fix_global_phase skips entries up to this magnitude
COMPLETION_NORM_TOL = 1e-8   # orthonormal_completion drops candidates with a smaller residual norm


def hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values (trace norm)."""
    return float(np.linalg.svd(m, compute_uv=False).sum())


def block_diag(mats) -> np.ndarray:
    """Place (possibly rectangular or empty) blocks along the diagonal."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)), dtype=complex)
    row = col = 0
    for m in mats:
        out[row:row + m.shape[0], col:col + m.shape[1]] = m
        row += m.shape[0]
        col += m.shape[1]
    return out


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vectors.copy()
    for k, idx in enumerate(np.argmax(np.abs(vectors), axis=0)):
        pivot = vectors[idx, k]
        if abs(pivot) > 0.0:
            out[:, k] = vectors[:, k] * (abs(pivot) / pivot)
    return out


def cut_spectra(spectra, size: int) -> list:
    """The pair (V, lam) of each ``eigh`` pair (lam, vec) of a PSD matrix above one joint rank cut.

    ``V`` holds the kept eigenvectors, largest eigenvalue first, each pinned
    by :func:`fix_phases`, so V diag(lam) V* is the matrix above the cut.
    With ``top`` the largest eigenvalue of all the matrices, eigenvalues at
    most ``size * GRAM_REL_CUT * top`` count as null directions; positivity
    is the caller's rule.
    """
    top = max(float(lam[-1]) for lam, _ in spectra)
    cut = size * GRAM_REL_CUT * max(top, 0.0)
    out = []
    for lam, vec in spectra:
        keep = lam > cut
        out.append((fix_phases(vec[:, keep][:, ::-1]), lam[keep][::-1]))
    return out


def gram_quotient(spectrum):
    """Orthonormal coordinates for the quotient by the null space of a PSD Gram.

    Returns ``(T, T_pinv, rank)`` where ``T`` maps raw coordinates to an
    orthonormal basis of the quotient ( ``y^H (T b)^H (T a) y`` reproduces the
    Gram pairing ) and ``T_pinv`` is its Moore-Penrose inverse; ``spectrum``,
    the ``eigh`` pair of the Gram, is cut by :func:`cut_spectra` with ``size`` its order.
    """
    [(vec, lam)] = cut_spectra([spectrum], len(spectrum[0]))
    scale = np.sqrt(lam)
    t = scale[:, None] * vec.conj().T
    t_pinv = vec * (1.0 / scale)[None, :]
    return t, t_pinv, int(scale.size)


def fix_global_phase(m: np.ndarray) -> np.ndarray:
    """Scale a matrix by a unit phase so its first entry above ``PHASE_PIVOT_TOL``,
    scanned column by column, is real positive."""
    flat = m.T.reshape(-1)
    for entry in flat:
        if abs(entry) > PHASE_PIVOT_TOL:
            return m * (abs(entry) / entry)
    return m


def orthonormal_completion(vectors: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis, deterministically.

    Canonical basis vectors are projected and fed through modified
    Gram-Schmidt in index order, so completing ``e_1`` in C^n returns exactly
    ``e_2, ..., e_n``.
    """
    n = vectors.shape[0]
    cols = [vectors[:, k] for k in range(vectors.shape[1])]
    for j in range(n):
        if len(cols) == n:
            break
        cand = np.zeros(n, dtype=complex)
        cand[j] = 1.0
        for c in cols:
            cand = cand - np.vdot(c, cand) * c
        norm = np.linalg.norm(cand)
        if norm > COMPLETION_NORM_TOL:
            cols.append(cand / norm)
    return np.stack(cols, axis=1)


def two_vector_unitary(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Deterministic unitary sending the unit vector ``source`` to ``target``."""
    source = np.asarray(source, dtype=complex)
    target = np.asarray(target, dtype=complex)
    basis_s = orthonormal_completion(source[:, None])
    basis_t = orthonormal_completion(target[:, None])
    return basis_t @ basis_s.conj().T
